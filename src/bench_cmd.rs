//! `limit-repro bench`: the guest-instructions-per-second microbenchmark.
//!
//! Runs the mysqld workload twice — once under the legacy per-instruction
//! interpreter ([`ExecMode::SingleStep`]) and once under the block-stepped
//! fast path ([`ExecMode::Block`], the default) — and reports guest
//! instructions retired per wall-clock second for each, plus the speedup
//! ratio. Both runs execute the identical instrumented image, so the run
//! doubles as a differential check: the two [`RunReport`]s and retired
//! instruction totals must match exactly or the command fails.
//!
//! Results append to `BENCH_sim.json` (schema documented in
//! `docs/BENCH.md`). Absolute instr/s numbers are machine-dependent; the
//! *speedup ratio* is not, which is what `--check` compares against the
//! committed baseline (the file's first `exec` entry) for CI regression
//! gating.

use limit::LimitReader;
use sim_core::json::Json;
use sim_cpu::EventKind;
use sim_os::{ExecMode, KernelConfig, RunReport};
use workloads::mysqld::{self, MysqlConfig};

/// Options for one `bench` invocation.
pub struct BenchOptions {
    /// Queries per worker thread (scales run length; the default is long
    /// enough that wall times are stable on an idle machine).
    pub queries: u64,
    /// Entry label recorded in the JSON output.
    pub label: String,
    /// Results file to append to (empty disables writing).
    pub out: String,
    /// Fail if the measured ratio regresses >20% vs the file's first
    /// (committed baseline) entry of the same kind.
    pub check: bool,
    /// Which arms to run: `both` (default), `single`/`block` alone
    /// (profiling one interpreter; no file write, no differential gate),
    /// `fleet` (fleet throughput + jobs-scaling entry), `whatif`
    /// (what-if arm throughput + jobs-determinism gate), or `io`
    /// (I/O-bound logstore throughput + exec-mode differential gate).
    pub mode: String,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            queries: 2000,
            label: "local".to_string(),
            out: "BENCH_sim.json".to_string(),
            check: false,
            mode: "both".to_string(),
        }
    }
}

/// One measured arm: wall seconds and guest instructions retired.
struct Arm {
    report: RunReport,
    instrs: u64,
    secs: f64,
}

/// The counter set the instrumented workload reads (same as `stat`).
const EVENTS: [EventKind; 4] = [
    EventKind::Cycles,
    EventKind::Instructions,
    EventKind::LlcMisses,
    EventKind::BranchMisses,
];

const CORES: usize = 8;

fn run_arm(cfg: &MysqlConfig, exec: ExecMode) -> Result<Arm, String> {
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let kcfg = KernelConfig {
        exec,
        ..KernelConfig::default()
    };
    let started = std::time::Instant::now();
    let r = mysqld::run(cfg, &reader, CORES, &EVENTS, kcfg).map_err(|e| e.to_string())?;
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    Ok(Arm {
        instrs: r.session.kernel.machine.total_retired(),
        report: r.report,
        secs,
    })
}

/// Runs the benchmark, prints the table, appends to the results file, and
/// (with `--check`) gates on the committed baseline's speedup.
pub fn run(opts: &BenchOptions) -> Result<(), String> {
    if opts.mode == "fleet" {
        return run_fleet_bench(opts);
    }
    if opts.mode == "whatif" {
        return run_whatif_bench(opts);
    }
    if opts.mode == "io" {
        return run_io_bench(opts);
    }
    let cfg = MysqlConfig {
        queries_per_thread: opts.queries,
        ..MysqlConfig::default()
    };

    eprintln!(
        "[bench] mysqld: {} threads x {} queries on {CORES} cores, events {:?}",
        cfg.threads,
        cfg.queries_per_thread,
        EVENTS.map(EventKind::mnemonic)
    );
    match opts.mode.as_str() {
        "both" => {}
        // Single-arm runs are for profiling one interpreter in isolation:
        // report the throughput and stop.
        "single" | "block" => {
            let exec = if opts.mode == "block" {
                ExecMode::Block
            } else {
                ExecMode::SingleStep
            };
            let arm = run_arm(&cfg, exec)?;
            println!(
                "  {:<12}  {:>8.3} s   {:>8.2} Minstr/s",
                opts.mode,
                arm.secs,
                arm.instrs as f64 / arm.secs / 1e6
            );
            return Ok(());
        }
        other => {
            return Err(format!(
                "invalid --mode value {other:?} (both|single|block|fleet|whatif|io)"
            ))
        }
    }
    let single = run_arm(&cfg, ExecMode::SingleStep)?;
    let block = run_arm(&cfg, ExecMode::Block)?;

    // Differential gate: identical image, identical semantics required.
    if single.report != block.report || single.instrs != block.instrs {
        return Err(format!(
            "block-stepped run diverged from single-step: \
             instrs {} vs {}, reports {}equal",
            single.instrs,
            block.instrs,
            if single.report == block.report {
                ""
            } else {
                "un"
            }
        ));
    }

    let mips = |a: &Arm| a.instrs as f64 / a.secs / 1e6;
    let speedup = mips(&block) / mips(&single);
    println!(
        "guest instr/s, mysqld ({} guest instructions):",
        block.instrs
    );
    println!(
        "  single-step   {:>8.3} s   {:>8.2} Minstr/s",
        single.secs,
        mips(&single)
    );
    println!(
        "  block         {:>8.3} s   {:>8.2} Minstr/s",
        block.secs,
        mips(&block)
    );
    println!("  speedup       {speedup:>8.2}x");

    if !opts.out.is_empty() {
        append_entry(opts, &cfg, &single, &block, speedup)?;
    }
    if opts.check {
        check_baseline(&opts.out, "exec", "speedup", speedup)?;
    }
    Ok(())
}

/// `--mode fleet`: fleet throughput and host-parallel scaling.
///
/// Runs a small fixed fleet (96 mysqld instances, 2 threads × 25 queries
/// each — independent of `--queries`, which scales the interpreter
/// benchmark) once on 1 host job and once on 2, then:
///
/// * **hard determinism gate** — the two fleet aggregates and finding
///   sets must render byte-identically, or the command fails;
/// * reports instances/s and aggregate guest Minstr/s per arm;
/// * appends a `kind: "fleet"` entry; `--check` gates the jobs-2/jobs-1
///   *scaling ratio* at 80% of the committed first fleet entry (a ratio,
///   like the interpreter speedup gate, so it transfers across machines).
fn run_fleet_bench(opts: &BenchOptions) -> Result<(), String> {
    use fleet::{run_fleet, FleetConfig, EVENT_NAMES};

    const INSTANCES: usize = 96;
    let mk = |jobs: usize| FleetConfig {
        instances: INSTANCES,
        threads: 2,
        queries: 25,
        jobs,
        ..FleetConfig::default()
    };
    let measure = |jobs: usize| -> Result<(fleet::FleetReport, f64), String> {
        let started = std::time::Instant::now();
        let report = run_fleet(&mk(jobs), |_, _| {})?;
        Ok((report, started.elapsed().as_secs_f64().max(1e-9)))
    };

    eprintln!("[bench] fleet: {INSTANCES} x mysqld (2 threads x 25 queries), jobs 1 vs 2");
    let (r1, secs1) = measure(1)?;
    let (r2, secs2) = measure(2)?;

    // Determinism is the contract the whole fleet layer is built on; a
    // mismatch here is a bug, not a perf regression.
    let render = |r: &fleet::FleetReport| {
        let mut s = r.fleet.render(&EVENT_NAMES);
        for f in &r.findings {
            s.push_str(&f.to_string());
            s.push('\n');
        }
        s
    };
    if render(&r1) != render(&r2) {
        return Err(
            "fleet aggregate diverged between --jobs 1 and --jobs 2 — determinism bug".into(),
        );
    }

    let scaling = secs1 / secs2;
    let row = |label: &str, r: &fleet::FleetReport, secs: f64| {
        println!(
            "  {label:<12}  {secs:>8.3} s   {:>8.2} instances/s   {:>8.2} Minstr/s",
            INSTANCES as f64 / secs,
            r.total_instructions() as f64 / secs / 1e6
        );
    };
    println!("fleet throughput, {INSTANCES} instances (deterministic aggregate verified):");
    row("jobs=1", &r1, secs1);
    row("jobs=2", &r2, secs2);
    println!("  scaling       {scaling:>8.2}x");

    if !opts.out.is_empty() {
        append_fleet_entry(opts, &r1, secs1, secs2, scaling)?;
    }
    if opts.check {
        check_baseline(&opts.out, "fleet", "scaling", scaling)?;
    }
    Ok(())
}

/// `--mode whatif`: what-if arm throughput and host-parallel scaling.
///
/// Runs the E16 lock shape (memcached, 1 stripe, atomic-heavy critical
/// section; independent of `--queries`) once on 1 host job and once on
/// 4, then:
///
/// * **hard determinism gate** — the ranked causal table and the NDJSON
///   body must render byte-identically across jobs, or the command
///   fails (the engine's core contract);
/// * reports arms/s per arm;
/// * appends a `kind: "whatif"` entry; `--check` gates the jobs-4/jobs-1
///   *scaling ratio* at 80% of the committed first whatif entry (a
///   ratio, so it transfers across machines).
fn run_whatif_bench(opts: &BenchOptions) -> Result<(), String> {
    const QUERIES: u64 = 480;
    let measure = |jobs: usize| -> Result<(whatif::WhatifReport, f64), String> {
        let cfg = bench::e16::lock_config(QUERIES, jobs);
        let started = std::time::Instant::now();
        let report = whatif::run_whatif(&cfg, |_, _| {})?;
        Ok((report, started.elapsed().as_secs_f64().max(1e-9)))
    };

    eprintln!("[bench] whatif: E16 lock shape (memcached, {QUERIES} ops/worker), jobs 1 vs 4");
    let (r1, secs1) = measure(1)?;
    let (r4, secs4) = measure(4)?;

    // Byte-identical output across --jobs is the engine's contract; a
    // mismatch is a determinism bug, not a perf regression.
    let render =
        |r: &whatif::WhatifReport| format!("{}{}", r.render(), crate::whatif_cmd::render_ndjson(r));
    if render(&r1) != render(&r4) {
        return Err(
            "whatif report diverged between --jobs 1 and --jobs 4 — determinism bug".into(),
        );
    }

    let arms = (r1.arms.len() + 1) as f64; // baseline counts as an arm
    let scaling = secs1 / secs4;
    println!("whatif throughput, {arms:.0} arms (deterministic report verified):");
    println!(
        "  jobs=1        {secs1:>8.3} s   {:>8.2} arms/s",
        arms / secs1
    );
    println!(
        "  jobs=4        {secs4:>8.3} s   {:>8.2} arms/s",
        arms / secs4
    );
    println!("  scaling       {scaling:>8.2}x");

    if !opts.out.is_empty() {
        append_whatif_entry(opts, &r1, secs1, secs4, scaling)?;
    }
    if opts.check {
        check_baseline(&opts.out, "whatif", "scaling", scaling)?;
    }
    Ok(())
}

/// `--mode io`: I/O-bound workload throughput and the exec-mode
/// differential gate over the blocking-I/O model.
///
/// Runs the fsync-bound logstore (4 threads × 1000 commits; independent of
/// `--queries`) once single-stepped and once block-stepped, then:
///
/// * **hard differential gate** — both [`RunReport`]s (including
///   `io_submits` and `io_wait_cycles`) and retired instruction totals
///   must match exactly, so block stepping can never change what the
///   device queues observe;
/// * reports wall seconds and guest fsyncs/s per arm (an I/O-bound run
///   retires few instructions — the interesting rate is commits);
/// * appends a `kind: "io"` entry; `--check` gates the block/single
///   *speedup ratio* at 80% of the committed first io entry (a ratio, so
///   it transfers across machines).
fn run_io_bench(opts: &BenchOptions) -> Result<(), String> {
    use workloads::logstore::{self, LogstoreConfig};

    let cfg = LogstoreConfig {
        commits_per_thread: 1000,
        ..LogstoreConfig::default()
    };
    let measure = |exec: ExecMode| -> Result<Arm, String> {
        let reader = LimitReader::with_events(EVENTS.to_vec());
        let kcfg = KernelConfig {
            exec,
            ..KernelConfig::default()
        };
        let started = std::time::Instant::now();
        let r = logstore::run(&cfg, &reader, CORES, &EVENTS, kcfg).map_err(|e| e.to_string())?;
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        Ok(Arm {
            instrs: r.session.kernel.machine.total_retired(),
            report: r.report,
            secs,
        })
    };

    eprintln!(
        "[bench] io: logstore, {} threads x {} commits on {CORES} cores",
        cfg.threads, cfg.commits_per_thread
    );
    let single = measure(ExecMode::SingleStep)?;
    let block = measure(ExecMode::Block)?;

    // The I/O model's exec-mode contract: blocked threads, device queues
    // and wait accounting must be invisible to the stepping strategy.
    if single.report != block.report || single.instrs != block.instrs {
        return Err(format!(
            "block-stepped io run diverged from single-step: \
             io_submits {} vs {}, io_wait_cycles {} vs {}, instrs {} vs {}",
            single.report.io_submits,
            block.report.io_submits,
            single.report.io_wait_cycles,
            block.report.io_wait_cycles,
            single.instrs,
            block.instrs
        ));
    }

    let fsyncs = cfg.threads as u64 * cfg.commits_per_thread;
    let speedup = (block.instrs as f64 / block.secs) / (single.instrs as f64 / single.secs);
    println!(
        "io-bound throughput, logstore ({} fsyncs, {} io waits, {} wait cycles):",
        fsyncs, single.report.io_submits, single.report.io_wait_cycles
    );
    println!(
        "  single-step   {:>8.3} s   {:>8.2} fsyncs/s",
        single.secs,
        fsyncs as f64 / single.secs
    );
    println!(
        "  block         {:>8.3} s   {:>8.2} fsyncs/s",
        block.secs,
        fsyncs as f64 / block.secs
    );
    println!("  speedup       {speedup:>8.2}x");

    if !opts.out.is_empty() {
        append_io_entry(opts, &cfg, &single, &block, speedup)?;
    }
    if opts.check {
        check_baseline(&opts.out, "io", "speedup", speedup)?;
    }
    Ok(())
}

fn append_io_entry(
    opts: &BenchOptions,
    cfg: &workloads::logstore::LogstoreConfig,
    single: &Arm,
    block: &Arm,
    speedup: f64,
) -> Result<(), String> {
    let arm = |a: &Arm| {
        Json::object()
            .set("wall_s", a.secs)
            .set("minstr_per_s", a.instrs as f64 / a.secs / 1e6)
    };
    let entry = Json::object()
        .set("kind", "io")
        .set("label", opts.label.as_str())
        .set("workload", "logstore")
        .set("threads", cfg.threads as u64)
        .set("commits_per_thread", cfg.commits_per_thread)
        .set("guest_instrs", single.instrs)
        .set("io_submits", single.report.io_submits)
        .set("io_wait_cycles", single.report.io_wait_cycles)
        .set("single_step", arm(single))
        .set("block", arm(block))
        .set("speedup", speedup);
    append_raw_entry(&opts.out, entry)?;
    eprintln!("[bench] appended io entry {:?} to {}", opts.label, opts.out);
    Ok(())
}

fn append_whatif_entry(
    opts: &BenchOptions,
    r1: &whatif::WhatifReport,
    secs1: f64,
    secs4: f64,
    scaling: f64,
) -> Result<(), String> {
    let arms = (r1.arms.len() + 1) as u64;
    let arm = |secs: f64| {
        Json::object()
            .set("wall_s", secs)
            .set("arms_per_s", arms as f64 / secs)
    };
    let entry = Json::object()
        .set("kind", "whatif")
        .set("label", opts.label.as_str())
        .set("workload", r1.workload)
        .set("arms", arms)
        .set("regions", r1.regions.len() as u64)
        .set("jobs1", arm(secs1))
        .set("jobs4", arm(secs4))
        .set("scaling", scaling);
    append_raw_entry(&opts.out, entry)?;
    eprintln!(
        "[bench] appended whatif entry {:?} to {}",
        opts.label, opts.out
    );
    Ok(())
}

fn append_fleet_entry(
    opts: &BenchOptions,
    r1: &fleet::FleetReport,
    secs1: f64,
    secs2: f64,
    scaling: f64,
) -> Result<(), String> {
    let instances = r1.instances.len() as u64;
    let arm = |secs: f64| {
        Json::object()
            .set("wall_s", secs)
            .set("instances_per_s", instances as f64 / secs)
    };
    let entry = Json::object()
        .set("kind", "fleet")
        .set("label", opts.label.as_str())
        .set("workload", "mysqld")
        .set("instances", instances)
        .set("guest_instrs", r1.total_instructions())
        .set("jobs1", arm(secs1))
        .set("jobs2", arm(secs2))
        .set("scaling", scaling);
    append_raw_entry(&opts.out, entry)?;
    eprintln!(
        "[bench] appended fleet entry {:?} to {}",
        opts.label, opts.out
    );
    Ok(())
}

fn entry_json(
    opts: &BenchOptions,
    cfg: &MysqlConfig,
    single: &Arm,
    block: &Arm,
    speedup: f64,
) -> Json {
    let arm = |a: &Arm| {
        Json::object()
            .set("wall_s", a.secs)
            .set("minstr_per_s", a.instrs as f64 / a.secs / 1e6)
    };
    Json::object()
        .set("kind", "exec")
        .set("label", opts.label.as_str())
        .set("workload", "mysqld")
        .set("threads", cfg.threads as u64)
        .set("queries_per_thread", cfg.queries_per_thread)
        .set("cores", CORES as u64)
        .set("guest_instrs", single.instrs)
        .set("single_step", arm(single))
        .set("block", arm(block))
        .set("speedup", speedup)
}

/// Appends one entry to the results file, creating it if needed. The file
/// is `{schema, entries: [...]}`; the first entry of each kind is the
/// committed baseline that `--check` compares against.
fn append_entry(
    opts: &BenchOptions,
    cfg: &MysqlConfig,
    single: &Arm,
    block: &Arm,
    speedup: f64,
) -> Result<(), String> {
    append_raw_entry(&opts.out, entry_json(opts, cfg, single, block, speedup))?;
    eprintln!("[bench] appended entry {:?} to {}", opts.label, opts.out);
    Ok(())
}

/// Appends one entry to the results file, creating it if needed.
fn append_raw_entry(out: &str, entry: Json) -> Result<(), String> {
    let mut entries: Vec<Json> = match std::fs::read_to_string(out) {
        Ok(text) => Json::parse(&text)
            .map_err(|e| format!("{out}: {e}"))?
            .get("entries")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .unwrap_or_default(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{out}: {e}")),
    };
    entries.push(entry);
    let doc = Json::object()
        .set("schema", 1u64)
        .set("entries", Json::Array(entries));
    std::fs::write(out, doc.pretty()).map_err(|e| format!("{out}: {e}"))
}

/// Fails if this run's `field` fell more than 20% below the committed
/// baseline's: the file's first entry of `kind`, where an entry without a
/// `kind` counts as `exec` (the original interpreter baseline predates the
/// field). Ratios, not absolute rates: CI machines vary in clock speed,
/// but block/single and jobs-scaling ratios transfer.
fn check_baseline(out: &str, kind: &str, field: &str, measured: f64) -> Result<(), String> {
    let text = std::fs::read_to_string(out).map_err(|e| format!("{out}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{out}: {e}"))?;
    let baseline = doc
        .get("entries")
        .and_then(Json::as_array)
        .and_then(|entries| {
            entries
                .iter()
                .find(|e| e.get("kind").map_or(Some("exec"), Json::as_str) == Some(kind))
        })
        .and_then(|e| e.get(field))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{out}: no baseline {kind} entry with a {field} field"))?;
    let floor = baseline * 0.8;
    if measured < floor {
        return Err(format!(
            "{kind} {field} regression: measured {measured:.2}x < {floor:.2}x \
             (80% of committed baseline {baseline:.2}x)"
        ));
    }
    eprintln!(
        "[bench] {kind} check ok: {measured:.2}x >= {floor:.2}x (80% of baseline {baseline:.2}x)"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_file(name: &str, body: &str) -> String {
        let path = std::env::temp_dir().join(format!("limit-repro-{name}-{}", std::process::id()));
        std::fs::write(&path, body).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn baseline_is_the_first_entry_of_its_kind() {
        let out = doc_file(
            "baselines",
            r#"{"schema": 1, "entries": [
                {"label": "seed", "speedup": 2.0},
                {"kind": "io", "label": "io", "speedup": 5.0},
                {"kind": "exec", "label": "later", "speedup": 3.0}
            ]}"#,
        );
        // The kind-less first entry is the exec baseline: floor 1.6, not 2.4.
        let exec_ok = check_baseline(&out, "exec", "speedup", 1.7);
        let exec_low = check_baseline(&out, "exec", "speedup", 1.5);
        let io_low = check_baseline(&out, "io", "speedup", 3.9);
        let io_ok = check_baseline(&out, "io", "speedup", 4.1);
        std::fs::remove_file(&out).unwrap();
        assert!(exec_ok.is_ok());
        assert!(exec_low.is_err());
        assert!(io_low.is_err());
        assert!(io_ok.is_ok());
    }

    #[test]
    fn missing_baseline_is_an_error() {
        let out = doc_file(
            "no-fleet-baseline",
            r#"{"schema": 1, "entries": [{"kind": "io", "speedup": 5.0}]}"#,
        );
        let fleet = check_baseline(&out, "fleet", "scaling", 1.0);
        let io_scaling = check_baseline(&out, "io", "scaling", 1.0);
        std::fs::remove_file(&out).unwrap();
        assert!(fleet.is_err());
        assert!(io_scaling.is_err());
    }
}
