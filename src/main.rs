//! The `limit-repro` command-line driver: run any reproduced experiment
//! (or all of them) from one binary.
//!
//! ```text
//! limit-repro list                  # what can run
//! limit-repro run e1                # one experiment
//! limit-repro run all               # the full evaluation, sequentially
//! limit-repro run all --jobs 4      # ... on 4 host threads
//! ```
//!
//! Experiments are deterministic and independent, so `run all` can execute
//! them concurrently on the bounded worker pool in `sim_core::parallel`.
//! Tables are collected per experiment and printed in experiment order when
//! everything finishes, so stdout is **byte-identical** for every `--jobs`
//! value. Wall-time
//! lines go to stderr (they vary run to run), and each experiment also
//! writes a machine-readable `results/<name>.json` (plus a
//! `results/run-summary.json` roll-up) so performance trajectories can be
//! tracked across PRs.

use fleet::{ArrivalProcess, FleetConfig};
use sim_core::json::Json;
use std::env;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use torture::matrix::{enumerate_cells, AccessMethod, Cell, Disturb, MatrixConfig};
use whatif::{Knob, WhatifConfig};
use workloads::Spec;

mod bench_cmd;
mod fleet_cmd;
mod monitor;
mod trace;
mod trust_cmd;
mod whatif_cmd;

const EXPERIMENTS: [(&str, &str); 19] = [
    ("e1", "read-cost table (the headline)"),
    ("e2", "instrumentation overhead on mysqld"),
    ("e3", "virtualized-count exactness"),
    ("e4", "read-race ablation (+ seqlock arm)"),
    ("e5", "sampling vs precise attribution"),
    (
        "e6",
        "mysqld critical-section histograms + bottleneck ranking",
    ),
    ("e7", "synchronization share vs thread count"),
    ("e8", "firefox task-class characterization"),
    ("e9", "apache per-request accounting"),
    ("e10", "the three hardware-counter enhancements"),
    ("e11", "extension: co-location interference"),
    ("e12", "extension: lock-striping what-if study"),
    ("e13", "live-telemetry streaming overhead"),
    ("e14", "virtualization torture sweep (injection + oracle)"),
    (
        "e15",
        "fleet saturation sweep (open-loop arrival-rate knee)",
    ),
    (
        "e16",
        "causal what-if validation (planted lock/memory bottlenecks)",
    ),
    (
        "e17",
        "event-trust matrix slice (event x access method x disturbance)",
    ),
    (
        "e18",
        "I/O-wait observability (io-bound classification + device ranking)",
    ),
    (
        "kernels",
        "microbenchmark suite characterization + prefetch ablation",
    ),
];

/// Runs one experiment and returns its rendered tables (header included).
/// Printing is deferred to the caller so experiments can run concurrently
/// while stdout stays byte-identical to a sequential run.
fn run_one(name: &str) -> Result<String, String> {
    let fail = |e: sim_core::SimError| e.to_string();
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "\n########## {name} ##########");
    match name {
        "e1" => {
            let rows = bench::e1::run(5_000).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e1::table(&rows));
            let multi = bench::e1::run_multi(2_000).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e1::multi_table(&multi));
        }
        "e2" => {
            let rows = bench::e2::run(&[1, 4, 8, 16], 120, 8).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e2::table(&rows));
        }
        "e3" => {
            let rows = bench::e3::run().map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e3::table(&rows));
            let (virt, rdtsc) = bench::e3::wallclock_comparison().map_err(fail)?;
            let _ = writeln!(w, "virtualized: {virt} cycles; rdtsc: {rdtsc} cycles");
        }
        "e4" => {
            let rows = bench::e4::run_all().map_err(fail)?;
            let refs: Vec<_> = rows.iter().collect();
            let _ = writeln!(w, "{}", bench::e4::table_of(&refs));
        }
        "e5" => {
            let cfg = workloads::firefox::FirefoxConfig::default();
            let rows = bench::e5::run(&cfg, &[1_024, 8_192, 65_536]).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e5::sweep_table(&rows));
            let _ = writeln!(w, "{}", bench::e5::class_table(&rows[1]));
        }
        "e6" => {
            let cfg = workloads::mysqld::MysqlConfig {
                threads: 16,
                queries_per_thread: 150,
                ..Default::default()
            };
            let result = bench::e6::run(&cfg, 8).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e6::table(&result));
            let _ = writeln!(w, "{}", bench::e6::histograms(&result));
            // The title operation: rank the instrumented regions and name
            // the bottleneck.
            let records = result.run.session.all_records().map_err(fail)?;
            let ranking = analysis::BottleneckReport::from_records(
                &records,
                &result.run.session.regions,
                result.report.total_cycles,
                0,
            );
            let _ = writeln!(
                w,
                "\n{}",
                ranking.table("bottleneck ranking (share of user cycles)")
            );
            if let Some(top) = ranking.heaviest() {
                let _ = writeln!(
                    w,
                    "identified bottleneck: `{}` ({:.1}% of cycles)",
                    top.name,
                    top.share * 100.0
                );
            }
        }
        "e7" => {
            let rows = bench::e7::run(&[1, 2, 4, 8, 16, 32], 100, 8).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e7::table(&rows));
        }
        "e8" => {
            let rows =
                bench::e8::run(&workloads::firefox::FirefoxConfig::default(), 4).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e8::table(&rows));
        }
        "e9" => {
            let result =
                bench::e9::run(&workloads::apache::ApacheConfig::default(), 8).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e9::table(&result));
        }
        "e10" => {
            let d = bench::e10::run_destructive(2_000).map_err(fail)?;
            let sv = bench::e10::run_self_virtualizing().map_err(fail)?;
            let t = bench::e10::run_tag_filter(500).map_err(fail)?;
            for table in bench::e10::tables(&d, &sv, &t) {
                let _ = writeln!(w, "{table}");
            }
        }
        "e11" => {
            let rows = bench::e11::run(8).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e11::table(&rows));
        }
        "e12" => {
            let rows = bench::e12::run(&[1, 2, 4, 16, 64, 256], 8).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e12::table(&rows));
        }
        "e13" => {
            let rows = bench::e13::run(&[1, 2, 4, 8], 120, 8).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e13::table(&rows));
            if let Some(ratio) = bench::e13::stream_vs_aggregate(&rows, 8) {
                let _ = writeln!(
                    w,
                    "stream overhead is {ratio:.2}x aggregate overhead at 8 threads"
                );
            }
        }
        "e14" => {
            // Per-arm wall time and schedules/sec land in the span registry
            // (bench::spans), not on stderr; `run` folds them into
            // run-summary.json's `timings` object.
            let rows = bench::e14::run(300).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e14::table(&rows));
            if let Some(repro) = rows
                .iter()
                .find(|r| !r.fixup)
                .and_then(|r| r.repro.as_ref())
            {
                let _ = writeln!(w, "shrunk fixup-off repro:\n{repro}");
            }
        }
        "e15" => {
            let fracs = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];
            let r = bench::e15::run(32, &fracs, 2)?;
            let _ = writeln!(w, "{}", bench::e15::table(&r));
            match r.knee {
                Some(k) => {
                    let _ = writeln!(
                        w,
                        "saturation knee at {k:.2} arrivals/Mcycle ({:.2}x of node capacity \
                         {:.2}/Mcycle)",
                        k / r.capacity_rate,
                        r.capacity_rate
                    );
                }
                None => {
                    let _ = writeln!(w, "no knee inside the swept range");
                }
            }
            if let Some(pop) = &r.top_population {
                let _ = writeln!(w, "fleet-wide bottleneck: {pop}");
            }
        }
        "e16" => {
            let r = bench::e16::run(480, 2)?;
            let _ = writeln!(w, "{}", bench::e16::table(&r));
            for (shape, report) in [("lock", &r.lock), ("memory", &r.memory)] {
                for f in &report.findings {
                    let _ = writeln!(
                        w,
                        "{shape} finding: {}: {} — {}",
                        f.region, f.kind, f.detail
                    );
                }
            }
            if !r.all_ok() {
                return Err(format!(
                    "e16 causal verdicts failed:\n{}",
                    bench::e16::table(&r)
                ));
            }
        }
        "e17" => {
            // Per-cell wall times land in the span registry as
            // trust/<event>/<method>; `run` folds them into
            // run-summary.json's `timings` object.
            let rows = bench::e17::run(10).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e17::table(&rows));
            if !bench::e17::contract_holds(&rows) {
                return Err(format!(
                    "e17 trust contract failed:\n{}",
                    bench::e17::table(&rows)
                ));
            }
        }
        "e18" => {
            let r = bench::e18::run(24, 2)?;
            let _ = writeln!(w, "{}", bench::e18::table(&r));
            let _ = writeln!(w, "{}", bench::e18::wait_table(&r));
            for f in &r.logstore_findings {
                let _ = writeln!(
                    w,
                    "logstore finding: {}: {} — {}",
                    f.region, f.kind, f.detail
                );
            }
            if !r.all_ok() {
                return Err(format!(
                    "e18 I/O observability contract failed:\n{}",
                    bench::e18::table(&r)
                ));
            }
        }
        "kernels" => {
            let rows = bench::kernels_char::run(20_000, 1 << 20).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::kernels_char::table(&rows));
            let ab = bench::kernels_char::prefetch_ablation(20_000, 1 << 20).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::kernels_char::prefetch_table(&ab));
        }
        other => return Err(format!("unknown experiment {other:?}; try `list`")),
    }
    Ok(out)
}

/// Outcome of one experiment in a `run` invocation.
struct ExperimentRun {
    name: &'static str,
    wall_ms: f64,
    result: Result<String, String>,
}

/// Runs `names` on `jobs` worker threads, then prints tables in experiment
/// order and writes `<out_dir>/*.json`. Returns failure if any experiment
/// errored or the result files could not be written.
fn run_experiments(names: Vec<&'static str>, jobs: usize, out_dir: &str) -> ExitCode {
    let started = Instant::now();
    let runs: Vec<ExperimentRun> = sim_core::parallel::parmap_with(jobs, names, |name| {
        let span = bench::spans::start(format!("exp/{name}"));
        let result = run_one(name);
        ExperimentRun {
            name,
            wall_ms: span.finish(),
            result,
        }
    });
    let total_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut failed = false;
    for run in &runs {
        match &run.result {
            Ok(tables) => print!("{tables}"),
            Err(e) => {
                failed = true;
                eprintln!("error: {} failed: {e}", run.name);
            }
        }
    }
    // Per-experiment wall times live in run-summary.json's `timings`
    // object now; stderr keeps only the one-line total.
    eprintln!(
        "[timing] total    {total_ms:>10.1} ms ({} experiments, {jobs} job{})",
        runs.len(),
        if jobs == 1 { "" } else { "s" }
    );

    // A run whose results cannot be recorded fails: CI diffs the written
    // files against the committed goldens, and untouched files would pass.
    let timings = bench::spans::drain();
    if let Err(e) = write_result_files(&runs, jobs, total_ms, &timings, out_dir) {
        failed = true;
        eprintln!("error: could not write {out_dir}/*.json: {e}");
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Writes one `<out_dir>/<name>.json` per successful experiment and a
/// `<out_dir>/run-summary.json` roll-up with wall times and the drained
/// self-profiling spans (the former `[timing]` stderr lines). Host wall
/// times live only in the roll-up, so the per-experiment files are
/// deterministic and CI can diff them against the committed copies.
fn write_result_files(
    runs: &[ExperimentRun],
    jobs: usize,
    total_ms: f64,
    timings: &[bench::spans::SpanRecord],
    out_dir: &str,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    for run in runs {
        if let Ok(tables) = &run.result {
            let doc = Json::object()
                .set("schema", 1u64)
                .set("experiment", run.name)
                .set("tables", tables.as_str());
            std::fs::write(format!("{out_dir}/{}.json", run.name), doc.pretty())?;
        }
    }
    let summary = Json::object()
        .set("schema", 1u64)
        .set("jobs", jobs)
        .set("total_wall_ms", total_ms)
        .set(
            "experiments",
            Json::Array(
                runs.iter()
                    .map(|run| {
                        Json::object()
                            .set("name", run.name)
                            .set("wall_ms", run.wall_ms)
                            .set("ok", run.result.is_ok())
                    })
                    .collect(),
            ),
        )
        .set(
            "timings",
            Json::Array(
                timings
                    .iter()
                    .map(|s| {
                        let mut o = Json::object()
                            .set("name", s.name.as_str())
                            .set("start_ms", s.start_ms)
                            .set("wall_ms", s.wall_ms);
                        for (key, value) in &s.meta {
                            o = o.set(key.as_str(), *value);
                        }
                        o
                    })
                    .collect(),
            ),
        );
    std::fs::write(format!("{out_dir}/run-summary.json"), summary.pretty())
}

/// `limit-repro stat <workload>`: a perf-stat-like summary for one of the
/// synthetic applications, measured with LiMiT counters.
fn stat_workload(which: &str) -> Result<(), String> {
    use analysis::metrics::{per_kilo_instruction, ratio};
    use limit::LimitReader;
    use sim_cpu::EventKind;
    use sim_os::ThreadStats;

    const EVENTS: [EventKind; 4] = [
        EventKind::Cycles,
        EventKind::Instructions,
        EventKind::LlcMisses,
        EventKind::BranchMisses,
    ];
    let fail = |e: sim_core::SimError| e.to_string();
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let spec = workloads::Spec::parse(which).map_err(fail)?;
    let builder = limit::SessionBuilder::new(trace::default_cores(&spec));
    let mut session = spec.build(&reader, &EVENTS, builder).map_err(fail)?;
    let report = session.run().map_err(fail)?;

    let total = |i: usize| session.counter_grand_total(i).map_err(fail);
    let (cycles, instrs, llc, bmiss) = (total(0)?, total(1)?, total(2)?, total(3)?);
    let freq = session.freq();
    println!(
        "
 perf-stat-style summary for `{which}` (LiMiT virtualized counters):
"
    );
    println!(
        "   {cycles:>16}  cycles                 # {:.3} ms guest time",
        sim_core::Cycles::new(report.total_cycles).to_millis(freq)
    );
    println!(
        "   {instrs:>16}  instructions           # {:.2} IPC",
        ratio(instrs, cycles)
    );
    println!(
        "   {llc:>16}  llc-misses             # {:.2} MPKI",
        per_kilo_instruction(llc, instrs)
    );
    println!(
        "   {bmiss:>16}  branch-misses          # {:.2} PKI",
        per_kilo_instruction(bmiss, instrs)
    );
    println!(
        "
   kernel: {} ctx switches, {} preemptions, {} migrations, {} syscalls, {} futex waits",
        report.context_switches,
        report.preemptions,
        report.migrations,
        report.syscalls,
        report.futex.0
    );
    println!(
        "
per-thread accounting:
{}",
        ThreadStats::collect(&session.kernel)
    );
    Ok(())
}

/// `limit-repro torture`: run the counter-virtualization torture harness
/// directly (the CI smoke entry point; E14 is the table-producing wrapper).
/// `fixup` selects one arm; `None` runs both.
///
/// Exit status encodes the harness contract: the fixup-on arm must be
/// divergence-free, and the fixup-off arm must rediscover the read race
/// (zero findings there means the harness itself lost its teeth).
fn torture_cmd(cfg: &torture::TortureConfig, fixup: Option<bool>) -> Result<ExitCode, String> {
    use torture::{render_repro, run_arm, shrink};

    let fail = |e: sim_core::SimError| e.to_string();
    let arms: &[bool] = match fixup {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[true, false],
    };
    let mut ok = true;
    for &arm_fixup in arms {
        let label = if arm_fixup { "fixup-on" } else { "fixup-off" };
        let span = bench::spans::start(format!("torture/{label}"));
        let report = run_arm(cfg, arm_fixup).map_err(fail)?;
        let secs = (span.elapsed_ms() / 1e3).max(1e-9);
        let rate = report.schedules as f64 / secs;
        span.meta("schedules_per_sec", rate).finish();
        println!(
            "{label}: {} schedules, {} reads checked, {} injections fired, \
             {} divergent schedules ({} wrong reads)",
            report.schedules,
            report.checks,
            report.fired,
            report.divergent_schedules,
            report.divergences
        );
        eprintln!("[span] torture/{label:<9} {rate:>8.0} schedules/sec");
        if arm_fixup {
            if report.divergences > 0 {
                ok = false;
                eprintln!("error: fixup-on arm diverged — virtualization bug");
                if let Some(failing) = &report.first_failure {
                    let minimal = shrink(cfg, arm_fixup, failing).map_err(fail)?;
                    println!(
                        "{}",
                        render_repro(cfg, arm_fixup, failing, &minimal).map_err(fail)?
                    );
                }
            }
        } else if report.divergences == 0 {
            ok = false;
            eprintln!("error: fixup-off arm found no divergence — harness has lost its teeth");
        } else if let Some(failing) = &report.first_failure {
            let minimal = shrink(cfg, arm_fixup, failing).map_err(fail)?;
            println!(
                "shrunk repro of the first fixup-off failure:\n{}",
                render_repro(cfg, arm_fixup, failing, &minimal).map_err(fail)?
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `limit-repro torture --replay SEED,INDEX`: regenerate one schedule from
/// the torture harness, shrink it to a locally-minimal failing injection
/// set if it diverges, re-run that set under the flight recorder, and
/// export the trace — the injections and any divergence render as instants
/// on the failing thread's timeline. Replays chase failures, which live in
/// the fixup-off arm unless the caller explicitly pins `--fixup on`.
fn torture_replay(
    mut cfg: torture::TortureConfig,
    arm_fixup: bool,
    (seed, index): (u64, u64),
    out_dir: &str,
) -> Result<ExitCode, String> {
    let fail = |e: sim_core::SimError| e.to_string();
    cfg.seed = seed;
    let span = bench::spans::start(format!("torture/replay-{seed},{index}"));
    let r =
        torture::replay(&cfg, arm_fixup, index, flight::FlightConfig::default()).map_err(fail)?;
    span.finish();
    println!(
        "replayed schedule {index} (seed {seed}, fixup {}): {} injections, \
         {} oracle checks, {} divergences",
        if arm_fixup { "on" } else { "off" },
        r.injections.len(),
        r.checks,
        r.divergences.len()
    );
    for inj in &r.injections {
        println!("  {inj}");
    }
    for d in &r.divergences {
        println!(
            "  {}: read of {:?} in range [{}, {}) returned {} (expected {}) at cycle {}",
            d.tid, d.event, d.range.0, d.range.1, d.actual, d.expected, d.clock
        );
    }
    trace::export_session(&r.session, &format!("trace-replay-{seed}-{index}"), out_dir)?;
    Ok(ExitCode::SUCCESS)
}

fn usage() {
    eprintln!(
        "usage: limit-repro <command>
  list                                                  what can run
  run <experiment|all> [--jobs N] [--out-dir DIR]       run experiments
  stat <workload>                                       perf-stat summary
  bench [--queries N] [--label S] [--out FILE] [--check true|false]
        [--mode both|single|block|fleet|whatif|io]
                                                        guest instr/s microbenchmark
                                                        (single-step vs block-stepped)
  monitor <mysqld|memcached|logstore|proxy> [--threads N] [--queries N]
          [--interval CYCLES] [--capacity N] [--out-dir DIR]
                                                        live telemetry stream
                                                        (logstore/proxy add Slow I/O)
  fleet <mysqld|memcached|logstore|proxy> [--instances N] [--arrival-rate R] [--burst F]
        [--jobs N] [--slots N] [--threads N] [--queries N] [--seed S]
        [--interval CYCLES] [--capacity N] [--out-dir DIR]
                                                        open-loop fleet simulation
                                                        with hierarchical roll-up
  whatif <mysqld|memcached|logstore|proxy> [--knobs K1,K2,...] [--scale F] [--jobs N]
         [--threads N] [--queries N] [--interval CYCLES] [--capacity N]
         [--stripes N] [--buckets N] [--hold-rmws N] [--bufpool BYTES]
         [--out-dir DIR]                                causal what-if engine:
                                                        per-region knob sensitivity
  check-telemetry <file>                                validate NDJSON output
  torture [--schedules N] [--seed S] [--fixup on|off|both] [--spill true|false]
          [--replay SEED,INDEX] [--out-dir DIR]         virtualization torture sweep
                                                        (--replay: trace one shrunk schedule)
  trust [--schedules N] [--seed S] [--jobs N] [--events E1,E2,...]
        [--methods M1,M2,...] [--disturbs D1,D2,...] [--out-dir DIR]
                                                        event-trust matrix: verdict per
                                                        event x access method x disturbance
  trace <workload> [--out-dir DIR] [--buf-slots N] [--categories LIST]
                                                        flight-record a workload run
  check-trace <file>                                    validate an NDJSON flight trace"
    );
}

/// One invocation, parsed: the subcommand plus the configuration it runs
/// with. Library configs are filled in directly from the flags; output
/// directories sit beside them.
enum Command {
    List,
    Run {
        names: Vec<&'static str>,
        jobs: usize,
        out_dir: String,
    },
    Stat(String),
    Bench(bench_cmd::BenchOptions),
    Monitor(String, monitor::MonitorOptions),
    Fleet(Box<FleetConfig>, String),
    Whatif(Box<WhatifConfig>, String),
    CheckTelemetry(String),
    Torture {
        cfg: torture::TortureConfig,
        /// One arm (`--fixup on|off`), or `None` for both.
        fixup: Option<bool>,
        replay: Option<(u64, u64)>,
        out_dir: String,
    },
    Trust {
        cfg: MatrixConfig,
        cells: Vec<Cell>,
        jobs: usize,
        out_dir: String,
    },
    Trace(String, flight::FlightConfig, String),
    CheckTrace(String),
}

/// Splits `--key value` / `--key=value` pairs off an argument tail. Keys
/// are checked by the caller's match, whose fallback arm is
/// [`unknown_flag`].
fn parse_flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(rest) = arg.strip_prefix("--") else {
            return Err(format!("unknown argument {arg:?}"));
        };
        let (key, value) = match rest.split_once('=') {
            Some(kv) => kv,
            None => (
                rest,
                it.next()
                    .ok_or_else(|| format!("--{rest} needs a value"))?
                    .as_str(),
            ),
        };
        out.push((key, value));
    }
    Ok(out)
}

fn unknown_flag(key: &str) -> String {
    format!("unknown flag --{key}")
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("invalid --{key} value {value:?}"))
}

/// `--jobs N`, where 0 means one host worker per core.
fn parse_jobs(value: &str) -> Result<usize, String> {
    match parse_num("jobs", value)? {
        0 => Ok(sim_core::parallel::default_jobs()),
        n => Ok(n),
    }
}

/// A comma list of names, each resolved by `lookup`.
fn parse_list<T>(value: &str, what: &str, lookup: fn(&str) -> Option<T>) -> Result<Vec<T>, String> {
    value
        .split(',')
        .map(|s| lookup(s.trim()).ok_or_else(|| format!("unknown {what} {s:?}")))
        .collect()
}

/// The compact shape of a workload that runs as many short sessions.
fn compact_spec(name: &str) -> Result<Spec, String> {
    Spec::parse(name)
        .map(Spec::compact)
        .map_err(|e| e.to_string())
}

/// Turns argv (without the program name) into a [`Command`].
fn parse(args: &[String]) -> Result<Command, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("no command given".to_string());
    };
    // Subcommands that name a workload, an experiment or a file take it
    // as their first argument; the flags follow.
    let positional = |what: &str| match rest.split_first() {
        Some((arg, flags)) if !arg.starts_with("--") => Ok((arg.clone(), parse_flags(flags)?)),
        _ => Err(format!("{command} needs {what}")),
    };
    // A subcommand without flags rejects any it is given.
    let no_flags = |flags: &[(&str, &str)]| match flags.first() {
        Some((key, _)) => Err(unknown_flag(key)),
        None => Ok(()),
    };
    let only_positional = |what: &str| {
        let (arg, flags) = positional(what)?;
        no_flags(&flags).map(|()| arg)
    };
    let mut out_dir = "results".to_string();
    let cmd = match command.as_str() {
        "list" => {
            no_flags(&parse_flags(rest)?)?;
            Command::List
        }
        "stat" => Command::Stat(only_positional("a workload")?),
        "check-telemetry" => Command::CheckTelemetry(only_positional("a file")?),
        "check-trace" => Command::CheckTrace(only_positional("a file")?),
        "run" => {
            let (which, flags) = positional("an experiment or `all`")?;
            let mut jobs = 1;
            for (key, value) in flags {
                match key {
                    "jobs" => jobs = parse_jobs(value)?,
                    "out-dir" => out_dir = value.to_string(),
                    _ => return Err(unknown_flag(key)),
                }
            }
            // Resolve through the table so the names have 'static life and
            // unknown names fail up front.
            let names = EXPERIMENTS
                .iter()
                .map(|&(name, _)| name)
                .filter(|&name| which == "all" || name == which)
                .collect::<Vec<_>>();
            if names.is_empty() {
                return Err(format!("unknown experiment {which:?}; try `list`"));
            }
            Command::Run {
                names,
                jobs,
                out_dir,
            }
        }
        "bench" => {
            let mut opts = bench_cmd::BenchOptions::default();
            for (key, value) in parse_flags(rest)? {
                match key {
                    "queries" => opts.queries = parse_num(key, value)?,
                    "label" => opts.label = value.to_string(),
                    "out" => opts.out = value.to_string(),
                    "check" => opts.check = parse_num(key, value)?,
                    "mode" => opts.mode = value.to_string(),
                    _ => return Err(unknown_flag(key)),
                }
            }
            Command::Bench(opts)
        }
        "monitor" => {
            let (workload, flags) = positional("a workload")?;
            let mut opts = monitor::MonitorOptions::default();
            for (key, value) in flags {
                match key {
                    "threads" => opts.threads = parse_num(key, value)?,
                    "queries" => opts.queries = parse_num(key, value)?,
                    "interval" => opts.interval = parse_num(key, value)?,
                    "capacity" => opts.capacity = parse_num(key, value)?,
                    "out-dir" => opts.out_dir = value.to_string(),
                    _ => return Err(unknown_flag(key)),
                }
            }
            Command::Monitor(workload, opts)
        }
        "fleet" => {
            let (workload, flags) = positional("a workload")?;
            let mut cfg = FleetConfig {
                workload: compact_spec(&workload)?,
                ..FleetConfig::default()
            };
            for (key, value) in flags {
                match key {
                    "instances" => cfg.instances = parse_num(key, value)?,
                    "threads" => cfg.threads = parse_num(key, value)?,
                    "queries" => cfg.queries = parse_num(key, value)?,
                    "arrival-rate" => cfg.arrival.rate_per_mcycle = parse_num(key, value)?,
                    // A burst factor above 1 selects the MMPP arm.
                    "burst" => {
                        let factor: f64 = parse_num(key, value)?;
                        cfg.arrival.process = if factor > 1.0 {
                            ArrivalProcess::Bursty {
                                factor,
                                switch_p: 0.05,
                            }
                        } else {
                            ArrivalProcess::Poisson
                        };
                    }
                    "slots" => cfg.slots = parse_num(key, value)?,
                    "seed" => cfg.seed = parse_num(key, value)?,
                    "jobs" => cfg.jobs = parse_jobs(value)?,
                    "interval" => cfg.interval = parse_num(key, value)?,
                    "capacity" => cfg.capacity = parse_num(key, value)?,
                    "out-dir" => out_dir = value.to_string(),
                    _ => return Err(unknown_flag(key)),
                }
            }
            Command::Fleet(Box::new(cfg), out_dir)
        }
        "whatif" => {
            let (workload, flags) = positional("a workload")?;
            let mut cfg = WhatifConfig::new(compact_spec(&workload)?);
            for (key, value) in flags {
                match key {
                    "threads" => cfg.threads = parse_num(key, value)?,
                    "queries" => cfg.queries = parse_num(key, value)?,
                    "knobs" => {
                        cfg.knobs = value
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(|name| {
                                Knob::parse(name).ok_or_else(|| {
                                    let known: Vec<&str> =
                                        Knob::ALL.iter().map(|k| k.name()).collect();
                                    format!("unknown knob {name:?} (known: {})", known.join(", "))
                                })
                            })
                            .collect::<Result<_, _>>()?
                    }
                    "scale" => cfg.scale = parse_num(key, value)?,
                    "jobs" => cfg.jobs = parse_jobs(value)?,
                    "interval" => cfg.interval = parse_num(key, value)?,
                    "capacity" => cfg.capacity = parse_num(key, value)?,
                    // Shape flags edit the workload's own config. A flag the
                    // workload has no field for is an error naming the
                    // workload it applies to, never a silent no-op.
                    "stripes" | "buckets" | "hold-rmws" | "bufpool" => {
                        let n = parse_num(key, value)?;
                        match (&mut cfg.workload, key) {
                            (Spec::Memcached(c), "stripes") => c.stripes = n,
                            (Spec::Memcached(c), "buckets") => c.buckets = n,
                            (Spec::Memcached(c), "hold-rmws") => c.hold_rmws = n,
                            (Spec::Mysqld(c), "bufpool") => c.bufpool_bytes = n,
                            (spec, _) => {
                                let applies_to = if key == "bufpool" {
                                    "mysqld"
                                } else {
                                    "memcached"
                                };
                                return Err(format!(
                                    "--{key} applies to {applies_to}, not {}",
                                    spec.name()
                                ));
                            }
                        }
                    }
                    "out-dir" => out_dir = value.to_string(),
                    _ => return Err(unknown_flag(key)),
                }
            }
            cfg.params = limit::MachineParams::new(cfg.threads.clamp(1, limit::params::MAX_CORES));
            Command::Whatif(Box::new(cfg), out_dir)
        }
        "torture" => {
            let mut cfg = torture::TortureConfig::default();
            let (mut fixup, mut replay) = (None, None);
            for (key, value) in parse_flags(rest)? {
                match key {
                    "schedules" => cfg.schedules = parse_num(key, value)?,
                    "seed" => cfg.seed = parse_num(key, value)?,
                    "fixup" => {
                        fixup = match value {
                            "on" => Some(true),
                            "off" => Some(false),
                            "both" => None,
                            other => {
                                return Err(format!(
                                    "invalid --fixup value {other:?} (on|off|both)"
                                ))
                            }
                        }
                    }
                    "spill" => cfg.spill = parse_num(key, value)?,
                    "replay" => replay = Some(trace::parse_replay_spec(value)?),
                    "out-dir" => out_dir = value.to_string(),
                    _ => return Err(unknown_flag(key)),
                }
            }
            Command::Torture {
                cfg,
                fixup,
                replay,
                out_dir,
            }
        }
        "trust" => {
            let mut cfg = MatrixConfig::default();
            let mut jobs = 1;
            let mut events = sim_cpu::EventKind::ALL.to_vec();
            let mut methods = AccessMethod::ALL.to_vec();
            let mut disturbs = Disturb::ALL.to_vec();
            for (key, value) in parse_flags(rest)? {
                match key {
                    "schedules" => cfg.schedules = parse_num(key, value)?,
                    "seed" => cfg.seed = parse_num(key, value)?,
                    "jobs" => jobs = parse_jobs(value)?,
                    "events" => {
                        events = parse_list(value, "event", torture::matrix::event_by_mnemonic)?
                    }
                    "methods" => methods = parse_list(value, "method", AccessMethod::parse)?,
                    "disturbs" => disturbs = parse_list(value, "disturbance", Disturb::parse)?,
                    "out-dir" => out_dir = value.to_string(),
                    _ => return Err(unknown_flag(key)),
                }
            }
            Command::Trust {
                cfg,
                cells: enumerate_cells(&events, &methods, &disturbs),
                jobs,
                out_dir,
            }
        }
        "trace" => {
            let (workload, flags) = positional("a workload")?;
            let mut cfg = flight::FlightConfig {
                buf_slots: trace::DEFAULT_BUF_SLOTS,
                ..Default::default()
            };
            for (key, value) in flags {
                match key {
                    "out-dir" => out_dir = value.to_string(),
                    "buf-slots" => cfg.buf_slots = parse_num(key, value)?,
                    "categories" => cfg.categories = flight::Categories::parse(value)?,
                    _ => return Err(unknown_flag(key)),
                }
            }
            Command::Trace(workload, cfg, out_dir)
        }
        other => return Err(format!("unknown command {other:?}")),
    };
    Ok(cmd)
}

/// Runs a parsed command. Errors are reported by `main`; commands whose
/// contract can fail without an error (a run experiment, the torture and
/// trust verdicts) report that through the exit code.
fn run(cmd: Command) -> Result<ExitCode, String> {
    match cmd {
        Command::List => {
            println!("available experiments:");
            for (name, what) in EXPERIMENTS {
                println!("  {name:<8} {what}");
            }
        }
        Command::Run {
            names,
            jobs,
            out_dir,
        } => return Ok(run_experiments(names, jobs, &out_dir)),
        Command::Stat(workload) => stat_workload(&workload)?,
        Command::Bench(opts) => bench_cmd::run(&opts)?,
        Command::Monitor(workload, opts) => monitor::run(&workload, &opts)?,
        Command::Fleet(cfg, out_dir) => fleet_cmd::run(&cfg, &out_dir)?,
        Command::Whatif(cfg, out_dir) => whatif_cmd::run(&cfg, &out_dir)?,
        Command::CheckTelemetry(path) => monitor::check(&path)?,
        Command::Torture {
            cfg,
            fixup,
            replay: Some(replay),
            out_dir,
        } => return torture_replay(cfg, fixup == Some(true), replay, &out_dir),
        Command::Torture { cfg, fixup, .. } => return torture_cmd(&cfg, fixup),
        Command::Trust {
            cfg,
            cells,
            jobs,
            out_dir,
        } => {
            if !trust_cmd::run(&cfg, cells, jobs, &out_dir)? {
                return Ok(ExitCode::FAILURE);
            }
        }
        Command::Trace(workload, cfg, out_dir) => trace::run(&workload, cfg, &out_dir)?,
        Command::CheckTrace(path) => trace::check(&path)?,
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    run(cmd).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_fails_when_the_out_dir_is_a_regular_file() {
        let path = std::env::temp_dir().join(format!("limit-repro-out-{}", std::process::id()));
        std::fs::write(&path, "not a directory").unwrap();
        let code = run_experiments(vec!["e3"], 1, path.to_str().unwrap());
        std::fs::remove_file(&path).unwrap();
        assert_eq!(code, ExitCode::FAILURE);
    }
}
