//! Outside-in benchmark of the simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mysqld|memcached|logstore-monitor|fleet-mysqld> \
//!     --seed <n> --seconds <s> --trace <0|1> [--print-digest]
//! ```
//!
//! One process runs one workload from one host thread. It measures the
//! unit-cost probes, obtains the output reference for the seed, runs one
//! checked warm-up repetition, then repeats the workload for `--seconds`.
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates traced and untraced repetitions, reports the per-layer
//! metrics and the tracing overhead, and writes the spans to
//! `.perfbench/trace-<workload>-seed<n>.ndjson`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md` for every metric.

mod alloc;
mod check;
mod host;
mod probes;
mod stats;
mod trace;
mod work;

use check::Reference;
use sim_core::json::Json;
use sim_os::ExecMode;
use stats::median;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Layer, RunTimes, Tracer};
use work::{Rep, Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut print_digest = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-digest" {
            print_digest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} ({})", names.join("|"))
                })?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => {
                trace = match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        print_digest,
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.print_digest {
            print_digest(&args)
        } else {
            run(&args)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The outcome repetitions are checked against, computed untimed, and
/// the single-step run's interpreter step count when one was made (always
/// for a non-default seed; for the default seed only when `count_steps`,
/// checked against the recorded digest and accounted in `s`).
fn reference(
    w: Workload,
    seed: u64,
    count_steps: bool,
    s: &mut Samples,
) -> Result<(Option<Reference>, Option<u64>), String> {
    if w == Workload::FleetMysqld {
        // run_fleet has no interpreter switch: for a non-default seed the
        // warm-up repetition, whose aggregate is checked against its
        // instances, is the reference for the rest.
        let r = (seed == DEFAULT_SEED).then(|| Reference::Digest(w.recorded_digest()));
        return Ok((r, None));
    }
    let mut tr = Tracer::new(false);
    if seed == DEFAULT_SEED {
        let r = Reference::Digest(w.recorded_digest());
        let mut steps = None;
        if count_steps {
            let rep = w.rep(seed, ExecMode::SingleStep, Some(&r), &mut tr);
            steps = s.account(w, rep).and_then(|rep| rep.steps);
        }
        return Ok((Some(r), steps));
    }
    let rep = w.rep(seed, ExecMode::SingleStep, None, &mut tr)?;
    match rep.mismatch {
        None => Ok((Some(Reference::Outcome(rep.outcome)), rep.steps)),
        Some(e) => Err(format!("single-step reference run: {e}")),
    }
}

/// `--print-digest`: the digest of the seed's reference outcome (the
/// single-step re-run; for the fleet, a checked block run), after
/// confirming the default interpreter reproduces it.
fn print_digest(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let mut tr = Tracer::new(false);
    let single = w.rep(args.seed, ExecMode::SingleStep, None, &mut tr)?;
    if let Some(e) = single.mismatch {
        return Err(e);
    }
    let want = Reference::Outcome(single.outcome.clone());
    let block = w.rep(args.seed, ExecMode::Block, Some(&want), &mut tr)?;
    if let Some(e) = block.mismatch {
        return Err(format!("block run differs from single-step: {e}"));
    }
    println!(
        "{} seed {}: digest {:#018x}",
        w.name(),
        args.seed,
        single.outcome.digest()
    );
    Ok(())
}

/// What the measuring loop collected. Host times are normalized by the
/// reference kernel measured around each repetition ([`host`]).
#[derive(Default)]
struct Samples {
    attempted: u64,
    failed: u64,
    wall_s: Vec<f64>,
    minstr_per_s: Vec<f64>,
    setup_s: Vec<f64>,
    /// Per-operation latencies, grouped by repetition.
    op_ms: Vec<Vec<f64>>,
    /// Per-layer raw self times of traced repetitions, with each one's
    /// normalization factor.
    traced: Vec<(RunTimes, f64)>,
    /// Wall times of traced and untraced repetitions in a traced run.
    traced_wall_s: Vec<f64>,
    untraced_wall_s: Vec<f64>,
    /// Raw reference-kernel costs, ns per call.
    host_ns: Vec<f64>,
    last: Option<Rep>,
}

impl Samples {
    /// Accounts a repetition's operations and failures; returns the
    /// repetition if it ran to the check.
    fn account(&mut self, w: Workload, r: Result<Rep, String>) -> Option<Rep> {
        self.attempted += w.ops_per_rep();
        match r {
            Ok(rep) => {
                self.failed += rep.failed_ops;
                if let Some(e) = &rep.mismatch {
                    eprintln!("[perfbench] output check failed: {e}");
                }
                Some(rep)
            }
            Err(e) => {
                eprintln!("[perfbench] repetition failed: {e}");
                self.failed += w.ops_per_rep();
                None
            }
        }
    }

    /// Records a measured repetition, its host times scaled by `f`.
    fn record(&mut self, rep: Rep, times: Option<RunTimes>, f: f64) {
        self.wall_s.push(rep.wall_s * f);
        self.minstr_per_s
            .push(rep.outcome.get("sim-cpu.instrs") as f64 / (rep.run_s * f) / 1e6);
        self.setup_s.extend(rep.setup_s.iter().map(|x| x * f));
        self.op_ms.push(rep.op_ms.iter().map(|x| x * f).collect());
        match times {
            Some(t) => {
                self.traced.push((t, f));
                self.traced_wall_s.push(rep.wall_s * f);
            }
            None => self.untraced_wall_s.push(rep.wall_s * f),
        }
        self.last = Some(rep);
    }

    /// The normalization factor for work done between two reference
    /// measurements.
    fn factor(&mut self, before_ns: f64, after_ns: f64) -> f64 {
        self.host_ns.push(after_ns);
        host::NOMINAL_NS / ((before_ns + after_ns) / 2.0)
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    eprintln!(
        "[perfbench] {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let probes = probes::measure().map_err(|e| e.to_string())?;
    let mut host = host::HostRef::new();
    let mut tr = Tracer::new(false);
    let span_cost_ns = if args.trace { tr.calibrate() } else { 0.0 };
    let mut s = Samples::default();

    let (mut reference, steps) = match reference(w, args.seed, args.trace, &mut s) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            s.attempted += w.ops_per_rep();
            s.failed += w.ops_per_rep();
            (None, None)
        }
    };

    // Warm-up: checked and counted, not timed. For the fleet at a
    // non-default seed it becomes the reference.
    let mut self_test = true;
    if s.failed == 0 {
        let r = w.rep(args.seed, ExecMode::Block, reference.as_ref(), &mut tr);
        if let Some(warm) = s.account(w, r).filter(|r| r.mismatch.is_none()) {
            let r = reference.get_or_insert_with(|| Reference::Outcome(warm.outcome.clone()));
            // Self-test: a perturbed reference must reject a correct outcome.
            self_test = r.perturbed().check(&warm.outcome).is_err();
            if !self_test {
                eprintln!("[perfbench] self-test: a perturbed reference passed");
            }
        }
    }

    // Measure: at least one repetition (two when traced: one of each kind).
    if s.failed == 0 && self_test {
        let min_reps = if args.trace { 2 } else { 1 };
        let budget = Duration::from_secs(args.seconds);
        let start = Instant::now();
        let mut before = host.measure();
        let mut i = 0u32;
        while i < min_reps || start.elapsed() < budget {
            let traced = args.trace && i.is_multiple_of(2);
            tr.set_enabled(traced);
            let (r, times) = tr.rep(i, |tr| {
                w.rep(args.seed, ExecMode::Block, reference.as_ref(), tr)
            });
            let after = host.measure();
            let f = s.factor(before, after);
            if let Some(rep) = s.account(w, r) {
                s.record(rep, traced.then_some(times), f);
            }
            before = after;
            i += 1;
        }
        tr.set_enabled(false);
    }
    let correct = s.failed == 0 && self_test && s.attempted > 0;
    eprintln!(
        "[perfbench] probes: floor {:.2} ns/step, L1 hit {:.2} ns, miss {:.2} ns; \
         reference kernel {:.2} ns/call (nominal {}); VmHWM {}",
        probes.floor_ns_per_instr,
        probes.hit_ns,
        probes.miss_ns,
        median(&mut s.host_ns.clone()),
        host::NOMINAL_NS,
        vm_hwm()
    );

    let metrics = if args.trace {
        let path = format!(".perfbench/trace-{}-seed{}.ndjson", w.name(), args.seed);
        tr.write(&path, w.name(), args.seed)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let (stored, unstored) = tr.span_counts();
        eprintln!("[perfbench] wrote {path}: {stored} spans ({unstored} past the cap)");
        let cost = Cost {
            probes,
            steps,
            span_cost_ns,
        };
        per_layer(&mut s, &cost, w)
    } else {
        end_to_end(&mut s)
    };

    println!(
        "perfbench {} seed {} trace {}: {} attempted, {} failed",
        w.name(),
        args.seed,
        u8::from(args.trace),
        s.attempted,
        s.failed
    );
    let mut obj = Json::object();
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
        obj = obj.set(name, Json::object().set("value", *value).set("unit", *unit));
    }
    let out = Json::object()
        .set("correct", correct)
        .set("attempted", s.attempted)
        .set("failed", s.failed)
        .set("metrics", obj);
    println!("{}", out.compact());
    Ok(())
}

type Metric = (&'static str, f64, &'static str);

/// The kernel's peak resident-set line, for information: it moves in
/// megabyte steps between identical runs, so the gated memory metric is
/// the allocator's peak instead.
fn vm_hwm() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

fn end_to_end(s: &mut Samples) -> Vec<Metric> {
    let mut pooled: Vec<f64> = s.op_ms.concat();
    // A repetition with enough operations (a fleet run) has a tail of its
    // own: report the median of those. Single-session repetitions are one
    // operation each: pool them.
    let per_rep = s.op_ms.first().map_or(0, Vec::len);
    let tail = if per_rep > 2 * stats::TAIL_BEYOND {
        let mut pct = 0.0;
        let mut tails: Vec<f64> = s
            .op_ms
            .iter_mut()
            .map(|v| {
                let (t, p) = stats::tail(v);
                pct = p;
                t
            })
            .collect();
        eprintln!(
            "[perfbench] instance_ms_tail: median over {} runs of p{pct:.2} of n={per_rep}",
            tails.len()
        );
        median(&mut tails)
    } else {
        let (t, pct) = stats::tail(&mut pooled);
        eprintln!(
            "[perfbench] instance_ms_tail: p{pct:.2} of n={}",
            pooled.len()
        );
        t
    };
    vec![
        ("wall_s", median(&mut s.wall_s), "s"),
        (
            "guest_minstr_per_s",
            median(&mut s.minstr_per_s),
            "Minstr/s",
        ),
        ("setup_s", median(&mut s.setup_s), "s"),
        (
            "peak_heap_mb",
            alloc::peak_bytes() as f64 / (1 << 20) as f64,
            "MB",
        ),
        ("instance_ms_p50", median(&mut pooled), "ms"),
        ("instance_ms_tail", tail, "ms"),
    ]
}

/// Unit costs measured beside the traced run.
struct Cost {
    probes: probes::Probes,
    /// Interpreter steps of the single-step run (single-session workloads).
    steps: Option<u64>,
    /// Calibrated cost of one span in its parent's self time.
    span_cost_ns: f64,
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not exercise).
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn per_layer(s: &mut Samples, c: &Cost, w: Workload) -> Vec<Metric> {
    let p = &c.probes;
    // Normalized (scaled) or raw median self time of a layer, ms.
    let layer_ms = |layer: Layer, scaled: bool| {
        let mut v: Vec<f64> = s
            .traced
            .iter()
            .map(|(t, f)| t.ms(layer) * if scaled { *f } else { 1.0 })
            .collect();
        median(&mut v)
    };
    let ms = |layer: Layer| layer_ms(layer, true);
    let o = s
        .last
        .as_ref()
        .map(|r| r.outcome.clone())
        .unwrap_or_default();
    let count = |name: &'static str, unit: &'static str| (name, o.get(name) as f64, unit);

    // The fleet's traced Build spans are its per-repetition set-up builds.
    let build_ms = if w == Workload::FleetMysqld {
        median(&mut s.setup_s.clone()) * 1e3
    } else {
        ms(Layer::Build)
    };
    let run_ms = ms(Layer::Run);
    let instrs = o.get("sim-cpu.instrs") as f64;
    let accesses = o.get("sim-mem.accesses") as f64;
    let misses = o.get("sim-mem.llc_misses") as f64;
    let steps = c.steps.unwrap_or(0) as f64;
    // Shares compare raw probe costs with the raw run time.
    let raw_run_ns = layer_ms(Layer::Run, false) * 1e6;
    let mut uncovered: Vec<f64> = s
        .traced
        .iter()
        .map(|(t, _)| per(t.self_ns[Layer::Rep as usize] as f64, t.wall_ns as f64))
        .collect();
    let overhead_ms = (median(&mut s.traced_wall_s) - median(&mut s.untraced_wall_s)) * 1e3;

    vec![
        ("workloads.build_ms", build_ms, "ms"),
        count("workloads.program_instrs", "count"),
        ("limit.records_ms", ms(Layer::Records), "ms"),
        count("limit.records", "count"),
        ("sim-os.run_ms", run_ms, "ms"),
        ("sim-os.ns_per_instr", per(run_ms * 1e6, instrs), "ns"),
        count("sim-os.syscalls", "count"),
        count("sim-os.context_switches", "count"),
        count("sim-os.futex_waits", "count"),
        count("sim-os.io_submits", "count"),
        count("sim-os.io_wait_cycles", "cycles"),
        ("sim-cpu.instrs", instrs, "count"),
        count("sim-cpu.cycles", "cycles"),
        count("sim-cpu.pmis", "count"),
        ("sim-cpu.steps", steps, "count"),
        ("sim-cpu.floor_ns_per_instr", p.floor_ns_per_instr, "ns"),
        (
            "sim-cpu.est_share",
            per(steps * p.floor_ns_per_instr, raw_run_ns),
            "ratio",
        ),
        ("sim-mem.accesses", accesses, "count"),
        (
            "sim-mem.accesses_per_kinstr",
            per(accesses * 1e3, instrs),
            "1/kinstr",
        ),
        ("sim-mem.llc_misses", misses, "count"),
        ("sim-mem.hit_ns", p.hit_ns, "ns"),
        ("sim-mem.miss_ns", p.miss_ns, "ns"),
        (
            "sim-mem.est_share",
            per(
                (accesses - misses) * p.hit_ns + misses * p.miss_ns,
                raw_run_ns,
            ),
            "ratio",
        ),
        ("telemetry.drain_ms", ms(Layer::Drain), "ms"),
        ("telemetry.snapshot_ms", ms(Layer::Snapshot), "ms"),
        ("telemetry.merge_ms", ms(Layer::Merge), "ms"),
        count("telemetry.snapshots", "count"),
        count("telemetry.records_drained", "count"),
        count("telemetry.records_lost", "count"),
        ("analysis.classify_ms", ms(Layer::Classify), "ms"),
        ("analysis.rank_ms", ms(Layer::Rank), "ms"),
        ("fleet.run_ms", ms(Layer::Fleet), "ms"),
        count("fleet.instances", "count"),
        ("bench.check_ms", ms(Layer::Check), "ms"),
        ("trace.overhead_ms", overhead_ms, "ms"),
        ("trace.span_cost_ns", c.span_cost_ns, "ns"),
        ("host.ref_ns", median(&mut s.host_ns), "ns"),
        ("trace.uncovered_share", median(&mut uncovered), "ratio"),
    ]
}
