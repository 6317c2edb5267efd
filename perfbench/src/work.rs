//! The four workloads and one repetition of each.
//!
//! A repetition runs one workload end to end from a single host thread —
//! build, kernel run, post-processing, output check — and reports host
//! timings next to the simulated [`Outcome`]. Every call into a module
//! goes through [`Tracer::span`], so a traced repetition yields per-layer
//! self times; an untraced one records nothing beyond its end-to-end
//! timestamps.

use crate::check::{Outcome, Reference};
use crate::trace::{Layer, Tracer};
use analysis::online::{classify, DetectorConfig};
use analysis::BottleneckReport;
use fleet::{instance_seed, run_fleet, FleetConfig};
use limit::{LimitReader, LogMode, Session, StreamConfig};
use sim_cpu::EventKind;
use sim_os::{ExecMode, KernelConfig, RunReport};
use std::sync::Mutex;
use std::time::Instant;
use telemetry::{Collector, Snapshot};
use workloads::{logstore, memcached, mysqld};

/// The seed whose outcomes are recorded as digests
/// ([`Workload::recorded_digest`]).
pub const DEFAULT_SEED: u64 = 1;

/// The `stat` counter set (mysqld, memcached).
const STAT_EVENTS: [EventKind; 4] = [
    EventKind::Cycles,
    EventKind::Instructions,
    EventKind::LlcMisses,
    EventKind::BranchMisses,
];

/// Names of the LiMiT counter totals, matching [`STAT_EVENTS`].
const COUNTER_TOTALS: [&str; 4] = [
    "limit.total_cycles",
    "limit.total_instrs",
    "limit.total_llc_misses",
    "limit.total_branch_misses",
];

/// The `monitor` counter set (logstore-monitor).
const MONITOR_EVENTS: [EventKind; 3] = [
    EventKind::Cycles,
    EventKind::Instructions,
    EventKind::LlcMisses,
];

/// `monitor`'s drain cadence, guest cycles.
const MONITOR_INTERVAL: u64 = 50_000;
/// `monitor`'s per-thread ring capacity, records.
const MONITOR_CAPACITY: u64 = 256;

const MYSQLD_QUERIES: u64 = 2_000;
const MEMCACHED_OPS: u64 = 4_000;
const LOGSTORE_THREADS: usize = 4;
const LOGSTORE_COMMITS: u64 = 2_000;
const FLEET_INSTANCES: usize = 400;
const FLEET_THREADS: usize = 2;
const FLEET_QUERIES: u64 = 25;
/// Fleet instance sessions each repetition builds, outside `run_fleet` and
/// before its timed window, to time set-up.
const FLEET_SETUP_BUILDS: usize = 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// mysqld, 8 workers on 8 cores, Log mode, then record decode and
    /// bottleneck ranking (the `stat` path).
    Mysqld,
    /// memcached, 8 workers on 8 cores, 16 stripes, Log mode, same path.
    Memcached,
    /// Fsync-bound logstore in Stream mode, drained, snapshotted and
    /// classified from the kernel hook (the `monitor` path).
    LogstoreMonitor,
    /// 400 short mysqld sessions through `fleet::run_fleet` at one job.
    FleetMysqld,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Mysqld,
        Workload::Memcached,
        Workload::LogstoreMonitor,
        Workload::FleetMysqld,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mysqld => "mysqld",
            Workload::Memcached => "memcached",
            Workload::LogstoreMonitor => "logstore-monitor",
            Workload::FleetMysqld => "fleet-mysqld",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The outcome digest of [`DEFAULT_SEED`], recorded from a run whose
    /// outcome matched its single-step re-run (`--print-digest`).
    pub fn recorded_digest(self) -> u64 {
        match self {
            Workload::Mysqld => 0x0d96_852c_fe22_bb4e,
            Workload::Memcached => 0xf017_5d3e_66bc_ea1f,
            Workload::LogstoreMonitor => 0x09f8_6bd1_2583_6b8c,
            Workload::FleetMysqld => 0xcbdd_7af7_49d8_96e0,
        }
    }

    /// Operations one repetition attempts: one run, or one per fleet
    /// instance.
    pub fn ops_per_rep(self) -> u64 {
        match self {
            Workload::FleetMysqld => FLEET_INSTANCES as u64,
            _ => 1,
        }
    }

    /// One repetition. `exec` selects the interpreter where the workload
    /// lets the benchmark choose it (the fleet always runs its default);
    /// a single-step repetition also counts interpreter steps. `reference`,
    /// when given, is checked inside the timed window.
    pub fn rep(
        self,
        seed: u64,
        exec: ExecMode,
        reference: Option<&Reference>,
        tr: &mut Tracer,
    ) -> Result<Rep, String> {
        match self {
            Workload::FleetMysqld => fleet_rep(seed, reference, tr),
            _ => session_rep(self, seed, exec, reference, tr),
        }
    }
}

/// Timings and results of one repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// What was simulated.
    pub outcome: Outcome,
    /// Host seconds from the first build call to the checked result.
    pub wall_s: f64,
    /// Host seconds per build: the workload's one build, or, for the
    /// fleet (which builds inside `run_fleet`), each of the instance
    /// sessions built the way `run_fleet` builds them, before the timed
    /// window.
    pub setup_s: Vec<f64>,
    /// Host seconds inside the kernel run call (`run_fleet` for the fleet).
    pub run_s: f64,
    /// Per-operation host latencies, ms: the whole session, or each fleet
    /// instance from the `run_fleet` progress callback.
    pub op_ms: Vec<f64>,
    /// Interpreter steps (single-step repetitions only): guest
    /// instructions minus the extra ones a `burst` retires in one step.
    pub steps: Option<u64>,
    /// Operations that failed the check (fleet instances whose transport
    /// accounting is broken, or all of them on a repetition-wide
    /// mismatch).
    pub failed_ops: u64,
    /// Why the check failed, if it did.
    pub mismatch: Option<String>,
}

fn sim(e: sim_core::SimError) -> String {
    e.to_string()
}

/// Builds a single-session workload, with its telemetry collector when it
/// streams.
fn build(w: Workload, seed: u64, exec: ExecMode) -> Result<(Session, Option<Collector>), String> {
    let kcfg = KernelConfig {
        exec,
        ..KernelConfig::default()
    };
    let stat_reader = || LimitReader::with_events(STAT_EVENTS.to_vec());
    match w {
        Workload::Mysqld => {
            let cfg = mysqld::MysqlConfig {
                threads: 8,
                queries_per_thread: MYSQLD_QUERIES,
                seed,
                mode: LogMode::Log,
                ..Default::default()
            };
            let (s, _) = mysqld::build(&cfg, &stat_reader(), 8, &STAT_EVENTS, kcfg).map_err(sim)?;
            Ok((s, None))
        }
        Workload::Memcached => {
            let cfg = memcached::MemcachedConfig {
                workers: 8,
                ops_per_worker: MEMCACHED_OPS,
                stripes: 16,
                seed,
                mode: LogMode::Log,
                ..Default::default()
            };
            let (s, _) =
                memcached::build(&cfg, &stat_reader(), 8, &STAT_EVENTS, kcfg).map_err(sim)?;
            Ok((s, None))
        }
        Workload::LogstoreMonitor => {
            let cfg = logstore::LogstoreConfig {
                threads: LOGSTORE_THREADS,
                commits_per_thread: LOGSTORE_COMMITS,
                seed,
                mode: LogMode::Stream(StreamConfig::dropping(MONITOR_CAPACITY)),
                ..Default::default()
            };
            let reader = LimitReader::with_events(MONITOR_EVENTS.to_vec());
            let (s, _) = logstore::build(&cfg, &reader, LOGSTORE_THREADS, &MONITOR_EVENTS, kcfg)
                .map_err(sim)?;
            let mut c = Collector::new(LOGSTORE_THREADS, MONITOR_EVENTS.len());
            c.attach(&s);
            Ok((s, Some(c)))
        }
        Workload::FleetMysqld => unreachable!("the fleet builds inside run_fleet"),
    }
}

/// Telemetry totals of a monitored run.
struct Monitored {
    report: RunReport,
    /// Host seconds inside the kernel run call, hooks included.
    run_s: f64,
    last: Snapshot,
    snapshots: u64,
    findings: u64,
}

/// The `monitor` loop: every hook drains, snapshots and classifies; a
/// final sweep after the run drains what is still in flight. The kernel
/// run call is its own span, so its self time excludes the hooks.
fn monitored_run(
    session: &mut Session,
    collector: &mut Collector,
    tr: &mut Tracer,
) -> Result<Monitored, String> {
    let detector = DetectorConfig::default();
    let mut snapshots = 0u64;
    let mut findings = 0u64;
    let regions = &session.regions;
    let t = Instant::now();
    let mut report = tr
        .span(Layer::Run, |tr| {
            session.kernel.run_with_hook(MONITOR_INTERVAL, |m, now| {
                tr.span(Layer::Drain, |_| collector.drain(m))?;
                snapshots += 1;
                let snap = tr.span(Layer::Snapshot, |_| {
                    collector.snapshot(snapshots, now, regions)
                });
                findings += tr.span(Layer::Classify, |_| {
                    classify(&snap, &MONITOR_EVENTS, &detector).len() as u64
                });
                Ok(())
            })
        })
        .map_err(sim)?;
    let run_s = t.elapsed().as_secs_f64();
    tr.span(Layer::Drain, |_| {
        collector.drain(&mut session.kernel.machine)
    })
    .map_err(sim)?;
    snapshots += 1;
    let cycle = session.kernel.machine.global_clock();
    let last = tr.span(Layer::Snapshot, |_| {
        collector.snapshot(snapshots, cycle, &session.regions)
    });
    findings += tr.span(Layer::Classify, |_| {
        classify(&last, &MONITOR_EVENTS, &detector).len() as u64
    });
    session.finalize_report(&mut report);
    Ok(Monitored {
        report,
        run_s,
        last,
        snapshots,
        findings,
    })
}

/// Appends a final snapshot's transport counters; `Err` when records are
/// unaccounted for (appended must equal drained + overwritten once nothing
/// is in flight; drops never reach the ring).
fn push_transport(o: &mut Outcome, s: &Snapshot) -> Result<(), String> {
    o.push("telemetry.appended", s.appended);
    o.push("telemetry.records_drained", s.drained);
    o.push("telemetry.dropped", s.dropped);
    o.push("telemetry.overwritten", s.overwritten);
    o.push("telemetry.records_lost", s.dropped + s.overwritten);
    o.push("telemetry.regions", s.regions.len() as u64);
    o.push(
        "telemetry.region_exits",
        s.regions.iter().map(|r| r.count).sum(),
    );
    if s.appended != s.drained + s.overwritten {
        return Err(format!(
            "transport law: appended {} != drained {} + overwritten {}",
            s.appended, s.drained, s.overwritten
        ));
    }
    Ok(())
}

fn session_rep(
    w: Workload,
    seed: u64,
    exec: ExecMode,
    reference: Option<&Reference>,
    tr: &mut Tracer,
) -> Result<Rep, String> {
    let t0 = Instant::now();
    let (mut session, collector) = tr.span(Layer::Build, |_| build(w, seed, exec))?;
    let t_built = Instant::now();
    let count_steps = exec == ExecMode::SingleStep;
    if count_steps {
        // A core trace is an observer only; a one-entry ring still counts
        // every step it records.
        for core in &mut session.kernel.machine.cores {
            core.enable_trace(1);
        }
    }
    let mut o = Outcome::default();
    let mut law = Ok(());
    let run_s = match collector {
        None => {
            let report = tr.span(Layer::Run, |_| session.run()).map_err(sim)?;
            let run_s = t_built.elapsed().as_secs_f64();
            let records = tr
                .span(Layer::Records, |_| session.all_records())
                .map_err(sim)?;
            let total = session.counter_grand_total(0).map_err(sim)?;
            let rank = tr.span(Layer::Rank, |_| {
                BottleneckReport::from_records(&records, &session.regions, total, 0)
            });
            o.push_report(&report);
            o.push("limit.records", records.len() as u64);
            for (i, name) in COUNTER_TOTALS.iter().enumerate() {
                o.push(name, session.counter_grand_total(i).map_err(sim)?);
            }
            o.push("analysis.regions", rank.items.len() as u64);
            o.push(
                "analysis.top_cycles",
                rank.heaviest().map_or(0, |b| b.cycles),
            );
            run_s
        }
        Some(mut collector) => {
            let m = monitored_run(&mut session, &mut collector, tr)?;
            o.push_report(&m.report);
            o.push("telemetry.snapshots", m.snapshots);
            o.push("analysis.findings", m.findings);
            law = push_transport(&mut o, &m.last);
            m.run_s
        }
    };
    let machine = &session.kernel.machine;
    o.push("sim-cpu.instrs", machine.total_retired());
    o.push("sim-mem.accesses", machine.memsys.accesses());
    o.push("sim-mem.llc_misses", machine.memsys.dram().accesses());
    o.push("workloads.program_instrs", machine.prog.len() as u64);
    let steps = count_steps.then(|| {
        machine
            .cores
            .iter()
            .filter_map(|c| c.trace.as_ref())
            .map(|t| t.total_recorded())
            .sum()
    });
    let mismatch = tr.span(Layer::Check, |_| {
        law.and_then(|()| reference.map_or(Ok(()), |r| r.check(&o)))
            .err()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Rep {
        outcome: o,
        wall_s,
        setup_s: vec![(t_built - t0).as_secs_f64()],
        run_s,
        op_ms: vec![wall_s * 1e3],
        steps,
        failed_ops: u64::from(mismatch.is_some()),
        mismatch,
    })
}

fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        instances: FLEET_INSTANCES,
        threads: FLEET_THREADS,
        queries: FLEET_QUERIES,
        seed,
        jobs: 1,
        ..FleetConfig::default()
    }
}

fn fleet_rep(seed: u64, reference: Option<&Reference>, tr: &mut Tracer) -> Result<Rep, String> {
    let cfg = fleet_config(seed);
    let (setup_s, program_instrs) = fleet_setup(&cfg, tr)?;
    let stamps = Mutex::new(Vec::with_capacity(cfg.instances));
    let t0 = Instant::now();
    let report = tr.span(Layer::Fleet, |_| {
        run_fleet(&cfg, |_, _| {
            stamps
                .lock()
                .expect("progress stamps: no other thread panics holding the lock")
                .push(Instant::now())
        })
    })?;
    let run_s = t0.elapsed().as_secs_f64();
    let merged = tr.span(Layer::Merge, |_| {
        let mut s = Snapshot::empty();
        for inst in &report.instances {
            s.merge(&inst.snapshot);
        }
        s
    });
    let (o, failed_ops, mismatch) = tr.span(Layer::Check, |_| {
        let mut o = Outcome::default();
        o.push("fleet.instances", report.instances.len() as u64);
        o.push("sim-cpu.instrs", report.total_instructions());
        o.push(
            "sim-cpu.cycles",
            report.instances.iter().map(|i| i.service_cycles).sum(),
        );
        o.push("telemetry.snapshots", report.instances.len() as u64);
        o.push(
            "analysis.instance_findings",
            report
                .instances
                .iter()
                .map(|i| i.findings.len() as u64)
                .sum(),
        );
        o.push("analysis.fleet_findings", report.findings.len() as u64);
        o.push("fleet.warnings", report.total_warnings() as u64);
        o.push("workloads.program_instrs", program_instrs);
        let law = push_transport(&mut o, &report.fleet);
        // Per instance: its own transport law, and work done.
        let broken = report
            .instances
            .iter()
            .filter(|i| {
                let s = &i.snapshot;
                i.instructions == 0 || s.appended != s.drained + s.overwritten
            })
            .count() as u64;
        let whole = law
            .and_then(|()| {
                if merged == report.fleet {
                    Ok(())
                } else {
                    Err("fleet aggregate != merge of instance snapshots".to_string())
                }
            })
            .and_then(|()| {
                if report.instances.len() == cfg.instances {
                    Ok(())
                } else {
                    Err(format!("{} instances reported", report.instances.len()))
                }
            })
            .and_then(|()| reference.map_or(Ok(()), |r| r.check(&o)));
        match whole {
            Ok(()) if broken == 0 => (o, 0, None),
            Ok(()) => (
                o,
                broken,
                Some(format!("{broken} instance(s) broke transport accounting")),
            ),
            Err(e) => (o, cfg.instances as u64, Some(e)),
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let stamps = stamps
        .into_inner()
        .expect("progress stamps: no other thread panics holding the lock");
    let op_ms = stamps
        .iter()
        .scan(t0, |prev, &t| {
            let ms = (t - *prev).as_secs_f64() * 1e3;
            *prev = t;
            Some(ms)
        })
        .collect();
    Ok(Rep {
        outcome: o,
        wall_s,
        setup_s,
        run_s,
        op_ms,
        steps: None,
        failed_ops,
        mismatch,
    })
}

/// Fleet set-up: host seconds to build one instance session the way
/// `run_fleet` builds it (the instance shape in `fleet::driver`), for the first
/// [`FLEET_SETUP_BUILDS`] instance seeds, and the instance program's size
/// in instructions.
fn fleet_setup(cfg: &FleetConfig, tr: &mut Tracer) -> Result<(Vec<f64>, u64), String> {
    let reader = LimitReader::with_events(fleet::EVENTS.to_vec());
    let mut secs = Vec::with_capacity(FLEET_SETUP_BUILDS);
    let mut program_instrs = 0;
    for i in 0..FLEET_SETUP_BUILDS {
        let wcfg = mysqld::MysqlConfig {
            threads: cfg.threads,
            queries_per_thread: cfg.queries,
            tables: 4,
            table_bytes: 16 * 1024,
            bufpool_bytes: 256 * 1024,
            seed: instance_seed(cfg.seed, i as u64),
            mode: LogMode::Stream(StreamConfig::dropping(cfg.capacity)),
            ..Default::default()
        };
        let t = Instant::now();
        let (session, _) = tr
            .span(Layer::Build, |_| {
                mysqld::build(
                    &wcfg,
                    &reader,
                    cfg.threads.clamp(1, 8),
                    &fleet::EVENTS,
                    KernelConfig::default(),
                )
            })
            .map_err(sim)?;
        secs.push(t.elapsed().as_secs_f64());
        program_instrs = session.kernel.machine.prog.len() as u64;
    }
    Ok((secs, program_instrs))
}
