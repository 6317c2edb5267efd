//! Cross-interpreter differential tests: every workload must produce a
//! bit-identical simulation under the legacy per-instruction interpreter
//! (`ExecMode::SingleStep`) and the block-stepped fast path
//! (`ExecMode::Block`). The block executor's batched event accrual and
//! run-ahead are *optimizations* — any observable difference (kernel run
//! report, retired instruction totals, virtualized counter values) is a
//! bug in the fast path, not a tolerance to widen.
//!
//! The `bench` command enforces the same gate at full mysqld scale on
//! every benchmark run; these tests cover the other workloads at small
//! configurations so the gate rides along with `cargo test`.

use limit::report::Regions;
use limit::{LimitReader, SessionBuilder};
use sim_cpu::{Asm, EventKind, MachineConfig, MemLayout, PmuConfig};
use sim_os::{ExecMode, KernelConfig, RunReport};
use workloads::apache::{self, ApacheConfig};
use workloads::firefox::{self, FirefoxConfig};
use workloads::memcached::MemcachedConfig;
use workloads::mysqld::MysqlConfig;
use workloads::Spec;

const EVENTS: [EventKind; 3] = [
    EventKind::Cycles,
    EventKind::Instructions,
    EventKind::LlcMisses,
];

/// Everything observable from one run, gathered for exact comparison.
#[derive(Debug, PartialEq)]
struct Observed {
    report: RunReport,
    total_retired: u64,
    /// Per-thread virtualized counter totals, in spawn order.
    counters: Vec<Vec<u64>>,
}

fn observe(session: &limit::harness::Session, report: RunReport) -> Observed {
    let counters = session
        .spawned_tids()
        .into_iter()
        .map(|tid| {
            (0..EVENTS.len())
                .map(|i| session.counter_total(tid, i).unwrap_or(u64::MAX))
                .collect()
        })
        .collect();
    Observed {
        report,
        total_retired: session.kernel.machine.total_retired(),
        counters,
    }
}

/// Runs `spec` on 4 cores under both interpreters and asserts that every
/// observable matches.
fn assert_identical_across_exec_modes(spec: Spec) {
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let run = |exec| {
        let kcfg = KernelConfig {
            exec,
            ..KernelConfig::default()
        };
        let builder = SessionBuilder::new(4).kernel_config(kcfg);
        let mut session = spec.build(&reader, &EVENTS, builder).unwrap();
        let report = session.run().unwrap();
        observe(&session, report)
    };
    assert_eq!(
        run(ExecMode::SingleStep),
        run(ExecMode::Block),
        "{}: block-stepped run diverged from single-step",
        spec.name()
    );
}

#[test]
fn mysqld_is_identical_across_exec_modes() {
    assert_identical_across_exec_modes(Spec::Mysqld(MysqlConfig {
        queries_per_thread: 40,
        ..Default::default()
    }));
}

#[test]
fn memcached_is_identical_across_exec_modes() {
    assert_identical_across_exec_modes(Spec::Memcached(MemcachedConfig {
        ops_per_worker: 300,
        ..Default::default()
    }));
}

#[test]
fn apache_is_identical_across_exec_modes() {
    assert_identical_across_exec_modes(Spec::Apache(Default::default()));
}

#[test]
fn firefox_is_identical_across_exec_modes() {
    assert_identical_across_exec_modes(Spec::Firefox(Default::default()));
}

// ---------------------------------------------------------------------
// Preemption-heavy and narrow-counter differentials.
//
// The default-shape tests above never raise a PMI inside a LiMiT read
// range (48-bit counters do not wrap at these sizes), and with one thread
// per core no ready thread ever waits for a slice to expire. The grid
// below covers both: 10- and 12-bit counters in PMI and
// self-virtualizing-spill modes, on 6 threads over 4 cores with a short
// quantum (slice expiry preempts an ahead core) and on 4 threads over 4
// cores.
// ---------------------------------------------------------------------

/// How the LiMiT counters handle overflow.
#[derive(Debug, Clone, Copy)]
enum Overflow {
    /// The kernel's PMI handler folds each wrap.
    Pmi,
    /// Self-virtualizing hardware spills each wrap to guest memory.
    Spill,
}

/// Machine/kernel shape of one differential arm.
#[derive(Debug, Clone, Copy)]
struct Shape {
    threads: usize,
    cores: usize,
    quantum: u64,
    counter_bits: u32,
    overflow: Overflow,
}

/// The grid every narrow-counter workload test sweeps.
fn narrow_shapes() -> Vec<Shape> {
    let mut shapes = Vec::new();
    for (threads, quantum) in [(6, 20_000), (4, KernelConfig::default().quantum)] {
        for counter_bits in [10, 12] {
            for overflow in [Overflow::Pmi, Overflow::Spill] {
                shapes.push(Shape {
                    threads,
                    cores: 4,
                    quantum,
                    counter_bits,
                    overflow,
                });
            }
        }
    }
    shapes
}

/// Runs `spec` under both interpreters on `shape`'s machine, asserts every
/// observable matches, and returns the (shared) observation.
fn assert_shape_identical(spec: &Spec, shape: Shape) -> Observed {
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let run = |exec| {
        let pmu = PmuConfig {
            counter_bits: shape.counter_bits,
            ext_self_virtualizing: matches!(shape.overflow, Overflow::Spill),
            ..PmuConfig::default()
        };
        let kcfg = KernelConfig {
            exec,
            quantum: shape.quantum,
            ..KernelConfig::default()
        };
        let builder = SessionBuilder::new(shape.cores)
            .machine_config(MachineConfig::new(shape.cores).with_pmu(pmu))
            .kernel_config(kcfg);
        let mut session = spec.build(&reader, &EVENTS, builder).unwrap();
        let report = session.run().unwrap();
        observe(&session, report)
    };
    let single = run(ExecMode::SingleStep);
    let block = run(ExecMode::Block);
    assert_eq!(
        single,
        block,
        "{} {shape:?}: block-stepped run diverged from single-step",
        spec.name()
    );
    if matches!(shape.overflow, Overflow::Pmi) {
        // Folds inside read ranges are what the restart fix-up rewinds;
        // an arm that never raises one would not exercise batched accrual
        // across a range at all.
        assert!(single.report.pmis > 0, "{shape:?}: no PMI raised");
        assert!(
            single.report.limit_fixups > 0,
            "{shape:?}: no fold landed inside a read range"
        );
    }
    single
}

#[test]
fn mysqld_narrow_counters_are_identical_across_exec_modes() {
    for shape in narrow_shapes() {
        let spec = Spec::Mysqld(MysqlConfig {
            threads: shape.threads,
            queries_per_thread: 60,
            ..Default::default()
        });
        assert_shape_identical(&spec, shape);
    }
}

#[test]
fn memcached_narrow_counters_are_identical_across_exec_modes() {
    for shape in narrow_shapes() {
        let spec = Spec::Memcached(MemcachedConfig {
            workers: shape.threads,
            ops_per_worker: 200,
            ..Default::default()
        });
        assert_shape_identical(&spec, shape);
    }
}

/// E11's shape, shrunk: the firefox-like foreground application
/// co-located with an open-ended apache-like server, measured with
/// `run_until_exit` on the firefox main thread. Returns the report and
/// machine-wide retired instructions when the foreground thread exits.
fn colocated_until_exit(cores: usize, exec: ExecMode) -> (RunReport, u64) {
    let events = [EventKind::Cycles, EventKind::LlcMisses];
    let reader = LimitReader::with_events(events.to_vec());
    let fx_cfg = FirefoxConfig {
        tasks: 150,
        ..FirefoxConfig::default()
    };
    let ap_cfg = ApacheConfig {
        workers: 5,
        requests_per_worker: 10_000,
        ..ApacheConfig::default()
    };
    let mut layout = MemLayout::default();
    let mut regions = Regions::new();
    let mut asm = Asm::new();
    let fx = firefox::emit(&mut asm, &mut layout, &mut regions, &reader, &fx_cfg).unwrap();
    let ap = apache::emit(&mut asm, &mut layout, &mut regions, &reader, &ap_cfg).unwrap();
    let mut session = SessionBuilder::new(cores)
        .events(&events)
        .with_layout(layout)
        .kernel_config(KernelConfig {
            exec,
            quantum: 20_000,
            ..KernelConfig::default()
        })
        .build(asm)
        .unwrap();
    let main = session
        .spawn_instrumented(fx.entry_main, &[fx_cfg.seed])
        .unwrap();
    for h in 0..fx_cfg.helpers {
        session
            .spawn_instrumented(fx.entry_helper, &[h as u64])
            .unwrap();
    }
    for w in 0..ap_cfg.workers {
        session
            .spawn_instrumented(ap.entry, &[ap_cfg.seed + w as u64])
            .unwrap();
    }
    let report = session.run_until_exit(main).unwrap();
    (report, session.kernel.machine.total_retired())
}

#[test]
fn run_until_exit_stops_block_at_the_single_step_boundary() {
    for cores in [4, 8] {
        assert_eq!(
            colocated_until_exit(cores, ExecMode::SingleStep),
            colocated_until_exit(cores, ExecMode::Block),
            "{cores} cores: block run_until_exit diverged from single-step"
        );
    }
}
