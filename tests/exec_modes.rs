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

use limit::{LimitReader, SessionBuilder};
use sim_cpu::EventKind;
use sim_os::{ExecMode, KernelConfig, RunReport};
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
