//! E12 (extension) — the lock-striping what-if study.
//!
//! The paper's pitch is that precise, cheap counting lets architects and
//! developers answer structural questions quantitatively. Here the
//! question is: *how many lock stripes does the key-value store need
//! before synchronization stops being the bottleneck?* Each arm sweeps the
//! stripe count and measures, per operation, the lock-acquire cost (LiMiT
//! cycles), the blocked time, and the resulting throughput.

use analysis::{LockReport, Table};
use limit::LimitReader;
use sim_core::SimResult;
use sim_cpu::EventKind;
use sim_os::KernelConfig;
use workloads::memcached::{self, MemcachedConfig};

/// One stripe-count row.
#[derive(Debug, Clone)]
pub struct E12Row {
    /// Lock stripes.
    pub stripes: u64,
    /// Throughput in ops per million guest cycles.
    pub ops_per_mcycle: f64,
    /// Mean lock-acquire cycles (busy, virtualized).
    pub mean_acq: f64,
    /// Mean bucket critical-section cycles.
    pub mean_hold: f64,
    /// Combined sync share (busy + blocked) of thread time.
    pub sync_share: f64,
    /// Futex waits.
    pub futex_waits: u64,
}

/// Sweeps the stripe count under full LiMiT instrumentation.
pub fn run(stripe_counts: &[u64], cores: usize) -> SimResult<Vec<E12Row>> {
    let events = [EventKind::Cycles];
    let rows = sim_core::parallel::parmap(stripe_counts.to_vec(), |stripes| {
        let cfg = MemcachedConfig {
            workers: 16,
            ops_per_worker: 250,
            stripes,
            ..MemcachedConfig::default()
        };
        let reader = LimitReader::with_events(events.to_vec());
        let run = memcached::run(&cfg, &reader, cores, &events, KernelConfig::default())?;
        let records = run.session.all_records()?;
        let classes = [("stripe", run.image.regions.acq, run.image.regions.hold)];
        let total_user = run.session.counter_grand_total(0)?;
        let report = LockReport::build(&records, &classes, total_user);
        let class = report.class("stripe").expect("class built above");
        let blocked = run.report.blocked_cycles;
        let sync_share =
            (report.sync_cycles() + blocked) as f64 / (total_user + blocked).max(1) as f64;
        Ok(E12Row {
            stripes,
            ops_per_mcycle: run.ops_per_mcycle(),
            mean_acq: class.acquire.mean().unwrap_or(0.0),
            mean_hold: class.hold.mean().unwrap_or(0.0),
            sync_share,
            futex_waits: run.report.futex.0,
        })
    });
    rows.into_iter().collect()
}

/// Renders the sweep table.
pub fn table(rows: &[E12Row]) -> Table {
    let mut t = Table::new(
        "E12: lock-striping what-if (memcached-like store, 16 workers, 8 cores)",
        &[
            "stripes",
            "ops/Mcycle",
            "acq cycles",
            "hold cycles",
            "sync share",
            "futex waits",
        ],
    );
    for r in rows {
        t.row(&[
            r.stripes.to_string(),
            format!("{:.1}", r.ops_per_mcycle),
            format!("{:.0}", r.mean_acq),
            format!("{:.0}", r.mean_hold),
            format!("{:.1}%", r.sync_share * 100.0),
            r.futex_waits.to_string(),
        ]);
    }
    t
}
