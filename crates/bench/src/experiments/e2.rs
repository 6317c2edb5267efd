//! E2 — instrumentation overhead on the MySQL workload.
//!
//! Every critical section is instrumented (two reads per region boundary
//! pair); the access method is swapped per run and the wall-clock
//! inflation against the uninstrumented run is reported.

use analysis::{OverheadRow, Table};
use baselines::{PapiReader, PerfReader};
use limit::{CounterReader, LimitReader, NullReader};
use sim_core::SimResult;
use sim_cpu::EventKind;
use sim_os::KernelConfig;
use workloads::mysqld::{self, MysqlConfig};

/// Events attached by every instrumented run.
pub const EVENTS: [EventKind; 2] = [EventKind::Cycles, EventKind::Instructions];

/// One (method, thread-count) cell of the overhead figure.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// Thread count.
    pub threads: usize,
    /// The overhead measurement.
    pub row: OverheadRow,
}

fn mysql_cfg(threads: usize, queries: u64) -> MysqlConfig {
    MysqlConfig {
        threads,
        queries_per_thread: queries,
        ..MysqlConfig::default()
    }
}

fn reader_for(method: &str) -> Box<dyn CounterReader> {
    match method {
        "none" => Box::new(NullReader::new()),
        "limit" | "limit-agg" => Box::new(LimitReader::with_events(EVENTS.to_vec())),
        "perf" => Box::new(PerfReader::with_events(EVENTS.to_vec())),
        "papi" => Box::new(PapiReader::with_events(EVENTS.to_vec())),
        other => panic!("unknown method {other}"),
    }
}

/// The methods compared, baseline first. `limit-agg` is LiMiT with
/// aggregate-table logging instead of per-event records.
pub const METHODS: [&str; 5] = ["none", "limit", "limit-agg", "perf", "papi"];

/// Runs the sweep: every (thread count, method) cell, in parallel on the
/// host (cells are deterministic and independent).
pub fn run(thread_counts: &[usize], queries: u64, cores: usize) -> SimResult<Vec<E2Row>> {
    let cells: Vec<(usize, &str)> = thread_counts
        .iter()
        .flat_map(|&t| METHODS.iter().map(move |&m| (t, m)))
        .collect();
    let measured: Vec<SimResult<(usize, &str, u64, u64)>> =
        sim_core::parallel::parmap(cells, |(threads, method)| {
            let mut cfg = mysql_cfg(threads, queries);
            if method == "limit-agg" {
                cfg.mode = limit::LogMode::Aggregate;
            }
            let reader = reader_for(method);
            let events: &[EventKind] = if method == "none" { &[] } else { &EVENTS };
            let run = mysqld::run(
                &cfg,
                reader.as_ref(),
                cores,
                events,
                KernelConfig::default(),
            )?;
            let records = if method == "none" {
                0
            } else if method == "limit-agg" {
                run.session
                    .aggregates_total()?
                    .iter()
                    .map(|a| a.count)
                    .sum()
            } else {
                run.session.all_records()?.len() as u64
            };
            Ok((threads, method, run.report.total_cycles, records))
        });
    let measured = measured.into_iter().collect::<SimResult<Vec<_>>>()?;
    let baseline_of = |threads: usize| -> u64 {
        measured
            .iter()
            .find(|&&(t, m, _, _)| t == threads && m == "none")
            .map(|&(_, _, cy, _)| cy)
            .unwrap_or(0)
    };
    Ok(measured
        .iter()
        .map(|&(threads, method, cycles, records)| E2Row {
            threads,
            row: OverheadRow {
                method: method.to_string(),
                baseline_cycles: baseline_of(threads),
                instrumented_cycles: cycles,
                reads: records * 2 * EVENTS.len() as u64,
            },
        })
        .collect())
}

/// Renders the overhead figure as a table.
pub fn table(rows: &[E2Row]) -> Table {
    let mut t = Table::new(
        "E2: runtime overhead of full critical-section instrumentation (mysqld)",
        &[
            "threads", "method", "cycles", "overhead", "reads", "cy/read",
        ],
    );
    for r in rows {
        t.row(&[
            r.threads.to_string(),
            r.row.method.clone(),
            analysis::table::fmt_count(r.row.instrumented_cycles),
            if r.row.method == "none" {
                "-".into()
            } else {
                format!("{:+.1}%", r.row.overhead_percent())
            },
            analysis::table::fmt_count(r.row.reads),
            if r.row.reads == 0 {
                "-".into()
            } else {
                format!("{:.0}", r.row.cycles_per_read())
            },
        ]);
    }
    t
}

/// Fetches the overhead fraction for `(threads, method)`.
pub fn overhead_of(rows: &[E2Row], threads: usize, method: &str) -> Option<f64> {
    rows.iter()
        .find(|r| r.threads == threads && r.row.method == method)
        .map(|r| r.row.overhead())
}
