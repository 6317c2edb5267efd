//! `limit-repro whatif <workload>`: causal bottleneck attribution via
//! differential re-simulation.
//!
//! Runs a baseline plus one arm per machine knob (each arm scales exactly
//! one cost, same seed, same deterministic scheduler), diffs per-region
//! telemetry arm-vs-baseline, and prints the ranked sensitivity table with
//! causal findings. Stdout and the NDJSON file are byte-identical across
//! `--jobs` values; progress ticks go to stderr.
//!
//! NDJSON output (`<out-dir>/whatif-<workload>.json`, schema 3): one line
//! per region x arm — the baseline arm first (`"arm": "baseline"`,
//! sensitivity 0), then each knob arm in configured knob order.
//! `check-telemetry` verifies per-arm ordering, that every arm region
//! exists in the baseline, and that every arm line's `base_count` /
//! `base_cycles` agree with the baseline line for that region.

use sim_core::json::Json;
use whatif::{WhatifConfig, WhatifReport};

/// One schema-3 NDJSON line: a region's counters under one arm, paired
/// with its baseline values and the computed sensitivity.
#[allow(clippy::too_many_arguments)]
fn region_line(
    workload: &str,
    arm: &str,
    scale: f64,
    knob_base: u64,
    knob_scaled: u64,
    region: &str,
    count: u64,
    cycles: u64,
    base_count: u64,
    base_cycles: u64,
    sensitivity: f64,
    impact: f64,
) -> Json {
    Json::object()
        .set("schema", 3u64)
        .set("workload", workload)
        .set("arm", arm)
        .set("scale", scale)
        .set("knob_base", knob_base)
        .set("knob_scaled", knob_scaled)
        .set("region", region)
        .set("count", count)
        .set("cycles", cycles)
        .set("base_count", base_count)
        .set("base_cycles", base_cycles)
        .set("sensitivity", sensitivity)
        .set("impact", impact)
}

/// The NDJSON body: baseline region lines (snapshot order), then each
/// arm's region lines in configured knob order. Also exercised by
/// `bench --mode whatif`'s cross-jobs byte-equality gate.
pub fn render_ndjson(report: &WhatifReport) -> String {
    let cyc = 0; // EVENTS[0] is Cycles
    let mut out = String::new();
    for r in &report.baseline.regions {
        let cycles = r.event_sum(cyc);
        let line = region_line(
            report.workload,
            "baseline",
            report.scale,
            0,
            0,
            &r.name,
            r.count,
            cycles,
            r.count,
            cycles,
            0.0,
            0.0,
        );
        out.push_str(&line.compact());
        out.push('\n');
    }
    for (ai, arm) in report.arms.iter().enumerate() {
        for r in &arm.snapshot.regions {
            // Baseline values and the sensitivity come from the diff
            // phase; a region the baseline never saw (impossible under
            // the same seed, and `check-telemetry` would reject it)
            // falls back to zeros.
            let (base_count, base_cycles, sens, impact) = report
                .regions
                .iter()
                .find(|rs| rs.region == r.name)
                .map_or((0, 0, 0.0, 0.0), |rs| {
                    (
                        rs.base_count,
                        rs.base_cycles,
                        rs.sens[ai].1,
                        rs.impact[ai].1,
                    )
                });
            let line = region_line(
                report.workload,
                arm.knob.name(),
                report.scale,
                arm.base,
                arm.scaled,
                &r.name,
                r.count,
                r.event_sum(cyc),
                base_count,
                base_cycles,
                sens,
                impact,
            );
            out.push_str(&line.compact());
            out.push('\n');
        }
    }
    out
}

/// Runs the what-if engine and writes `<out_dir>/whatif-<workload>.json`.
pub fn run(cfg: &WhatifConfig, out_dir: &str) -> Result<(), String> {
    eprintln!(
        "whatif: {} ({} threads x {} queries), {} knobs at scale {:.1}, {} host jobs",
        cfg.workload.name(),
        cfg.threads,
        cfg.queries,
        cfg.knobs.len(),
        cfg.scale,
        cfg.jobs,
    );

    let report = whatif::run_whatif(cfg, |done, total| {
        eprintln!("whatif: {done}/{total} arms complete");
    })?;

    print!("{}", report.render());

    // Teardown warnings print in arm order (baseline first), so this
    // block is deterministic too.
    let arm_warnings: usize = report.arms.iter().map(|a| a.warnings.len()).sum();
    if report.baseline_warnings.is_empty() && arm_warnings == 0 {
        println!("\nteardown warnings: none — every arm tore down clean");
    } else {
        println!(
            "\nteardown warnings: {} total",
            report.baseline_warnings.len() + arm_warnings
        );
        for w in &report.baseline_warnings {
            println!("  baseline: {w}");
        }
        for arm in &report.arms {
            for w in &arm.warnings {
                println!("  {}: {w}", arm.knob);
            }
        }
    }

    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    let path = format!("{out_dir}/whatif-{}.json", report.workload);
    std::fs::write(&path, render_ndjson(&report))
        .map_err(|e| format!("cannot write {path}: {e}"))?;

    println!(
        "\nwhatif complete: {} arms, {} regions, {} findings",
        report.arms.len(),
        report.regions.len(),
        report.findings.len()
    );
    println!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Spec;

    /// Parses `whatif <args>` through the CLI front end.
    fn parse(args: &str) -> Result<WhatifConfig, String> {
        let argv: Vec<String> = format!("whatif {args}")
            .split_whitespace()
            .map(str::to_string)
            .collect();
        match crate::parse(&argv)? {
            crate::Command::Whatif(cfg, _) => Ok(*cfg),
            _ => panic!("`whatif {args}` parsed as another command"),
        }
    }

    fn rejects(workload: &str, flag: &str, applies_to: &str) {
        let err = parse(&format!("{workload} {flag}")).unwrap_err();
        assert!(
            err.contains(&format!("applies to {applies_to}, not {workload}")),
            "{err:?}"
        );
    }

    #[test]
    fn stripes_outside_memcached_is_an_error() {
        rejects("mysqld", "--stripes 4", "memcached");
        let cfg = parse("memcached --stripes 4").unwrap();
        assert!(matches!(cfg.workload, Spec::Memcached(c) if c.stripes == 4));
    }

    #[test]
    fn buckets_outside_memcached_is_an_error() {
        rejects("logstore", "--buckets 256", "memcached");
    }

    #[test]
    fn hold_rmws_outside_memcached_is_an_error() {
        rejects("proxy", "--hold-rmws 16", "memcached");
    }

    #[test]
    fn bufpool_outside_mysqld_is_an_error() {
        rejects("memcached", "--bufpool 1048576", "mysqld");
        let cfg = parse("mysqld --bufpool 1048576").unwrap();
        assert!(matches!(cfg.workload, Spec::Mysqld(c) if c.bufpool_bytes == 1 << 20));
    }
}
