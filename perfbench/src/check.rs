//! Output check: what a repetition simulated, and the reference it must
//! match.
//!
//! An [`Outcome`] is a list of named simulated quantities (run-report
//! fields, retired instructions, record and snapshot counts, transport
//! counters). Simulated statistics are deterministic for a seed, so the
//! reference is exact: a digest recorded in the benchmark for the default
//! seed, or, for any other seed, the outcome of an untimed re-run of the
//! same input (under the single-step interpreter where the workload lets
//! the benchmark choose it).

use sim_os::RunReport;

/// Named simulated quantities of one repetition, in a fixed order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Outcome(Vec<(&'static str, u64)>);

impl Outcome {
    /// Appends one quantity.
    pub fn push(&mut self, name: &'static str, value: u64) {
        self.0.push((name, value));
    }

    /// Looks a quantity up by name; 0 when absent.
    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Appends the kernel's run-report fields.
    pub fn push_report(&mut self, r: &RunReport) {
        self.push("sim-cpu.cycles", r.total_cycles);
        self.push("sim-os.context_switches", r.context_switches);
        self.push("sim-os.preemptions", r.preemptions);
        self.push("sim-os.migrations", r.migrations);
        self.push("sim-cpu.pmis", r.pmis);
        self.push("sim-os.limit_folds", r.limit_folds);
        self.push("sim-os.limit_fixups", r.limit_fixups);
        self.push("sim-os.limit_unfixed_races", r.limit_unfixed_races);
        self.push("sim-os.syscalls", r.syscalls);
        self.push("sim-os.limit_rejected_ranges", r.limit_rejected_ranges);
        self.push("sim-os.futex_waits", r.futex.0);
        self.push("sim-os.futex_wakes", r.futex.1);
        self.push("sim-os.blocked_cycles", r.blocked_cycles);
        self.push("sim-os.io_submits", r.io_submits);
        self.push("sim-os.io_wait_cycles", r.io_wait_cycles);
        self.push("limit.dropped_records", r.warnings.dropped_records);
    }

    /// FNV-1a over every `name=value` pair.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (name, value) in &self.0 {
            for b in name.bytes().chain([b'=']).chain(value.to_le_bytes()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The first quantity that differs from `want`, described.
    fn first_diff(&self, want: &Outcome) -> Option<String> {
        if self.0.len() != want.0.len() {
            return Some(format!(
                "{} quantities, reference has {}",
                self.0.len(),
                want.0.len()
            ));
        }
        self.0
            .iter()
            .zip(&want.0)
            .find(|(a, b)| a != b)
            .map(|((n, got), (wn, want))| format!("{n}={got}, reference {wn}={want}"))
    }
}

/// What a repetition's outcome must match.
#[derive(Debug, Clone)]
pub enum Reference {
    /// The recorded digest of the default seed's outcome.
    Digest(u64),
    /// The outcome of an untimed re-run of the same input.
    Outcome(Outcome),
}

impl Reference {
    /// `Ok` when `got` matches, else the mismatch described.
    pub fn check(&self, got: &Outcome) -> Result<(), String> {
        match self {
            Reference::Digest(want) => {
                let d = got.digest();
                if d == *want {
                    Ok(())
                } else {
                    Err(format!("digest {d:#018x}, recorded {want:#018x}"))
                }
            }
            Reference::Outcome(want) => match got.first_diff(want) {
                None => Ok(()),
                Some(diff) => Err(diff),
            },
        }
    }

    /// The same reference, deliberately wrong: the self-test checks that a
    /// correct outcome fails against it.
    pub fn perturbed(&self) -> Reference {
        match self {
            Reference::Digest(d) => Reference::Digest(d ^ 1),
            Reference::Outcome(o) => {
                let mut o = o.clone();
                if let Some(first) = o.0.first_mut() {
                    first.1 ^= 1;
                }
                Reference::Outcome(o)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        let mut o = Outcome::default();
        o.push("sim-cpu.instrs", 1000);
        o.push("limit.records", 7);
        o
    }

    #[test]
    fn perturbed_references_fail() {
        let o = sample();
        for r in [Reference::Digest(o.digest()), Reference::Outcome(o.clone())] {
            assert!(r.check(&o).is_ok());
            assert!(r.perturbed().check(&o).is_err());
        }
    }

    #[test]
    fn digest_depends_on_names_and_values() {
        let mut renamed = Outcome::default();
        renamed.push("sim-cpu.cycles", 1000);
        renamed.push("limit.records", 7);
        assert_ne!(renamed.digest(), sample().digest());
        assert_eq!(sample().get("limit.records"), 7);
        assert_eq!(sample().get("absent"), 0);
    }
}
