//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's side of each layer boundary: the
//! benchmark wraps every call it makes into a module's public API in
//! [`Tracer::span`]. A span has a name (its [`Layer`]), a start, an end,
//! the span that enclosed it, and the id of the workload repetition it
//! belongs to. Self time — a span's duration minus the part its child
//! spans cover — is summed per layer as spans close, so per-layer numbers
//! need no post-pass. Raw spans are kept in memory up to a fixed cap and
//! written out once, at exit.
//!
//! Taking a span costs two clock reads and some bookkeeping, and part of
//! that lands in the enclosing span's self time. The tracer measures that
//! part once, on empty spans, and subtracts it per child span, as
//! nanoBench subtracts its measured probe overhead.
//!
//! A disabled tracer runs the wrapped closure and records nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// The span names: one per layer boundary the benchmark crosses, plus
/// the repetition root and the benchmark's own output check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One workload repetition, from the first build call to the checked
    /// result. Its self time is the part no layer span covers.
    Rep,
    /// `workloads::<name>::build` (and the collector attach that
    /// completes a stream-mode session).
    Build,
    /// The kernel run call: `Session::run` or `Kernel::run_with_hook`.
    /// With hooks, its self time excludes them.
    Run,
    /// `Session::all_records`: decoding the per-thread record logs.
    Records,
    /// `BottleneckReport::from_records`: the `stat` ranking.
    Rank,
    /// `Collector::drain`.
    Drain,
    /// `Collector::snapshot`.
    Snapshot,
    /// `analysis::online::classify`.
    Classify,
    /// `fleet::run_fleet`.
    Fleet,
    /// `Snapshot::merge` over a fleet report's instance snapshots.
    Merge,
    /// The benchmark's output check.
    Check,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 11;

    /// The span name, `<module>.<operation>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Rep => "rep",
            Layer::Build => "workloads.build",
            Layer::Run => "sim-os.run",
            Layer::Records => "limit.records",
            Layer::Rank => "analysis.rank",
            Layer::Drain => "telemetry.drain",
            Layer::Snapshot => "telemetry.snapshot",
            Layer::Classify => "analysis.classify",
            Layer::Fleet => "fleet.run",
            Layer::Merge => "telemetry.merge",
            Layer::Check => "bench.check",
        }
    }
}

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    run: u32,
}

#[derive(Debug)]
struct Open {
    id: u32,
    start_ns: u64,
    child_ns: u64,
    children: u64,
}

/// Per-layer self time of one repetition, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTimes {
    /// Self time per layer, indexed by `Layer as usize`.
    pub self_ns: [u64; Layer::COUNT],
    /// Duration of the repetition's root span.
    pub wall_ns: u64,
}

impl RunTimes {
    /// Self time of `layer` in milliseconds.
    pub fn ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e6
    }
}

/// Raw spans kept for the trace file; later spans still count toward
/// self time but are not stored (the file reports how many).
const SPAN_CAP: usize = 1 << 16;

/// Empty child spans timed to calibrate the per-span cost.
const CALIBRATION_SPANS: u64 = 20_000;

/// The recorder. See the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u32,
    run: u32,
    stack: Vec<Open>,
    current: RunTimes,
    spans: Vec<Span>,
    unstored: u64,
    /// Calibrated cost one child span adds to its parent's self time, ns.
    span_cost_ns: f64,
}

impl Tracer {
    /// A tracer; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: 0,
            run: 0,
            stack: Vec::new(),
            current: RunTimes::default(),
            spans: Vec::new(),
            unstored: 0,
            span_cost_ns: 0.0,
        }
    }

    /// Measures what one child span adds to its parent's self time (the
    /// median of five rounds of empty spans under one parent), keeps it
    /// for subtraction, and forgets the calibration spans.
    pub fn calibrate(&mut self) -> f64 {
        let was = self.enabled;
        self.enabled = true;
        let mut rounds: Vec<f64> = (0..5)
            .map(|_| {
                let ((), t) = self.rep(0, |tr| {
                    for _ in 0..CALIBRATION_SPANS {
                        tr.span(Layer::Check, |_| ());
                    }
                });
                t.self_ns[Layer::Rep as usize] as f64 / CALIBRATION_SPANS as f64
            })
            .collect();
        self.span_cost_ns = crate::stats::median(&mut rounds);
        self.spans.clear();
        self.unstored = 0;
        self.next_id = 0;
        self.enabled = was;
        self.span_cost_ns
    }

    /// Switches recording on or off between repetitions (the traced run
    /// alternates traced and untraced repetitions to measure overhead).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            start_ns,
            child_ns: 0,
            children: 0,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span stack underflow");
        debug_assert_eq!(open.id, id, "spans closed out of order");
        let dur = end_ns - open.start_ns;
        let probe_ns = (open.children as f64 * self.span_cost_ns) as u64;
        self.current.self_ns[layer as usize] +=
            dur.saturating_sub(open.child_ns).saturating_sub(probe_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.children += 1;
            p.id
        });
        if layer == Layer::Rep {
            self.current.wall_ns += dur;
        }
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id,
                layer,
                start_ns: open.start_ns,
                end_ns,
                parent,
                run: self.run,
            });
        } else {
            self.unstored += 1;
        }
        out
    }

    /// Runs one repetition `f` under a root span with run id `run`, and
    /// returns its result with the repetition's per-layer self times.
    pub fn rep<T>(&mut self, run: u32, f: impl FnOnce(&mut Tracer) -> T) -> (T, RunTimes) {
        self.run = run;
        self.current = RunTimes::default();
        let out = self.span(Layer::Rep, f);
        (out, std::mem::take(&mut self.current))
    }

    /// Writes the stored spans as NDJSON: one header line, then one line
    /// per span in close order.
    pub fn write(&self, path: &str, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::with_capacity(96 * (self.spans.len() + 1));
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":{},\"unstored\":{}}}",
            self.spans.len(),
            self.unstored
        );
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.id,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.run
            );
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    /// Spans stored for the trace file, and spans past the cap.
    pub fn span_counts(&self) -> (usize, u64) {
        (self.spans.len(), self.unstored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_root_self_is_uncovered() {
        let mut tr = Tracer::new(true);
        let ((), t) = tr.rep(0, |tr| {
            tr.span(Layer::Run, |tr| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                tr.span(Layer::Drain, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(3))
                });
            });
        });
        assert!(t.self_ns[Layer::Drain as usize] >= 3_000_000);
        assert!(t.self_ns[Layer::Run as usize] >= 2_000_000);
        let covered: u64 = t.self_ns[1..].iter().sum();
        assert_eq!(t.self_ns[Layer::Rep as usize] + covered, t.wall_ns);
        assert_eq!(tr.span_counts(), (3, 0));
    }

    #[test]
    fn calibrated_probe_cost_is_subtracted() {
        let mut tr = Tracer::new(true);
        let cost = tr.calibrate();
        assert!(cost > 0.0 && cost < 100_000.0, "span cost {cost} ns");
        assert_eq!(tr.span_counts(), (0, 0));
        // Empty children under one parent: after subtraction the parent's
        // self time is far below the uncorrected probe total.
        let ((), t) = tr.rep(1, |tr| {
            for _ in 0..10_000 {
                tr.span(Layer::Check, |_| ());
            }
        });
        let raw = 10_000.0 * cost;
        assert!((t.self_ns[Layer::Rep as usize] as f64) < raw);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let (v, t) = tr.rep(0, |tr| tr.span(Layer::Run, |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.wall_ns, 0);
        assert_eq!(tr.span_counts(), (0, 0));
    }
}
