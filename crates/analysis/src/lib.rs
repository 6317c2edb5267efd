//! Turning raw measurements into the paper's tables and figures.
//!
//! * [`lockstats`] — lock hold/wait distributions and synchronization-
//!   overhead shares (the MySQL case study, E6/E7),
//! * [`attribution`] — attributing sampling hits to named PC ranges and
//!   precise records to regions (the precision comparison, E5),
//! * [`accuracy`] — error metrics between a precise and an estimated
//!   attribution,
//! * [`bottleneck`] — the title operation: rank regions by cycle share
//!   and name the offender,
//! * [`online`] — the same logic applied continuously to mid-run
//!   telemetry snapshots (lock-contention / memory-bound / cpu-bound
//!   classification),
//! * [`causal`] — bottleneck attribution from what-if sensitivities (the
//!   intervention-based counterpart of [`online`], fed by `crates/whatif`),
//! * [`fleet`] — the population lift of [`online`]: share-of-instances
//!   bottleneck roll-ups, session-latency percentiles, and overload
//!   detection for the fleet driver,
//! * [`overhead`] — instrumentation-overhead accounting (E2),
//! * [`table`] — plain-text table rendering shared by every experiment
//!   and CLI report.

pub mod accuracy;
pub mod attribution;
pub mod bottleneck;
pub mod causal;
pub mod compare;
pub mod fleet;
pub mod lockstats;
pub mod metrics;
pub mod online;
pub mod overhead;
pub mod profile;
pub mod table;

pub use accuracy::AccuracyReport;
pub use attribution::{precise_cycles_by_region, samples_by_range, RangeMap};
pub use bottleneck::{Bottleneck, BottleneckReport};
pub use causal::{attribute, KnobClass, KnobSensitivity};
pub use compare::Comparison;
pub use fleet::{classify_fleet, classify_instances, FleetFinding, FleetFindingKind, QueueStats};
pub use lockstats::{LockClassStats, LockReport};
pub use metrics::Rates;
pub use online::{classify, DetectorConfig, Finding, FindingKind};
pub use overhead::OverheadRow;
pub use profile::FlatProfile;
pub use table::Table;
