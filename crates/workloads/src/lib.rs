//! Synthetic application workloads for the reproduction's case studies.
//!
//! Each workload emits guest code parameterized by a
//! [`limit::CounterReader`], so the same application can be run
//! uninstrumented, LiMiT-instrumented, perf-instrumented, PAPI-
//! instrumented, or under the sampling profiler — the comparison the
//! paper's overhead and precision experiments make.
//!
//! * [`locks`] — glibc-style futex mutexes in guest code (atomic fast
//!   path, `futex` slow path); every application lock is built on these.
//! * [`prng`] — a guest-side LCG for data-dependent control flow and
//!   address generation (deterministic per seed).
//! * [`kernels`] — kernels with *statically known* event counts, the
//!   ground truth for the correctness experiments (E3/E4).
//! * [`microbench`] — the read-cost microbenchmark behind the paper's
//!   headline table (E1).
//! * [`mysqld`] — a MySQL-like storage-engine skeleton: worker threads,
//!   table locks, a buffer-pool mutex, a log mutex (E2/E6/E7).
//! * [`firefox`] — an event-loop application with short heterogeneous
//!   tasks and helper threads (E5/E8).
//! * [`apache`] — a request-per-thread web server with per-request phases
//!   (E9).
//! * [`logstore`] — a log-structured store with fsync-bound commits
//!   (E18).
//! * [`proxy`] — a scatter-gather proxy doing blocking network fan-out
//!   (E18).
//! * [`spec`] — the registry: one [`Spec`] per application above, parsed
//!   by name and built through one shared path.

pub mod apache;
pub mod firefox;
pub mod kernels;
pub mod locks;
pub mod logstore;
pub mod memcached;
pub mod microbench;
pub mod mysqld;
pub mod prng;
pub mod proxy;
pub mod spec;
pub mod suite;

pub use spec::Spec;
