//! The workload registry: one [`Spec`] names an application together with
//! its full configuration, so every command that runs "a workload" —
//! `monitor`, `trace`, `stat`, each what-if arm, each fleet instance —
//! parses, reshapes and builds it the same way.
//!
//! This module also holds the one build path every workload module
//! shares ([`build_image`]): emit the image, size the session's
//! instrumentation for the logging mode, boot the session, then spawn
//! the threads. Only the spawn step differs per workload.

use crate::apache::ApacheConfig;
use crate::firefox::FirefoxConfig;
use crate::logstore::LogstoreConfig;
use crate::memcached::MemcachedConfig;
use crate::mysqld::MysqlConfig;
use crate::proxy::ProxyConfig;
use crate::{apache, firefox, logstore, memcached, mysqld, proxy};
use limit::harness::{Session, SessionBuilder};
use limit::report::Regions;
use limit::{CounterReader, LogMode};
use sim_core::{DetRng, SimError, SimResult};
use sim_cpu::{Asm, EventKind, MemLayout};

/// One application workload and its configuration.
#[derive(Debug, Clone)]
pub enum Spec {
    /// The MySQL-like storage engine (table/bufpool/log lock hierarchy).
    Mysqld(MysqlConfig),
    /// The memcached-like striped hash cache.
    Memcached(MemcachedConfig),
    /// The log-structured store with fsync-bound group commits.
    Logstore(LogstoreConfig),
    /// The scatter-gather proxy doing blocking network fan-out.
    Proxy(ProxyConfig),
    /// The request-per-thread web server.
    Apache(ApacheConfig),
    /// The browser-like event loop with helper threads.
    Firefox(FirefoxConfig),
}

impl Spec {
    /// Every workload name, in registry order.
    pub const NAMES: [&'static str; 6] = [
        "mysqld",
        "memcached",
        "logstore",
        "proxy",
        "apache",
        "firefox",
    ];

    /// The named workload at its default configuration.
    pub fn parse(name: &str) -> SimResult<Spec> {
        Ok(match name {
            "mysqld" => Spec::Mysqld(MysqlConfig::default()),
            "memcached" => Spec::Memcached(MemcachedConfig::default()),
            "logstore" => Spec::Logstore(LogstoreConfig::default()),
            "proxy" => Spec::Proxy(ProxyConfig::default()),
            "apache" => Spec::Apache(ApacheConfig::default()),
            "firefox" => Spec::Firefox(FirefoxConfig::default()),
            other => {
                return Err(SimError::Config(format!(
                    "unknown workload {other:?} (known: {})",
                    Spec::NAMES.join(", ")
                )))
            }
        })
    }

    /// The workload's CLI name (the inverse of [`Spec::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            Spec::Mysqld(_) => "mysqld",
            Spec::Memcached(_) => "memcached",
            Spec::Logstore(_) => "logstore",
            Spec::Proxy(_) => "proxy",
            Spec::Apache(_) => "apache",
            Spec::Firefox(_) => "firefox",
        }
    }

    /// The shape for callers that build many short sessions (fleet
    /// instances, what-if arms): mysqld switches to
    /// [`MysqlConfig::small_footprint`]; every other workload's default
    /// footprint is already small and is kept.
    pub fn compact(self) -> Spec {
        match self {
            Spec::Mysqld(_) => Spec::Mysqld(MysqlConfig::small_footprint()),
            other => other,
        }
    }

    /// Sets the shape callers vary, mapped onto each config's own fields:
    /// worker `threads`, work items `per_thread` (queries, operations,
    /// commits or requests; firefox: main-loop tasks, with `threads - 1`
    /// helpers beside the main thread), the base `seed` (`None` keeps the
    /// config's own) and the logging `mode`.
    ///
    /// Apache and firefox emit only log-mode exits, so any other mode is
    /// an error rather than a silently different run.
    pub fn with_shape(
        mut self,
        threads: usize,
        per_thread: u64,
        seed: Option<u64>,
        mode: LogMode,
    ) -> SimResult<Spec> {
        let name = self.name();
        match &mut self {
            Spec::Mysqld(c) => {
                (c.threads, c.queries_per_thread, c.mode) = (threads, per_thread, mode);
                c.seed = seed.unwrap_or(c.seed);
            }
            Spec::Memcached(c) => {
                (c.workers, c.ops_per_worker, c.mode) = (threads, per_thread, mode);
                c.seed = seed.unwrap_or(c.seed);
            }
            Spec::Logstore(c) => {
                (c.threads, c.commits_per_thread, c.mode) = (threads, per_thread, mode);
                c.seed = seed.unwrap_or(c.seed);
            }
            Spec::Proxy(c) => {
                (c.threads, c.requests_per_thread, c.mode) = (threads, per_thread, mode);
                c.seed = seed.unwrap_or(c.seed);
            }
            Spec::Apache(_) | Spec::Firefox(_) if mode != LogMode::Log => {
                return Err(SimError::Config(format!(
                    "{name} has only log-mode instrumentation; stream and aggregate \
                     modes need one of mysqld, memcached, logstore, proxy"
                )))
            }
            Spec::Apache(c) => {
                (c.workers, c.requests_per_worker) = (threads, per_thread);
                c.seed = seed.unwrap_or(c.seed);
            }
            Spec::Firefox(c) => {
                (c.helpers, c.tasks) = (threads.saturating_sub(1), per_thread);
                c.seed = seed.unwrap_or(c.seed);
            }
        }
        Ok(self)
    }

    /// Emits the workload under `reader` and boots it on the machine
    /// `builder` describes, every thread spawned and nothing run yet.
    pub fn build(
        &self,
        reader: &dyn CounterReader,
        events: &[EventKind],
        builder: SessionBuilder,
    ) -> SimResult<Session> {
        Ok(match self {
            Spec::Mysqld(c) => mysqld::build_on(c, reader, builder, events)?.0,
            Spec::Memcached(c) => memcached::build_on(c, reader, builder, events)?.0,
            Spec::Logstore(c) => logstore::build_on(c, reader, builder, events)?.0,
            Spec::Proxy(c) => proxy::build_on(c, reader, builder, events)?.0,
            Spec::Apache(c) => apache::build_on(c, reader, builder, events)?.0,
            Spec::Firefox(c) => firefox::build_on(c, reader, builder, events)?.0,
        })
    }
}

/// The build path every workload shares: `emit` the image, size the
/// session's instrumentation for `mode`, boot the session on `builder`,
/// attach the image's region names, then `spawn` the threads.
pub(crate) fn build_image<I>(
    builder: SessionBuilder,
    events: &[EventKind],
    mode: LogMode,
    emit: impl FnOnce(&mut Asm, &mut MemLayout, &mut Regions) -> SimResult<I>,
    spawn: impl FnOnce(&mut Session, &I) -> SimResult<()>,
) -> SimResult<(Session, I)> {
    let mut layout = MemLayout::default();
    let mut regions = Regions::new();
    let mut asm = Asm::new();
    let image = emit(&mut asm, &mut layout, &mut regions)?;
    let mut builder = builder.events(events).with_layout(layout);
    match mode {
        LogMode::Log => {}
        LogMode::Aggregate => builder = builder.aggregate_regions(regions.len()),
        LogMode::Stream(stream_cfg) => builder = builder.stream(stream_cfg),
    }
    let mut session = builder.build(asm)?;
    session.regions = regions;
    spawn(&mut session, &image)?;
    Ok((session, image))
}

/// `n` per-worker seeds drawn in order from one base seed.
pub(crate) fn worker_seeds(seed: u64, n: usize) -> impl Iterator<Item = u64> {
    let mut rng = DetRng::new(seed);
    (0..n).map(move |_| rng.next_u64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use limit::{NullReader, StreamConfig};

    #[test]
    fn every_name_round_trips() {
        for name in Spec::NAMES {
            assert_eq!(Spec::parse(name).unwrap().name(), name);
        }
    }

    #[test]
    fn unknown_name_lists_every_workload() {
        let err = Spec::parse("postgres").unwrap_err().to_string();
        for name in Spec::NAMES {
            assert!(err.contains(name), "{err:?} does not list {name}");
        }
    }

    #[test]
    fn log_only_workloads_reject_other_modes() {
        for name in ["apache", "firefox"] {
            for mode in [
                LogMode::Stream(StreamConfig::dropping(64)),
                LogMode::Aggregate,
            ] {
                let err = Spec::parse(name)
                    .unwrap()
                    .with_shape(2, 4, None, mode)
                    .unwrap_err();
                assert!(matches!(err, SimError::Config(_)), "{name}: {err}");
            }
            assert!(Spec::parse(name)
                .unwrap()
                .with_shape(2, 4, None, LogMode::Log)
                .is_ok());
        }
    }

    #[test]
    fn shape_maps_onto_each_config() {
        for name in Spec::NAMES {
            let spec = Spec::parse(name)
                .unwrap()
                .with_shape(3, 5, Some(77), LogMode::Log)
                .unwrap();
            let (threads, per_thread, seed) = match &spec {
                Spec::Mysqld(c) => (c.threads, c.queries_per_thread, c.seed),
                Spec::Memcached(c) => (c.workers, c.ops_per_worker, c.seed),
                Spec::Logstore(c) => (c.threads, c.commits_per_thread, c.seed),
                Spec::Proxy(c) => (c.threads, c.requests_per_thread, c.seed),
                Spec::Apache(c) => (c.workers, c.requests_per_worker, c.seed),
                Spec::Firefox(c) => (c.helpers + 1, c.tasks, c.seed),
            };
            assert_eq!((threads, per_thread, seed), (3, 5, 77), "{name}");
        }
    }

    #[test]
    fn every_spec_builds_and_runs() {
        for name in Spec::NAMES {
            let spec = Spec::parse(name)
                .unwrap()
                .compact()
                .with_shape(2, 3, None, LogMode::Log)
                .unwrap();
            let mut session = spec
                .build(&NullReader::new(), &[], SessionBuilder::new(2))
                .unwrap();
            assert!(session.run().unwrap().total_cycles > 0, "{name}");
        }
    }
}
