//! The per-core performance-monitoring unit.
//!
//! Modeled after the IA32 architectural PMU the paper targets:
//!
//! * a small bank of programmable counters (default 4) with per-counter
//!   event selectors,
//! * user/kernel mode filter bits,
//! * configurable counter width (default 48 bits — narrow widths are used
//!   by tests and experiment E3 to force frequent overflows),
//! * an overflow-interrupt (PMI) enable per counter,
//! * a privilege gate on userspace reads (`rdpmc` faults unless the kernel
//!   set the core's "user rdpmc" flag — the flag LiMiT's kernel extension
//!   turns on and the stock-kernel baseline leaves off).
//!
//! The paper's three proposed **hardware enhancements** are implemented
//! behind [`PmuConfig`] switches, all off by default:
//!
//! 1. **Destructive read** (`ext_destructive_read`): a read-and-clear
//!    instruction removes the read-subtract-read dance from delta
//!    measurement.
//! 2. **Self-virtualizing counters** (`ext_self_virtualizing`): on
//!    overflow, hardware spills `2^width` into a 64-bit guest-memory
//!    accumulator instead of raising a PMI, eliminating overflow interrupts
//!    entirely.
//! 3. **Tag-filtered counting** (`ext_tag_filter`): a counter only counts
//!    while the core's software-set tag matches the counter's tag, letting
//!    instrumentation code exclude itself from its own measurements.

use crate::core::Mode;
use crate::events::EventKind;
use serde::{Deserialize, Serialize};
use sim_core::{SimError, SimResult};
use std::collections::VecDeque;

/// PMU-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PmuConfig {
    /// Number of programmable counter slots.
    pub programmable: usize,
    /// Counter width in bits (raw values wrap at `2^counter_bits`).
    pub counter_bits: u32,
    /// Hardware enhancement 1: destructive (read-and-clear) reads.
    pub ext_destructive_read: bool,
    /// Hardware enhancement 2: spill-to-memory on overflow, no PMI.
    pub ext_self_virtualizing: bool,
    /// Hardware enhancement 3: tag-filtered counting.
    pub ext_tag_filter: bool,
}

impl Default for PmuConfig {
    fn default() -> Self {
        PmuConfig {
            programmable: 4,
            counter_bits: 48,
            ext_destructive_read: false,
            ext_self_virtualizing: false,
            ext_tag_filter: false,
        }
    }
}

impl PmuConfig {
    /// Validates counter count and width.
    pub fn validate(&self) -> SimResult<()> {
        if self.programmable == 0 || self.programmable > 16 {
            return Err(SimError::Config(format!(
                "PMU supports 1..=16 programmable counters, got {}",
                self.programmable
            )));
        }
        if !(6..=63).contains(&self.counter_bits) {
            return Err(SimError::Config(format!(
                "counter width must be 6..=63 bits, got {}",
                self.counter_bits
            )));
        }
        Ok(())
    }
}

/// Configuration of one counter slot (the event-select register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterCfg {
    /// The event to count.
    pub event: EventKind,
    /// Count events occurring in user mode.
    pub count_user: bool,
    /// Count events occurring in kernel mode.
    pub count_kernel: bool,
    /// Raise a PMI when the counter wraps.
    pub pmi_on_overflow: bool,
    /// Enhancement 3: when `Some(t)` (and the extension is enabled), count
    /// only while the core's tag equals `t`.
    pub tag: Option<u64>,
    /// Enhancement 2: when `Some(addr)` (and the extension is enabled), on
    /// overflow the hardware adds `2^width` to the 64-bit guest word at
    /// `addr` instead of raising a PMI.
    pub spill_addr: Option<u64>,
    /// Value the counter reloads to on overflow (sampling re-arm). `None`
    /// reloads to zero. Hardware auto-reload keeps the sampling phase even
    /// when a multi-event instruction wraps the counter more than once.
    pub reload: Option<u64>,
}

impl CounterCfg {
    /// A user-mode-only counter for `event` with no overflow interrupt.
    pub fn user(event: EventKind) -> Self {
        CounterCfg {
            event,
            count_user: true,
            count_kernel: false,
            pmi_on_overflow: false,
            tag: None,
            spill_addr: None,
            reload: None,
        }
    }

    /// A counter for `event` counting in both modes.
    pub fn all_modes(event: EventKind) -> Self {
        CounterCfg {
            count_kernel: true,
            ..CounterCfg::user(event)
        }
    }

    /// Enables the overflow PMI.
    pub fn with_pmi(mut self) -> Self {
        self.pmi_on_overflow = true;
        self
    }

    /// Sets the tag filter (enhancement 3).
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = Some(tag);
        self
    }

    /// Sets the spill address (enhancement 2).
    pub fn with_spill(mut self, addr: u64) -> Self {
        self.spill_addr = Some(addr);
        self
    }

    /// Sets the overflow reload value (sampling re-arm).
    pub fn with_reload(mut self, reload: u64) -> Self {
        self.reload = Some(reload);
        self
    }
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Slot {
    cfg: Option<CounterCfg>,
    raw: u64,
}

/// A pending hardware spill (enhancement 2): add `amount` to the guest
/// word at `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spill {
    /// Guest address of the 64-bit accumulator.
    pub addr: u64,
    /// Amount to add (`2^width` per overflow).
    pub amount: u64,
}

/// One core's PMU.
///
/// Event delivery is the hottest operation in the whole simulator (every
/// retired instruction calls [`Pmu::count`] at least twice), so the PMU
/// keeps a per-[`EventKind`] **subscriber index**: for each event kind, the
/// slot numbers currently programmed to count it, maintained at
/// [`Pmu::configure`] / [`Pmu::disable`] time. `count` then touches only
/// subscribed slots — O(subscribers) instead of O(all slots) per delivery.
#[derive(Debug, Clone)]
pub struct Pmu {
    config: PmuConfig,
    slots: Vec<Slot>,
    user_rdpmc: bool,
    pending_pmi: VecDeque<u8>,
    pending_spills: Vec<Spill>,
    overflows: u64,
    /// Kernel-visible spill journal (the paper's enhancement 2 done
    /// right): number of self-virtualizing spills performed since the
    /// kernel last consulted the journal. A non-zero journal tells the
    /// kernel a spill may have landed mid-read-sequence, so the restart
    /// fix-up must run — closing the race where spills were invisible to
    /// the kernel entirely.
    spill_journal: u64,
    /// `subscribers[EventKind::index()]` = slot numbers (ascending) whose
    /// configuration counts that event. Rebuilt on configure/disable.
    subscribers: [Vec<u8>; EventKind::COUNT],
    /// Bit `EventKind::index()` set iff that event has a subscriber.
    subscribed: u32,
}

const _: () = assert!(EventKind::COUNT <= u32::BITS as usize);

impl Pmu {
    /// Builds a PMU from a validated config.
    pub fn new(config: PmuConfig) -> SimResult<Self> {
        config.validate()?;
        Ok(Pmu {
            slots: vec![Slot::default(); config.programmable],
            config,
            user_rdpmc: false,
            pending_pmi: VecDeque::new(),
            pending_spills: Vec::new(),
            overflows: 0,
            spill_journal: 0,
            subscribers: Default::default(),
            subscribed: 0,
        })
    }

    /// Rebuilds the per-event subscriber index from slot configurations.
    /// O(slots) — called only on the cold configure/disable path.
    fn rebuild_subscribers(&mut self) {
        for list in &mut self.subscribers {
            list.clear();
        }
        self.subscribed = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(cfg) = slot.cfg {
                self.subscribers[cfg.event.index()].push(i as u8);
                self.subscribed |= 1 << cfg.event.index();
            }
        }
    }

    /// The PMU-wide configuration.
    pub fn config(&self) -> PmuConfig {
        self.config
    }

    /// Maximum raw value plus one (the wrap modulus).
    pub fn modulus(&self) -> u64 {
        1u64 << self.config.counter_bits
    }

    fn check_idx(&self, idx: u8) -> SimResult<usize> {
        let i = idx as usize;
        if i >= self.slots.len() {
            return Err(self.index_error(idx));
        }
        Ok(i)
    }

    /// The error an access to the nonexistent counter `idx` raises.
    #[cold]
    pub(crate) fn index_error(&self, idx: u8) -> SimError {
        SimError::Resource(format!(
            "counter index {idx} out of range (PMU has {})",
            self.slots.len()
        ))
    }

    /// Programs counter `idx` (kernel-privileged operation).
    pub fn configure(&mut self, idx: u8, cfg: CounterCfg) -> SimResult<()> {
        if cfg.spill_addr.is_some() && !self.config.ext_self_virtualizing {
            return Err(SimError::Config(
                "spill_addr requires the self-virtualizing extension".into(),
            ));
        }
        if cfg.tag.is_some() && !self.config.ext_tag_filter {
            return Err(SimError::Config(
                "tag filter requires the tag-filter extension".into(),
            ));
        }
        if let Some(reload) = cfg.reload {
            // A reload at or past the wrap point can never be reached by a
            // real counter: reject it here rather than silently masking it
            // to a different sampling phase at overflow time.
            if reload >= self.modulus() {
                return Err(SimError::Config(format!(
                    "reload value {reload} does not fit a {}-bit counter \
                     (must be < {})",
                    self.config.counter_bits,
                    self.modulus()
                )));
            }
        }
        let i = self.check_idx(idx)?;
        self.slots[i] = Slot {
            cfg: Some(cfg),
            raw: 0,
        };
        self.rebuild_subscribers();
        Ok(())
    }

    /// Disables counter `idx`, clearing its value.
    pub fn disable(&mut self, idx: u8) -> SimResult<()> {
        let i = self.check_idx(idx)?;
        self.slots[i] = Slot::default();
        self.rebuild_subscribers();
        Ok(())
    }

    /// Returns the configuration of counter `idx`, if programmed.
    pub fn counter_cfg(&self, idx: u8) -> Option<CounterCfg> {
        self.slots.get(idx as usize).and_then(|s| s.cfg)
    }

    /// Reads the raw value of counter `idx` (no privilege check — the core
    /// engine enforces the user-rdpmc gate before calling this).
    pub fn read(&self, idx: u8) -> SimResult<u64> {
        let i = self.check_idx(idx)?;
        Ok(self.slots[i].raw)
    }

    /// Reads and clears counter `idx` (enhancement 1's semantics; also used
    /// by the kernel, which may always read-and-clear).
    pub fn read_clear(&mut self, idx: u8) -> SimResult<u64> {
        let i = self.check_idx(idx)?;
        Ok(std::mem::take(&mut self.slots[i].raw))
    }

    /// Writes the raw value of counter `idx` (kernel-privileged; used to
    /// restore virtualized state and to arm sampling periods).
    pub fn write(&mut self, idx: u8, value: u64) -> SimResult<()> {
        let i = self.check_idx(idx)?;
        self.slots[i].raw = value & (self.modulus() - 1);
        Ok(())
    }

    /// Whether userspace `rdpmc` is permitted on this core.
    pub fn user_rdpmc(&self) -> bool {
        self.user_rdpmc
    }

    /// Sets the userspace-`rdpmc` gate (kernel-privileged; the analogue of
    /// CR4.PCE).
    pub fn set_user_rdpmc(&mut self, allowed: bool) {
        self.user_rdpmc = allowed;
    }

    /// Records `n` occurrences of `event` in `mode` with the core tag
    /// `core_tag`. Overflows set PMIs or spills per counter configuration.
    ///
    /// Dispatch is indexed: only slots subscribed to `event` are visited
    /// (in ascending slot order, matching the historical full-scan order).
    pub fn count(&mut self, event: EventKind, n: u64, mode: Mode, core_tag: u64) {
        if n == 0 {
            return;
        }
        let modulus = self.modulus();
        // Disjoint field borrows: the subscriber list is read-only here
        // while slots and the pending queues are mutated.
        let Pmu {
            config,
            slots,
            pending_pmi,
            pending_spills,
            overflows,
            spill_journal,
            subscribers,
            ..
        } = self;
        for &idx in &subscribers[event.index()] {
            let slot = &mut slots[idx as usize];
            let cfg = slot.cfg.expect("indexed slot is configured");
            debug_assert_eq!(cfg.event, event, "subscriber index out of sync");
            let mode_ok = match mode {
                Mode::User => cfg.count_user,
                Mode::Kernel => cfg.count_kernel,
            };
            if !mode_ok {
                continue;
            }
            if config.ext_tag_filter {
                if let Some(t) = cfg.tag {
                    if t != core_tag {
                        continue;
                    }
                }
            }
            // Apply events one overflow at a time so the reload value (the
            // sampling re-arm point) is honoured even when one instruction
            // retires more events than the remaining counter headroom.
            let mut remaining = n;
            loop {
                let room = modulus - slot.raw;
                if remaining < room {
                    slot.raw += remaining;
                    break;
                }
                remaining -= room;
                // Reload fits the width: `configure` rejects anything else.
                slot.raw = cfg.reload.unwrap_or(0);
                *overflows += 1;
                if let Some(addr) = cfg.spill_addr.filter(|_| config.ext_self_virtualizing) {
                    pending_spills.push(Spill {
                        addr,
                        amount: modulus,
                    });
                    *spill_journal += 1;
                } else if cfg.pmi_on_overflow {
                    pending_pmi.push_back(idx);
                }
            }
        }
    }

    /// Delivers a batch of per-event counts (indexed by
    /// [`EventKind::index`]) in ascending event order, as that many
    /// [`Pmu::count`] calls would, and zeroes the batch. Events no slot
    /// subscribes to cannot change any state, so they cost no call.
    pub(crate) fn count_batch(
        &mut self,
        counts: &mut [u64; EventKind::COUNT],
        mode: Mode,
        core_tag: u64,
    ) {
        let mut events = self.subscribed;
        while events != 0 {
            let i = events.trailing_zeros() as usize;
            events &= events - 1;
            self.count(EventKind::ALL[i], counts[i], mode, core_tag);
        }
        *counts = [0; EventKind::COUNT];
    }

    /// Takes the next pending overflow interrupt, if any (FIFO, O(1)).
    pub fn take_pmi(&mut self) -> Option<u8> {
        self.pending_pmi.pop_front()
    }

    /// Whether an overflow interrupt is pending.
    pub fn pmi_pending(&self) -> bool {
        !self.pending_pmi.is_empty()
    }

    /// Whether hardware spills (enhancement 2) await the machine.
    pub(crate) fn spills_pending(&self) -> bool {
        !self.pending_spills.is_empty()
    }

    /// Drains pending hardware spills (enhancement 2); the machine applies
    /// them to guest memory.
    pub fn take_spills(&mut self) -> Vec<Spill> {
        std::mem::take(&mut self.pending_spills)
    }

    /// Number of self-virtualizing spills since the journal was last
    /// consulted (the kernel-visible spill journal).
    pub fn spill_journal(&self) -> u64 {
        self.spill_journal
    }

    /// Consults and clears the spill journal (kernel-privileged): the
    /// kernel reads this at instruction boundaries and runs the restart
    /// fix-up when it is non-zero.
    pub fn take_spill_journal(&mut self) -> u64 {
        std::mem::take(&mut self.spill_journal)
    }

    /// Records `n` spills performed outside [`Pmu::count`] in the journal.
    /// Used by the kernel's forced-spill injection, which models the same
    /// hardware event and must be equally journal-visible.
    pub fn journal_spills(&mut self, n: u64) {
        self.spill_journal += n;
    }

    /// The smallest remaining headroom (events until overflow) across
    /// slots whose overflow has a side effect — a PMI or a memory spill.
    /// `u64::MAX` when no such slot is armed. The block-stepped executor
    /// uses this to bound how many events it may accrue in batch before a
    /// flush could fire an interrupt at the wrong instruction.
    pub fn armed_headroom(&self) -> u64 {
        let modulus = self.modulus();
        let mut headroom = u64::MAX;
        for slot in &self.slots {
            let Some(cfg) = slot.cfg else { continue };
            let spills = cfg
                .spill_addr
                .filter(|_| self.config.ext_self_virtualizing)
                .is_some();
            if spills || cfg.pmi_on_overflow {
                headroom = headroom.min(modulus - slot.raw);
            }
        }
        headroom
    }

    /// Lifetime overflow count (for experiment E3's PMI-rate ablation).
    pub fn overflows(&self) -> u64 {
        self.overflows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmu() -> Pmu {
        Pmu::new(PmuConfig::default()).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(PmuConfig::default().validate().is_ok());
        assert!(PmuConfig {
            programmable: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(PmuConfig {
            counter_bits: 64,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(PmuConfig {
            counter_bits: 5,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn counting_respects_event_kind() {
        let mut p = pmu();
        p.configure(0, CounterCfg::user(EventKind::Instructions))
            .unwrap();
        p.count(EventKind::Instructions, 5, Mode::User, 0);
        p.count(EventKind::Cycles, 100, Mode::User, 0);
        assert_eq!(p.read(0).unwrap(), 5);
    }

    #[test]
    fn counting_respects_mode_filter() {
        let mut p = pmu();
        p.configure(0, CounterCfg::user(EventKind::Cycles)).unwrap();
        p.configure(1, CounterCfg::all_modes(EventKind::Cycles))
            .unwrap();
        p.count(EventKind::Cycles, 10, Mode::User, 0);
        p.count(EventKind::Cycles, 7, Mode::Kernel, 0);
        assert_eq!(p.read(0).unwrap(), 10, "user-only counter skips kernel");
        assert_eq!(p.read(1).unwrap(), 17);
    }

    #[test]
    fn count_batch_matches_one_count_per_event() {
        let cfg = PmuConfig {
            counter_bits: 8,
            ext_self_virtualizing: true,
            ..Default::default()
        };
        let program = |p: &mut Pmu| {
            p.configure(0, CounterCfg::user(EventKind::Loads).with_pmi())
                .unwrap();
            p.configure(1, CounterCfg::user(EventKind::Cycles).with_spill(0x80))
                .unwrap();
            p.configure(2, CounterCfg::user(EventKind::Instructions).with_pmi())
                .unwrap();
            p.write(2, 250).unwrap();
        };
        let mut batched = Pmu::new(cfg).unwrap();
        let mut single = Pmu::new(cfg).unwrap();
        program(&mut batched);
        program(&mut single);
        let mut counts = [0u64; EventKind::COUNT];
        for (i, n) in counts.iter_mut().enumerate() {
            *n = 100 * i as u64 + 7;
        }
        for (i, &n) in counts.iter().enumerate() {
            single.count(EventKind::ALL[i], n, Mode::User, 0);
        }
        batched.count_batch(&mut counts, Mode::User, 0);
        assert_eq!(counts, [0; EventKind::COUNT], "batch is drained");
        for idx in 0..3 {
            assert_eq!(batched.read(idx).unwrap(), single.read(idx).unwrap());
        }
        assert_eq!(batched.take_spills(), single.take_spills());
        assert_eq!(batched.spill_journal(), single.spill_journal());
        let drain = |p: &mut Pmu| std::iter::from_fn(|| p.take_pmi()).collect::<Vec<_>>();
        assert_eq!(drain(&mut batched), drain(&mut single));
    }

    #[test]
    fn overflow_wraps_and_raises_pmi() {
        let mut p = Pmu::new(PmuConfig {
            counter_bits: 8, // wrap at 256
            ..Default::default()
        })
        .unwrap();
        p.configure(0, CounterCfg::user(EventKind::Instructions).with_pmi())
            .unwrap();
        p.count(EventKind::Instructions, 300, Mode::User, 0);
        assert_eq!(p.read(0).unwrap(), 300 - 256);
        assert!(p.pmi_pending());
        assert_eq!(p.take_pmi(), Some(0));
        assert!(!p.pmi_pending());
        assert_eq!(p.overflows(), 1);
    }

    #[test]
    fn multiple_wraps_raise_multiple_pmis() {
        let mut p = Pmu::new(PmuConfig {
            counter_bits: 8,
            ..Default::default()
        })
        .unwrap();
        p.configure(0, CounterCfg::user(EventKind::Cycles).with_pmi())
            .unwrap();
        p.count(EventKind::Cycles, 256 * 3 + 5, Mode::User, 0);
        assert_eq!(p.read(0).unwrap(), 5);
        assert_eq!(p.take_pmi(), Some(0));
        assert_eq!(p.take_pmi(), Some(0));
        assert_eq!(p.take_pmi(), Some(0));
        assert_eq!(p.take_pmi(), None);
    }

    #[test]
    fn overflow_without_pmi_enable_is_silent() {
        let mut p = Pmu::new(PmuConfig {
            counter_bits: 8,
            ..Default::default()
        })
        .unwrap();
        p.configure(0, CounterCfg::user(EventKind::Cycles)).unwrap();
        p.count(EventKind::Cycles, 300, Mode::User, 0);
        assert!(!p.pmi_pending());
    }

    #[test]
    fn write_masks_to_width() {
        let mut p = Pmu::new(PmuConfig {
            counter_bits: 8,
            ..Default::default()
        })
        .unwrap();
        p.configure(0, CounterCfg::user(EventKind::Cycles)).unwrap();
        p.write(0, 0x1FF).unwrap();
        assert_eq!(p.read(0).unwrap(), 0xFF);
    }

    #[test]
    fn read_clear_takes_value() {
        let mut p = pmu();
        p.configure(0, CounterCfg::user(EventKind::Cycles)).unwrap();
        p.count(EventKind::Cycles, 42, Mode::User, 0);
        assert_eq!(p.read_clear(0).unwrap(), 42);
        assert_eq!(p.read(0).unwrap(), 0);
    }

    #[test]
    fn out_of_range_counter_is_resource_error() {
        let mut p = pmu();
        assert_eq!(p.read(9).unwrap_err().category(), "resource");
        assert!(p.configure(9, CounterCfg::user(EventKind::Cycles)).is_err());
    }

    #[test]
    fn spill_requires_extension() {
        let mut p = pmu();
        let cfg = CounterCfg::user(EventKind::Cycles).with_spill(0x1000);
        assert!(p.configure(0, cfg).is_err());
    }

    #[test]
    fn tag_requires_extension() {
        let mut p = pmu();
        let cfg = CounterCfg::user(EventKind::Cycles).with_tag(3);
        assert!(p.configure(0, cfg).is_err());
    }

    #[test]
    fn self_virtualizing_spills_instead_of_pmi() {
        let mut p = Pmu::new(PmuConfig {
            counter_bits: 8,
            ext_self_virtualizing: true,
            ..Default::default()
        })
        .unwrap();
        p.configure(
            0,
            CounterCfg::user(EventKind::Cycles)
                .with_pmi()
                .with_spill(0x4000),
        )
        .unwrap();
        p.count(EventKind::Cycles, 600, Mode::User, 0);
        assert!(!p.pmi_pending(), "spill replaces PMI");
        let spills = p.take_spills();
        let total: u64 = spills.iter().map(|s| s.amount).sum();
        assert!(spills.iter().all(|s| s.addr == 0x4000));
        assert_eq!(total, 512);
        assert_eq!(p.read(0).unwrap(), 600 - 512);
    }

    #[test]
    fn reload_preserves_sampling_phase_across_bursts() {
        // 8-bit counter armed at 256-100 (period 100). A single batch of
        // 1000 events must fire floor((1000 - 100)/100) + 1 = 10 PMIs and
        // leave the counter mid-period, exactly as one-at-a-time delivery
        // would.
        let mut p = Pmu::new(PmuConfig {
            counter_bits: 8,
            ..Default::default()
        })
        .unwrap();
        p.configure(
            0,
            CounterCfg::user(EventKind::Instructions)
                .with_pmi()
                .with_reload(256 - 100),
        )
        .unwrap();
        p.write(0, 256 - 100).unwrap();
        p.count(EventKind::Instructions, 1_000, Mode::User, 0);
        let mut pmis = 0;
        while p.take_pmi().is_some() {
            pmis += 1;
        }
        assert_eq!(pmis, 10);
        let expected_residue = 256 - 100; // reload point; 1000 % 100 == 0 extra
        assert_eq!(p.read(0).unwrap(), expected_residue);
    }

    #[test]
    fn reload_must_fit_counter_width() {
        // Width 6: the counter wraps at 64, so 64 is the first invalid
        // reload. Before validation this silently masked to 0 — a period
        // change, not the configured phase.
        let mut p = Pmu::new(PmuConfig {
            counter_bits: 6,
            ..Default::default()
        })
        .unwrap();
        let ok = CounterCfg::user(EventKind::Cycles)
            .with_pmi()
            .with_reload(63);
        assert!(p.configure(0, ok).is_ok());
        let bad = CounterCfg::user(EventKind::Cycles)
            .with_pmi()
            .with_reload(64);
        let err = p.configure(0, bad).unwrap_err();
        assert_eq!(err.category(), "config");
        // The rejected configure must not have clobbered the slot.
        assert_eq!(p.counter_cfg(0), Some(ok));

        // Width 63: the widest supported counter; 2^63 must be rejected,
        // 2^63 - 1 accepted.
        let mut p = Pmu::new(PmuConfig {
            counter_bits: 63,
            ..Default::default()
        })
        .unwrap();
        let ok = CounterCfg::user(EventKind::Cycles)
            .with_pmi()
            .with_reload((1u64 << 63) - 1);
        assert!(p.configure(0, ok).is_ok());
        let bad = CounterCfg::user(EventKind::Cycles)
            .with_pmi()
            .with_reload(1u64 << 63);
        assert_eq!(p.configure(0, bad).unwrap_err().category(), "config");
    }

    #[test]
    fn simultaneous_multi_slot_overflow_orders_pmis_by_slot_index() {
        // Two slots counting the same event, both one delivery away from
        // wrapping. A single `count` call must enqueue both PMIs in slot
        // order (0 then 1) — the deterministic FIFO order the kernel's
        // PMI handler and the trust matrix rely on.
        let mut p = Pmu::new(PmuConfig {
            counter_bits: 8,
            ..Default::default()
        })
        .unwrap();
        // Configure in *reverse* slot order to pin that delivery order
        // follows slot index, not configuration order.
        p.configure(1, CounterCfg::user(EventKind::Cycles).with_pmi())
            .unwrap();
        p.configure(0, CounterCfg::user(EventKind::Cycles).with_pmi())
            .unwrap();
        p.write(0, 255).unwrap();
        p.write(1, 255).unwrap();
        p.count(EventKind::Cycles, 1, Mode::User, 0);
        assert_eq!(p.take_pmi(), Some(0), "slot 0 delivers first");
        assert_eq!(p.take_pmi(), Some(1));
        assert_eq!(p.take_pmi(), None);
        assert_eq!(p.overflows(), 2);
    }

    #[test]
    fn coalesced_back_to_back_overflows_stay_fifo_across_slots() {
        // Slot 0 wraps twice and slot 1 wraps once in one delivery. All of
        // slot 0's PMIs drain before slot 1's (per-slot work completes
        // before the next subscriber is visited), and the total matches
        // one-at-a-time delivery.
        let mut p = Pmu::new(PmuConfig {
            counter_bits: 8,
            ..Default::default()
        })
        .unwrap();
        p.configure(0, CounterCfg::user(EventKind::Cycles).with_pmi())
            .unwrap();
        p.configure(1, CounterCfg::user(EventKind::Cycles).with_pmi())
            .unwrap();
        p.write(0, 200).unwrap();
        p.write(1, 10).unwrap();
        p.count(EventKind::Cycles, 312, Mode::User, 0);
        assert_eq!(p.take_pmi(), Some(0));
        assert_eq!(p.take_pmi(), Some(0));
        assert_eq!(p.take_pmi(), Some(1));
        assert_eq!(p.take_pmi(), None);
        assert_eq!(p.read(0).unwrap(), (200 + 312) % 256);
        assert_eq!(p.read(1).unwrap(), (10 + 312) % 256);
    }

    #[test]
    fn tag_filter_gates_counting() {
        let mut p = Pmu::new(PmuConfig {
            ext_tag_filter: true,
            ..Default::default()
        })
        .unwrap();
        p.configure(0, CounterCfg::user(EventKind::Instructions).with_tag(7))
            .unwrap();
        p.count(EventKind::Instructions, 5, Mode::User, 7);
        p.count(EventKind::Instructions, 5, Mode::User, 3);
        assert_eq!(p.read(0).unwrap(), 5);
    }

    #[test]
    fn untagged_counter_counts_regardless_of_core_tag() {
        let mut p = Pmu::new(PmuConfig {
            ext_tag_filter: true,
            ..Default::default()
        })
        .unwrap();
        p.configure(0, CounterCfg::user(EventKind::Instructions))
            .unwrap();
        p.count(EventKind::Instructions, 5, Mode::User, 99);
        assert_eq!(p.read(0).unwrap(), 5);
    }

    #[test]
    fn spills_are_journaled_for_the_kernel() {
        let mut p = Pmu::new(PmuConfig {
            counter_bits: 8,
            ext_self_virtualizing: true,
            ..Default::default()
        })
        .unwrap();
        p.configure(0, CounterCfg::user(EventKind::Cycles).with_spill(0x4000))
            .unwrap();
        assert_eq!(p.spill_journal(), 0);
        p.count(EventKind::Cycles, 600, Mode::User, 0);
        assert_eq!(p.spill_journal(), 2, "two wraps, two journal entries");
        assert_eq!(p.take_spill_journal(), 2);
        assert_eq!(p.spill_journal(), 0, "consulting clears the journal");
        p.journal_spills(3);
        assert_eq!(p.spill_journal(), 3, "forced spills are journal-visible");
    }

    #[test]
    fn armed_headroom_tracks_the_nearest_side_effect() {
        let mut p = Pmu::new(PmuConfig {
            counter_bits: 8,
            ext_self_virtualizing: true,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(p.armed_headroom(), u64::MAX, "nothing armed");
        p.configure(0, CounterCfg::user(EventKind::Cycles)).unwrap();
        p.count(EventKind::Cycles, 250, Mode::User, 0);
        assert_eq!(p.armed_headroom(), u64::MAX, "silent wrap is not armed");
        p.configure(1, CounterCfg::user(EventKind::Instructions).with_pmi())
            .unwrap();
        p.count(EventKind::Instructions, 200, Mode::User, 0);
        assert_eq!(p.armed_headroom(), 56);
        p.configure(2, CounterCfg::user(EventKind::Loads).with_spill(0x4000))
            .unwrap();
        p.count(EventKind::Loads, 230, Mode::User, 0);
        assert_eq!(p.armed_headroom(), 26, "spill slot is closer");
    }

    #[test]
    fn disable_clears_slot() {
        let mut p = pmu();
        p.configure(0, CounterCfg::user(EventKind::Cycles)).unwrap();
        p.count(EventKind::Cycles, 5, Mode::User, 0);
        p.disable(0).unwrap();
        assert_eq!(p.read(0).unwrap(), 0);
        p.count(EventKind::Cycles, 5, Mode::User, 0);
        assert_eq!(p.read(0).unwrap(), 0, "disabled slot does not count");
    }
}
