//! Unit-cost probes at public entry points, measured beside every run.
//!
//! * `floor_ns_per_instr`: `Machine::run_until` on a pure-ALU loop with no
//!   kernel, no memory operands and no counters — the interpreter's
//!   per-instruction floor. It also serves as the host reference: if the
//!   floor moves together with a workload's Minstr/s, the host changed,
//!   not the code.
//! * `hit_ns`: `MemorySystem::access` on a stream that stays in L1.
//! * `miss_ns`: `MemorySystem::access` on a stream of never-touched lines,
//!   each of which misses every level and goes to DRAM.
//!
//! Each probe is repeated and the median taken.

use sim_core::{CoreId, SimError, SimResult, ThreadId};
use sim_cpu::regs::Context;
use sim_cpu::{Asm, Cond, Machine, MachineConfig, Mode, Reg, RunExit, RunLimits};
use sim_mem::{HierarchyConfig, HitLevel, MemorySystem};
use std::hint::black_box;
use std::time::Instant;

/// Probe results, host nanoseconds per operation.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// Host ns per interpreter step (one instruction each) on the ALU loop.
    pub floor_ns_per_instr: f64,
    /// Host ns per L1-hit access.
    pub hit_ns: f64,
    /// Host ns per all-miss access.
    pub miss_ns: f64,
}

const REPEATS: usize = 5;
const FLOOR_CYCLES: u64 = 2_000_000;
const HIT_ACCESSES: u64 = 1_000_000;
const MISS_ACCESSES: u64 = 200_000;

/// Runs all three probes.
pub fn measure() -> SimResult<Probes> {
    Ok(Probes {
        floor_ns_per_instr: median_of(floor)?,
        hit_ns: median_of(hit)?,
        miss_ns: median_of(miss)?,
    })
}

fn median_of(probe: fn() -> SimResult<f64>) -> SimResult<f64> {
    let mut v = (0..REPEATS)
        .map(|_| probe())
        .collect::<SimResult<Vec<_>>>()?;
    Ok(crate::stats::median(&mut v))
}

/// A loop of seven ALU adds and a branch back that is always taken.
fn alu_machine() -> SimResult<Machine> {
    let mut a = Asm::new();
    let top = a.new_label();
    a.bind(top);
    for _ in 0..6 {
        a.alui_add(Reg::R1, 1);
    }
    a.alui_add(Reg::R2, 1);
    a.br(Cond::Ne, Reg::R2, Reg::R0, top);
    let mut m = Machine::new(MachineConfig::new(1), a.assemble()?)?;
    let core = &mut m.cores[0];
    core.ctx = Context::at(0);
    core.running = Some(ThreadId::new(1));
    core.mode = Mode::User;
    Ok(m)
}

fn floor() -> SimResult<f64> {
    let mut m = alu_machine()?;
    let in_limit = vec![false; m.prog.len()];
    let stop_at = [FLOOR_CYCLES];
    let limits = RunLimits {
        stop_at: &stop_at,
        wake_at: u64::MAX,
        armed_pcs: None,
        in_limit: &in_limit,
    };
    let t = Instant::now();
    let exit = m.run_until(&limits)?;
    let secs = t.elapsed().as_secs_f64();
    if exit != RunExit::StopClock(CoreId::new(0)) {
        return Err(SimError::Harness(format!("floor probe exited {exit:?}")));
    }
    let instrs = black_box(m.cores[0].retired);
    Ok(secs * 1e9 / instrs.max(1) as f64)
}

fn hit() -> SimResult<f64> {
    let mut ms = MemorySystem::new(1, HierarchyConfig::default())?;
    let core = CoreId::new(0);
    // 64 lines (4 KiB): far inside a 32 KiB L1. Warm them first.
    let addr = |i: u64| 0x10_0000 + (i % 64) * 64;
    for i in 0..64 {
        ms.access(core, addr(i), false, i);
    }
    let mut latency = 0u64;
    let t = Instant::now();
    for i in 0..HIT_ACCESSES {
        let a = ms.access(core, addr(i), false, i);
        if a.level != HitLevel::L1 {
            return Err(SimError::Harness("hit probe left L1".into()));
        }
        latency += a.latency;
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(latency);
    Ok(secs * 1e9 / HIT_ACCESSES as f64)
}

fn miss() -> SimResult<f64> {
    let mut ms = MemorySystem::new(1, HierarchyConfig::default())?;
    let core = CoreId::new(0);
    let mut now = 0u64;
    let t = Instant::now();
    for i in 0..MISS_ACCESSES {
        let a = ms.access(core, 0x1000_0000 + i * 64, false, now);
        if a.level != HitLevel::Dram {
            return Err(SimError::Harness("miss probe hit a cache".into()));
        }
        now += a.latency;
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(now);
    Ok(secs * 1e9 / MISS_ACCESSES as f64)
}
