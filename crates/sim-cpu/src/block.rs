//! Basic-block predecoder for the block-stepped executor.
//!
//! [`BlockMap::build`] statically partitions a program into basic blocks:
//! maximal straight-line runs that can only be entered at their first
//! instruction. A new block starts at the program entry, at every control
//! flow target (branch, jump, call), after every control-transfer or
//! serializing instruction (branches, jumps, call/ret, syscall, halt,
//! counter reads, tag writes), and at every pc covered by a registered
//! LiMiT restart range — a mid-sequence pc must be re-enterable because the
//! kernel's restart fix-up can rewind execution onto it.
//!
//! The executor ([`crate::machine::Machine::run_until`]) consumes the
//! per-pc `in_limit` table. In-range pcs batch their PMU accrual like any
//! other pc — the executor's headroom guard delivers every overflow at
//! the instruction boundary per-instruction accrual would, so a fold the
//! restart fix-up rewinds still lands at the exact in-range pc — but they
//! never run ahead of the cross-core arbitration minimum. The block
//! partition itself is the specification the boundary proptests and the
//! differential harness check against.
//!
//! The executor runs each step in place: it fetches the instruction,
//! executes it through the same `match` [`crate::machine::Machine::step`]
//! uses, and accrues cycles, instructions and events into the core's
//! batch, with no per-step `Step` value. Run-ahead has two more limits,
//! both set by the kernel per core as
//! [`crate::core::Core::ahead_horizon`]: an ahead core does not step at
//! or past its slice end when a thread made ready mid-run could find every
//! eligible core busy, and it does not run ahead at all while the kernel
//! runs until one thread's exit.

use crate::isa::Instr;
use crate::prog::Program;

/// One predecoded basic block: the half-open pc range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First instruction of the block (always a boundary pc).
    pub start: u32,
    /// One past the last instruction of the block.
    pub end: u32,
}

impl Block {
    /// Number of instructions in the block.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Whether the block is empty (never true for built maps).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Predecoded block structure of one program, plus the per-pc tables the
/// executor consumes.
#[derive(Debug, Clone)]
pub struct BlockMap {
    /// `boundary[pc]`: pc starts a basic block.
    boundary: Vec<bool>,
    /// `in_limit[pc]`: pc lies inside a registered LiMiT restart range.
    in_limit: Vec<bool>,
    /// The block partition, sorted by `start`, covering `[0, prog.len())`.
    blocks: Vec<Block>,
}

impl BlockMap {
    /// Predecodes `prog` against the registered LiMiT `ranges`
    /// (half-open `[start, end)` pc intervals).
    pub fn build(prog: &Program, ranges: &[(u32, u32)]) -> Self {
        let n = prog.len();
        let mut boundary = vec![false; n];
        let mut in_limit = vec![false; n];
        if n > 0 {
            boundary[0] = true;
        }
        for &(s, e) in ranges {
            // Every in-range pc is a block of its own: the restart fix-up
            // can rewind execution onto any of them.
            for pc in s..e.min(n as u32) {
                boundary[pc as usize] = true;
                in_limit[pc as usize] = true;
            }
            if (e as usize) < n {
                boundary[e as usize] = true;
            }
        }
        for pc in 0..n as u32 {
            let Some(&instr) = prog.fetch(pc) else {
                continue;
            };
            let ends = match instr {
                Instr::Br(_, _, _, target) | Instr::Jmp(target) | Instr::Call(target) => {
                    if (target as usize) < n {
                        boundary[target as usize] = true;
                    }
                    true
                }
                Instr::Ret | Instr::Syscall(_) | Instr::Halt => true,
                // Serializing instructions: counter reads and tag writes
                // are flush points, so they terminate a block.
                Instr::Rdpmc(..) | Instr::RdpmcClear(..) | Instr::SetTag(..) => true,
                _ => false,
            };
            if ends && (pc as usize) + 1 < n {
                boundary[pc as usize + 1] = true;
            }
        }
        let mut blocks = Vec::new();
        let mut start = 0u32;
        for pc in 1..n as u32 {
            if boundary[pc as usize] {
                blocks.push(Block { start, end: pc });
                start = pc;
            }
        }
        if n > 0 {
            blocks.push(Block {
                start,
                end: n as u32,
            });
        }
        BlockMap {
            boundary,
            in_limit,
            blocks,
        }
    }

    /// Whether `pc` starts a basic block.
    pub fn is_boundary(&self, pc: u32) -> bool {
        self.boundary.get(pc as usize).copied().unwrap_or(false)
    }

    /// Whether `pc` lies inside a registered LiMiT restart range.
    pub fn in_limit_range(&self, pc: u32) -> bool {
        self.in_limit.get(pc as usize).copied().unwrap_or(false)
    }

    /// The per-pc LiMiT-range table (what [`crate::machine::RunLimits`]
    /// borrows).
    pub fn in_limit(&self) -> &[bool] {
        &self.in_limit
    }

    /// The block partition, sorted by start pc.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::isa::Cond;
    use crate::prog::Label;
    use crate::regs::Reg;
    use proptest::prelude::*;

    /// Assembles one instruction per `(opcode, target)` descriptor plus a
    /// trailing halt; targets index into the descriptor list.
    fn program_from(ops: &[(u8, u8)]) -> Program {
        let mut a = Asm::new();
        let labels: Vec<Label> = (0..ops.len()).map(|_| a.new_label()).collect();
        for (i, &(op, t)) in ops.iter().enumerate() {
            a.bind(labels[i]);
            let target = labels[t as usize % ops.len()];
            match op % 8 {
                0 => a.nop(),
                1 => a.alui_add(Reg::R1, 1),
                2 => a.load(Reg::R2, Reg::R1, 0),
                3 => a.br(Cond::Ne, Reg::R1, Reg::R2, target),
                4 => a.jmp(target),
                5 => a.call(target),
                6 => a.syscall(0),
                _ => a.ret(),
            };
        }
        a.halt();
        a.assemble().unwrap()
    }

    fn is_control_flow(instr: Instr) -> bool {
        matches!(
            instr,
            Instr::Br(..)
                | Instr::Jmp(_)
                | Instr::Call(_)
                | Instr::Ret
                | Instr::Syscall(_)
                | Instr::Halt
                | Instr::Rdpmc(..)
                | Instr::RdpmcClear(..)
                | Instr::SetTag(..)
        )
    }

    #[test]
    fn straight_line_program_is_one_block() {
        let mut a = Asm::new();
        a.nop();
        a.nop();
        a.nop();
        a.halt();
        let prog = a.assemble().unwrap();
        let map = BlockMap::build(&prog, &[]);
        assert_eq!(map.blocks(), &[Block { start: 0, end: 4 }]);
    }

    #[test]
    fn branch_splits_blocks_at_source_and_target() {
        let mut a = Asm::new();
        a.imm(Reg::R1, 3); // 0
        let top = a.new_label();
        a.bind(top); // 1
        a.alui_sub(Reg::R1, 1); // 1
        a.nop(); // 2
        a.br(Cond::Ne, Reg::R1, Reg::R2, top); // 3
        a.halt(); // 4
        let prog = a.assemble().unwrap();
        let map = BlockMap::build(&prog, &[]);
        assert!(map.is_boundary(0));
        assert!(map.is_boundary(1), "branch target");
        assert!(map.is_boundary(4), "after the branch");
        assert!(!map.is_boundary(2) && !map.is_boundary(3));
        assert_eq!(
            map.blocks(),
            &[
                Block { start: 0, end: 1 },
                Block { start: 1, end: 4 },
                Block { start: 4, end: 5 },
            ]
        );
    }

    #[test]
    fn limit_range_pcs_are_singleton_boundaries() {
        let mut a = Asm::new();
        a.nop(); // 0
        a.nop(); // 1  range
        a.nop(); // 2  range
        a.nop(); // 3  range
        a.halt(); // 4
        let prog = a.assemble().unwrap();
        let map = BlockMap::build(&prog, &[(1, 4)]);
        for pc in 1..4 {
            assert!(map.is_boundary(pc));
            assert!(map.in_limit_range(pc));
        }
        assert!(!map.in_limit_range(0) && !map.in_limit_range(4));
        assert!(map.is_boundary(4), "first pc past the range");
    }

    proptest! {
        #[test]
        fn boundary_invariants_hold(
            ops in proptest::collection::vec((0u8..=255, 0u8..=255), 1..60),
            range in (0u32..40, 1u32..8),
        ) {
            let prog = program_from(&ops);
            let n = prog.len() as u32;
            let (s, len) = range;
            let s = s.min(n - 1);
            let e = (s + len).min(n);
            let map = BlockMap::build(&prog, &[(s, e)]);

            // The entry is a boundary.
            prop_assert!(map.is_boundary(0));

            for pc in 0..n {
                let instr = *prog.fetch(pc).unwrap();
                // Every control-flow target is a boundary.
                if let Instr::Br(_, _, _, t) | Instr::Jmp(t) | Instr::Call(t) = instr {
                    if t < n {
                        prop_assert!(map.is_boundary(t), "target {t} of pc {pc}");
                    }
                }
                // Every pc after a control-transfer or serializing
                // instruction is a boundary (syscalls always end blocks).
                if is_control_flow(instr) && pc + 1 < n {
                    prop_assert!(map.is_boundary(pc + 1), "pc after {pc}");
                }
            }
            // Every in-range pc is a boundary.
            for pc in s..e {
                prop_assert!(map.is_boundary(pc) && map.in_limit_range(pc));
            }

            // Blocks partition [0, n) with boundaries only at starts.
            let blocks = map.blocks();
            prop_assert_eq!(blocks[0].start, 0);
            prop_assert_eq!(blocks[blocks.len() - 1].end, n);
            for w in blocks.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
            for b in blocks {
                prop_assert!(!b.is_empty());
                prop_assert!(map.is_boundary(b.start));
                for pc in b.start + 1..b.end {
                    prop_assert!(!map.is_boundary(pc));
                    // Control flow only at the last instruction of a block.
                    prop_assert!(
                        !is_control_flow(*prog.fetch(pc - 1).unwrap()),
                        "control flow mid-block at {}", pc - 1
                    );
                }
            }
        }
    }
}
