//! Host reference kernel: the yardstick that host-normalizes timings.
//!
//! On a shared host the simulator's speed drifts in phases of tens of
//! seconds (co-tenants on the same physical core), by as much as 2x, with
//! no steal time and no run-queue wait to show for it. The drift tracks
//! front-end pressure: code with a large instruction footprint and
//! unpredictable indirect calls slows the way the interpreter does, while a
//! tight loop barely moves. This kernel is such code: 8192 distinct small
//! functions, called through a table in a data-dependent order, over an
//! L1-sized array. It belongs to the benchmark and calls nothing in the
//! repository, so no change to the program under test can move it.
//!
//! The benchmark times the kernel between repetitions and scales each
//! repetition's host times by [`NOMINAL_NS`] over the kernel's cost around
//! it, which yields seconds on a host where one call costs exactly
//! [`NOMINAL_NS`].

use std::hint::black_box;
use std::time::Instant;

/// Reference cost of one kernel call, ns: the scale normalized times are
/// expressed in.
pub const NOMINAL_NS: f64 = 80.0;

/// Calls per measurement (about 10 ms).
const CALLS: u64 = 200_000;

struct State {
    x: u64,
    acc: u64,
    mem: Vec<u64>,
}

/// One of 8192 distinct bodies: `K` folds into every constant and branch.
/// Returns the index of the next function to call.
#[inline(never)]
fn step<const K: u64>(s: &mut State) -> usize {
    s.x ^= s.x << 13;
    s.x ^= s.x >> 7;
    s.x ^= s.x << 17;
    let i = ((s.x >> 9) as usize ^ K as usize) & (s.mem.len() - 1);
    let v = s.mem[i];
    if (s.x ^ K) & 3 == 0 {
        s.mem[i] = v.wrapping_mul(K | 1).rotate_left((K % 61) as u32);
    } else if (v ^ K) & 1 == 1 {
        s.acc = s.acc.wrapping_add(v ^ K.wrapping_mul(0x9E37_79B9));
    } else {
        s.acc ^= v.wrapping_sub(K << 3) >> (K % 7 + 1);
    }
    if s.acc.is_multiple_of(K % 5 + 2) {
        s.acc = s.acc.wrapping_add(K * 31 + 7);
    }
    (s.x as usize).wrapping_add(K as usize)
}

type Step = fn(&mut State) -> usize;

/// `step::<K>` for K = 4096y + 512z + 64a + 8b + c, y in {0, 1}, the rest over the digits given.
macro_rules! table {
    ($($d:literal)*) => { [table!(@y 0 [$($d)*]), table!(@y 1 [$($d)*])].concat() };
    (@y $y:literal [$($d:literal)*]) => { table!(@z $y [$($d)*] [$($d)*] [$($d)*] [$($d)*]) };
    (@z $y:literal [$($z:literal)*] $a:tt $b:tt $c:tt) => {
        [$(table!(@a $y $z $a $b $c)),*].concat()
    };
    (@a $y:literal $z:literal [$($a:literal)*] $b:tt $c:tt) => {
        [$(table!(@b $y $z $a $b $c)),*].concat()
    };
    (@b $y:literal $z:literal $a:literal [$($b:literal)*] $c:tt) => {
        [$(table!(@c $y $z $a $b $c)),*].concat()
    };
    (@c $y:literal $z:literal $a:literal $b:literal [$($c:literal)*]) => {
        vec![$(step::<{ $y * 4096 + $z * 512 + $a * 64 + $b * 8 + $c }> as Step),*]
    };
}

/// The kernel and its state (kept across measurements).
pub struct HostRef {
    fns: Vec<Step>,
    state: State,
}

impl HostRef {
    /// Builds the call table and the working array.
    pub fn new() -> Self {
        HostRef {
            fns: table!(0 1 2 3 4 5 6 7),
            state: State {
                x: 0x1234_5678_9abc_def1,
                acc: 0,
                mem: vec![1; 1 << 13],
            },
        }
    }

    /// Host ns per kernel call, measured now.
    pub fn measure(&mut self) -> f64 {
        let n = self.fns.len();
        let mut k = 0usize;
        let t = Instant::now();
        for _ in 0..CALLS {
            k = (self.fns[k % n])(&mut self.state);
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / CALLS as f64;
        black_box(self.state.acc);
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_holds_8192_distinct_functions() {
        let h = HostRef::new();
        assert_eq!(h.fns.len(), 8192);
        let mut addrs: Vec<usize> = h.fns.iter().map(|f| *f as usize).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 8192, "bodies were merged");
    }

    #[test]
    fn measure_is_positive_and_finite() {
        let ns = HostRef::new().measure();
        assert!(ns.is_finite() && ns > 0.0);
    }
}
