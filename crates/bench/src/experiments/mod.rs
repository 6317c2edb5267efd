//! One module per reproduced experiment (DESIGN.md §4).
//!
//! Every module exposes a `run(...)` returning a structured result plus a
//! `table(...)`/`render(...)` producing the paper-style output that
//! `limit-repro run` prints. Integration tests assert the *shapes* (who
//! wins, by roughly what factor) on the structured results.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod kernels_char;
