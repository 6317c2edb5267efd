//! The experiment library behind `limit-repro run`. Each experiment in
//! DESIGN.md §4 has a module here that runs it and renders its table(s);
//! the driver prints them and records them in `results/<name>.json`.

pub mod experiments;
pub mod spans;

pub use experiments::*;
