//! `whisper-perf` — the repo benchmark.
//!
//! Four workloads, each run in its own process on one host thread,
//! each timing calls into the layers' public functions **from
//! outside**: nothing under `crates/` knows this package exists.
//! `README.md` beside this crate has the metric tables, why each
//! workload exists, and the recipe for comparing two commits.
//!
//! Host time throughout. Simulated statistics are the correctness
//! witness (`stats_digest`, the identity counts), never a timed
//! quantity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod cli;
pub mod compare;
pub mod host;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;
