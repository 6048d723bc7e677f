//! WHISPER — the Wisconsin–HP Labs Suite for Persistence, reproduced.
//!
//! This crate is the top of the reproduction: the ten crash-recoverable
//! PM applications of Table 1, their workload generators, the suite
//! runner, and the report code that regenerates every table and figure
//! in the paper's evaluation.
//!
//! | Benchmark | Access layer | Workload |
//! |-----------|--------------|----------|
//! | [`apps::echo`] | native custom transactions | echo-test, 4 clients |
//! | [`apps::nstore`] | native (OPTWAL) | YCSB-like and TPC-C-like |
//! | [`apps::redis`] | library / NVML-style undo | redis-cli lru-test |
//! | ctree ([`apps::micro`]) | library / NVML-style undo | 4-client inserts |
//! | hashmap ([`apps::micro`]) | library / NVML-style undo | 4-client inserts |
//! | [`apps::vacation`] | library / Mnemosyne-style redo | travel reservations |
//! | [`apps::memcached`] | library / Mnemosyne-style redo | memslap, 5% SET |
//! | NFS ([`apps::fsapps`]) | filesystem / PMFS | filebench fileserver |
//! | Exim ([`apps::fsapps`]) | filesystem / PMFS | postal, paced |
//! | MySQL ([`apps::fsapps`]) | filesystem / PMFS | sysbench OLTP-complex |
//!
//! Every application runs on the instrumented [`memsim::Machine`],
//! produces a [`pmtrace`] event stream plus DRAM/PM access counters,
//! and is built from the substrate crates exactly as the original apps
//! were built from Mnemosyne, NVML, PMFS, and custom engines.
//!
//! # Modules
//!
//! [`apps`] and [`workloads`] are the applications and their request
//! generators — [`apps::APPS`] is the one table describing the eleven
//! Table 1 rows, which everything below reads; [`suite`] runs them and
//! analyzes their traces;
//! [`report`] builds the paper's tables and figures as [`section`]s, each
//! rendered once as text and once as its part of the versioned JSON
//! document that [`json_report`] assembles. The report gates each have
//! a module, which builds the gate's section too:
//! [`check`] (persistency checker), [`hbgraph`] (epoch dependency
//! graphs), [`crashtest`] (crash-injection campaign), [`crossval`]
//! (happens-before vs crash images), [`optimize`] (ordering optimizer),
//! [`serve`] and [`profile`] (open-loop serving sweep and its tail
//! attribution). [`driver`] is the `whisper-report` program: one
//! command-line parser and one pipeline that runs the suite and the
//! selected gates, writes every document, and picks the exit code.
//!
//! # Quick start
//!
//! ```no_run
//! use whisper::suite::{SuiteConfig, run_app};
//!
//! let cfg = SuiteConfig::quick();
//! let result = run_app("hashmap", &cfg);
//! println!("epochs/s: {:.0}", result.analysis.epochs_per_sec);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod check;
pub mod crashtest;
pub mod crossval;
pub mod driver;
pub mod hbgraph;
pub mod json_report;
pub mod optimize;
mod pool;
pub mod profile;
pub mod region;
pub mod report;
pub mod section;
pub mod serve;
pub mod suite;
pub mod workloads;
