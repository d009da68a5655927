//! End-to-end and per-layer benchmark of the guess-suite workspace.
//!
//! The benchmark drives the workspace crates through their public APIs,
//! the way a library user does; nothing inside them is instrumented.
//! See `README.md` in this directory for the workloads, the metrics and
//! which end-to-end metric each layer metric should move.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod account;
pub mod layers;
pub mod pins;
pub mod run;
pub mod sink;
pub mod stats;
pub mod workloads;
