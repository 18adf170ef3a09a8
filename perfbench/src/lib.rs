//! In-process half of the repository benchmark (`perfbench/run.py` is
//! the entry point and owns aggregation and reporting).
//!
//! [`scenario`] sets up, runs and checks the paper's scenarios through
//! the DISE crates' public functions; [`trace`] times every one of those
//! calls per layer and records spans; [`workloads`] drives the
//! `func_expand` and `timing_sweep` workloads and the functional oracle
//! that checks `serve_mixed`'s results, writing raw measurements as JSON.

pub mod json;
pub mod scenario;
pub mod trace;
pub mod workloads;
