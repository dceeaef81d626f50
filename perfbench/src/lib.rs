//! The repository benchmark for the DBDC reproduction.
//!
//! One command runs one workload for a fixed time and prints every
//! metric by name with its unit, then one JSON result line. An untraced
//! run (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) calls each layer's public functions in protocol order
//! with spans and counter sheets around them and reports the per-layer
//! ledger. Every repetition's output is checked; any failure makes the
//! command exit non-zero. See `README.md` in this directory.

pub mod compose;
pub mod fleet;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
