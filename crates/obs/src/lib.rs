//! Observability for the DBDC reproduction.
//!
//! The paper's entire evaluation (Figures 9-13) is built on *measured*
//! quantities — per-phase runtimes, representative counts, transmitted
//! bytes — so the reproduction needs a first-class way to capture them.
//! This crate provides the three pieces the rest of the workspace wires
//! together:
//!
//! * [`Span`] — a phase-scoped wall-time tree (`local[site]` with
//!   `cluster`/`extract`/`encode` children, `upload`, `global`,
//!   `broadcast`, `relabel[site]`), each node carrying its thread count
//!   and whether the duration was measured or modeled;
//! * [`CounterSheet`] / [`Counters`] — lock-free work counters for the
//!   hot paths (ε-range queries, distance evaluations, index-node
//!   visits, DSU unions/finds, representatives, wire bytes). Producers
//!   accumulate into plain locals and flush once per operation, so the
//!   uninstrumented path stays at full speed;
//! * [`Histogram`] / [`HistSheet`] — mergeable log-bucketed latency
//!   and batch-size distributions (p50/p90/p99/max) for the quantities
//!   where a mean hides the story: per-query ε-range latency, per-site
//!   phase walls, DSU op batches;
//! * [`Recorder`] — the capture policy. [`NoopRecorder`] hands out no
//!   sheets (instrumented code sees `None` and skips all atomics);
//!   [`RecordingRecorder`] collects named counter scopes, histogram
//!   scopes, and span trees for the report emitters.
//!
//! The emitters produce either a human-readable phase tree
//! ([`Span::render`], [`RunReport::render`]) or the stable
//! [`RunReport`] JSON schema ([`RunReport::to_json_string`]) consumed
//! by `--metrics-out`, the CI validation job, and the bench harness's
//! `BENCH_*.json` files. JSON is hand-rolled in [`json`] because the
//! workspace builds offline with no serde.
//!
//! This crate sits at the bottom of the dependency graph (no
//! dependencies at all) so every layer — index, cluster, core, cli,
//! bench — can report into it.

pub mod counters;
pub mod diff;
pub mod hist;
pub mod json;
pub mod merge;
pub mod recorder;
pub mod report;
pub mod snapshot;
pub mod span;
pub mod timeline;

pub use counters::{Counter, CounterSheet, Counters};
pub use diff::{diff_reports, diff_reports_with, DiffOutcome, DiffRow, QUALITY_DROP_TOLERANCE};
pub use hist::{fmt_sample, HistSheet, Histogram};
pub use json::{Json, JsonError};
pub use merge::merge_reports;
pub use recorder::{NoopRecorder, Recorder, RecordingRecorder};
pub use report::{
    env_fingerprint, ClusterStats, DatasetInfo, EnvFingerprint, NetworkCost, QualityStats,
    RunReport, SiteStats, TransferStats, MIN_SCHEMA_VERSION, SCHEMA_VERSION,
};
pub use snapshot::{delta, SnapshotEngine, SnapshotIdentity, TelemetrySnapshot};
pub use span::Span;
pub use timeline::chrome_trace;

/// Formats a duration as fractional milliseconds, the workspace's one
/// human-facing duration format (replaces the hand-rolled
/// `as_secs_f64() * 1e3` sites that used to be scattered over the CLI).
pub fn fmt_ms(d: std::time::Duration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fmt_ms_is_fractional_milliseconds() {
        assert_eq!(fmt_ms(Duration::from_micros(1500)), "1.5 ms");
        assert_eq!(fmt_ms(Duration::ZERO), "0.0 ms");
        assert_eq!(fmt_ms(Duration::from_secs(2)), "2000.0 ms");
    }
}
