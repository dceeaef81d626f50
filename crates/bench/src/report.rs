//! Shared RunReport emission for every bench target.
//!
//! `bench_dbscan`, `bench_index`, `bench_par_dbscan`, and the
//! `dbdc-bench` harness binary all leave behind `BENCH_*.json` files in
//! the v2 [`RunReport`] schema — the same shape `dbdc-cli
//! --metrics-out` writes and `dbdc-cli report diff` compares — instead
//! of each hand-rolling its own output. This module holds the common
//! pieces: the environment fingerprint (so two bench files can be
//! compared knowing whether the host or toolchain moved) and a dataset
//! checksum (so they can be compared knowing the *input* didn't), both
//! re-exported from the crates that every report producer shares, plus
//! the repetition-to-histogram sampler and the repo-root writer.

use std::path::PathBuf;
use std::time::Instant;

use dbdc_obs::{Histogram, RunReport};

pub use dbdc_geom::dataset_checksum;
pub use dbdc_obs::env_fingerprint;

/// Runs `f` `iters` times and collects each repetition's wall time (in
/// nanoseconds) into a [`Histogram`] — the cell format `report diff`
/// compares. One histogram per cell, one sample per repetition.
pub fn wall_histogram(iters: u32, mut f: impl FnMut()) -> Histogram {
    let mut h = Histogram::new();
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        h.record_duration(t0.elapsed());
    }
    h
}

/// The repository root (two levels up from this crate's manifest).
pub fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Writes `report` as `BENCH_<name>.json` at the repository root — the
/// location the CI bench job uploads and diffs — and prints the path.
pub fn write_bench_json(name: &str, report: &RunReport) {
    let path = repo_root().join(format!("BENCH_{name}.json"));
    std::fs::write(&path, report.to_json_string())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_histogram_samples_once_per_repetition() {
        let mut runs = 0u32;
        let h = wall_histogram(5, || runs += 1);
        assert_eq!(runs, 5);
        assert_eq!(h.count(), 5);
    }
}
