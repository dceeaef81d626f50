//! PDBSCAN — a parallel DBSCAN baseline (after Xu, Jäger, Kriegel 1999).
//!
//! The paper's Related Work (Section 2.2, reference \[21\]) contrasts DBDC
//! with the *parallel* DBSCAN of Xu et al.: there, the complete data set
//! starts on one central server, is partitioned spatially onto processors
//! that share a distributed R\*-tree (the dR\*-tree), and the processors
//! exchange messages so that the final clustering is **exact** — identical
//! to a single DBSCAN run. DBDC instead never centralizes the data and
//! accepts an approximate result in exchange for transmitting only models.
//!
//! This module simulates that comparator on the workspace's partitioned
//! DBSCAN engine ([`mod@dbdc_cluster::partitioned`]) so the `abl-pdbscan`
//! ablation can quantify the trade-off: every worker owns one spatial
//! stripe (standing in for the dR\*-tree's space partitioning) and sees
//! a halo of foreign points within `eps` of it (the replicated outer
//! region the message-passing scheme effectively gives each processor),
//! and a union-find merge across stripes yields the exact global
//! clustering. What this module adds is the cost a real deployment
//! would pay: the worker and merge walls, and the bytes it would move
//! (halo replication + merge edges), which is where DBDC wins.

use crate::params::DbdcParams;
use dbdc_cluster::{partitioned_dbscan, DbscanParams};
use dbdc_geom::{Clustering, Dataset};
use std::time::{Duration, Instant};

/// The result of a PDBSCAN run.
#[derive(Debug, Clone)]
pub struct PdbscanOutcome {
    /// The exact global clustering, in original point order.
    pub clustering: Clustering,
    /// Wall time of each worker's local phase.
    pub worker_times: Vec<Duration>,
    /// Wall time outside the workers: striping the data, then merging
    /// the workers' clusters.
    pub merge_time: Duration,
    /// Number of points replicated into halos (the scheme's communication
    /// overhead, in points).
    pub halo_points: usize,
    /// Bytes a deployment would move: halo replication down + merge edges
    /// up (8 bytes per coordinate, 8 bytes per merge edge).
    pub bytes_moved: usize,
}

impl PdbscanOutcome {
    /// The parallel cost model: slowest worker plus the merge phase.
    pub fn total(&self) -> Duration {
        self.worker_times
            .iter()
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
            + self.merge_time
    }
}

/// Runs the PDBSCAN simulation over `workers` spatial stripes. The
/// workers run one after another, so each worker's wall time is its own.
///
/// # Panics
/// Panics if `workers == 0`.
pub fn run_pdbscan(data: &Dataset, params: &DbdcParams, workers: usize) -> PdbscanOutcome {
    assert!(workers > 0, "need at least one worker");
    let dbscan_params = DbscanParams::new(params.eps_local, params.min_pts_local);
    let t0 = Instant::now();
    let (result, stats) = partitioned_dbscan(data, params.index, &dbscan_params, workers, 1);
    let merge_time = t0
        .elapsed()
        .saturating_sub(stats.partition_times.iter().sum());
    let halo_points = stats.halo_points as usize;
    PdbscanOutcome {
        clustering: result.clustering,
        worker_times: stats.partition_times,
        merge_time,
        halo_points,
        bytes_moved: halo_points * data.dim() * 8 + stats.merge_edges as usize * 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::central_dbscan;
    use dbdc_datagen::{dataset_c, scaled_a};

    fn params(eps: f64, min_pts: usize) -> DbdcParams {
        DbdcParams::new(eps, min_pts)
    }

    /// PDBSCAN must be *exact*: the central DBSCAN clustering, label for
    /// label.
    fn assert_exact(data: &Dataset, p: &DbdcParams, workers: usize) {
        let (central, _) = central_dbscan(data, p);
        let parallel = run_pdbscan(data, p, workers);
        assert_eq!(parallel.clustering, central.clustering, "workers={workers}");
    }

    #[test]
    fn exact_on_dataset_c() {
        let g = dataset_c(5);
        for workers in [1, 2, 3, 5, 8] {
            assert_exact(
                &g.data,
                &params(g.suggested_eps, g.suggested_min_pts),
                workers,
            );
        }
    }

    #[test]
    fn exact_on_scaled_a() {
        let g = scaled_a(4_000, 6);
        for workers in [2, 4, 7] {
            assert_exact(
                &g.data,
                &params(g.suggested_eps, g.suggested_min_pts),
                workers,
            );
        }
    }

    #[test]
    fn cluster_spanning_stripes_is_joined() {
        // One long horizontal chain crossing all stripe boundaries.
        let mut d = Dataset::new(2);
        for i in 0..200 {
            d.push(&[i as f64 * 0.4, 0.0]);
        }
        let p = params(0.5, 3);
        let out = run_pdbscan(&d, &p, 4);
        assert_eq!(
            out.clustering.n_clusters(),
            1,
            "chain must stay one cluster"
        );
        assert_eq!(out.clustering.n_noise(), 0);
        assert!(out.halo_points > 0, "stripes must exchange halo points");
    }

    #[test]
    fn stripes_follow_the_widest_axis() {
        // Pathological for axis-0 striping: the data is a thin vertical
        // column (tiny spread on axis 0, large spread on axis 1). Fixed
        // stripes along axis 0 would put nearly every point within eps
        // of every stripe boundary, replicating ~the whole dataset into
        // each worker's halo; the widest-spread axis keeps the halo a
        // thin band per boundary.
        let mut d = Dataset::new(2);
        for i in 0..600 {
            d.push(&[(i % 5) as f64 * 0.02, i as f64 * 0.3]);
        }
        let p = params(1.0, 3);
        let out = run_pdbscan(&d, &p, 4);
        assert!(
            out.halo_points < d.len() / 5,
            "halo {} points on {} total: striping ignored the spread axis",
            out.halo_points,
            d.len()
        );
        // Still exact.
        assert_exact(&d, &p, 4);
    }

    #[test]
    fn halo_grows_with_workers() {
        let g = scaled_a(3_000, 7);
        let p = params(g.suggested_eps, g.suggested_min_pts);
        let h2 = run_pdbscan(&g.data, &p, 2).halo_points;
        let h8 = run_pdbscan(&g.data, &p, 8).halo_points;
        assert!(h8 > h2, "more stripes -> more boundary replication");
    }

    #[test]
    fn communication_exceeds_dbdc() {
        // The comparison the ablation makes: PDBSCAN's halo+merge traffic
        // is far larger than DBDC's model upload on the same data.
        let g = scaled_a(3_000, 8);
        let p = params(g.suggested_eps, g.suggested_min_pts);
        let pd = run_pdbscan(&g.data, &p, 8);
        let dbdc = crate::runtime::run_dbdc(
            &g.data,
            &p,
            crate::partition::Partitioner::RandomEqual { seed: 8 },
            8,
        );
        assert!(
            pd.bytes_moved > dbdc.bytes_up,
            "pdbscan {} B vs dbdc {} B",
            pd.bytes_moved,
            dbdc.bytes_up
        );
    }

    #[test]
    fn empty_and_single_worker() {
        let d = Dataset::new(2);
        let out = run_pdbscan(&d, &params(1.0, 3), 3);
        assert!(out.clustering.is_empty());
        let g = dataset_c(9);
        let p = params(g.suggested_eps, g.suggested_min_pts);
        let out = run_pdbscan(&g.data, &p, 1);
        assert_eq!(out.halo_points, 0, "single worker has no halo");
        assert_exact(&g.data, &p, 1);
    }
}
