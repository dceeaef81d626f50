//! The one DBSCAN dispatch: how a run executes.
//!
//! [`Execution`] holds the four settings a DBSCAN run may vary — index
//! backend, worker threads, spatial partitions, scan precision — and is
//! the only place that turns them into a choice between the sequential
//! algorithm ([`crate::dbscan::dbscan`] / [`crate::scp::dbscan_with_scp`]),
//! the parallel layer ([`mod@crate::par_dbscan`]) and the partitioned one
//! ([`mod@crate::partitioned`]). Every choice yields the same labels; only
//! a partitioned run's specific core points may differ: they follow
//! ascending ids rather than the backend's answer order (see
//! [`mod@crate::partitioned`]).
//!
//! The partitioned branch of [`Execution::dbscan_with_scp`] is
//! [`crate::partitioned::partitioned_dbscan_with_scp_observed`], the
//! function the benchmark's traced composition calls too. In up to
//! [`crate::count_claim::MAX_DIM`] dimensions at f64 it runs the grid
//! count-and-claim kernel on one grid per site, whose cell ranges are
//! the partitions, so `index` no longer changes that local work (its
//! output already did not depend on `index`); above the cut, at f32, or
//! when the coordinates outgrow the kernel's guard, it gathers lists
//! through `index`, one stripe per partition. Unpartitioned runs, and
//! [`Execution::dbscan`] on every path, query `index` as before.

use crate::dbscan::{dbscan, DbscanParams, DbscanResult};
use crate::par_dbscan::{cluster_from_neighborhoods, effective_threads, parallel_neighborhoods};
use crate::partitioned::{
    effective_partitions, partitioned_dbscan_with_scp_observed, partitioned_neighborhoods,
    PartitionStats,
};
use crate::scp::{dbscan_with_scp, enhanced_dbscan, ScpResult, SeedOrder};
use dbdc_geom::{Dataset, Euclidean};
use dbdc_index::{build_index_opts, BuildOptions, IndexKind, NeighborIndex, Precision};
use dbdc_obs::{Counter, CounterSheet, HistSheet, Recorder};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one DBSCAN run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Execution {
    /// Spatial index backend.
    pub index: IndexKind,
    /// Worker threads: `1` runs the sequential algorithm, any other value
    /// the parallel layer, `0` meaning "all available cores".
    pub threads: usize,
    /// Spatial partitions: `1` clusters through one index over all points,
    /// `0` means "one partition per worker thread".
    pub partitions: usize,
    /// Coordinate precision of the index scan path.
    pub precision: Precision,
}

/// Wall times of one run.
#[derive(Debug, Clone, Default)]
pub struct ExecTimes {
    /// Index construction. Zero when partitioned: each stripe builds its
    /// own index inside its partition time, and the grid kernel builds
    /// its one site grid inside `cluster`.
    pub build: Duration,
    /// Clustering, excluding `build`.
    pub cluster: Duration,
    /// Wall time of each partition; empty when unpartitioned.
    pub partitions: Vec<Duration>,
}

impl Execution {
    /// Plain DBSCAN. Index work lands in `rec`'s `scope` counters and
    /// `{scope}/eps_range_ns` latencies; a parallel or partitioned merge
    /// adds its union-find work to the counters and its batch sizes to
    /// `{scope}/dsu_batch_ops`.
    pub fn dbscan(
        &self,
        data: &Dataset,
        params: &DbscanParams,
        rec: &dyn Recorder,
        scope: &str,
    ) -> (DbscanResult, ExecTimes) {
        let merge = |neighbors: &[Vec<u32>]| {
            let sheet = rec.sheet(scope);
            let batches = rec.hist(&format!("{scope}/dsu_batch_ops"));
            cluster_from_neighborhoods(
                data.len(),
                neighbors,
                params.min_pts,
                sheet.as_deref(),
                batches.as_deref(),
            )
        };
        self.run(
            data,
            params.eps,
            rec,
            scope,
            |index| dbscan(data, index, params),
            merge,
            |partitions, sheet, hist| {
                let (neighbors, stats, _) = partitioned_neighborhoods(
                    data,
                    self.index,
                    params.eps,
                    partitions,
                    self.threads,
                    self.precision,
                    sheet,
                    hist,
                );
                (merge(&neighbors), stats)
            },
        )
    }

    /// DBSCAN with specific core points, the paper's local clustering,
    /// recording index work like [`Execution::dbscan`].
    pub fn dbscan_with_scp(
        &self,
        data: &Dataset,
        params: &DbscanParams,
        rec: &dyn Recorder,
        scope: &str,
    ) -> (ScpResult, ExecTimes) {
        self.run(
            data,
            params.eps,
            rec,
            scope,
            |index| dbscan_with_scp(data, index, params),
            |neighbors| enhanced_dbscan(data, params, neighbors, SeedOrder::List),
            |partitions, sheet, hist| {
                partitioned_dbscan_with_scp_observed(
                    data,
                    self.index,
                    params,
                    partitions,
                    self.threads,
                    self.precision,
                    sheet,
                    hist,
                )
            },
        )
    }

    /// The choice: partitioned when the partitions resolve above 1, else
    /// one index, queried sequentially at `threads == 1` and in parallel
    /// otherwise. A parallel run gathers every neighborhood first and
    /// hands the lists to `merge`; a partitioned run is `partitioned`'s,
    /// given the partition count and the scope's counter sheet and
    /// latency histogram.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn run<R>(
        &self,
        data: &Dataset,
        eps: f64,
        rec: &dyn Recorder,
        scope: &str,
        sequential: impl FnOnce(&dyn NeighborIndex) -> R,
        merge: impl FnOnce(&[Vec<u32>]) -> R,
        partitioned: impl FnOnce(
            usize,
            Option<&Arc<CounterSheet>>,
            Option<&Arc<HistSheet>>,
        ) -> (R, PartitionStats),
    ) -> (R, ExecTimes) {
        let sheet = rec.sheet(scope);
        let eps_hist = rec.hist(&format!("{scope}/eps_range_ns"));
        let t0 = Instant::now();
        let partitions = effective_partitions(self.partitions, self.threads);
        if partitions > 1 {
            let (result, stats) = partitioned(partitions, sheet.as_ref(), eps_hist.as_ref());
            if let Some(s) = &sheet {
                s.add_to(Counter::halo_points, stats.halo_points);
            }
            let times = ExecTimes {
                build: Duration::ZERO,
                cluster: t0.elapsed(),
                partitions: stats.partition_times,
            };
            return (result, times);
        }
        let opts = BuildOptions {
            threads: effective_threads(self.threads),
            precision: self.precision,
        };
        let index = build_index_opts(
            self.index,
            data,
            Euclidean,
            eps,
            opts,
            sheet.as_ref(),
            eps_hist.as_ref(),
        );
        let build = t0.elapsed();
        let result = if self.threads == 1 {
            sequential(index.as_ref())
        } else {
            merge(&parallel_neighborhoods(
                data,
                index.as_ref(),
                eps,
                self.threads,
            ))
        };
        let times = ExecTimes {
            build,
            cluster: t0.elapsed() - build,
            partitions: Vec::new(),
        };
        (result, times)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdc_obs::{NoopRecorder, RecordingRecorder};

    fn blobs() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..150 {
            let t = i as f64 * 0.41;
            d.push(&[t.sin() * 2.0, t.cos() * 2.0]);
            d.push(&[12.0 + t.cos() * 1.5, t.sin() * 1.5]);
        }
        d.push(&[40.0, 40.0]);
        d
    }

    fn exec(threads: usize, partitions: usize) -> Execution {
        Execution {
            index: IndexKind::KdTree,
            threads,
            partitions,
            precision: Precision::F64,
        }
    }

    #[test]
    fn every_path_gives_the_sequential_labels() {
        let d = blobs();
        let params = DbscanParams::new(0.9, 4);
        // Specific core points follow the index's answer order, so the
        // reference runs over the same backend; a partitioned run's
        // follow ascending ids, the order a linear scan answers in.
        let index = dbdc_index::build_index(IndexKind::KdTree, &d, Euclidean, params.eps);
        let seq = dbscan(&d, index.as_ref(), &params);
        let seq_scp = dbscan_with_scp(&d, index.as_ref(), &params);
        let linear = dbdc_index::LinearScan::new(&d, Euclidean);
        let ascending_scp = dbscan_with_scp(&d, &linear, &params);
        for (threads, partitions) in [(1, 1), (2, 1), (0, 1), (1, 3), (2, 2), (2, 0)] {
            let e = exec(threads, partitions);
            let (plain, times) = e.dbscan(&d, &params, &NoopRecorder, "s");
            assert_eq!(plain.clustering, seq.clustering, "{e:?}");
            assert_eq!(plain.core, seq.core, "{e:?}");
            let (scp, _) = e.dbscan_with_scp(&d, &params, &NoopRecorder, "s");
            assert_eq!(scp.dbscan.clustering, seq_scp.dbscan.clustering, "{e:?}");
            let partitioned = effective_partitions(partitions, threads) > 1;
            assert_eq!(!times.partitions.is_empty(), partitioned, "{e:?}");
            if partitioned {
                assert_eq!(times.build, Duration::ZERO);
                assert_eq!(scp.scp, ascending_scp.scp, "{e:?}");
            } else {
                assert_eq!(scp.scp, seq_scp.scp, "{e:?}");
            }
        }
    }

    #[test]
    fn observation_lands_in_the_scope() {
        let d = blobs();
        let params = DbscanParams::new(0.9, 4);
        let rec = RecordingRecorder::new();
        let has_hist = |name: &str| rec.hist_scopes().iter().any(|(n, _)| n == name);
        exec(2, 2).dbscan_with_scp(&d, &params, &rec, "local[0]");
        let c = rec.counters("local[0]");
        assert_eq!(c.range_queries, d.len() as u64);
        assert!(c.halo_points > 0);
        assert!(rec.histogram("local[0]/eps_range_ns").count() > 0);
        // Replaying specific core points does no union-find work.
        assert_eq!(c.dsu_unions, 0);
        assert!(!has_hist("local[0]/dsu_batch_ops"));

        exec(2, 1).dbscan(&d, &params, &rec, "central");
        assert!(rec.counters("central").dsu_unions > 0);
        assert!(rec.histogram("central/dsu_batch_ops").count() > 0);
        exec(1, 1).dbscan(&d, &params, &rec, "seq");
        assert_eq!(rec.counters("seq").dsu_unions, 0);
        assert!(!has_hist("seq/dsu_batch_ops"));
    }
}
