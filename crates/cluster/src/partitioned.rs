//! Partitioned local DBSCAN: spatial stripes with ε-halos, or cell
//! ranges of one grid per site.
//!
//! [`par_dbscan`](mod@crate::par_dbscan) parallelizes the ε-range queries
//! against one shared index. This module instead partitions the points
//! into spatial stripes along the widest-spread axis, replicates an
//! ε-halo of foreign points into each stripe, builds a *private* index
//! per partition, and runs the queries of each partition on its own
//! worker. That bounds every index to a fraction of the data (better
//! locality, smaller build) and removes all sharing between workers
//! except the final merge — the shape a per-site scale-out needs.
//!
//! # Correctness
//!
//! For every Lp metric the per-axis distance never exceeds the true
//! distance, so the full ε-neighborhood of a point owned by stripe `s`
//! lies within `s`'s coordinate range extended by ε on both sides —
//! exactly the stripe-plus-halo subset each partition receives. Each
//! owned point's neighborhood is therefore *complete*: mapped back from
//! subset-local to site-local ids, the neighbor **sets** equal the
//! unpartitioned index's answers. The lists keep the order the stripe's
//! index answered in, which depends on the backend and the stripe.
//!
//! The clustering tail reuses `par_dbscan`'s order-independent steps
//! (core flags, core-core union-find merge, canonicalization), so the
//! labels are **identical** to sequential [`crate::dbscan::dbscan`] at
//! every partition count — that identity is the correctness gate the
//! tests pin. Specific-core-point selection is visit-order dependent
//! (Definition 6), so [`partitioned_dbscan_with_scp_observed`] runs the
//! sequential state machine of [`crate::scp`] *as if each neighbourhood
//! were listed ascending*: every expansion sorts just the seeds it
//! claims, at most `n` ids in the whole run. The representatives are
//! therefore those of a sequential run over an index that answers in
//! ascending id order, such as [`dbdc_index::LinearScan`] — the same
//! under every backend, thread count and partition count.
//!
//! # Two sources for the specific core points
//!
//! Where [`mod@crate::count_claim`] applies — at most
//! [`crate::count_claim::MAX_DIM`] dimensions, f64 precision, and
//! coordinates the kernel's guard covers — nothing is striped, sorted or
//! copied. The site gets one grid and one lattice of candidate cells.
//! Its occupied cells, in the grid's colex rank order, are split into
//! `partitions` contiguous cell ranges of about equal point counts, and
//! up to `threads` workers decide the core flags range by range, all
//! reading that one grid, the order-independent half. One sequential
//! pass over the same lattice then expands clusters in ascending id
//! order, scanning only each cell's open members. The index backend
//! plays no part. Anywhere else the stripes gather every owned point's
//! list through their private indexes, as above. Both sources yield the
//! same [`ScpResult`]; plain [`partitioned_dbscan`] always gathers
//! lists, since its merge counts cross-stripe edges over them. Stripes
//! and cell ranges run on one worker loop.

use crate::count_claim::{Cells, Claims, Lattice};
use crate::dbscan::{DbscanParams, DbscanResult};
use crate::par_dbscan::{cluster_from_neighborhoods, effective_threads};
use crate::scp::{enhanced_dbscan, ScpResult, SeedOrder};
use crate::union_find::UnionFind;
use dbdc_geom::{Dataset, Euclidean};
use dbdc_index::{build_index_opts, BuildOptions, IndexKind, Precision, QueryWorkspace};
use dbdc_obs::{CounterSheet, HistSheet};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Resolves a partition-count knob: `0` means "one partition per
/// worker thread", anything else is taken literally. Always at least 1.
pub fn effective_partitions(requested: usize, threads: usize) -> usize {
    if requested == 0 {
        effective_threads(threads)
    } else {
        requested
    }
}

/// Telemetry of one partitioned run. A partition is a stripe where
/// lists are gathered and a cell range on the grid kernel (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct PartitionStats {
    /// Partitions actually used: stripes clamped to the point count, or
    /// cell ranges clamped to the occupied cells; at least one.
    pub partitions: usize,
    /// The sum of `partition_halo`.
    pub halo_points: u64,
    /// Per-partition wall time: a stripe's private index build and its
    /// owned points' queries, or a cell range's core decisions.
    pub partition_times: Vec<Duration>,
    /// Points owned by each partition: a stripe's own points, or the
    /// points in a cell range's cells.
    pub partition_owned: Vec<usize>,
    /// Each partition's halo: the points a stripe copies in from within
    /// ε of its coordinate range, or the points of other ranges' cells
    /// that a cell range's candidate cells reach, read in place. Zero
    /// with one partition.
    pub partition_halo: Vec<usize>,
    /// Cross-partition core–core unions the merge makes after every
    /// partition has united its own cores: the merge messages a
    /// distributed deployment would exchange. Counted by
    /// [`partitioned_dbscan`] only; zero elsewhere.
    pub merge_edges: u64,
}

/// One stripe's slice of the axis-sorted order: it owns positions
/// `[own_start, own_end)` and additionally sees the halo positions
/// `[halo_start, own_start)` and `[own_end, halo_end)`.
#[derive(Debug, Clone, Copy)]
struct Stripe {
    part: usize,
    halo_start: usize,
    own_start: usize,
    own_end: usize,
    halo_end: usize,
}

/// The stripe layout of one run: the axis-sorted point order and each
/// stripe's slice of it.
#[derive(Debug, Default)]
pub(crate) struct Layout {
    order: Vec<u32>,
    stripes: Vec<Stripe>,
}

impl Layout {
    /// Stripes `data` into up to `partitions` count-balanced stripes along
    /// its widest-spread axis, each with the ε-halo around it, and the
    /// telemetry of that layout (no partition times yet).
    fn new(data: &Dataset, eps: f64, partitions: usize) -> (Layout, PartitionStats) {
        let n = data.len();
        let partitions = partitions.max(1).min(n.max(1));
        let mut stats = PartitionStats {
            partitions,
            halo_points: 0,
            partition_times: vec![Duration::ZERO; partitions],
            partition_owned: vec![0; partitions],
            partition_halo: vec![0; partitions],
            merge_edges: 0,
        };
        let Some(bbox) = data.bounding_rect() else {
            return (Layout::default(), stats);
        };

        // Stripe along the widest-spread axis: striping a degenerate axis
        // (e.g. always axis 0 on data extended along axis 1) would give
        // every partition a halo covering nearly the whole dataset.
        let axis = (0..data.dim())
            .max_by(|&a, &b| {
                let wa = bbox.hi()[a] - bbox.lo()[a];
                let wb = bbox.hi()[b] - bbox.lo()[b];
                wa.total_cmp(&wb)
            })
            .expect("dataset has at least 1 dimension");

        // Count-balanced stripes over the axis-sorted order (ties broken by
        // id so the partitioning is fully deterministic).
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            data.point(a)[axis]
                .total_cmp(&data.point(b)[axis])
                .then(a.cmp(&b))
        });
        let coord = |pos: usize| data.point(order[pos])[axis];
        let per = n.div_ceil(partitions);
        let mut stripes: Vec<Stripe> = Vec::with_capacity(partitions);
        for p in 0..partitions {
            let own_start = (p * per).min(n);
            let own_end = ((p + 1) * per).min(n);
            if own_start >= own_end {
                continue;
            }
            // The halo is everything within ε of the stripe's coordinate
            // range — contiguous in the sorted order, found by bisection.
            let lo = coord(own_start) - eps;
            let hi = coord(own_end - 1) + eps;
            let halo_start = order[..own_start].partition_point(|&i| data.point(i)[axis] < lo);
            let halo_end =
                own_end + order[own_end..].partition_point(|&i| data.point(i)[axis] <= hi);
            stripes.push(Stripe {
                part: p,
                halo_start,
                own_start,
                own_end,
                halo_end,
            });
            let halo = (own_start - halo_start) + (halo_end - own_end);
            stats.partition_owned[p] = own_end - own_start;
            stats.partition_halo[p] = halo;
            stats.halo_points += halo as u64;
        }
        (Layout { order, stripes }, stats)
    }

    /// Runs `work(sub, ids, owned)` on every stripe — `sub` holds the
    /// stripe's and its halo's points, `ids` their ids in `data`, and
    /// `owned` the stripe's own points as ids in `sub` — on
    /// [`run_tasks`]' workers. Returns the outputs in stripe order and
    /// records each stripe's wall time in `stats`.
    fn run<T: Send>(
        &self,
        data: &Dataset,
        threads: usize,
        stats: &mut PartitionStats,
        work: impl Fn(&Dataset, &[u32], Range<u32>) -> T + Sync,
    ) -> Vec<T> {
        let outs = run_tasks(self.stripes.len(), threads, |t| {
            let s = &self.stripes[t];
            let ids = &self.order[s.halo_start..s.halo_end];
            let owned = (s.own_start - s.halo_start) as u32..(s.own_end - s.halo_start) as u32;
            work(&data.subset(ids), ids, owned)
        });
        outs.into_iter()
            .zip(&self.stripes)
            .map(|((out, took), s)| {
                stats.partition_times[s.part] = took;
                out
            })
            .collect()
    }

    /// See [`PartitionStats::merge_edges`]: the pieces the partitions'
    /// own core–core unions leave, less the clusters they merge into.
    fn merge_edges(&self, neighbors: &[Vec<u32>], core: &[bool], clusters: u32) -> u64 {
        let mut owner = vec![0usize; neighbors.len()];
        for s in &self.stripes {
            for &i in &self.order[s.own_start..s.own_end] {
                owner[i as usize] = s.part;
            }
        }
        let mut pieces = UnionFind::new(neighbors.len());
        let mut joins = 0u64;
        for (i, list) in neighbors.iter().enumerate().filter(|&(i, _)| core[i]) {
            for &q in list {
                // Neighborhoods are symmetric: visit each edge once.
                let j = q as usize;
                if j > i && owner[j] == owner[i] && core[j] && pieces.union(i as u32, q) {
                    joins += 1;
                }
            }
        }
        let cores = core.iter().filter(|&&c| c).count() as u64;
        cores - joins - u64::from(clusters)
    }

    /// Spreads per-stripe outputs, one per owned point in stripe order,
    /// into a vector indexed by point id.
    fn scatter<T: Default + Clone>(&self, per_stripe: Vec<Vec<T>>) -> Vec<T> {
        let mut out = vec![T::default(); self.order.len()];
        for (s, values) in self.stripes.iter().zip(per_stripe) {
            for (&i, v) in self.order[s.own_start..s.own_end].iter().zip(values) {
                out[i as usize] = v;
            }
        }
        out
    }
}

/// Runs `work(t)` for every task `t` in `0..tasks` — a stripe or a cell
/// range — on up to `threads` workers (`0` = all cores), the calling
/// thread one of them, each taking the next task from one shared cursor.
/// Returns every task's output and wall time, in task order.
fn run_tasks<T: Send>(
    tasks: usize,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<(T, Duration)> {
    let timed = |t: usize| {
        let t0 = Instant::now();
        let out = work(t);
        (out, t0.elapsed())
    };
    let workers = effective_threads(threads).min(tasks.max(1));
    if workers <= 1 {
        return (0..tasks).map(timed).collect();
    }
    let slots: Vec<Mutex<Option<(T, Duration)>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let cursor = Mutex::new(0usize);
    let worker = || loop {
        let t = {
            let mut c = cursor.lock().expect("a partition worker panicked");
            let t = *c;
            *c += 1;
            t
        };
        if t >= tasks {
            break;
        }
        let out = timed(t);
        *slots[t].lock().expect("a partition worker panicked") = Some(out);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(worker);
        }
        worker();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a partition worker panicked")
                .expect("every task was run")
        })
        .collect()
}

/// Computes every point's closed ε-neighborhood through per-partition
/// indexes, with partitions processed concurrently on up to `threads`
/// workers (`0` = all cores). Neighbor lists come back in the order
/// each stripe's index answered; as sets they equal the answers of one
/// index over the whole dataset. Also returns the stripe layout. Every
/// partition's index reports into the optional `sheet` (query work
/// counters) and `hist` (per-query latency); the sheets are lock-free,
/// so partition workers record concurrently.
#[allow(clippy::too_many_arguments)]
pub(crate) fn partitioned_neighborhoods(
    data: &Dataset,
    kind: IndexKind,
    eps: f64,
    partitions: usize,
    threads: usize,
    precision: Precision,
    sheet: Option<&Arc<CounterSheet>>,
    hist: Option<&Arc<HistSheet>>,
) -> (Vec<Vec<u32>>, PartitionStats, Layout) {
    let (layout, mut stats) = Layout::new(data, eps, partitions);
    let lists = layout.run(data, threads, &mut stats, |sub, ids, owned| {
        let opts = BuildOptions {
            threads: 1,
            precision,
        };
        let index = build_index_opts(kind, sub, Euclidean, eps, opts, sheet, hist);
        let (mut buf, mut ws) = (Vec::new(), QueryWorkspace::new());
        owned
            .map(|local| {
                index.range_with(sub.point(local), eps, &mut buf, &mut ws);
                buf.iter().map(|&l| ids[l as usize]).collect()
            })
            .collect()
    });
    (layout.scatter(lists), stats, layout)
}

/// Partitioned DBSCAN: stripes + halos + per-partition indexes, merged
/// through the same union-find canonicalization as
/// [`crate::par_dbscan::par_dbscan`]. Labels are identical to
/// sequential [`crate::dbscan::dbscan`] for every backend, thread
/// count, and partition count. Also counts the merge's
/// [`PartitionStats::merge_edges`].
pub fn partitioned_dbscan(
    data: &Dataset,
    kind: IndexKind,
    params: &DbscanParams,
    partitions: usize,
    threads: usize,
    precision: Precision,
) -> (DbscanResult, PartitionStats) {
    let (neighbors, mut stats, layout) = partitioned_neighborhoods(
        data, kind, params.eps, partitions, threads, precision, None, None,
    );
    let result = cluster_from_neighborhoods(data.len(), &neighbors, params.min_pts, None, None);
    stats.merge_edges =
        layout.merge_edges(&neighbors, &result.core, result.clustering.n_clusters());
    (result, stats)
}

/// Partitioned variant of [`crate::par_dbscan::par_dbscan_with_scp`]:
/// identical labels, and the specific-core-point representatives of a
/// sequential run whose index answers in ascending id order — see the
/// module docs. Where the grid count-and-claim kernel applies, cell
/// ranges of one site grid decide the core flags and `kind` goes unused;
/// otherwise stripes gather lists through `kind`'s indexes. Either way
/// the index work lands in the optional `sheet` (work counters) and
/// `hist` (one latency sample per point).
#[allow(clippy::too_many_arguments)]
pub fn partitioned_dbscan_with_scp_observed(
    data: &Dataset,
    kind: IndexKind,
    params: &DbscanParams,
    partitions: usize,
    threads: usize,
    precision: Precision,
    sheet: Option<&Arc<CounterSheet>>,
    hist: Option<&Arc<HistSheet>>,
) -> (ScpResult, PartitionStats) {
    let Some(cells) = Cells::fit(data, params.eps, precision) else {
        let (neighbors, stats, _) = partitioned_neighborhoods(
            data, kind, params.eps, partitions, threads, precision, sheet, hist,
        );
        let result = enhanced_dbscan(data, params, &neighbors[..], SeedOrder::Ascending);
        return (result, stats);
    };
    let grid = cells.grid(data);
    let lattice = Lattice::new(&grid, data, cells);
    let ranges = lattice.ranges(partitions);
    let decided = run_tasks(ranges.len(), threads, |t| {
        let (flags, work) = lattice.core_flags(ranges[t].clone(), params.min_pts, hist);
        work.record(sheet);
        flags
    });
    let partition_halo: Vec<usize> = ranges.iter().map(|r| lattice.halo(r.clone())).collect();
    let stats = PartitionStats {
        partitions: ranges.len(),
        halo_points: partition_halo.iter().sum::<usize>() as u64,
        partition_times: decided.iter().map(|&(_, took)| took).collect(),
        partition_owned: ranges.iter().map(|r| lattice.points(r.clone())).collect(),
        partition_halo,
        merge_edges: 0,
    };
    let mut claims = Claims::new(lattice, decided.into_iter().flat_map(|(flags, _)| flags));
    let result = enhanced_dbscan(data, params, &mut claims, SeedOrder::Ascending);
    claims.work.record(sheet);
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::dbscan;
    use dbdc_geom::Metric;
    use dbdc_index::{LinearScan, NeighborIndex};

    fn two_blobs_and_noise() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..120 {
            let t = i as f64 * 0.37;
            d.push(&[t.sin() * 2.0, t.cos() * 2.0]);
            d.push(&[15.0 + t.cos() * 1.5, 1.0 + t.sin() * 1.5]);
        }
        for i in 0..20 {
            let t = i as f64;
            d.push(&[t * 3.1, 40.0 + (t * 0.7).sin() * 20.0]);
        }
        d
    }

    #[test]
    fn labels_identical_to_sequential() {
        let d = two_blobs_and_noise();
        let idx = LinearScan::new(&d, Euclidean);
        for (eps, min_pts) in [(0.8, 3), (5.0, 4)] {
            let params = DbscanParams::new(eps, min_pts);
            let seq = dbscan(&d, &idx, &params);
            for kind in IndexKind::ALL {
                for partitions in [1, 2, 3, 7] {
                    let (par, stats) =
                        partitioned_dbscan(&d, kind, &params, partitions, 2, Precision::F64);
                    assert_eq!(
                        seq.clustering, par.clustering,
                        "kind={kind:?} partitions={partitions} eps={eps}"
                    );
                    assert_eq!(seq.core, par.core);
                    assert_eq!(stats.partitions, partitions);
                }
            }
        }
    }

    #[test]
    fn neighborhoods_are_complete() {
        let d = two_blobs_and_noise();
        let idx = LinearScan::new(&d, Euclidean);
        let eps = 1.2;
        let (nb, stats, _) =
            partitioned_neighborhoods(&d, IndexKind::KdTree, eps, 4, 2, Precision::F64, None, None);
        assert!(stats.halo_points > 0, "ε-halos must replicate points");
        assert_eq!(
            stats.halo_points,
            stats.partition_halo.iter().sum::<usize>() as u64
        );
        for i in 0..d.len() as u32 {
            let mut got = nb[i as usize].clone();
            got.sort_unstable();
            let mut want = idx.range_vec(d.point(i), eps);
            want.sort_unstable();
            assert_eq!(got, want, "point {i}");
        }
    }

    #[test]
    fn stripes_follow_the_widest_axis() {
        // Data extended along axis 1; striping axis 0 would put every
        // point into every halo. With the widest-spread axis the halo
        // stays a thin band per boundary.
        let mut d = Dataset::new(2);
        for i in 0..400 {
            d.push(&[(i % 7) as f64 * 0.01, i as f64 * 0.5]);
        }
        let (_, stats, _) =
            partitioned_neighborhoods(&d, IndexKind::Grid, 1.0, 4, 2, Precision::F64, None, None);
        let owned: usize = stats.partition_owned.iter().sum();
        assert_eq!(owned, d.len());
        assert!(
            (stats.halo_points as usize) < d.len() / 10,
            "halo {} should be a thin band, not ~3x the dataset",
            stats.halo_points
        );
    }

    #[test]
    fn halo_heavy_eps_still_identical() {
        // ε wide enough that halos overlap several stripes.
        let d = two_blobs_and_noise();
        let idx = LinearScan::new(&d, Euclidean);
        let params = DbscanParams::new(12.0, 3);
        let seq = dbscan(&d, &idx, &params);
        let (par, stats) = partitioned_dbscan(&d, IndexKind::RStar, &params, 6, 3, Precision::F64);
        assert_eq!(seq.clustering, par.clustering);
        assert!(stats.halo_points as usize > d.len() / 2);
    }

    #[test]
    fn scp_labels_identical_and_ranges_cover() {
        let d = two_blobs_and_noise();
        let idx = LinearScan::new(&d, Euclidean);
        let params = DbscanParams::new(0.8, 3);
        let seq = dbscan(&d, &idx, &params);
        let (scp, _) = partitioned_dbscan_with_scp_observed(
            &d,
            IndexKind::KdTree,
            &params,
            3,
            2,
            Precision::F64,
            None,
            None,
        );
        assert_eq!(seq.clustering, scp.dbscan.clustering);
        // Every core point must be covered by a representative of its
        // own cluster within the specific ε-range (Definition 7).
        for i in 0..d.len() as u32 {
            if !scp.dbscan.core[i as usize] {
                continue;
            }
            let c = scp.dbscan.clustering.label(i).cluster().expect("core") as usize;
            assert!(
                scp.scp[c]
                    .iter()
                    .any(|s| Euclidean.dist(d.point(s.point), d.point(i)) <= s.eps_range),
                "core {i} uncovered"
            );
        }
    }

    #[test]
    fn empty_and_more_partitions_than_points() {
        let empty = Dataset::new(2);
        let params = DbscanParams::new(1.0, 2);
        let (r, stats) = partitioned_dbscan(&empty, IndexKind::Grid, &params, 4, 2, Precision::F64);
        assert!(r.clustering.is_empty());
        assert_eq!(stats.halo_points, 0);

        let d = Dataset::from_flat(2, vec![0.0, 0.0, 0.1, 0.0, 5.0, 5.0]);
        let idx = LinearScan::new(&d, Euclidean);
        let seq = dbscan(&d, &idx, &params);
        let (r, stats) = partitioned_dbscan(&d, IndexKind::KdTree, &params, 9, 4, Precision::F64);
        assert_eq!(seq.clustering, r.clustering);
        assert_eq!(stats.partitions, 3, "clamped to the point count");
    }

    #[test]
    fn merge_edges_join_the_stripes_once_each() {
        // One chain along axis 0: every stripe's cores form one piece,
        // and the merge joins neighbouring pieces once per boundary.
        let mut d = Dataset::new(2);
        for i in 0..200 {
            d.push(&[i as f64 * 0.4, 0.0]);
        }
        let params = DbscanParams::new(0.5, 3);
        for (partitions, edges) in [(1, 0), (2, 1), (4, 3)] {
            let (r, stats) =
                partitioned_dbscan(&d, IndexKind::Grid, &params, partitions, 1, Precision::F64);
            assert_eq!(r.clustering.n_clusters(), 1);
            assert_eq!(stats.merge_edges, edges, "partitions={partitions}");
        }
    }

    #[test]
    fn effective_partitions_resolves_auto() {
        assert_eq!(effective_partitions(3, 8), 3);
        assert_eq!(effective_partitions(0, 5), 5);
        assert!(effective_partitions(0, 0) >= 1);
    }
}
