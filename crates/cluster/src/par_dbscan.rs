//! Deterministic parallel DBSCAN.
//!
//! The sequential [`crate::dbscan::dbscan`] spends essentially all of its
//! time in the `n` ε-range queries; everything else is `O(n)` label
//! bookkeeping. This module runs those queries concurrently against the
//! shared read-only [`NeighborIndex`] on a scoped worker pool, then
//! rebuilds the *exact* sequential result from the cached neighborhoods:
//!
//! 1. **Query phase (parallel):** workers claim fixed-size blocks of
//!    points from a shared cursor and fill `neighbors[i]` for their
//!    block. The index is only read, so no synchronization beyond the
//!    block cursor is needed.
//! 2. **Core phase:** `core[i] = |neighbors[i]| >= min_pts` — the
//!    core-object condition (Definition 1) verbatim.
//! 3. **Merge phase:** a [`UnionFind`] unions every ε-adjacent pair of
//!    core points. Each resulting set is one maximal density-connected
//!    component of core points.
//! 4. **Canonicalization:** components become clusters in ascending order
//!    of their lowest core-point id, and each border point joins the
//!    lowest-numbered adjacent cluster.
//!
//! # Determinism guarantee
//!
//! [`par_dbscan`] is **bit-identical** to [`crate::dbscan::dbscan`] for
//! any dataset, parameters, and (deterministic) index, regardless of
//! thread count. This is not a coincidence of scheduling — steps 3-4
//! reconstruct the sequential algorithm's choices exactly:
//!
//! * *Cluster numbering.* Sequential DBSCAN creates a cluster when the
//!   outer loop reaches a still-unclassified core point, and a cluster's
//!   lowest-id core point can never be claimed earlier by a different
//!   cluster (whoever labels it is an ε-adjacent core, hence the same
//!   component) nor marked noise (it is core). So the k-th cluster
//!   created sequentially is exactly the component with the k-th
//!   smallest minimum core id — the order step 4 assigns.
//! * *Border points.* A border point adjacent to cores of several
//!   clusters is labeled by the earliest-created one: that cluster's
//!   single expansion processes every one of its core points before the
//!   outer loop moves on, and later expansions never relabel a clustered
//!   point. "Earliest-created" is "lowest cluster id", which is what
//!   step 4 picks.
//! * *Core flags and query counts.* Sequential DBSCAN issues exactly one
//!   range query per point and flags cores by the same cardinality test,
//!   so `core` and `range_queries` agree trivially.
//!
//! [`par_dbscan_with_scp`] extends this to the paper's enhanced DBSCAN:
//! specific-core-point selection is *visit-order dependent*
//! (Definition 6 "is not disjunctive"), so it replays the sequential
//! state machine of [`crate::scp`] — but over the cached neighborhoods,
//! issuing zero additional index queries. The replay consumes identical
//! neighbor lists in identical order, hence produces the identical
//! [`ScpResult`].

use crate::dbscan::{DbscanParams, DbscanResult};
use crate::scp::{enhanced_dbscan, ScpResult, SeedOrder};
use crate::union_find::UnionFind;
use dbdc_geom::{Clustering, Dataset, Label};
use dbdc_index::{NeighborIndex, QueryWorkspace};
use std::sync::Mutex;

const UNCLASSIFIED: i64 = -2;
const NOISE: i64 = -1;

/// Points per unit of work a worker claims from the shared cursor. Large
/// enough that cursor contention is negligible, small enough to balance
/// skewed neighborhoods across workers.
const BLOCK: usize = 128;

/// Resolves a thread-count knob: `0` means "use all available cores",
/// anything else is taken literally. The result is always at least 1.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Computes all `n` closed ε-neighborhoods of `data` concurrently on
/// `threads` scoped worker threads (capped by the number of points;
/// `threads == 0` uses all available cores). `neighbors[i]` holds the
/// index's answer for point `i`, in the index's native order.
pub fn parallel_neighborhoods(
    data: &Dataset,
    index: &dyn NeighborIndex,
    eps: f64,
    threads: usize,
) -> Vec<Vec<u32>> {
    let n = data.len();
    let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];
    let threads = effective_threads(threads).min(n.max(1));
    if threads <= 1 {
        let mut ws = QueryWorkspace::new();
        for (i, slot) in neighbors.iter_mut().enumerate() {
            index.range_with(data.point(i as u32), eps, slot, &mut ws);
        }
        return neighbors;
    }
    let work = Mutex::new(neighbors.chunks_mut(BLOCK).enumerate());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // One workspace per worker: the traversal stack keeps
                // its high-water capacity across every claimed block.
                let mut ws = QueryWorkspace::new();
                loop {
                    // Hold the lock only to claim a block, not to fill it.
                    let claimed = work.lock().expect("a worker panicked").next();
                    let Some((block, chunk)) = claimed else { break };
                    let base = block * BLOCK;
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        index.range_with(data.point((base + k) as u32), eps, slot, &mut ws);
                    }
                }
            });
        }
    });
    neighbors
}

/// Parallel DBSCAN over `data`: identical output to
/// [`crate::dbscan::dbscan`] (see the module docs for why), with the
/// ε-range queries spread over `threads` workers (`0` = all cores).
///
/// ```
/// use dbdc_cluster::{dbscan, par_dbscan, DbscanParams};
/// use dbdc_geom::{Dataset, Euclidean};
/// use dbdc_index::LinearScan;
///
/// let data = Dataset::from_flat(2, vec![
///     0.0, 0.0,  0.5, 0.0,   10.0, 0.0,  10.5, 0.0,   50.0, 50.0,
/// ]);
/// let index = LinearScan::new(&data, Euclidean);
/// let params = DbscanParams::new(1.0, 2);
/// let seq = dbscan(&data, &index, &params);
/// let par = par_dbscan(&data, &index, &params, 4);
/// assert_eq!(seq.clustering, par.clustering);
/// assert_eq!(seq.core, par.core);
/// ```
///
/// # Panics
/// Panics if the index does not cover `data` (`index.len() != data.len()`).
pub fn par_dbscan(
    data: &Dataset,
    index: &dyn NeighborIndex,
    params: &DbscanParams,
    threads: usize,
) -> DbscanResult {
    par_dbscan_observed(data, index, params, threads, None)
}

/// [`par_dbscan`] with an optional [`dbdc_obs::CounterSheet`] recording
/// the DSU work of the merge and canonicalization phases (the index's
/// own query counters attach to the index, not here). With
/// `sheet: None` this is exactly [`par_dbscan`]; the tally lives in
/// plain fields of the [`UnionFind`] either way and is flushed once at
/// the end, so the hot loops see no atomics.
///
/// # Panics
/// Panics if the index does not cover `data` (`index.len() != data.len()`).
pub fn par_dbscan_observed(
    data: &Dataset,
    index: &dyn NeighborIndex,
    params: &DbscanParams,
    threads: usize,
    sheet: Option<&dbdc_obs::CounterSheet>,
) -> DbscanResult {
    assert_eq!(
        index.len(),
        data.len(),
        "index must be built over the clustered dataset"
    );
    let neighbors = parallel_neighborhoods(data, index, params.eps, threads);
    cluster_from_neighborhoods(data.len(), &neighbors, params.min_pts, sheet, None)
}

/// Steps 2-4 of the module algorithm: core flags, core-core merge, and
/// canonicalization over already-computed neighborhoods. The labels
/// depend only on the neighbor *sets*, not their list order (see the
/// module docs), so callers may hand in neighborhoods in any per-list
/// order — the partitioned local phase hands in its lists as the
/// stripes' indexes answered them.
/// `hist`, when given, captures the *distribution* of DSU batch sizes —
/// how many union operations each core point's neighborhood contributes;
/// a heavy tail means a few dense hubs dominate the merge.
pub(crate) fn cluster_from_neighborhoods(
    n: usize,
    neighbors: &[Vec<u32>],
    min_pts: usize,
    sheet: Option<&dbdc_obs::CounterSheet>,
    hist: Option<&dbdc_obs::HistSheet>,
) -> DbscanResult {
    let core: Vec<bool> = neighbors.iter().map(|ns| ns.len() >= min_pts).collect();

    // Merge ε-adjacent cores. Neighborhoods are symmetric, so scanning
    // each core's own list covers every core-core edge. The loop is
    // duplicated rather than branch-per-edge so the unobserved path
    // stays exactly the original.
    let mut components = UnionFind::new(n);
    match hist {
        None => {
            for i in 0..n {
                if !core[i] {
                    continue;
                }
                for &q in &neighbors[i] {
                    if core[q as usize] {
                        components.union(i as u32, q);
                    }
                }
            }
        }
        Some(h) => {
            for i in 0..n {
                if !core[i] {
                    continue;
                }
                let mut batch = 0u64;
                for &q in &neighbors[i] {
                    if core[q as usize] {
                        components.union(i as u32, q);
                        batch += 1;
                    }
                }
                h.record(batch);
            }
        }
    }

    // Canonical cluster ids: ascending order of each component's lowest
    // core id reproduces the sequential creation order.
    let mut raw = vec![UNCLASSIFIED; n];
    let mut cluster_of_root = vec![NOISE; n];
    let mut next_cluster: i64 = 0;
    for i in 0..n {
        if !core[i] {
            continue;
        }
        let root = components.find(i as u32) as usize;
        if cluster_of_root[root] < 0 {
            cluster_of_root[root] = next_cluster;
            next_cluster += 1;
        }
        raw[i] = cluster_of_root[root];
    }

    // Border points take the lowest adjacent cluster (the one whose
    // sequential expansion reached them first); isolated points stay
    // noise.
    for i in 0..n {
        if core[i] {
            continue;
        }
        let mut best = NOISE;
        for &q in &neighbors[i] {
            if core[q as usize] && (best == NOISE || raw[q as usize] < best) {
                best = raw[q as usize];
            }
        }
        raw[i] = best;
    }

    if let Some(s) = sheet {
        let (unions, finds) = components.ops();
        s.add_dsu(unions, finds);
    }

    let labels = raw
        .iter()
        .map(|&s| {
            if s < 0 {
                Label::Noise
            } else {
                Label::Cluster(s as u32)
            }
        })
        .collect();
    DbscanResult {
        clustering: Clustering::from_labels(labels),
        core,
        range_queries: n,
    }
}

/// Parallel variant of [`crate::scp::dbscan_with_scp`]: the ε-range
/// queries run on the worker pool, then the sequential function's own
/// enhanced-DBSCAN state machine replays over the cached neighborhoods
/// in their list order (specific core point selection is visit-order
/// dependent, so replay is the only way to reproduce it exactly).
/// Output is identical to the sequential function for any thread count.
///
/// # Panics
/// Panics if the index does not cover `data` (`index.len() != data.len()`).
pub fn par_dbscan_with_scp(
    data: &Dataset,
    index: &dyn NeighborIndex,
    params: &DbscanParams,
    threads: usize,
) -> ScpResult {
    assert_eq!(
        index.len(),
        data.len(),
        "index must be built over the clustered dataset"
    );
    let neighborhoods = parallel_neighborhoods(data, index, params.eps, threads);
    enhanced_dbscan(data, params, &neighborhoods[..], SeedOrder::List)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::dbscan;
    use crate::scp::dbscan_with_scp;
    use dbdc_geom::Euclidean;
    use dbdc_index::LinearScan;

    fn spiral_with_noise() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..150 {
            let t = i as f64 * 0.1;
            d.push(&[t.cos() * (1.0 + t * 0.2), t.sin() * (1.0 + t * 0.2)]);
        }
        for i in 0..30 {
            let t = i as f64;
            d.push(&[
                20.0 + (t * 0.37).sin() * 8.0,
                -15.0 + (t * 0.73).cos() * 8.0,
            ]);
        }
        d
    }

    fn assert_equal_at_all_thread_counts(d: &Dataset, eps: f64, min_pts: usize) {
        let idx = LinearScan::new(d, Euclidean);
        let params = DbscanParams::new(eps, min_pts);
        let seq = dbscan(d, &idx, &params);
        let seq_scp = dbscan_with_scp(d, &idx, &params);
        for threads in [1, 2, 3, 8] {
            let par = par_dbscan(d, &idx, &params, threads);
            assert_eq!(seq.clustering, par.clustering, "threads={threads}");
            assert_eq!(seq.core, par.core, "threads={threads}");
            assert_eq!(seq.range_queries, par.range_queries, "threads={threads}");
            let par_scp = par_dbscan_with_scp(d, &idx, &params, threads);
            assert_eq!(seq_scp.dbscan.clustering, par_scp.dbscan.clustering);
            assert_eq!(seq_scp.dbscan.core, par_scp.dbscan.core);
            assert_eq!(seq_scp.dbscan.range_queries, par_scp.dbscan.range_queries);
            assert_eq!(seq_scp.scp, par_scp.scp, "threads={threads}");
        }
    }

    #[test]
    fn matches_sequential_on_spiral() {
        assert_equal_at_all_thread_counts(&spiral_with_noise(), 0.4, 3);
    }

    #[test]
    fn matches_sequential_when_everything_is_one_cluster() {
        assert_equal_at_all_thread_counts(&spiral_with_noise(), 50.0, 2);
    }

    #[test]
    fn matches_sequential_when_everything_is_noise() {
        assert_equal_at_all_thread_counts(&spiral_with_noise(), 1e-9, 2);
    }

    #[test]
    fn matches_sequential_with_min_pts_one() {
        assert_equal_at_all_thread_counts(&spiral_with_noise(), 0.4, 1);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::new(2);
        let idx = LinearScan::new(&d, Euclidean);
        let r = par_dbscan(&d, &idx, &DbscanParams::new(1.0, 3), 8);
        assert_eq!(r.clustering.len(), 0);
        assert_eq!(r.range_queries, 0);
    }

    #[test]
    fn single_point() {
        let d = Dataset::from_flat(2, vec![1.0, 2.0]);
        let idx = LinearScan::new(&d, Euclidean);
        let r = par_dbscan(&d, &idx, &DbscanParams::new(1.0, 2), 8);
        assert!(r.clustering.label(0).is_noise());
        let r1 = par_dbscan(&d, &idx, &DbscanParams::new(1.0, 1), 8);
        assert_eq!(r1.clustering.label(0).cluster(), Some(0));
    }

    #[test]
    fn effective_threads_resolves_zero_to_cores() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn dsu_counters_match_ground_truth() {
        let d = spiral_with_noise();
        let idx = LinearScan::new(&d, Euclidean);
        let params = DbscanParams::new(0.4, 3);
        let sheet = dbdc_obs::CounterSheet::new();
        let r = par_dbscan_observed(&d, &idx, &params, 2, Some(&sheet));
        let c = sheet.snapshot();

        // Recompute the merge phase's shape from the neighborhoods.
        let nb = parallel_neighborhoods(&d, &idx, params.eps, 1);
        let core: Vec<bool> = nb.iter().map(|ns| ns.len() >= params.min_pts).collect();
        let core_count = core.iter().filter(|&&c| c).count() as u64;
        let union_calls: u64 = (0..d.len())
            .filter(|&i| core[i])
            .map(|i| nb[i].iter().filter(|&&q| core[q as usize]).count() as u64)
            .sum();
        let n_clusters = r.clustering.n_clusters() as u64;

        // Merging every core-core edge succeeds exactly (cores - components)
        // times; every cluster contains at least one core, so the component
        // count is the cluster count.
        assert_eq!(c.dsu_unions, core_count - n_clusters);
        // Each union call performs two finds; canonicalization adds one
        // find per core point.
        assert_eq!(c.dsu_finds, 2 * union_calls + core_count);
        // The sheet only records DSU work here; query counters belong to
        // the index.
        assert_eq!(c.range_queries, 0);

        // Observed and plain runs agree.
        let plain = par_dbscan(&d, &idx, &params, 2);
        assert_eq!(plain.clustering, r.clustering);
    }

    #[test]
    fn dsu_batch_histogram_matches_counters() {
        let d = spiral_with_noise();
        let idx = LinearScan::new(&d, Euclidean);
        let params = DbscanParams::new(0.4, 3);
        let sheet = dbdc_obs::CounterSheet::new();
        let hist = dbdc_obs::HistSheet::new();
        let nb = parallel_neighborhoods(&d, &idx, params.eps, 2);
        let r = cluster_from_neighborhoods(d.len(), &nb, params.min_pts, Some(&sheet), Some(&hist));
        let h = hist.snapshot();
        let c = sheet.snapshot();

        // One batch per core point; the batch sizes sum to the union
        // *calls*, of which exactly dsu_unions succeeded.
        let core_count = nb.iter().filter(|ns| ns.len() >= params.min_pts).count() as u64;
        assert_eq!(h.count(), core_count);
        assert!(h.sum() >= c.dsu_unions);
        assert!(h.max() >= 1);

        // Instrumented and plain runs agree.
        let plain = par_dbscan(&d, &idx, &params, 2);
        assert_eq!(plain.clustering, r.clustering);
    }

    #[test]
    fn neighborhoods_match_index_answers() {
        let d = spiral_with_noise();
        let idx = LinearScan::new(&d, Euclidean);
        let nb = parallel_neighborhoods(&d, &idx, 0.4, 4);
        for i in 0..d.len() as u32 {
            assert_eq!(nb[i as usize], idx.range_vec(d.point(i), 0.4));
        }
    }
}
