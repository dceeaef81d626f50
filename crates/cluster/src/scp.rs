//! DBSCAN with on-the-fly *specific core point* extraction.
//!
//! Section 4 of the paper: "We slightly enhanced DBSCAN so that we can
//! easily determine the local model after we have finished the local
//! clustering. All information which is comprised within the local model,
//! i.e. the representatives and their corresponding ε-ranges, is computed
//! on-the-fly during the DBSCAN run."
//!
//! Definition 6 (specific core points): `Scor_C ⊆ Cor_C` such that no
//! specific core point lies in another's ε-neighborhood, and every core
//! point of the cluster lies in the ε-neighborhood of some specific core
//! point. As the paper notes, the set is not unique — it depends on the
//! processing order of the DBSCAN run; this module selects greedily in
//! exactly that visit order.
//!
//! Definition 7 (specific ε-ranges):
//! `ε_s = Eps + max{ dist(s, sᵢ) | sᵢ ∈ Cor ∧ sᵢ ∈ N_Eps(s) }`.
//! The maximum is taken once the run is complete (a late-visited core point
//! can fall inside an early specific core point's neighborhood), via one
//! extra range query per specific core point.
//!
//! One state machine serves every execution path. Each expansion asks
//! its source two questions — is `j` core, and which of `j`'s
//! neighbours are still open (unclassified or noise) — and each
//! specific core point one more: its ε-neighbourhood, for Definition 7.
//! [`dbscan_with_scp`] answers them with range queries as it goes, in
//! the index's answer order; the parallel layer replays it over cached
//! lists in that same order. The partitioned layer runs it in ascending
//! id order, sorting only the seeds each expansion claims: in up to
//! [`crate::count_claim::MAX_DIM`] dimensions at f64, over the grid
//! count-and-claim kernel ([`mod@crate::count_claim`]), whose one grid
//! per site decides the core flags beforehand, cell range by cell range,
//! and then serves this pass, scanning only the open members of each
//! cell; otherwise over gathered lists. Both partitioned sources give
//! the same result.

use crate::dbscan::{DbscanParams, DbscanResult};
use dbdc_geom::{Clustering, Dataset, Label};
use dbdc_index::{NeighborIndex, QueryWorkspace};

/// A specific core point with its specific ε-range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecificCorePoint {
    /// Index of the point in the local dataset.
    pub point: u32,
    /// The specific ε-range `ε_s` (Definition 7).
    pub eps_range: f64,
}

/// Result of the enhanced DBSCAN run: the ordinary DBSCAN result plus, for
/// every cluster, its complete set of specific core points.
#[derive(Debug, Clone)]
pub struct ScpResult {
    /// The underlying DBSCAN clustering and core flags.
    pub dbscan: DbscanResult,
    /// `scp[c]` — the specific core points of cluster `c`, in selection
    /// order.
    pub scp: Vec<Vec<SpecificCorePoint>>,
}

impl ScpResult {
    /// Total number of specific core points across all clusters.
    pub fn n_representatives(&self) -> usize {
        self.scp.iter().map(|v| v.len()).sum()
    }
}

const UNCLASSIFIED: i64 = -2;
const NOISE: i64 = -1;

/// Where the enhanced DBSCAN learns the two facts an expansion needs
/// about each point — is it core, and which of its neighbours are still
/// open — plus each specific core point's neighbourhood for
/// Definition 7. The sources: a range query issued on the spot
/// ([`dbscan_with_scp`]), a list gathered beforehand (the parallel
/// layer, and the partitioned one above the grid kernel's reach), or
/// the partitioned layer's grid count-and-claim kernel
/// ([`mod@crate::count_claim`]), which gathers no lists at all.
pub(crate) trait Neighborhoods {
    /// Looks point `j` up: whether its closed ε-neighbourhood holds at
    /// least `min_pts` points.
    fn is_core(&mut self, j: u32, min_pts: usize) -> bool;

    /// Hands every open neighbour of `j` — its `state` unclassified or
    /// noise — to `claim` once, with that state, which `claim` closes.
    /// Called right after `is_core(j)` answered true.
    fn claim(&mut self, j: u32, state: &mut [i64], claim: impl FnMut(u32, &mut i64));

    /// Calls `visit` with every point within ε of `s`, `s` included.
    fn each_neighbor(&mut self, s: u32, visit: impl FnMut(u32));
}

impl<N: Neighborhoods> Neighborhoods for &mut N {
    fn is_core(&mut self, j: u32, min_pts: usize) -> bool {
        (**self).is_core(j, min_pts)
    }

    fn claim(&mut self, j: u32, state: &mut [i64], claim: impl FnMut(u32, &mut i64)) {
        (**self).claim(j, state, claim)
    }

    fn each_neighbor(&mut self, s: u32, visit: impl FnMut(u32)) {
        (**self).each_neighbor(s, visit)
    }
}

/// Hands the open ids of `list` to `claim`.
fn claim_open(list: &[u32], state: &mut [i64], mut claim: impl FnMut(u32, &mut i64)) {
    for &q in list {
        let s = &mut state[q as usize];
        if *s < 0 {
            claim(q, s);
        }
    }
}

/// Answers every lookup with a fresh ε-range query on `index`.
struct Queries<'a> {
    data: &'a Dataset,
    index: &'a dyn NeighborIndex,
    eps: f64,
    list: Vec<u32>,
    ws: QueryWorkspace,
}

impl Queries<'_> {
    fn query(&mut self, i: u32) -> &[u32] {
        self.index
            .range_with(self.data.point(i), self.eps, &mut self.list, &mut self.ws);
        &self.list
    }
}

impl Neighborhoods for Queries<'_> {
    fn is_core(&mut self, j: u32, min_pts: usize) -> bool {
        self.query(j).len() >= min_pts
    }

    /// Claims from the list `is_core(j)` just fetched.
    fn claim(&mut self, _: u32, state: &mut [i64], claim: impl FnMut(u32, &mut i64)) {
        claim_open(&self.list, state, claim)
    }

    fn each_neighbor(&mut self, s: u32, visit: impl FnMut(u32)) {
        self.query(s).iter().copied().for_each(visit)
    }
}

impl Neighborhoods for &[Vec<u32>] {
    fn is_core(&mut self, j: u32, min_pts: usize) -> bool {
        self[j as usize].len() >= min_pts
    }

    fn claim(&mut self, j: u32, state: &mut [i64], claim: impl FnMut(u32, &mut i64)) {
        claim_open(&self[j as usize], state, claim)
    }

    fn each_neighbor(&mut self, s: u32, visit: impl FnMut(u32)) {
        self[s as usize].iter().copied().for_each(visit)
    }
}

/// The order an expansion pushes the points it claims onto the seed
/// stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SeedOrder {
    /// The order the source hands them over: a list's order.
    List,
    /// Ascending ids, whatever order the source hands them over in.
    Ascending,
}

/// Runs DBSCAN while extracting specific core points in visit order.
///
/// The clustering and core flags are identical to [`crate::dbscan::dbscan`]
/// (asserted by tests); the only additions are the greedy `Scor` selection
/// the moment each core point is discovered, and one ε-range query per
/// specific core point at the end to finalize Definition 7's maximum.
///
/// ```
/// use dbdc_cluster::{dbscan_with_scp, DbscanParams};
/// use dbdc_geom::{Dataset, Euclidean};
/// use dbdc_index::LinearScan;
///
/// // One dense cluster of 20 points packed well inside one Eps ball.
/// let mut data = Dataset::new(2);
/// for i in 0..20 {
///     data.push(&[i as f64 * 0.01, 0.0]);
/// }
/// let index = LinearScan::new(&data, Euclidean);
/// let result = dbscan_with_scp(&data, &index, &DbscanParams::new(1.0, 3));
/// // All 20 points fit in the first core point's ε-neighborhood, so one
/// // specific core point represents the whole cluster.
/// assert_eq!(result.n_representatives(), 1);
/// let rep = result.scp[0][0];
/// assert!(rep.eps_range >= 1.0 && rep.eps_range <= 2.0);
/// ```
pub fn dbscan_with_scp(
    data: &Dataset,
    index: &dyn NeighborIndex,
    params: &DbscanParams,
) -> ScpResult {
    assert_eq!(
        index.len(),
        data.len(),
        "index must be built over the clustered dataset"
    );
    let queries = Queries {
        data,
        index,
        eps: params.eps,
        list: Vec::new(),
        ws: QueryWorkspace::new(),
    };
    enhanced_dbscan(data, params, queries, SeedOrder::List)
}

/// The enhanced-DBSCAN state machine behind every execution path.
/// Each `is_core` and `each_neighbor` lookup in `source` counts as one
/// of `range_queries`, so a run over cached lists or the grid kernel
/// reports the queries the sequential run issues.
///
/// Only specific-core-point selection depends on the source's order, and
/// only through the order the seeds are pushed: one expansion claims
/// exactly the unclassified points of its neighbourhood, each once. With
/// [`SeedOrder::Ascending`] each expansion sorts the seeds it just
/// pushed, which builds the stack ascending lists would, while sorting
/// at most `n` ids in the whole run.
pub(crate) fn enhanced_dbscan(
    data: &Dataset,
    params: &DbscanParams,
    mut source: impl Neighborhoods,
    order: SeedOrder,
) -> ScpResult {
    let n = data.len();
    let mut state = vec![UNCLASSIFIED; n];
    let mut core = vec![false; n];
    let mut seeds: Vec<u32> = Vec::new();
    let mut range_queries = 0usize;
    // Per-cluster specific core points (ids only; ranges computed at the
    // end).
    let mut scp_ids: Vec<Vec<u32>> = Vec::new();
    let metric = dbdc_geom::Euclidean;
    use dbdc_geom::Metric;

    for i in 0..n as u32 {
        if state[i as usize] != UNCLASSIFIED {
            continue;
        }
        // Expand from `i`: a core `i` opens the next cluster, whose seeds
        // are popped until the stack is empty.
        let cluster = scp_ids.len();
        let mut next = Some(i);
        while let Some(j) = next {
            range_queries += 1;
            if source.is_core(j, params.min_pts) {
                if j == i {
                    scp_ids.push(Vec::new());
                    state[i as usize] = cluster as i64;
                }
                core[j as usize] = true;
                // Greedy Scor membership test: the new core point joins
                // unless a specific core point of its cluster covers it.
                let list = &mut scp_ids[cluster];
                if !list
                    .iter()
                    .any(|&s| metric.dist(data.point(s), data.point(j)) <= params.eps)
                {
                    list.push(j);
                }
                let start = seeds.len();
                source.claim(j, &mut state, |q, s| {
                    if *s == UNCLASSIFIED {
                        seeds.push(q);
                    }
                    *s = cluster as i64;
                });
                if order == SeedOrder::Ascending {
                    seeds[start..].sort_unstable();
                }
            } else if j == i {
                state[i as usize] = NOISE;
            }
            next = seeds.pop();
        }
    }

    // Finalize Definition 7: ε_s = Eps + max dist to core points within Eps.
    let mut scp: Vec<Vec<SpecificCorePoint>> = Vec::with_capacity(scp_ids.len());
    for ids in &scp_ids {
        let mut list = Vec::with_capacity(ids.len());
        for &s in ids {
            range_queries += 1;
            let mut max_core_dist = 0.0f64;
            source.each_neighbor(s, |q| {
                if core[q as usize] {
                    max_core_dist = max_core_dist.max(metric.dist(data.point(s), data.point(q)));
                }
            });
            list.push(SpecificCorePoint {
                point: s,
                eps_range: params.eps + max_core_dist,
            });
        }
        scp.push(list);
    }

    let labels = state
        .iter()
        .map(|&s| {
            if s < 0 {
                Label::Noise
            } else {
                Label::Cluster(s as u32)
            }
        })
        .collect();
    let clustering = Clustering::from_labels(labels);

    // `Clustering::from_labels` renumbers cluster ids by first appearance in
    // *point* order, which can differ from DBSCAN's creation order: a point
    // marked noise during an early cluster's scan may later be absorbed as a
    // border of a later cluster, making that later cluster appear first in
    // the label vector. Remap the scp lists onto the dense ids so that
    // `scp[c]` always describes `Cluster(c)` of the returned clustering.
    let mut remapped: Vec<Vec<SpecificCorePoint>> = vec![Vec::new(); scp.len()];
    for (raw, list) in scp.into_iter().enumerate() {
        // Every cluster has at least one specific core point; its dense id
        // is wherever the clustering put that point.
        let dense = list
            .first()
            .and_then(|s| clustering.label(s.point).cluster())
            .unwrap_or(raw as u32) as usize;
        remapped[dense] = list;
    }

    ScpResult {
        dbscan: DbscanResult {
            clustering,
            core,
            range_queries,
        },
        scp: remapped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::dbscan;
    use dbdc_geom::{Euclidean, Metric};
    use dbdc_index::LinearScan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gaussian_blobs(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(2);
        for (cx, cy) in [(0.0, 0.0), (8.0, 8.0), (0.0, 9.0)] {
            for _ in 0..120 {
                // Box-Muller-ish jitter via averaging keeps rand API simple.
                let jitter = |rng: &mut StdRng| {
                    (0..4).map(|_| rng.random_range(-1.0..1.0)).sum::<f64>() / 2.0
                };
                d.push(&[cx + jitter(&mut rng), cy + jitter(&mut rng)]);
            }
        }
        for _ in 0..30 {
            d.push(&[rng.random_range(-20.0..20.0), rng.random_range(-20.0..20.0)]);
        }
        d
    }

    fn run(data: &Dataset, eps: f64, min_pts: usize) -> ScpResult {
        let idx = LinearScan::new(data, Euclidean);
        dbscan_with_scp(data, &idx, &DbscanParams::new(eps, min_pts))
    }

    #[test]
    fn clustering_identical_to_plain_dbscan() {
        let d = gaussian_blobs(5);
        let idx = LinearScan::new(&d, Euclidean);
        let params = DbscanParams::new(0.7, 5);
        let plain = dbscan(&d, &idx, &params);
        let scp = dbscan_with_scp(&d, &idx, &params);
        assert_eq!(plain.clustering, scp.dbscan.clustering);
        assert_eq!(plain.core, scp.dbscan.core);
    }

    #[test]
    fn scp_are_core_points_of_their_cluster() {
        let d = gaussian_blobs(6);
        let r = run(&d, 0.7, 5);
        for (c, list) in r.scp.iter().enumerate() {
            assert!(!list.is_empty(), "cluster {c} must have representatives");
            for s in list {
                assert!(r.dbscan.core[s.point as usize], "scp must be core");
                assert_eq!(
                    r.dbscan.clustering.label(s.point).cluster(),
                    Some(c as u32),
                    "scp must belong to its cluster"
                );
            }
        }
    }

    #[test]
    fn scp_pairwise_separation() {
        // Definition 6 condition 2: no scp lies in another's ε-neighborhood.
        let d = gaussian_blobs(7);
        let eps = 0.7;
        let r = run(&d, eps, 5);
        for list in &r.scp {
            for (i, a) in list.iter().enumerate() {
                for b in &list[i + 1..] {
                    let dist = Euclidean.dist(d.point(a.point), d.point(b.point));
                    assert!(
                        dist > eps,
                        "specific core points {} and {} violate separation: {dist} <= {eps}",
                        a.point,
                        b.point
                    );
                }
            }
        }
    }

    #[test]
    fn scp_cover_all_core_points() {
        // Definition 6 condition 3: every core point is within Eps of a scp
        // of its cluster.
        let d = gaussian_blobs(8);
        let eps = 0.7;
        let r = run(&d, eps, 5);
        for i in 0..d.len() as u32 {
            if !r.dbscan.core[i as usize] {
                continue;
            }
            let c = r
                .dbscan
                .clustering
                .label(i)
                .cluster()
                .expect("cores are clustered") as usize;
            let covered = r.scp[c]
                .iter()
                .any(|s| Euclidean.dist(d.point(s.point), d.point(i)) <= eps);
            assert!(
                covered,
                "core point {i} not covered by any scp of cluster {c}"
            );
        }
    }

    #[test]
    fn eps_ranges_match_definition_7() {
        let d = gaussian_blobs(9);
        let eps = 0.7;
        let r = run(&d, eps, 5);
        let idx = LinearScan::new(&d, Euclidean);
        for list in &r.scp {
            for s in list {
                let max_core = idx
                    .range_vec(d.point(s.point), eps)
                    .iter()
                    .filter(|&&q| r.dbscan.core[q as usize])
                    .map(|&q| Euclidean.dist(d.point(s.point), d.point(q)))
                    .fold(0.0f64, f64::max);
                assert!(
                    (s.eps_range - (eps + max_core)).abs() < 1e-12,
                    "eps_range mismatch for scp {}",
                    s.point
                );
                // ε_s is bounded: Eps <= ε_s <= 2·Eps.
                assert!(s.eps_range >= eps - 1e-12);
                assert!(s.eps_range <= 2.0 * eps + 1e-12);
            }
        }
    }

    #[test]
    fn every_cluster_member_covered_by_some_scp_range() {
        // The coverage property Section 7 relies on: every object of a local
        // cluster lies within ε_s of some specific core point of its
        // cluster. (Border points are within Eps of a core point c, c is
        // within Eps of a scp s, and ε_s >= Eps + dist(c, s).)
        let d = gaussian_blobs(10);
        let eps = 0.7;
        let r = run(&d, eps, 5);
        for i in 0..d.len() as u32 {
            if let Some(c) = r.dbscan.clustering.label(i).cluster() {
                let covered = r.scp[c as usize]
                    .iter()
                    .any(|s| Euclidean.dist(d.point(s.point), d.point(i)) <= s.eps_range + 1e-12);
                assert!(covered, "cluster member {i} not covered by any scp ε-range");
            }
        }
    }

    #[test]
    fn representative_count_much_smaller_than_data() {
        let d = gaussian_blobs(11);
        let r = run(&d, 0.7, 5);
        let n_rep = r.n_representatives();
        assert!(n_rep > 0);
        assert!(
            n_rep * 3 < d.len(),
            "representatives ({n_rep}) should be a small fraction of n ({})",
            d.len()
        );
    }

    #[test]
    fn empty_and_all_noise() {
        let d = Dataset::new(2);
        let r = run(&d, 1.0, 3);
        assert!(r.scp.is_empty());
        assert_eq!(r.n_representatives(), 0);

        let mut sparse = Dataset::new(2);
        for i in 0..5 {
            sparse.push(&[i as f64 * 100.0, 0.0]);
        }
        let r = run(&sparse, 1.0, 3);
        assert!(r.scp.is_empty());
        assert_eq!(r.dbscan.clustering.n_noise(), 5);
    }

    #[test]
    fn dense_single_cluster_one_scp_when_tiny() {
        // All points within eps of the first-visited core point -> exactly
        // one specific core point.
        let mut d = Dataset::new(2);
        for i in 0..20 {
            d.push(&[i as f64 * 0.01, 0.0]);
        }
        let r = run(&d, 1.0, 3);
        assert_eq!(r.dbscan.clustering.n_clusters(), 1);
        assert_eq!(r.scp[0].len(), 1);
    }
}
