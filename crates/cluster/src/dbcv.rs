//! DBCV — Density-Based Clustering Validation (Moulavi et al., SDM 2014).
//!
//! The paper's own quality measure, `Q_DBDC` (Section 8), compares the
//! distributed clustering against a *central reference* run — so it says
//! nothing on unlabeled workloads where no reference exists. DBCV is the
//! ground-truth-free complement: a relative validity index for
//! density-based clusterings that scores a labeling from the data alone,
//! in `[-1, 1]` (higher is better, 0 is the degenerate/undecided value).
//!
//! The construction, exactly as implemented here:
//!
//! 1. **All-points-core-distance** — for each object `x` of cluster `Cᵢ`
//!    (`nᵢ = |Cᵢ|`), over a `d`-dimensional space:
//!    `apts(x) = ( Σ_{y∈Cᵢ, y≠x} (1/d(x,y))^d / (nᵢ−1) )^(−1/d)`,
//!    an inverse-power-mean density estimate (duplicates drive it to 0).
//! 2. **Mutual reachability** — `d_mr(x,y) = max(apts(x), apts(y), d(x,y))`,
//!    the same smoothed metric HDBSCAN builds on.
//! 3. **Density sparseness** (DSC) — per cluster, the maximum edge of the
//!    minimum spanning tree of the complete mutual-reachability graph
//!    restricted to *internal* edges (both endpoints of MST degree ≥ 2;
//!    clusters too small to have internal edges fall back to all edges).
//!    The MST is built with dense Prim, `O(nᵢ²)` distance evaluations.
//! 4. **Density separation** (DSPC) — for each cluster pair, the minimum
//!    mutual reachability between their internal nodes.
//! 5. **Validity** — `V(Cᵢ) = (minⱼ DSPC(Cᵢ,Cⱼ) − DSC(Cᵢ))
//!    / max(minⱼ DSPC(Cᵢ,Cⱼ), DSC(Cᵢ))`, and the global index is the
//!    size-weighted sum `Σ (nᵢ/|O|)·V(Cᵢ)` where `|O|` counts *every*
//!    object including noise — so heavy noise drags the index toward 0.
//!
//! Degenerate inputs return defined values instead of NaN: fewer than two
//! scoreable clusters (all noise, a single cluster, or everything in
//! singletons) yields exactly `0.0`. Singleton clusters cannot carry a
//! density estimate and are treated as noise, following the reference
//! `dbcvindex` implementation.
//!
//! Two core-distance paths are provided: the exact `O(nᵢ²)` sum over the
//! cluster ([`CorePath::Exact`]), and an index-accelerated approximation
//! ([`CorePath::Knn`]) that truncates the sum to the `k` nearest
//! within-cluster neighbours found via [`dbdc_index::NeighborIndex::knn`] — with
//! `k ≥ nᵢ` the two are identical. Hot loops count into the `quality`
//! counter scope (`mst_edges`, `distance_evals`) through the usual
//! flush-once-per-phase discipline.

use dbdc_geom::{Clustering, Dataset, Metric};
use dbdc_index::{build_index_opts, BuildOptions, IndexKind};
use dbdc_obs::{Counter, Recorder};

/// Counter scope the DBCV hot loops record under.
pub const QUALITY_SCOPE: &str = "quality";

/// How all-points-core-distances are computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorePath {
    /// The exact `O(nᵢ²)` sum over every same-cluster object.
    Exact,
    /// Truncate the density sum to the `k` nearest within-cluster
    /// neighbours, found with a per-cluster spatial index. Exact when
    /// `k ≥ nᵢ`; a cheap upper-biased approximation otherwise.
    Knn {
        /// Neighbours kept per object (the query point itself excluded).
        k: usize,
        /// Index structure built per cluster for the knn queries.
        index: IndexKind,
    },
}

/// The result of a DBCV evaluation.
#[derive(Debug, Clone)]
pub struct DbcvOutcome {
    /// The global index in `[-1, 1]`; `0.0` for degenerate inputs.
    pub value: f64,
    /// Clusters that were scored (size ≥ 2 after singleton demotion).
    pub n_clusters: usize,
    /// Objects counted as noise, including singleton-cluster members.
    pub n_noise: usize,
    /// Per-cluster validity `V(Cᵢ)` indexed by cluster id; clusters too
    /// small to score hold `0.0`.
    pub cluster_validity: Vec<f64>,
}

/// Computes DBCV with exact core distances and no instrumentation.
///
/// ```
/// use dbdc_cluster::dbcv::dbcv;
/// use dbdc_geom::{Clustering, Dataset, Euclidean, Label};
/// use dbdc_obs::NoopRecorder;
///
/// let data = Dataset::from_flat(
///     2,
///     vec![0.0, 0.0, 0.1, 0.0, 0.0, 0.1, 9.0, 9.0, 9.1, 9.0, 9.0, 9.1],
/// );
/// let labels = Clustering::from_labels(vec![
///     Label::Cluster(0), Label::Cluster(0), Label::Cluster(0),
///     Label::Cluster(1), Label::Cluster(1), Label::Cluster(1),
/// ]);
/// let out = dbcv(&data, &labels, Euclidean, &NoopRecorder);
/// assert!(out.value > 0.9); // two tight, well-separated blobs
/// ```
pub fn dbcv<M: Metric + Clone>(
    data: &Dataset,
    clustering: &Clustering,
    metric: M,
    rec: &dyn Recorder,
) -> DbcvOutcome {
    dbcv_with(data, clustering, metric, CorePath::Exact, rec)
}

/// Computes DBCV with an explicit core-distance path.
///
/// # Panics
/// Panics if `clustering` does not cover `data`.
pub fn dbcv_with<M: Metric + Clone>(
    data: &Dataset,
    clustering: &Clustering,
    metric: M,
    path: CorePath,
    rec: &dyn Recorder,
) -> DbcvOutcome {
    assert_eq!(
        data.len(),
        clustering.len(),
        "clustering must cover the dataset"
    );
    let n_labels = clustering.n_clusters() as usize;
    let total = data.len();
    let mut validity = vec![0.0; n_labels];

    // Membership lists; singleton clusters are demoted to noise.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_labels];
    for i in 0..total as u32 {
        if let Some(c) = clustering.label(i).cluster() {
            members[c as usize].push(i);
        }
    }
    let singles: usize = members
        .iter()
        .filter(|m| m.len() == 1)
        .map(|m| m.len())
        .sum();
    let n_noise = clustering.n_noise() + singles;
    let scored: Vec<usize> = (0..n_labels).filter(|&c| members[c].len() >= 2).collect();

    if total == 0 || scored.len() < 2 {
        return DbcvOutcome {
            value: 0.0,
            n_clusters: scored.len(),
            n_noise,
            cluster_validity: validity,
        };
    }

    let sheet = rec.sheet(QUALITY_SCOPE);
    let mut dist_evals = 0u64;
    let mut mst_edges = 0u64;
    let dim = data.dim().max(1) as i32;

    // Per scored cluster: core distances, then the Prim MST over mutual
    // reachability, then the internal-node set and DSC.
    let mut cores: Vec<Vec<f64>> = Vec::with_capacity(scored.len());
    let mut internals: Vec<Vec<u32>> = Vec::with_capacity(scored.len());
    let mut dscs: Vec<f64> = Vec::with_capacity(scored.len());
    for &c in &scored {
        let m = &members[c];
        let core = match path {
            CorePath::Exact => {
                dist_evals += (m.len() * (m.len() - 1)) as u64;
                exact_cores(data, m, &metric, dim)
            }
            CorePath::Knn { k, index } => knn_cores(data, m, &metric, dim, k, index, rec),
        };
        let (edges, degree) = prim_mst(data, m, &core, &metric, &mut dist_evals);
        mst_edges += edges.len() as u64;
        let internal: Vec<u32> = (0..m.len() as u32)
            .filter(|&i| degree[i as usize] >= 2)
            .collect();
        // Internal edges only; clusters of 2-3 points have none, so fall
        // back to the full edge set (and below to the full node set).
        let dsc = edges
            .iter()
            .filter(|&&(a, b, _)| degree[a as usize] >= 2 && degree[b as usize] >= 2)
            .map(|&(_, _, w)| w)
            .fold(f64::NEG_INFINITY, f64::max);
        let dsc = if dsc.is_finite() {
            dsc
        } else {
            edges.iter().map(|&(_, _, w)| w).fold(0.0, f64::max)
        };
        cores.push(core);
        internals.push(internal);
        dscs.push(dsc);
    }

    // Pairwise minimum density separation between internal nodes.
    let mut min_dspc = vec![f64::INFINITY; scored.len()];
    for i in 0..scored.len() {
        for j in i + 1..scored.len() {
            let sep = dspc(
                data,
                (&members[scored[i]], &cores[i], &internals[i]),
                (&members[scored[j]], &cores[j], &internals[j]),
                &metric,
                &mut dist_evals,
            );
            min_dspc[i] = min_dspc[i].min(sep);
            min_dspc[j] = min_dspc[j].min(sep);
        }
    }

    let mut value = 0.0;
    for (s, &c) in scored.iter().enumerate() {
        let denom = min_dspc[s].max(dscs[s]);
        let v = if denom > 0.0 && denom.is_finite() {
            (min_dspc[s] - dscs[s]) / denom
        } else {
            0.0 // all-duplicate degenerate cluster: undecided, not NaN
        };
        validity[c] = v;
        value += members[c].len() as f64 / total as f64 * v;
    }

    if let Some(sheet) = sheet {
        sheet.add_to(Counter::distance_evals, dist_evals);
        sheet.add_to(Counter::mst_edges, mst_edges);
    }
    DbcvOutcome {
        value,
        n_clusters: scored.len(),
        n_noise,
        cluster_validity: validity,
    }
}

/// Exact all-points-core-distances of one cluster.
fn exact_cores<M: Metric>(data: &Dataset, members: &[u32], metric: &M, dim: i32) -> Vec<f64> {
    let n = members.len();
    members
        .iter()
        .map(|&x| {
            let p = data.point(x);
            let mut sum = 0.0;
            for &y in members {
                if y == x {
                    continue;
                }
                sum += (1.0 / metric.dist(p, data.point(y))).powi(dim);
            }
            // A zero distance contributes +inf, collapsing the core
            // distance to 0 — the density estimate at a duplicate point.
            (sum / (n - 1) as f64).powf(-1.0 / dim as f64)
        })
        .collect()
}

/// Index-accelerated core distances: the density sum truncated to each
/// object's `k` nearest within-cluster neighbours.
fn knn_cores<M: Metric + Clone>(
    data: &Dataset,
    members: &[u32],
    metric: &M,
    dim: i32,
    k: usize,
    kind: IndexKind,
    rec: &dyn Recorder,
) -> Vec<f64> {
    let sub = data.subset(members);
    let sheet = rec.sheet(QUALITY_SCOPE);
    // The grid index needs a positive cell size; the bounding-box
    // diagonal scaled by the point count approximates the within-cluster
    // neighbour spacing (the other index kinds ignore the hint).
    let hint = sub
        .bounding_rect()
        .map(|r| metric.dist(r.lo(), r.hi()) / (members.len() as f64))
        .filter(|h| h.is_finite() && *h > 0.0)
        .unwrap_or(1.0);
    let opts = BuildOptions::default();
    let index = build_index_opts(kind, &sub, metric.clone(), hint, opts, sheet.as_ref(), None);
    let k = k.max(1).min(members.len() - 1);
    (0..members.len() as u32)
        .map(|local| {
            let p = sub.point(local);
            // +1 because the query point itself comes back at distance 0.
            let mut sum = 0.0;
            let mut cnt = 0usize;
            for (hit, d) in index.knn(p, k + 1) {
                if hit == local {
                    continue;
                }
                sum += (1.0 / d).powi(dim);
                cnt += 1;
            }
            if cnt == 0 {
                return f64::INFINITY;
            }
            (sum / cnt as f64).powf(-1.0 / dim as f64)
        })
        .collect()
}

/// Dense Prim over the implicit complete mutual-reachability graph of one
/// cluster. Returns the MST edge list (local indices, weight) and the
/// per-node degree.
fn prim_mst<M: Metric>(
    data: &Dataset,
    members: &[u32],
    core: &[f64],
    metric: &M,
    dist_evals: &mut u64,
) -> (Vec<(u32, u32, f64)>, Vec<u32>) {
    let n = members.len();
    let mut in_tree = vec![false; n];
    let mut best = vec![f64::INFINITY; n];
    let mut parent = vec![0u32; n];
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    let mut degree = vec![0u32; n];
    in_tree[0] = true;
    let mut last = 0usize;
    for _ in 1..n {
        // Relax every out-of-tree node against the vertex added last.
        let lp = data.point(members[last]);
        for v in 0..n {
            if in_tree[v] {
                continue;
            }
            *dist_evals += 1;
            let d = metric.dist(lp, data.point(members[v]));
            let w = d.max(core[last]).max(core[v]);
            if w < best[v] {
                best[v] = w;
                parent[v] = last as u32;
            }
        }
        let next = (0..n)
            .filter(|&v| !in_tree[v])
            .min_by(|&a, &b| best[a].total_cmp(&best[b]))
            .expect("cluster has an out-of-tree vertex");
        in_tree[next] = true;
        edges.push((parent[next], next as u32, best[next]));
        degree[parent[next] as usize] += 1;
        degree[next] += 1;
        last = next;
    }
    (edges, degree)
}

/// Minimum mutual reachability between the internal nodes of two
/// clusters (falling back to all nodes when a cluster has none).
fn dspc<M: Metric>(
    data: &Dataset,
    a: (&[u32], &[f64], &[u32]),
    b: (&[u32], &[f64], &[u32]),
    metric: &M,
    dist_evals: &mut u64,
) -> f64 {
    let nodes = |(members, _, internal): (&[u32], &[f64], &[u32])| -> Vec<u32> {
        if internal.is_empty() {
            (0..members.len() as u32).collect()
        } else {
            internal.to_vec()
        }
    };
    let (na, nb) = (nodes(a), nodes(b));
    let mut min = f64::INFINITY;
    for &x in &na {
        let px = data.point(a.0[x as usize]);
        let cx = a.1[x as usize];
        for &y in &nb {
            *dist_evals += 1;
            let d = metric.dist(px, data.point(b.0[y as usize]));
            min = min.min(d.max(cx).max(b.1[y as usize]));
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdc_geom::{Euclidean, Label};
    use dbdc_obs::{NoopRecorder, RecordingRecorder};

    /// Two tight blobs far apart, labeled correctly.
    fn blobs() -> (Dataset, Clustering) {
        let mut d = Dataset::new(2);
        let mut labels = Vec::new();
        for i in 0..20 {
            let t = i as f64 * 0.37;
            d.push(&[t.sin() * 0.3, t.cos() * 0.3]);
            labels.push(Label::Cluster(0));
        }
        for i in 0..20 {
            let t = i as f64 * 0.53;
            d.push(&[50.0 + t.sin() * 0.3, 50.0 + t.cos() * 0.3]);
            labels.push(Label::Cluster(1));
        }
        (d, Clustering::from_labels(labels))
    }

    /// A uniform grid of points split arbitrarily down the middle — a
    /// clustering with no density justification.
    fn split_uniform() -> (Dataset, Clustering) {
        let mut d = Dataset::new(2);
        let mut labels = Vec::new();
        for x in 0..8 {
            for y in 0..8 {
                d.push(&[x as f64, y as f64]);
                labels.push(Label::Cluster(u32::from(x >= 4)));
            }
        }
        (d, Clustering::from_labels(labels))
    }

    #[test]
    fn separated_blobs_score_near_one() {
        let (d, c) = blobs();
        let out = dbcv(&d, &c, Euclidean, &NoopRecorder);
        assert!(out.value > 0.9, "got {}", out.value);
        assert_eq!(out.n_clusters, 2);
        assert_eq!(out.n_noise, 0);
        assert_eq!(out.cluster_validity.len(), 2);
        assert!(out.cluster_validity.iter().all(|&v| v > 0.9));
    }

    #[test]
    fn arbitrary_split_of_uniform_data_scores_nonpositive() {
        let (d, c) = split_uniform();
        let out = dbcv(&d, &c, Euclidean, &NoopRecorder);
        // The "separation" between the halves equals the within-cluster
        // spacing, so the index must not reward the split.
        assert!(out.value <= 0.0, "got {}", out.value);
        assert!(out.value >= -1.0);
    }

    #[test]
    fn bounded_in_minus_one_one() {
        for (d, c) in [blobs(), split_uniform()] {
            let v = dbcv(&d, &c, Euclidean, &NoopRecorder).value;
            assert!((-1.0..=1.0).contains(&v), "got {v}");
        }
    }

    #[test]
    fn degenerate_inputs_return_zero() {
        let (d, _) = blobs();
        let all_noise = Clustering::all_noise(d.len());
        assert_eq!(dbcv(&d, &all_noise, Euclidean, &NoopRecorder).value, 0.0);

        let one = Clustering::from_labels(vec![Label::Cluster(0); d.len()]);
        let out = dbcv(&d, &one, Euclidean, &NoopRecorder);
        assert_eq!(out.value, 0.0);
        assert_eq!(out.n_clusters, 1);

        let empty = Dataset::new(2);
        let out = dbcv(&empty, &Clustering::all_noise(0), Euclidean, &NoopRecorder);
        assert_eq!(out.value, 0.0);
    }

    #[test]
    fn singleton_clusters_count_as_noise() {
        let mut d = Dataset::new(2);
        let mut labels = Vec::new();
        for i in 0..6 {
            d.push(&[i as f64 * 0.1, 0.0]);
            labels.push(Label::Cluster(0));
        }
        for i in 0..6 {
            d.push(&[40.0 + i as f64 * 0.1, 0.0]);
            labels.push(Label::Cluster(1));
        }
        d.push(&[100.0, 100.0]);
        labels.push(Label::Cluster(2)); // singleton
        let c = Clustering::from_labels(labels);
        let out = dbcv(&d, &c, Euclidean, &NoopRecorder);
        assert_eq!(out.n_clusters, 2);
        assert_eq!(out.n_noise, 1);
        assert_eq!(out.cluster_validity[2], 0.0);
        assert!(out.value.is_finite());
    }

    #[test]
    fn duplicate_points_do_not_panic_or_nan() {
        let mut d = Dataset::new(2);
        let mut labels = Vec::new();
        for _ in 0..4 {
            d.push(&[0.0, 0.0]);
            labels.push(Label::Cluster(0));
        }
        for _ in 0..4 {
            d.push(&[1.0, 1.0]);
            labels.push(Label::Cluster(1));
        }
        let out = dbcv(
            &d,
            &Clustering::from_labels(labels),
            Euclidean,
            &NoopRecorder,
        );
        assert!(out.value.is_finite(), "got {}", out.value);
        assert!((-1.0..=1.0).contains(&out.value));
    }

    #[test]
    fn knn_path_with_full_k_matches_exact() {
        let (d, c) = blobs();
        let exact = dbcv(&d, &c, Euclidean, &NoopRecorder);
        for kind in IndexKind::ALL {
            let knn = dbcv_with(
                &d,
                &c,
                Euclidean,
                CorePath::Knn {
                    k: d.len(),
                    index: kind,
                },
                &NoopRecorder,
            );
            assert!(
                (knn.value - exact.value).abs() < 1e-9,
                "{kind:?}: {} vs {}",
                knn.value,
                exact.value
            );
        }
    }

    #[test]
    fn knn_path_with_small_k_stays_close_on_blobs() {
        let (d, c) = blobs();
        let exact = dbcv(&d, &c, Euclidean, &NoopRecorder);
        let approx = dbcv_with(
            &d,
            &c,
            Euclidean,
            CorePath::Knn {
                k: 5,
                index: IndexKind::KdTree,
            },
            &NoopRecorder,
        );
        assert!(
            (approx.value - exact.value).abs() < 0.1,
            "{} vs {}",
            approx.value,
            exact.value
        );
    }

    #[test]
    fn hot_loops_record_into_the_quality_scope() {
        let (d, c) = blobs();
        let rec = RecordingRecorder::new();
        dbcv(&d, &c, Euclidean, &rec);
        let counters = rec.counters(QUALITY_SCOPE);
        // One MST per 20-point cluster: 19 edges each.
        assert_eq!(counters.mst_edges, 38);
        assert!(counters.distance_evals > 0);

        // The knn path additionally routes its index queries there.
        let rec = RecordingRecorder::new();
        dbcv_with(
            &d,
            &c,
            Euclidean,
            CorePath::Knn {
                k: 5,
                index: IndexKind::KdTree,
            },
            &rec,
        );
        let counters = rec.counters(QUALITY_SCOPE);
        assert_eq!(counters.knn_queries, d.len() as u64);
    }

    #[test]
    fn label_permutation_leaves_the_score_unchanged() {
        let (d, c) = blobs();
        let swapped: Vec<Label> = c
            .labels()
            .iter()
            .map(|l| match l {
                Label::Cluster(0) => Label::Cluster(1),
                Label::Cluster(1) => Label::Cluster(0),
                other => *other,
            })
            .collect();
        let base = dbcv(&d, &c, Euclidean, &NoopRecorder).value;
        let perm = dbcv(
            &d,
            &Clustering::from_labels(swapped),
            Euclidean,
            &NoopRecorder,
        )
        .value;
        assert_eq!(base, perm);
    }
}
