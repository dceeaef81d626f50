//! Spatial access methods for the DBDC reproduction.
//!
//! DBSCAN's hot operation is the ε-range query ("all points within `eps` of
//! `q`"); the paper executes it through an R*-tree \[3\] for vector data and
//! an M-tree \[4\] for metric data. This crate provides both, plus a linear
//! scan (the correctness oracle), a uniform grid, and a kd-tree, all behind
//! the [`NeighborIndex`] trait so the clustering layer is index-agnostic.
//!
//! The vector indexes are static: each is built once over the data a site
//! holds and never changed, which is all DBDC asks of them. The R*-tree is
//! STR bulk-loaded straight into flat arenas; R*'s insertion heuristics
//! shape only trees grown by insertion, which nothing here builds.
//!
//! All vector indexes borrow the [`Dataset`] they are built over and return
//! point indices into it; they never copy coordinates. The metric-space
//! index ([`MTree`]) owns its objects instead, since there is no flat
//! storage for arbitrary `T`.

pub mod grid;
pub mod kdtree;
pub mod latency;
pub mod linear;
pub mod mtree;
pub mod rstar;

use dbdc_geom::{Dataset, Metric};

pub use dbdc_geom::Precision;
pub use grid::{GridCell, GridIndex};
pub use kdtree::KdTree;
pub use latency::LatencyObserved;
pub use linear::LinearScan;
pub use mtree::MTree;
pub use rstar::RStarTree;

/// Reusable per-query scratch for [`NeighborIndex::range_with`].
///
/// The flattened indexes traverse with an explicit stack instead of
/// recursion; callers that own a workspace and pass it to every query
/// let that stack keep its high-water capacity, so steady-state range
/// queries perform no allocations at all. A freshly `default()`ed
/// workspace is always valid — the first few queries just grow it.
#[derive(Debug, Default)]
pub struct QueryWorkspace {
    /// Traversal stack of arena node ids.
    pub(crate) stack: Vec<u32>,
}

impl QueryWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    /// Fallback scratch for [`NeighborIndex::range`] calls that don't
    /// thread a [`QueryWorkspace`]: one lazily-grown workspace per
    /// thread, so even workspace-less callers stay allocation-free in
    /// the steady state.
    static SCRATCH: std::cell::RefCell<QueryWorkspace> =
        std::cell::RefCell::new(QueryWorkspace::new());
}

/// Runs `f` with this thread's shared scratch [`QueryWorkspace`].
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut QueryWorkspace) -> R) -> R {
    SCRATCH.with(|ws| f(&mut ws.borrow_mut()))
}

/// A spatial index over a [`Dataset`] answering ε-range and k-nearest-
/// neighbour queries under some [`Metric`].
///
/// Implementations must return **exactly** the points `p` with
/// `dist(q, p) <= eps` (closed ball, matching the paper's
/// `N_Eps(q)` definition), in any order.
pub trait NeighborIndex: Send + Sync {
    /// Number of indexed points.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the indices of all points within distance `eps` of `q`
    /// (inclusive) to `out`. `out` is cleared first.
    fn range(&self, q: &[f64], eps: f64, out: &mut Vec<u32>);

    /// Like [`NeighborIndex::range`], but traverses with the caller's
    /// reusable [`QueryWorkspace`] so steady-state queries allocate
    /// nothing. Returns the same indices in the same order as `range`.
    ///
    /// The default delegates to `range` (correct for indexes without a
    /// traversal stack, e.g. the linear scan); the flattened tree
    /// indexes override it and implement `range` on top of it via
    /// thread-local scratch.
    fn range_with(&self, q: &[f64], eps: f64, out: &mut Vec<u32>, ws: &mut QueryWorkspace) {
        let _ = ws;
        self.range(q, eps, out);
    }

    /// Convenience wrapper around [`NeighborIndex::range`] returning a fresh
    /// vector.
    fn range_vec(&self, q: &[f64], eps: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.range(q, eps, &mut out);
        out
    }

    /// The `k` nearest neighbours of `q` as `(index, distance)` pairs sorted
    /// by ascending distance (ties broken arbitrarily). Returns fewer than
    /// `k` pairs if the index holds fewer points. The query point itself is
    /// *not* excluded — queries from indexed points include themselves.
    fn knn(&self, q: &[f64], k: usize) -> Vec<(u32, f64)>;
}

/// Which index structure to build — used by benchmarks and the DBDC
/// configuration to select the neighborhood backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndexKind {
    /// Brute-force linear scan, `O(n)` per query.
    Linear,
    /// Uniform grid with ε-sized cells; excellent for 2-d data.
    Grid,
    /// Balanced kd-tree built by median splits.
    KdTree,
    /// R*-tree (Beckmann et al. 1990) — the paper's index.
    #[default]
    RStar,
}

impl IndexKind {
    /// All available kinds, for sweeps.
    pub const ALL: [IndexKind; 4] = [
        IndexKind::Linear,
        IndexKind::Grid,
        IndexKind::KdTree,
        IndexKind::RStar,
    ];

    /// A short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Linear => "linear",
            IndexKind::Grid => "grid",
            IndexKind::KdTree => "kdtree",
            IndexKind::RStar => "rstar",
        }
    }
}

impl std::str::FromStr for IndexKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "linear" => Ok(IndexKind::Linear),
            "grid" => Ok(IndexKind::Grid),
            "kdtree" => Ok(IndexKind::KdTree),
            "rstar" => Ok(IndexKind::RStar),
            other => Err(format!(
                "unknown index kind {other:?} (expected linear|grid|kdtree|rstar)"
            )),
        }
    }
}

/// Construction options for [`build_index_opts`].
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Worker threads for parallel arena construction of the kd-tree
    /// and the grid (1 = sequential; the R*-tree always builds on one).
    /// Construction is **bit-identical** at every thread count — the
    /// subtree→node-id assignment is deterministic, so the flat arenas
    /// come out byte-for-byte the same regardless of parallelism.
    pub threads: usize,
    /// Coordinate precision of the leaf SoA scan blocks. The linear
    /// scan ignores this and stays the exact f64 oracle.
    pub precision: Precision,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            precision: Precision::F64,
        }
    }
}

/// Builds the chosen index over `data` with metric `m`.
///
/// `eps_hint` sizes the grid cells for [`IndexKind::Grid`]; it should be the
/// ε the index will mostly be queried with (DBSCAN's `Eps`). The other index
/// kinds ignore it.
///
/// ```
/// use dbdc_geom::{Dataset, Euclidean};
/// use dbdc_index::{build_index, IndexKind};
///
/// let data = Dataset::from_flat(2, vec![0.0, 0.0, 1.0, 0.0, 10.0, 10.0]);
/// let index = build_index(IndexKind::RStar, &data, Euclidean, 1.5);
/// let mut hits = index.range_vec(&[0.5, 0.0], 1.0);
/// hits.sort();
/// assert_eq!(hits, vec![0, 1]);
/// assert_eq!(index.knn(&[9.0, 9.0], 1)[0].0, 2);
/// ```
pub fn build_index<'a, M: Metric + Clone + 'a>(
    kind: IndexKind,
    data: &'a Dataset,
    m: M,
    eps_hint: f64,
) -> Box<dyn NeighborIndex + 'a> {
    build_index_opts(kind, data, m, eps_hint, BuildOptions::default(), None, None)
}

/// Like [`build_index`], with explicit [`BuildOptions`] (worker threads
/// for parallel arena construction, scan-path coordinate precision) and
/// optional observation: a [`dbdc_obs::CounterSheet`] makes every query
/// record its ε-range / knn count, distance evaluations and index-node
/// visits, and a [`dbdc_obs::HistSheet`] wraps the index in a
/// [`LatencyObserved`] layer timing every query. Both layers are
/// independent; with `(None, None)` the hot path performs no atomic
/// operations.
pub fn build_index_opts<'a, M: Metric + Clone + 'a>(
    kind: IndexKind,
    data: &'a Dataset,
    m: M,
    eps_hint: f64,
    opts: BuildOptions,
    sheet: Option<&std::sync::Arc<dbdc_obs::CounterSheet>>,
    hist: Option<&std::sync::Arc<dbdc_obs::HistSheet>>,
) -> Box<dyn NeighborIndex + 'a> {
    let index: Box<dyn NeighborIndex + 'a> = match kind {
        IndexKind::Linear => {
            // The linear scan has no arenas to build and stays the
            // exact f64 oracle regardless of the requested options.
            let idx = LinearScan::new(data, m);
            match sheet {
                Some(s) => Box::new(idx.observed(s.clone())),
                None => Box::new(idx),
            }
        }
        IndexKind::Grid => {
            let idx = GridIndex::with_options(data, m, eps_hint, opts.threads, opts.precision);
            match sheet {
                Some(s) => Box::new(idx.observed(s.clone())),
                None => Box::new(idx),
            }
        }
        IndexKind::KdTree => {
            let idx = KdTree::with_options(data, m, opts.threads, opts.precision);
            match sheet {
                Some(s) => Box::new(idx.observed(s.clone())),
                None => Box::new(idx),
            }
        }
        IndexKind::RStar => {
            let idx = RStarTree::bulk_load_opts(data, m, opts.precision);
            match sheet {
                Some(s) => Box::new(idx.observed(s.clone())),
                None => Box::new(idx),
            }
        }
    };
    match hist {
        Some(hist) => Box::new(LatencyObserved::new(index, hist.clone())),
        None => index,
    }
}

/// Lower bound on the distance from `q` to any point inside the axis-aligned
/// box `[lo, hi]`, under metric `m`.
///
/// Works for every translation-invariant metric that is monotone in the
/// per-coordinate absolute differences (all Lp metrics qualify): the closest
/// point of the box to `q` is the per-coordinate clamp of `q`, so the
/// distance is the metric norm of the per-coordinate gap vector.
pub fn dist_to_box<M: Metric>(m: &M, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    // Stack buffers up to 16 dimensions so the knn hot loops stay
    // allocation-free; the surrogate-space range path bypasses this
    // entirely via `Metric::surrogate_dist_to_box`.
    const STACK_DIM: usize = 16;
    let dim = q.len();
    let mut stack = [0.0f64; 2 * STACK_DIM];
    let mut heap;
    let buf: &mut [f64] = if dim <= STACK_DIM {
        &mut stack
    } else {
        heap = vec![0.0; 2 * dim];
        &mut heap
    };
    let (gaps, zeros) = buf.split_at_mut(buf.len() / 2);
    for i in 0..dim {
        gaps[i] = if q[i] < lo[i] {
            lo[i] - q[i]
        } else if q[i] > hi[i] {
            q[i] - hi[i]
        } else {
            0.0
        };
    }
    m.dist(&gaps[..dim], &zeros[..dim])
}

/// Scans one traversal-ordered SoA block with the batched surrogate
/// kernel, appending every id whose surrogate distance is within
/// `bound` to `out` — in block (traversal) order, which the callers'
/// visit-order guarantees depend on.
///
/// `ids[i]`'s coordinates live column-major at `cols[d * stride + i]`.
/// Work proceeds in fixed chunks through a stack buffer, so the scan
/// allocates nothing regardless of block length.
pub(crate) fn scan_block<M: Metric>(
    m: &M,
    q: &[f64],
    ids: &[u32],
    cols: &[f64],
    stride: usize,
    bound: f64,
    out: &mut Vec<u32>,
) {
    const SCAN_CHUNK: usize = 32;
    let mut buf = [0.0f64; SCAN_CHUNK];
    let n = ids.len();
    let mut i = 0;
    while i < n {
        let c = SCAN_CHUNK.min(n - i);
        // Slicing at `i` keeps the same stride valid: within the chunk
        // the kernel reads `cols[i + d * stride + k]` with
        // `i + k < n <= stride`, which stays inside each column.
        m.surrogate_batch(q, &cols[i..], stride, c, &mut buf[..c]);
        for (k, &id) in ids[i..i + c].iter().enumerate() {
            if buf[k] <= bound {
                out.push(id);
            }
        }
        i += c;
    }
}

/// `f32` twin of [`scan_block`] for the opt-in reduced-precision scan
/// path: same chunking and visit order, surrogates computed by
/// [`Metric::surrogate_batch_f32`] over an `f32` SoA block against an
/// `f32` bound.
pub(crate) fn scan_block_f32<M: Metric>(
    m: &M,
    q: &[f32],
    ids: &[u32],
    cols: &[f32],
    stride: usize,
    bound: f32,
    out: &mut Vec<u32>,
) {
    const SCAN_CHUNK: usize = 32;
    let mut buf = [0.0f32; SCAN_CHUNK];
    let n = ids.len();
    let mut i = 0;
    while i < n {
        let c = SCAN_CHUNK.min(n - i);
        m.surrogate_batch_f32(q, &cols[i..], stride, c, &mut buf[..c]);
        for (k, &id) in ids[i..i + c].iter().enumerate() {
            if buf[k] <= bound {
                out.push(id);
            }
        }
        i += c;
    }
}

/// Per-query `f32` view of an `f64` query point, stack-buffered up to
/// 16 dimensions so the reduced-precision scan path allocates nothing
/// per query in the dimensions this workspace actually uses.
pub(crate) struct QueryF32 {
    stack: [f32; 16],
    heap: Vec<f32>,
    dim: usize,
}

impl QueryF32 {
    pub(crate) fn new(q: &[f64]) -> Self {
        let mut s = Self {
            stack: [0.0; 16],
            heap: Vec::new(),
            dim: q.len(),
        };
        if q.len() <= 16 {
            for (w, &v) in s.stack.iter_mut().zip(q) {
                *w = v as f32;
            }
        } else {
            s.heap = q.iter().map(|&v| v as f32).collect();
        }
        s
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[f32] {
        if self.dim <= 16 {
            &self.stack[..self.dim]
        } else {
            &self.heap
        }
    }
}

#[cfg(test)]
mod observed_tests {
    use super::*;
    use dbdc_geom::Euclidean;
    use dbdc_obs::CounterSheet;
    use std::sync::Arc;

    #[test]
    fn every_backend_counts_queries_and_work() {
        let data = testutil::random_dataset(200, 99);
        for kind in IndexKind::ALL {
            let sheet = Arc::new(CounterSheet::new());
            let idx = build_index_opts(
                kind,
                &data,
                Euclidean,
                5.0,
                BuildOptions::default(),
                Some(&sheet),
                None,
            );
            let mut out = Vec::new();
            for i in (0..data.len()).step_by(10) {
                idx.range(data.point(i as u32), 5.0, &mut out);
            }
            idx.knn(&[0.0, 0.0], 3);
            let c = sheet.snapshot();
            assert_eq!(c.range_queries, 20, "{kind:?}");
            assert_eq!(c.knn_queries, 1, "{kind:?}");
            assert!(c.distance_evals > 0, "{kind:?}");
            match kind {
                // A linear scan touches no index nodes but evaluates
                // every point on every query.
                IndexKind::Linear => {
                    assert_eq!(c.node_visits, 0);
                    assert_eq!(c.distance_evals, 21 * data.len() as u64);
                }
                _ => assert!(c.node_visits > 0, "{kind:?} should visit nodes"),
            }
        }
    }

    #[test]
    fn unobserved_build_records_nothing_and_answers_identically() {
        let data = testutil::random_dataset(150, 7);
        for kind in IndexKind::ALL {
            let plain = build_index_opts(
                kind,
                &data,
                Euclidean,
                3.0,
                BuildOptions::default(),
                None,
                None,
            );
            let sheet = Arc::new(CounterSheet::new());
            let observed = build_index_opts(
                kind,
                &data,
                Euclidean,
                3.0,
                BuildOptions::default(),
                Some(&sheet),
                None,
            );
            let q = data.point(3);
            let mut a = plain.range_vec(q, 3.0);
            let mut b = observed.range_vec(q, 3.0);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{kind:?}");
            assert_eq!(sheet.snapshot().range_queries, 1);
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use dbdc_geom::Dataset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A deterministic random 2-d dataset for cross-checking indexes.
    pub fn random_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::with_capacity(2, n);
        for _ in 0..n {
            let p = [rng.random_range(-50.0..50.0), rng.random_range(-50.0..50.0)];
            d.push(&p);
        }
        d
    }

    /// Asserts `idx` agrees with a linear scan on a batch of range and knn
    /// queries over `data`.
    pub fn check_against_linear<M: Metric + Clone>(idx: &dyn NeighborIndex, data: &Dataset, m: M) {
        let oracle = LinearScan::new(data, m);
        assert_eq!(idx.len(), data.len());
        let mut got = Vec::new();
        let mut want = Vec::new();
        let step = 7.max(data.len() / 13);
        let queries: Vec<Vec<f64>> = data
            .iter()
            .step_by(step)
            .map(|p| p.to_vec())
            .chain([vec![0.0, 0.0], vec![100.0, 100.0], vec![-3.3, 7.7]])
            .collect();
        for q in &queries {
            for eps in [0.1, 1.0, 5.0, 25.0] {
                idx.range(q, eps, &mut got);
                oracle.range(q, eps, &mut want);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "range mismatch at q={q:?} eps={eps}");
            }
            for k in [1usize, 3, 10] {
                let got = idx.knn(q, k);
                let want = oracle.knn(q, k);
                assert_eq!(got.len(), want.len(), "knn count mismatch");
                for (g, w) in got.iter().zip(want.iter()) {
                    // Distances must agree; indices may differ on exact ties.
                    assert!(
                        (g.1 - w.1).abs() < 1e-9,
                        "knn distance mismatch at q={q:?} k={k}: {got:?} vs {want:?}"
                    );
                }
            }
        }
    }
}
