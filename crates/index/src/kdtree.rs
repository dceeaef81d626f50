//! Balanced kd-tree, stored flat.
//!
//! Built once by recursive median splits (no insertion support — the
//! clustering pipeline builds the index per run). The build flattens the
//! tree into arena storage: a `Vec`-backed node pool addressed by `u32`
//! ids (root at 0), a parallel bounding-box arena, and the leaf points
//! packed into traversal-ordered structure-of-arrays blocks. Queries
//! walk an explicit stack — no recursion, no pointer chasing — and every
//! leaf scan is one batched [`Metric::surrogate_batch`] kernel call over
//! contiguous memory. Range queries prune subtrees in surrogate space
//! via [`Metric::surrogate_dist_to_box`]; the knn path prunes by true
//! distance via [`crate::dist_to_box`] (its heap stores distances).

use crate::linear::ordered::F64;
use crate::{dist_to_box, scan_block, with_scratch, NeighborIndex, QueryWorkspace};
use dbdc_geom::{Dataset, Metric, Rect};
use dbdc_obs::CounterSheet;
use std::collections::BinaryHeap;
use std::sync::Arc;

const LEAF_SIZE: usize = 16;

/// Subtrees at or below this many points always build sequentially
/// even when more workers are available — below it the splice overhead
/// dominates the split work.
const PAR_BUILD_CUTOFF: usize = 1024;

/// One arena node. Children / block offsets are indices into the
/// sibling arenas, so the whole tree lives in three contiguous `Vec`s.
#[derive(Debug, Clone, Copy)]
enum FlatNode {
    Leaf {
        /// First point of this leaf in the packed `ids` arena.
        start: u32,
        /// Number of points in the leaf.
        len: u32,
        /// Offset of this leaf's SoA block in the `coords` arena
        /// (coordinate `d` of the block's `k`-th point is at
        /// `coords + d * len + k`).
        coords: u32,
    },
    Inner {
        left: u32,
        right: u32,
    },
}

/// The flat arenas of a built tree, separated from [`KdTree`] so the
/// parallel build can grow disjoint subtrees in private arenas and
/// splice them together afterwards.
#[derive(Debug, Default)]
struct KdArenas {
    nodes: Vec<FlatNode>,
    bounds: Vec<f64>,
    ids: Vec<u32>,
    coords: Vec<f64>,
}

impl KdArenas {
    /// Appends `sub`'s arenas to `self`, rebasing every intra-arena
    /// offset, and returns the new node id of `sub`'s root. The
    /// sequential layout is strict preorder — a subtree occupies one
    /// contiguous run of every arena — so appending a fully built
    /// subtree here is byte-identical to having built it in place.
    fn splice(&mut self, sub: KdArenas) -> u32 {
        let node_base = self.nodes.len() as u32;
        let ids_base = self.ids.len() as u32;
        let coords_base = self.coords.len() as u32;
        for n in sub.nodes {
            self.nodes.push(match n {
                FlatNode::Leaf { start, len, coords } => FlatNode::Leaf {
                    start: start + ids_base,
                    len,
                    coords: coords + coords_base,
                },
                FlatNode::Inner { left, right } => FlatNode::Inner {
                    left: left + node_base,
                    right: right + node_base,
                },
            });
        }
        self.bounds.extend_from_slice(&sub.bounds);
        self.ids.extend_from_slice(&sub.ids);
        self.coords.extend_from_slice(&sub.coords);
        node_base
    }
}

/// The split axis of the sequential build: the widest dimension of the
/// node's bounding box. The parallel build calls the same function so
/// both pick identical axes.
fn split_dim(data: &Dataset, bbox: &Rect) -> usize {
    (0..data.dim())
        .max_by(|&a, &b| {
            let wa = bbox.hi()[a] - bbox.lo()[a];
            let wb = bbox.hi()[b] - bbox.lo()[b];
            wa.total_cmp(&wb)
        })
        .expect("dataset has at least 1 dimension")
}

/// One median split of `ids`, exactly as the sequential build performs
/// it, returning both halves with their bounding boxes.
#[allow(clippy::type_complexity)]
fn split_ids<'i>(
    data: &Dataset,
    ids: &'i mut [u32],
    bbox: &Rect,
) -> (&'i mut [u32], Rect, &'i mut [u32], Rect) {
    let dim = split_dim(data, bbox);
    let mid = ids.len() / 2;
    ids.select_nth_unstable_by(mid, |&a, &b| {
        data.point(a)[dim].total_cmp(&data.point(b)[dim])
    });
    let (l, r) = ids.split_at_mut(mid);
    let bl = Rect::bounding(l.iter().map(|&i| data.point(i))).expect("left split is non-empty");
    let br = Rect::bounding(r.iter().map(|&i| data.point(i))).expect("right split is non-empty");
    (l, bl, r, br)
}

/// Appends the subtree over `ids` (bounded by `bbox`) to the arenas
/// and returns its node id. Children are appended after their parent,
/// left subtree first, so leaf blocks land in traversal order.
fn build_seq(data: &Dataset, out: &mut KdArenas, ids: &mut [u32], bbox: Rect) -> u32 {
    let me = out.nodes.len() as u32;
    out.bounds.extend_from_slice(bbox.lo());
    out.bounds.extend_from_slice(bbox.hi());
    if ids.len() <= LEAF_SIZE {
        let start = out.ids.len() as u32;
        let coords = out.coords.len() as u32;
        out.ids.extend_from_slice(ids);
        for d in 0..data.dim() {
            for &i in ids.iter() {
                out.coords.push(data.point(i)[d]);
            }
        }
        out.nodes.push(FlatNode::Leaf {
            start,
            len: ids.len() as u32,
            coords,
        });
        return me;
    }
    let (l, bl, r, br) = split_ids(data, ids, &bbox);
    // Reserve the parent slot, then append both subtrees and patch the
    // child ids in.
    out.nodes.push(FlatNode::Inner { left: 0, right: 0 });
    let left = build_seq(data, out, l, bl);
    let right = build_seq(data, out, r, br);
    out.nodes[me as usize] = FlatNode::Inner { left, right };
    me
}

/// Parallel build: splits exactly like [`build_seq`], hands the left
/// half to a scoped worker while the current thread takes the right,
/// then splices the finished subtree arenas back in preorder. Because
/// the split and the subtree layouts are deterministic, the output is
/// bit-identical to the sequential build at every `threads` value.
fn build_par(
    data: &Dataset,
    out: &mut KdArenas,
    ids: &mut [u32],
    bbox: Rect,
    threads: usize,
) -> u32 {
    if threads <= 1 || ids.len() <= PAR_BUILD_CUTOFF.max(LEAF_SIZE) {
        return build_seq(data, out, ids, bbox);
    }
    let me = out.nodes.len() as u32;
    out.bounds.extend_from_slice(bbox.lo());
    out.bounds.extend_from_slice(bbox.hi());
    out.nodes.push(FlatNode::Inner { left: 0, right: 0 });
    let (l, bl, r, br) = split_ids(data, ids, &bbox);
    let lt = threads / 2;
    let rt = threads - lt;
    let mut la = KdArenas::default();
    let mut ra = KdArenas::default();
    std::thread::scope(|s| {
        let lh = s.spawn(|| build_par(data, &mut la, l, bl, lt));
        build_par(data, &mut ra, r, br, rt);
        lh.join().expect("kd-tree build worker panicked");
    });
    let left = out.splice(la);
    let right = out.splice(ra);
    out.nodes[me as usize] = FlatNode::Inner { left, right };
    me
}

/// A static, balanced kd-tree over a dataset, in flat arena storage.
#[derive(Debug)]
pub struct KdTree<'a, M> {
    data: &'a Dataset,
    metric: M,
    /// Node pool; the root is node 0 (empty iff the dataset is empty).
    nodes: Vec<FlatNode>,
    /// Node `i`'s bounding box at `[i * 2 * dim, (i + 1) * 2 * dim)`:
    /// `dim` low coordinates, then `dim` high coordinates.
    bounds: Vec<f64>,
    /// Leaf point ids, concatenated in traversal (preorder) order.
    ids: Vec<u32>,
    /// Per-leaf SoA coordinate blocks, same order as `ids`.
    coords: Vec<f64>,
    dim: usize,
    sheet: Option<Arc<CounterSheet>>,
}

impl<'a, M: Metric> KdTree<'a, M> {
    /// Builds the tree by recursive median splits along the widest
    /// dimension. `O(n log² n)` build via per-level selects.
    pub fn new(data: &'a Dataset, metric: M) -> Self {
        Self::with_threads(data, metric, 1)
    }

    /// [`KdTree::new`] with `threads` construction workers.
    /// Construction is bit-identical across thread counts.
    pub fn with_threads(data: &'a Dataset, metric: M, threads: usize) -> Self {
        let mut arenas = KdArenas {
            nodes: Vec::new(),
            bounds: Vec::new(),
            ids: Vec::with_capacity(data.len()),
            coords: Vec::with_capacity(data.len() * data.dim()),
        };
        if let Some(bbox) = data.bounding_rect() {
            let mut ids: Vec<u32> = (0..data.len() as u32).collect();
            build_par(data, &mut arenas, &mut ids, bbox, threads.max(1));
        }
        Self {
            data,
            metric,
            nodes: arenas.nodes,
            bounds: arenas.bounds,
            ids: arenas.ids,
            coords: arenas.coords,
            dim: data.dim(),
            sheet: None,
        }
    }

    /// Attaches a counter sheet recording per-query work.
    pub fn observed(mut self, sheet: Arc<CounterSheet>) -> Self {
        self.sheet = Some(sheet);
        self
    }

    /// Serializes the flat arenas to a stable bit pattern. Test hook
    /// for the construction-identity gate: parallel builds must be
    /// byte-for-byte equal to sequential ones.
    #[doc(hidden)]
    pub fn arena_bits(&self) -> Vec<u64> {
        let mut v = Vec::new();
        for n in &self.nodes {
            match *n {
                FlatNode::Leaf { start, len, coords } => {
                    v.extend_from_slice(&[0, start as u64, len as u64, coords as u64]);
                }
                FlatNode::Inner { left, right } => {
                    v.extend_from_slice(&[1, left as u64, right as u64, 0]);
                }
            }
        }
        v.extend(self.bounds.iter().map(|b| b.to_bits()));
        v.extend(self.ids.iter().map(|&i| i as u64));
        v.extend(self.coords.iter().map(|c| c.to_bits()));
        v
    }

    /// Node `n`'s bounding box as `(lo, hi)` slices.
    #[inline]
    fn node_bounds(&self, n: u32) -> (&[f64], &[f64]) {
        let off = n as usize * 2 * self.dim;
        let b = &self.bounds[off..off + 2 * self.dim];
        b.split_at(self.dim)
    }

    /// Depth of the tree (1 for a single leaf); diagnostic.
    pub fn depth(&self) -> usize {
        fn depth(nodes: &[FlatNode], n: u32) -> usize {
            match nodes[n as usize] {
                FlatNode::Leaf { .. } => 1,
                FlatNode::Inner { left, right } => 1 + depth(nodes, left).max(depth(nodes, right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth(&self.nodes, 0)
        }
    }
}

impl<M: Metric> NeighborIndex for KdTree<'_, M> {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn range(&self, q: &[f64], eps: f64, out: &mut Vec<u32>) {
        with_scratch(|ws| self.range_with(q, eps, out, ws));
    }

    fn range_with(&self, q: &[f64], eps: f64, out: &mut Vec<u32>, ws: &mut QueryWorkspace) {
        out.clear();
        let mut work = Work::default();
        if !self.nodes.is_empty() {
            let bound = self.metric.to_surrogate(eps);
            ws.stack.clear();
            ws.stack.push(0);
            // Pop order (left child above right) reproduces the
            // original recursion's preorder, so `out` keeps the exact
            // visit order downstream consumers depend on.
            while let Some(n) = ws.stack.pop() {
                // Every popped node tests one bounding box.
                work.visits += 1;
                let (lo, hi) = self.node_bounds(n);
                if self.metric.surrogate_dist_to_box(q, lo, hi) > bound {
                    continue;
                }
                match self.nodes[n as usize] {
                    FlatNode::Leaf { start, len, coords } => {
                        work.evals += len as u64;
                        let (start, len, coords) = (start as usize, len as usize, coords as usize);
                        scan_block(
                            &self.metric,
                            q,
                            &self.ids[start..start + len],
                            &self.coords[coords..coords + self.dim * len],
                            len,
                            bound,
                            out,
                        );
                    }
                    FlatNode::Inner { left, right } => {
                        ws.stack.push(right);
                        ws.stack.push(left);
                    }
                }
            }
        }
        if let Some(s) = &self.sheet {
            s.record_range(work.evals, work.visits);
        }
    }

    fn knn(&self, q: &[f64], k: usize) -> Vec<(u32, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let mut heap: BinaryHeap<(F64, u32)> = BinaryHeap::with_capacity(k + 1);
        let mut work = Work::default();
        if !self.nodes.is_empty() {
            let mut stack: Vec<u32> = vec![0];
            while let Some(n) = stack.pop() {
                work.visits += 1;
                let worst = if heap.len() == k {
                    heap.peek().map(|&(d, _)| d.0).unwrap_or(f64::INFINITY)
                } else {
                    f64::INFINITY
                };
                let (lo, hi) = self.node_bounds(n);
                if dist_to_box(&self.metric, q, lo, hi) > worst {
                    continue;
                }
                match self.nodes[n as usize] {
                    FlatNode::Leaf { start, len, .. } => {
                        work.evals += len as u64;
                        for &i in &self.ids[start as usize..(start + len) as usize] {
                            let d = self.metric.dist(q, self.data.point(i));
                            if heap.len() < k {
                                heap.push((F64(d), i));
                            } else if let Some(&(w, _)) = heap.peek() {
                                if d < w.0 {
                                    heap.pop();
                                    heap.push((F64(d), i));
                                }
                            }
                        }
                    }
                    FlatNode::Inner { left, right } => {
                        // Descend into the nearer child first (pushed
                        // last) to tighten the bound early.
                        let (llo, lhi) = self.node_bounds(left);
                        let (rlo, rhi) = self.node_bounds(right);
                        let dl = dist_to_box(&self.metric, q, llo, lhi);
                        let dr = dist_to_box(&self.metric, q, rlo, rhi);
                        if dl <= dr {
                            stack.push(right);
                            stack.push(left);
                        } else {
                            stack.push(left);
                            stack.push(right);
                        }
                    }
                }
            }
        }
        let mut out: Vec<(u32, f64)> = heap.into_iter().map(|(d, i)| (i, d.0)).collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        if let Some(s) = &self.sheet {
            s.record_knn(work.evals, work.visits);
        }
        out
    }
}

/// Per-query work tally, accumulated in plain registers and flushed to
/// the sheet once per query.
#[derive(Debug, Default)]
struct Work {
    evals: u64,
    visits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use dbdc_geom::{Chebyshev, Euclidean, Manhattan, Minkowski};

    #[test]
    fn matches_linear_scan_euclidean() {
        let d = testutil::random_dataset(500, 11);
        let idx = KdTree::new(&d, Euclidean);
        testutil::check_against_linear(&idx, &d, Euclidean);
    }

    #[test]
    fn matches_linear_scan_manhattan() {
        let d = testutil::random_dataset(300, 12);
        let idx = KdTree::new(&d, Manhattan);
        testutil::check_against_linear(&idx, &d, Manhattan);
    }

    #[test]
    fn matches_linear_scan_chebyshev() {
        let d = testutil::random_dataset(300, 13);
        let idx = KdTree::new(&d, Chebyshev);
        testutil::check_against_linear(&idx, &d, Chebyshev);
    }

    #[test]
    fn matches_linear_scan_minkowski() {
        let d = testutil::random_dataset(300, 14);
        let idx = KdTree::new(&d, Minkowski::new(3.0));
        testutil::check_against_linear(&idx, &d, Minkowski::new(3.0));
    }

    #[test]
    fn range_with_matches_range() {
        let d = testutil::random_dataset(400, 21);
        let idx = KdTree::new(&d, Euclidean);
        let mut ws = QueryWorkspace::new();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in (0..d.len() as u32).step_by(17) {
            for eps in [0.5, 3.0, 20.0] {
                idx.range(d.point(i), eps, &mut a);
                idx.range_with(d.point(i), eps, &mut b, &mut ws);
                assert_eq!(a, b, "q={i} eps={eps}: order must match too");
            }
        }
    }

    #[test]
    fn handles_duplicate_points() {
        let mut flat = Vec::new();
        for _ in 0..100 {
            flat.extend_from_slice(&[1.0, 1.0]);
        }
        for _ in 0..100 {
            flat.extend_from_slice(&[2.0, 2.0]);
        }
        let d = Dataset::from_flat(2, flat);
        let idx = KdTree::new(&d, Euclidean);
        assert_eq!(idx.range_vec(&[1.0, 1.0], 0.5).len(), 100);
        assert_eq!(idx.range_vec(&[1.5, 1.5], 10.0).len(), 200);
        assert_eq!(idx.knn(&[1.0, 1.0], 150).len(), 150);
    }

    #[test]
    fn depth_is_logarithmic() {
        let d = testutil::random_dataset(1024, 5);
        let idx = KdTree::new(&d, Euclidean);
        // 1024 points / leaf 16 = 64 leaves -> depth ~7; allow slack for
        // uneven medians.
        assert!(idx.depth() <= 12, "depth {} too large", idx.depth());
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        // Large enough to clear PAR_BUILD_CUTOFF several levels deep.
        let d = testutil::random_dataset(5000, 31);
        let seq = KdTree::new(&d, Euclidean).arena_bits();
        for threads in [2, 3, 8] {
            let par = KdTree::with_threads(&d, Euclidean, threads).arena_bits();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let empty = Dataset::new(2);
        let idx = KdTree::new(&empty, Euclidean);
        assert!(idx.is_empty());
        assert!(idx.range_vec(&[0.0, 0.0], 1.0).is_empty());
        assert!(idx.knn(&[0.0, 0.0], 1).is_empty());

        let mut one = Dataset::new(2);
        one.push(&[3.0, 4.0]);
        let idx = KdTree::new(&one, Euclidean);
        assert_eq!(idx.knn(&[0.0, 0.0], 5), vec![(0, 5.0)]);
        assert_eq!(idx.range_vec(&[0.0, 0.0], 5.0), vec![0]);
        assert!(idx.range_vec(&[0.0, 0.0], 4.9).is_empty());
    }
}
