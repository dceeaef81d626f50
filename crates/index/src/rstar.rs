//! R*-tree (Beckmann, Kriegel, Schneider, Seeger — SIGMOD 1990), built
//! once by STR bulk loading and stored flat.
//!
//! This is the spatial access method the paper uses for DBSCAN's region
//! queries (reference \[3\]). DBDC indexes the data a site holds when the
//! run starts and never changes it, so the tree here is static: the STR
//! (sort-tile-recursive) loader packs the points into leaves of at most
//! 24 entries, tiles each level's boxes into the level above,
//! and writes the levels straight into preorder arenas. R*'s insertion
//! heuristics — ChooseSubtree by overlap enlargement, the margin-driven
//! topological split, forced reinsertion — shape only trees grown by
//! insertion, which nothing here builds, so they are not implemented.
//!
//! ε-range queries walk the arenas with an explicit stack, prune boxes
//! in surrogate space, and scan each leaf as one batched
//! [`Metric::surrogate_batch`] call over its SoA block. kNN queries run a
//! best-first search over the same node boxes and points.

use crate::linear::ordered::F64;
use crate::{dist_to_box, scan_block, scan_block_f32, with_scratch, NeighborIndex, QueryWorkspace};
use crate::{Precision, QueryF32};
use dbdc_geom::{Dataset, Metric, Rect};
use dbdc_obs::CounterSheet;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// STR bulk-load fill factor: entries per leaf and per inner node.
const STR_FILL: usize = 24;

/// The tree in five contiguous `Vec`s, walked by queries with an
/// explicit stack. Leaf points are packed into traversal-ordered
/// structure-of-arrays blocks so every leaf scan is one batched
/// [`Metric::surrogate_batch`] call.
#[derive(Debug)]
struct FlatRStar {
    /// Node pool in preorder; root at 0 (empty iff the dataset is).
    nodes: Vec<FlatRNode>,
    /// Child node ids of the inner nodes, concatenated in child order.
    children: Vec<u32>,
    /// Node `i`'s bounding box at `[i * 2 * dim, (i + 1) * 2 * dim)`:
    /// `dim` low coordinates, then `dim` high.
    bounds: Vec<f64>,
    /// Leaf point ids in traversal order.
    ids: Vec<u32>,
    /// Per-leaf SoA coordinate blocks, same order as `ids`. Empty when
    /// the tree was narrowed to [`Precision::F32`].
    coords: Vec<f64>,
    /// `f32` twin of `coords`, populated instead of it under
    /// [`Precision::F32`].
    coords32: Vec<f32>,
    precision: Precision,
    dim: usize,
}

#[derive(Debug, Clone, Copy)]
enum FlatRNode {
    Leaf {
        /// First point in the `ids` arena.
        start: u32,
        len: u32,
        /// Offset of the leaf's SoA block in `coords` (coordinate `d`
        /// of the `k`-th point at `coords + d * len + k`).
        coords: u32,
    },
    Inner {
        /// First child in the `children` arena.
        start: u32,
        len: u32,
    },
}

/// One level of the tree under construction: each node's entries (point
/// ids at the leaf level, node indices into the level below above it)
/// and the nodes' bounding boxes, laid out as in [`FlatRStar::bounds`].
#[derive(Default)]
struct Level {
    groups: Vec<Vec<u32>>,
    boxes: Vec<f64>,
}

impl Level {
    /// The leaf level: `data`'s points tiled by STR, each leaf bounded
    /// by its points.
    fn leaves(data: &Dataset) -> Level {
        let mut ids: Vec<u32> = (0..data.len() as u32).collect();
        let mut level = Level::default();
        str_tile(data, &mut ids, 0, &mut |chunk| {
            let rect =
                Rect::bounding(chunk.iter().map(|&i| data.point(i))).expect("chunk is non-empty");
            level.boxes.extend_from_slice(rect.lo());
            level.boxes.extend_from_slice(rect.hi());
            level.groups.push(chunk.to_vec());
        });
        level
    }

    /// The level above this one: its nodes tiled by STR on their box
    /// centres, each parent bounded by the union of its children's boxes.
    fn parents(&self, dim: usize) -> Level {
        let stride = 2 * dim;
        let centers: Vec<f64> = self
            .boxes
            .chunks_exact(stride)
            // Halving first keeps the sum finite near ±f64::MAX. Halving a
            // normal number is exact, so above the subnormal range this is
            // `0.5 * (lo + hi)` bit for bit.
            .flat_map(|b| (0..dim).map(move |d| 0.5 * b[d] + 0.5 * b[dim + d]))
            .collect();
        let centers = Dataset::from_flat(dim, centers);
        let mut order: Vec<u32> = (0..self.groups.len() as u32).collect();
        let mut level = Level::default();
        str_tile(&centers, &mut order, 0, &mut |chunk| {
            let at = level.boxes.len();
            let first = chunk[0] as usize * stride;
            level
                .boxes
                .extend_from_slice(&self.boxes[first..first + stride]);
            let (lo, hi) = level.boxes[at..].split_at_mut(dim);
            for &c in &chunk[1..] {
                let b = &self.boxes[c as usize * stride..];
                for d in 0..dim {
                    lo[d] = lo[d].min(b[d]);
                    hi[d] = hi[d].max(b[dim + d]);
                }
            }
            level.groups.push(chunk.to_vec());
        });
        level
    }
}

impl FlatRStar {
    /// Appends node `node` of `levels[level]` and its subtree in
    /// preorder: the node's box, then each child's subtree in child
    /// order, then the node's own child list. Returns the node's id.
    fn add(&mut self, data: &Dataset, levels: &[Level], level: usize, node: usize) -> u32 {
        let me = self.nodes.len() as u32;
        let Level { groups, boxes } = &levels[level];
        let stride = 2 * self.dim;
        self.bounds
            .extend_from_slice(&boxes[node * stride..(node + 1) * stride]);
        let entries = &groups[node];
        if level == 0 {
            let start = self.ids.len() as u32;
            let coords = self.coords.len() as u32;
            self.ids.extend_from_slice(entries);
            for d in 0..self.dim {
                for &i in entries {
                    self.coords.push(data.point(i)[d]);
                }
            }
            self.nodes.push(FlatRNode::Leaf {
                start,
                len: entries.len() as u32,
                coords,
            });
        } else {
            // Reserve the parent slot, append the subtrees, then patch
            // the child range in.
            self.nodes.push(FlatRNode::Inner { start: 0, len: 0 });
            let kid_ids: Vec<u32> = entries
                .iter()
                .map(|&c| self.add(data, levels, level - 1, c as usize))
                .collect();
            let start = self.children.len() as u32;
            self.children.extend_from_slice(&kid_ids);
            self.nodes[me as usize] = FlatRNode::Inner {
                start,
                len: kid_ids.len() as u32,
            };
        }
        me
    }

    /// Node `n`'s bounding box as `(lo, hi)` slices.
    #[inline]
    fn node_bounds(&self, n: u32) -> (&[f64], &[f64]) {
        let off = n as usize * 2 * self.dim;
        let b = &self.bounds[off..off + 2 * self.dim];
        b.split_at(self.dim)
    }
}

/// A static R*-tree over a borrowed dataset.
#[derive(Debug)]
pub struct RStarTree<'a, M> {
    data: &'a Dataset,
    metric: M,
    flat: FlatRStar,
    sheet: Option<Arc<CounterSheet>>,
}

impl<'a, M: Metric> RStarTree<'a, M> {
    /// Attaches a counter sheet recording per-query work.
    pub fn observed(mut self, sheet: Arc<CounterSheet>) -> Self {
        self.sheet = Some(sheet);
        self
    }

    /// Bulk-loads all points of `data` with the STR algorithm.
    pub fn bulk_load(data: &'a Dataset, metric: M) -> Self {
        Self::bulk_load_opts(data, metric, Precision::F64)
    }

    /// Bulk-loads with the given scan-path precision. STR tiles the
    /// points into leaves, then tiles each level's box centres into the
    /// level above until one root remains; the levels are written into
    /// the arenas from the root down. Under [`Precision::F32`] the leaf
    /// blocks are narrowed after the fully-`f64` build, so structure,
    /// bounds and id order equal the `f64` tree's.
    pub fn bulk_load_opts(data: &'a Dataset, metric: M, precision: Precision) -> Self {
        let dim = data.dim();
        let mut flat = FlatRStar {
            nodes: Vec::new(),
            children: Vec::new(),
            bounds: Vec::new(),
            ids: Vec::with_capacity(data.len()),
            coords: Vec::with_capacity(data.len() * dim),
            coords32: Vec::new(),
            precision,
            dim,
        };
        if !data.is_empty() {
            let mut levels = vec![Level::leaves(data)];
            while let Some(below) = levels.last().filter(|l| l.groups.len() > 1) {
                let up = below.parents(dim);
                levels.push(up);
            }
            flat.add(data, &levels, levels.len() - 1, 0);
        }
        if precision == Precision::F32 {
            flat.coords32 = flat.coords.iter().map(|&x| x as f32).collect();
            flat.coords = Vec::new();
        }
        Self {
            data,
            metric,
            flat,
            sheet: None,
        }
    }

    /// Serializes the arenas to a stable bit pattern (empty for an
    /// empty dataset). Test hook pinning the build's exact layout.
    #[doc(hidden)]
    pub fn arena_bits(&self) -> Vec<u64> {
        let flat = &self.flat;
        let mut v = Vec::new();
        for n in &flat.nodes {
            match *n {
                FlatRNode::Leaf { start, len, coords } => {
                    v.extend_from_slice(&[0, start as u64, len as u64, coords as u64]);
                }
                FlatRNode::Inner { start, len } => {
                    v.extend_from_slice(&[1, start as u64, len as u64, 0]);
                }
            }
        }
        v.extend(flat.children.iter().map(|&c| c as u64));
        v.extend(flat.bounds.iter().map(|b| b.to_bits()));
        v.extend(flat.ids.iter().map(|&i| i as u64));
        v.extend(flat.coords.iter().map(|c| c.to_bits()));
        v.extend(flat.coords32.iter().map(|c| c.to_bits() as u64));
        v
    }
}

/// Recursive STR tiling: partitions `ids` (point indices into `data`) into
/// chunks of at most [`STR_FILL`] and calls `emit` for each.
fn str_tile(data: &Dataset, ids: &mut [u32], axis: usize, emit: &mut impl FnMut(&[u32])) {
    if ids.len() <= STR_FILL {
        if !ids.is_empty() {
            emit(ids);
        }
        return;
    }
    let dim = data.dim();
    if axis + 1 == dim {
        // Last axis: sort and cut into runs.
        ids.sort_by(|&a, &b| data.point(a)[axis].total_cmp(&data.point(b)[axis]));
        for chunk in ids.chunks(STR_FILL) {
            emit(chunk);
        }
        return;
    }
    // Number of slabs along this axis: ceil((n / fill)^(1/remaining_axes)).
    let n_nodes = ids.len().div_ceil(STR_FILL);
    let remaining = (dim - axis) as f64;
    let slabs = (n_nodes as f64).powf(1.0 / remaining).ceil() as usize;
    let slabs = slabs.max(1);
    let per_slab = ids.len().div_ceil(slabs);
    ids.sort_by(|&a, &b| data.point(a)[axis].total_cmp(&data.point(b)[axis]));
    let mut rest = ids;
    while !rest.is_empty() {
        let take = per_slab.min(rest.len());
        let (slab, tail) = rest.split_at_mut(take);
        str_tile(data, slab, axis + 1, emit);
        rest = tail;
    }
}

/// A kNN frontier entry; pushes are numbered, so two entries never
/// compare equal and the entry kind never decides the order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Frontier {
    Node(u32),
    Point(u32),
}

impl<M: Metric> NeighborIndex for RStarTree<'_, M> {
    fn len(&self) -> usize {
        self.flat.ids.len()
    }

    fn range(&self, q: &[f64], eps: f64, out: &mut Vec<u32>) {
        with_scratch(|ws| self.range_with(q, eps, out, ws));
    }

    fn range_with(&self, q: &[f64], eps: f64, out: &mut Vec<u32>, ws: &mut QueryWorkspace) {
        out.clear();
        let flat = &self.flat;
        let mut evals = 0u64;
        let mut visits = 0u64;
        if !flat.nodes.is_empty() {
            let bound = self.metric.to_surrogate(eps);
            // Box pruning stays f64 in both precisions (bounds are
            // exact); only the leaf candidate test narrows.
            let q32 = match flat.precision {
                Precision::F32 => Some(QueryF32::new(q)),
                Precision::F64 => None,
            };
            ws.stack.clear();
            ws.stack.push(0);
            while let Some(n) = ws.stack.pop() {
                // A node counts as visited when the search descends
                // into it: only the root and nodes whose box passed the
                // test are ever pushed.
                visits += 1;
                match flat.nodes[n as usize] {
                    FlatRNode::Leaf { start, len, coords } => {
                        evals += len as u64;
                        let (start, len, coords) = (start as usize, len as usize, coords as usize);
                        match &q32 {
                            None => scan_block(
                                &self.metric,
                                q,
                                &flat.ids[start..start + len],
                                &flat.coords[coords..coords + flat.dim * len],
                                len,
                                bound,
                                out,
                            ),
                            Some(q32) => scan_block_f32(
                                &self.metric,
                                q32.as_slice(),
                                &flat.ids[start..start + len],
                                &flat.coords32[coords..coords + flat.dim * len],
                                len,
                                bound as f32,
                                out,
                            ),
                        }
                    }
                    FlatRNode::Inner { start, len } => {
                        // Children pushed in reverse so they pop — and
                        // their subtrees complete — in child order.
                        let kids = &flat.children[start as usize..(start + len) as usize];
                        for &c in kids.iter().rev() {
                            let (lo, hi) = flat.node_bounds(c);
                            if self.metric.surrogate_dist_to_box(q, lo, hi) <= bound {
                                ws.stack.push(c);
                            }
                        }
                    }
                }
            }
        }
        if let Some(s) = &self.sheet {
            s.record_range(evals, visits);
        }
    }

    fn knn(&self, q: &[f64], k: usize) -> Vec<(u32, f64)> {
        let flat = &self.flat;
        if k == 0 || flat.nodes.is_empty() {
            return Vec::new();
        }
        // Best-first search over node boxes and points. Entries at equal
        // distance pop in push order: children in child order, a leaf's
        // points in `ids` order.
        let mut frontier: BinaryHeap<Reverse<(F64, usize, Frontier)>> = BinaryHeap::new();
        let mut pushes = 0usize;
        frontier.push(Reverse((F64(0.0), pushes, Frontier::Node(0))));
        let mut out: Vec<(u32, f64)> = Vec::with_capacity(k);
        let mut evals = 0u64;
        let mut visits = 0u64;
        while let Some(Reverse((F64(d), _, entry))) = frontier.pop() {
            if out.len() == k {
                break;
            }
            let n = match entry {
                Frontier::Point(i) => {
                    out.push((i, d));
                    continue;
                }
                Frontier::Node(n) => n,
            };
            visits += 1;
            match flat.nodes[n as usize] {
                FlatRNode::Leaf { start, len, .. } => {
                    evals += len as u64;
                    for &i in &flat.ids[start as usize..(start + len) as usize] {
                        pushes += 1;
                        let pd = self.metric.dist(q, self.data.point(i));
                        frontier.push(Reverse((F64(pd), pushes, Frontier::Point(i))));
                    }
                }
                FlatRNode::Inner { start, len } => {
                    for &c in &flat.children[start as usize..(start + len) as usize] {
                        pushes += 1;
                        let (lo, hi) = flat.node_bounds(c);
                        let nd = dist_to_box(&self.metric, q, lo, hi);
                        frontier.push(Reverse((F64(nd), pushes, Frontier::Node(c))));
                    }
                }
            }
        }
        if let Some(s) = &self.sheet {
            s.record_knn(evals, visits);
        }
        out
    }
}

#[cfg(test)]
impl<M> RStarTree<'_, M> {
    /// Checks the arena's invariants and returns `(points, height)`:
    /// every node holds 1..=[`STR_FILL`] entries, every box contains
    /// its children's boxes or its leaf's points, the SoA blocks hold
    /// their points' coordinates, every point sits in exactly one leaf,
    /// and all leaves share one depth.
    fn check_arena(&self) -> (usize, usize) {
        let flat = &self.flat;
        if flat.nodes.is_empty() {
            return (0, 0);
        }
        let inside = |n: u32, lo: &[f64], hi: &[f64]| {
            let (nlo, nhi) = flat.node_bounds(n);
            (0..flat.dim).all(|d| nlo[d] <= lo[d] && hi[d] <= nhi[d])
        };
        let mut height = None;
        let mut stack = vec![(0u32, 1usize)];
        while let Some((n, depth)) = stack.pop() {
            let (FlatRNode::Leaf { len, .. } | FlatRNode::Inner { len, .. }) =
                flat.nodes[n as usize];
            assert!((1..=STR_FILL as u32).contains(&len), "node {n} holds {len}");
            match flat.nodes[n as usize] {
                FlatRNode::Leaf { start, len, coords } => {
                    let (start, len, coords) = (start as usize, len as usize, coords as usize);
                    for (k, &i) in flat.ids[start..start + len].iter().enumerate() {
                        let p = self.data.point(i);
                        assert!(inside(n, p, p), "leaf {n} does not contain point {i}");
                        for (d, &c) in p.iter().enumerate() {
                            let at = coords + d * len + k;
                            match flat.precision {
                                Precision::F64 => assert_eq!(flat.coords[at], c),
                                Precision::F32 => assert_eq!(flat.coords32[at], c as f32),
                            }
                        }
                    }
                    assert_eq!(*height.get_or_insert(depth), depth, "leaf {n} depth");
                }
                FlatRNode::Inner { start, len } => {
                    for &c in &flat.children[start as usize..(start + len) as usize] {
                        let (lo, hi) = flat.node_bounds(c);
                        assert!(inside(n, lo, hi), "child {c} escapes node {n}");
                        stack.push((c, depth + 1));
                    }
                }
            }
        }
        let mut ids = flat.ids.clone();
        ids.sort_unstable();
        assert!(ids.iter().enumerate().all(|(k, &i)| i as usize == k));
        (ids.len(), height.expect("a non-empty tree has leaves"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use dbdc_geom::{Euclidean, Manhattan};

    #[test]
    fn bulk_load_matches_linear() {
        let d = testutil::random_dataset(800, 21);
        let idx = RStarTree::bulk_load(&d, Euclidean);
        assert_eq!(idx.check_arena().0, 800);
        testutil::check_against_linear(&idx, &d, Euclidean);
    }

    #[test]
    fn bulk_load_manhattan() {
        let d = testutil::random_dataset(300, 22);
        let idx = RStarTree::bulk_load(&d, Manhattan);
        testutil::check_against_linear(&idx, &d, Manhattan);
    }

    #[test]
    fn height_grows_logarithmically() {
        let d = testutil::random_dataset(2000, 24);
        let idx = RStarTree::bulk_load(&d, Euclidean);
        let (_, height) = idx.check_arena();
        assert!(height <= 4, "height {height}");
    }

    #[test]
    fn empty_and_tiny() {
        let empty = Dataset::new(2);
        let idx = RStarTree::bulk_load(&empty, Euclidean);
        assert!(idx.is_empty());
        assert_eq!(idx.check_arena(), (0, 0));
        assert!(idx.range_vec(&[0.0, 0.0], 10.0).is_empty());
        assert!(idx.knn(&[0.0, 0.0], 2).is_empty());

        let d = Dataset::from_flat(2, vec![1.0, 1.0, 2.0, 2.0]);
        let idx = RStarTree::bulk_load(&d, Euclidean);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.check_arena(), (2, 1));
        let nn = idx.knn(&[0.0, 0.0], 1);
        assert_eq!(nn[0].0, 0);
    }

    #[test]
    fn duplicate_points() {
        let mut flat = Vec::new();
        for _ in 0..200 {
            flat.extend_from_slice(&[5.0, 5.0]);
        }
        let d = Dataset::from_flat(2, flat);
        let idx = RStarTree::bulk_load(&d, Euclidean);
        assert_eq!(idx.check_arena().0, 200);
        assert_eq!(idx.range_vec(&[5.0, 5.0], 0.0).len(), 200);
    }

    #[test]
    fn extreme_coordinates_build_and_query() {
        // Box centres of points near ±f64::MAX must not overflow.
        let mut d = Dataset::new(2);
        for i in 0..60 {
            let x = f64::MAX - f64::from(i) * 1e300;
            d.push(&[if i % 2 == 0 { x } else { -x }, f64::MAX]);
        }
        let idx = RStarTree::bulk_load(&d, Euclidean);
        assert_eq!(idx.check_arena().0, 60);
        assert_eq!(idx.range_vec(d.point(0), 0.0), vec![0]);
        assert_eq!(idx.knn(d.point(3), 1)[0].0, 3);
    }

    #[test]
    fn f32_range_matches_oracle_away_from_boundary() {
        let d = testutil::random_dataset(800, 42);
        let oracle = RStarTree::bulk_load(&d, Euclidean);
        let narrow = RStarTree::bulk_load_opts(&d, Euclidean, Precision::F32);
        assert_eq!(narrow.check_arena().0, 800);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in (0..d.len() as u32).step_by(11) {
            for eps in [0.5, 3.0, 20.0] {
                oracle.range(d.point(i), eps, &mut a);
                narrow.range(d.point(i), eps, &mut b);
                total += 1;
                if a == b {
                    agree += 1;
                }
            }
        }
        assert!(
            agree * 100 >= total * 99,
            "f32 agreement too low: {agree}/{total}"
        );
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: &[u64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// The arena layout — STR grouping, preorder node order, child
    /// lists after their subtrees, SoA leaf blocks — is pinned to
    /// digests of known-good builds, at both precisions. Any change to
    /// how the tree is tiled or emitted (a level-order layout, say)
    /// changes range output order and with it which core points DBDC
    /// picks as representatives. The inputs use no libm, so the digests
    /// hold on any host.
    #[test]
    fn arena_layout_matches_recorded_digests() {
        let check = |d: &Dataset, want64: u64, want32: u64| {
            for (precision, want) in [(Precision::F64, want64), (Precision::F32, want32)] {
                let got = fnv1a(&RStarTree::bulk_load_opts(d, Euclidean, precision).arena_bits());
                assert_eq!(got, want, "n = {} at {precision:?}: {got:#018x}", d.len());
            }
        };
        for (n, want64, want32) in [
            (0, 0xcbf29ce484222325, 0xcbf29ce484222325),
            (1, 0x17eabba4d18c1f9d, 0x66a4155bf384508d),
            (24, 0x461f2b8fd04c7fe8, 0x14b7b6c70997911c),
            (25, 0xb46d7e06397b9ddf, 0xa1cb4fd77731c5dd),
            (577, 0x9b08eaada37b0e19, 0x4bd87000b0f43845),
            (2500, 0x61bfba5577fa2c3d, 0xa5043f1e0031cc0c),
        ] {
            check(&testutil::random_dataset(n, 5), want64, want32);
        }
        // Six tight clusters on a 3 × 2 lattice, from integer arithmetic.
        let mut clustered = Dataset::new(2);
        for c in 0..6u32 {
            let (cx, cy) = (f64::from(c % 3) * 40.0, f64::from(c / 3) * 40.0);
            for i in 0..150u32 {
                let (x, y) = (f64::from(i * 37 % 101), f64::from(i * 53 % 97));
                clustered.push(&[cx + x * 0.05, cy + y * 0.05]);
            }
        }
        check(&clustered, 0x3a50d4c47fd3fe01, 0x2a8e89727f249598);
    }
}
