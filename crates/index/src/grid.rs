//! Uniform grid index.
//!
//! Buckets points into hypercube cells of side `cell` (typically the ε the
//! index will be queried with). An ε-range query then only inspects the
//! cells overlapping the query box, which for `cell == eps` in 2-d is at
//! most 3×3 cells. For the low-dimensional, roughly uniform data of the
//! paper's evaluation this is the fastest structure by a wide margin, which
//! is why the index ablation benchmark includes it.
//!
//! Cell membership lives in a `HashMap` keyed by cell coordinates (hashed
//! with FxHash's multiply-rotate, not SipHash), but the points themselves
//! are packed into two shared arenas — ids plus per-cell
//! structure-of-arrays coordinate blocks (cells packed in colexicographic
//! key order, the order queries visit them; per-cell insertion order
//! preserved) — so scanning a cell is one batched
//! [`Metric::surrogate_batch`] kernel call over contiguous memory and
//! steady-state range queries allocate nothing.
//!
//! A query walks the cell lattice of its box with an odometer and looks
//! each cell up. When that lattice holds more cells than are occupied —
//! a radius many cells wide, or a sparse grid — it instead filters the
//! occupied cells' colex-sorted keys, so no query probes more cells than
//! the grid holds. Both walks visit the same cells in the same order.
//!
//! Correct for every Lp metric: the ε-ball under any Lp (p ≥ 1) is contained
//! in the L∞ box of radius ε, so scanning the cells that intersect that box
//! and verifying each candidate with the exact metric cannot miss a result.

use crate::linear::ordered::F64;
use crate::{scan_block, NeighborIndex};
use dbdc_geom::{Dataset, Metric};
use dbdc_obs::CounterSheet;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Dimensions up to this size keep the odometer scan state on the
/// stack; higher dimensions fall back to heap scratch per query.
const STACK_DIM: usize = 16;

/// A multiply-rotate hash (FxHash's) for cell keys. The grid hashes
/// only its own lattice coordinates, so it has no use for SipHash's
/// flooding resistance, and lookups are the odometer walk's inner loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellHasher(u64);

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Whole words load directly; only a tail (never one for the
        // grid's `i64` keys) is zero-padded.
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Lattice coordinates to `V`, hashed with [`CellHasher`]: the grid's
/// cell table, and a table keyed by [`GridIndex::query_box`].
pub type CellMap<V> = HashMap<Box<[i64]>, V, BuildHasherDefault<CellHasher>>;

/// A uniform grid over a dataset.
#[derive(Debug, Clone)]
pub struct GridIndex<'a, M> {
    data: &'a Dataset,
    metric: M,
    cell: f64,
    /// Cell coordinates -> the cell's rank among the occupied cells. A
    /// HashMap keeps memory proportional to the number of *occupied*
    /// cells, so sparse or clustered data does not explode the grid.
    rank_of: CellMap<u32>,
    /// The occupied cells' coordinates, `dim` per cell, by rank: cells
    /// are ranked in colexicographic key order (last coordinate most
    /// significant), which is the odometer's visiting order.
    keys: Vec<i64>,
    /// Cell `r`'s points are `ids[offsets[r]..offsets[r + 1]]`; one
    /// more entry than there are occupied cells.
    offsets: Vec<u32>,
    /// Point ids, cell by cell in rank order.
    ids: Vec<u32>,
    /// Per-cell SoA coordinate blocks, same order as `ids`: coordinate
    /// `d` of cell `r`'s `k`-th point at `dim * offsets[r] + d * len + k`.
    coords: Vec<f64>,
    sheet: Option<Arc<CounterSheet>>,
}

/// One occupied cell of a [`GridIndex`], as [`GridIndex::cells`] and
/// [`GridIndex::visit_cells`] hand it out.
#[derive(Debug, Clone, Copy)]
pub struct GridCell<'g> {
    /// The cell's rank, `0..occupied_cells()`: a stable id for per-cell
    /// side tables.
    pub rank: usize,
    /// The cell's lattice coordinates, `floor(x / cell)` per axis; ranks
    /// follow their colexicographic order.
    pub key: &'g [i64],
    /// The cell's point ids, in insertion (ascending id) order.
    pub ids: &'g [u32],
    /// The cell's coordinates, structure-of-arrays: coordinate `d` of
    /// `ids[k]` at `cols[d * ids.len() + k]`, ready for
    /// [`Metric::surrogate_batch`] with stride `ids.len()`.
    pub cols: &'g [f64],
}

/// Packs the coordinates of a run of cells — `run` holds their id-arena
/// offsets, one more than there are cells — into the run's disjoint
/// slice of the coordinate arena; the parallel build hands each worker
/// one run.
fn pack_coords(data: &Dataset, ids: &[u32], run: &[u32], coords: &mut [f64]) {
    let dim = data.dim();
    let mut c = 0usize;
    for span in run.windows(2) {
        let cell = &ids[span[0] as usize..span[1] as usize];
        for d in 0..dim {
            for &p in cell {
                coords[c] = data.point(p)[d];
                c += 1;
            }
        }
    }
}

impl<'a, M: Metric> GridIndex<'a, M> {
    /// Builds a grid with cells of side `cell` over `data`.
    ///
    /// # Panics
    /// Panics if `cell` is not finite and positive.
    pub fn new(data: &'a Dataset, metric: M, cell: f64) -> Self {
        Self::with_threads(data, metric, cell, 1)
    }

    /// [`GridIndex::new`] with `threads` construction workers.
    /// Bucketing, the key sort and the id arena stay sequential; the
    /// coordinate layout is then fully determined by a prefix scan over
    /// the sorted cells, so workers fill disjoint coordinate ranges in
    /// parallel and the result is bit-identical at every thread count.
    ///
    /// # Panics
    /// Panics if `cell` is not finite and positive.
    pub fn with_threads(data: &'a Dataset, metric: M, cell: f64, threads: usize) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "grid cell size must be positive and finite"
        );
        // Bucket the points, allocating one key per occupied cell; the
        // map's values become ranks once the cells are sorted.
        let dim = data.dim();
        let n = data.len();
        let mut rank_of: CellMap<u32> = CellMap::default();
        let mut bucket_of = Vec::with_capacity(n);
        let mut sizes: Vec<u32> = Vec::new();
        let mut key = Vec::with_capacity(dim);
        for p in data.iter() {
            key.clear();
            key.extend(p.iter().map(|&c| Self::coord_of(c, cell)));
            let bucket = match rank_of.get(&key[..]) {
                Some(&b) => b,
                None => {
                    rank_of.insert(key.as_slice().into(), sizes.len() as u32);
                    sizes.push(0);
                    (sizes.len() - 1) as u32
                }
            };
            sizes[bucket as usize] += 1;
            bucket_of.push(bucket);
        }
        // Pack cells in sorted key order so the arena layout (and with
        // it any cache behavior) is deterministic regardless of hash
        // seeding; per-cell order stays insertion (ascending id) order.
        // Colexicographic order is the odometer's, so a query's cells
        // sit in the arenas in the order it scans them.
        let mut sorted: Vec<(&[i64], u32)> = rank_of.iter().map(|(k, &b)| (&k[..], b)).collect();
        sorted.sort_by(|a, b| a.0.iter().rev().cmp(b.0.iter().rev()));
        let mut rank_of_bucket = vec![0u32; sizes.len()];
        let mut keys = Vec::with_capacity(sizes.len() * dim);
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        offsets.push(0u32);
        for (rank, &(k, bucket)) in sorted.iter().enumerate() {
            rank_of_bucket[bucket as usize] = rank as u32;
            keys.extend_from_slice(k);
            offsets.push(offsets[rank] + sizes[bucket as usize]);
        }
        for r in rank_of.values_mut() {
            *r = rank_of_bucket[*r as usize];
        }
        let mut ids = vec![0u32; n];
        let mut next = offsets.clone();
        for (i, &bucket) in bucket_of.iter().enumerate() {
            let slot = &mut next[rank_of_bucket[bucket as usize] as usize];
            ids[*slot as usize] = i as u32;
            *slot += 1;
        }
        let mut coords = vec![0.0f64; n * dim];
        let cells = sizes.len();
        let workers = threads.max(1).min(cells.max(1));
        {
            // Carve the coordinate arena into disjoint runs of cells of
            // roughly equal point count; each worker packs one run.
            let target = n.div_ceil(workers).max(1);
            let (ids, offsets) = (&ids[..], &offsets[..]);
            let mut first = 0usize;
            let mut coords_rest: &mut [f64] = &mut coords;
            std::thread::scope(|s| {
                while first < cells {
                    let start = offsets[first] as usize;
                    let mut last = first;
                    while last < cells && (offsets[last] as usize - start) < target {
                        last += 1;
                    }
                    let run = &offsets[first..=last];
                    let pts = offsets[last] as usize - start;
                    let (coord_run, cr) = std::mem::take(&mut coords_rest).split_at_mut(pts * dim);
                    coords_rest = cr;
                    if workers <= 1 {
                        pack_coords(data, ids, run, coord_run);
                    } else {
                        s.spawn(move || pack_coords(data, ids, run, coord_run));
                    }
                    first = last;
                }
            });
        }
        Self {
            data,
            metric,
            cell,
            rank_of,
            keys,
            offsets,
            ids,
            coords,
            sheet: None,
        }
    }

    /// Serializes the cell table and packed arenas to a stable bit
    /// pattern. Test hook for the construction-identity gate.
    #[doc(hidden)]
    pub fn arena_bits(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.keys.iter().map(|&c| c as u64).collect();
        v.extend(self.offsets.iter().map(|&o| o as u64));
        v.extend(self.ids.iter().map(|&i| i as u64));
        v.extend(self.coords.iter().map(|c| c.to_bits()));
        v
    }

    /// Attaches a counter sheet recording per-query work.
    pub fn observed(mut self, sheet: Arc<CounterSheet>) -> Self {
        self.sheet = Some(sheet);
        self
    }

    /// The lattice coordinate of `c` in a grid of side `cell`.
    fn coord_of(c: f64, cell: f64) -> i64 {
        (c / cell).floor() as i64
    }

    /// The configured cell side length.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Number of occupied cells.
    pub fn occupied_cells(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Cell `rank`'s span of the `ids` arena.
    fn span(&self, rank: usize) -> std::ops::Range<usize> {
        self.offsets[rank] as usize..self.offsets[rank + 1] as usize
    }

    fn view(&self, rank: usize) -> GridCell<'_> {
        let span = self.span(rank);
        let dim = self.data.dim();
        GridCell {
            rank,
            key: &self.keys[dim * rank..dim * (rank + 1)],
            cols: &self.coords[dim * span.start..dim * span.end],
            ids: &self.ids[span],
        }
    }

    /// Every occupied cell, by rank.
    pub fn cells(&self) -> impl Iterator<Item = GridCell<'_>> + '_ {
        (0..self.occupied_cells()).map(|rank| self.view(rank))
    }

    /// Calls `f` with every occupied cell intersecting the L∞ box of
    /// radius `r` around `q`, in the order an ε-range query scans them,
    /// and returns their number — what a range query records as node
    /// visits. Allocation-free, and unobserved: a caller scanning the
    /// cells itself records its own work.
    pub fn visit_cells<'s>(&'s self, q: &[f64], r: f64, mut f: impl FnMut(GridCell<'s>)) -> u64 {
        self.for_cells(q, r, |rank| f(self.view(rank)))
    }

    /// Writes the lattice coordinates of the cell holding `q` into `key`,
    /// one per axis: the cell a point at `q` is bucketed in.
    pub fn cell_key(&self, q: &[f64], key: &mut [i64]) {
        for (k, &c) in key.iter_mut().zip(q) {
            *k = Self::coord_of(c, self.cell);
        }
    }

    /// Writes the lattice box of the L∞ box of radius `r` around `q` into
    /// `lohi`: its lowest cell coordinates in `lohi[..dim]`, its highest
    /// in `lohi[dim..]`. Every query of radius `r` walks exactly the
    /// occupied cells of this box, so two queries with equal boxes visit
    /// the same cells in the same order, and the box can key a table of
    /// what [`GridIndex::visit_cells`] found.
    ///
    /// # Panics
    /// Panics unless `lohi` holds two coordinates per dimension.
    pub fn query_box(&self, q: &[f64], r: f64, lohi: &mut [i64]) {
        let dim = self.data.dim();
        assert_eq!(lohi.len(), 2 * dim, "a query box has 2 * dim coordinates");
        let (lo, hi) = lohi.split_at_mut(dim);
        for i in 0..dim {
            lo[i] = Self::coord_of(q[i] - r, self.cell);
            hi[i] = Self::coord_of(q[i] + r, self.cell);
        }
    }

    /// Visits the rank of every occupied cell of [`GridIndex::query_box`],
    /// in odometer (colexicographic lattice) order. Returns the number of
    /// occupied cells probed (the node-visit count for this index).
    fn for_cells(&self, q: &[f64], r: f64, mut f: impl FnMut(usize)) -> u64 {
        let dim = self.data.dim();
        let occupied = self.occupied_cells();
        if occupied == 0 {
            return 0;
        }
        let mut stack = [0i64; 3 * STACK_DIM];
        let mut heap;
        let buf: &mut [i64] = if dim <= STACK_DIM {
            &mut stack[..3 * dim]
        } else {
            heap = vec![0i64; 3 * dim];
            &mut heap
        };
        let (lohi, cur) = buf.split_at_mut(2 * dim);
        self.query_box(q, r, lohi);
        let (lo, hi) = lohi.split_at(dim);
        cur.copy_from_slice(lo);
        // Lattice cells in the box; saturates for unbounded radii.
        let mut lattice = 1u128;
        for i in 0..dim {
            let side = (hi[i] as i128 - lo[i] as i128 + 1).max(0) as u128;
            lattice = lattice.saturating_mul(side);
        }
        let mut visited = 0u64;
        if lattice > occupied as u128 {
            // More lattice cells than occupied ones: filter the occupied
            // keys instead. Colex order makes the cells inside the box's
            // last-coordinate slab one contiguous run of ranks, already
            // in odometer order.
            let last = dim - 1;
            let key = |rank: usize| &self.keys[rank * dim..(rank + 1) * dim];
            let (mut a, mut b) = (0, occupied);
            while a < b {
                let m = a + (b - a) / 2;
                if key(m)[last] < lo[last] {
                    a = m + 1;
                } else {
                    b = m;
                }
            }
            for rank in a..occupied {
                let k = key(rank);
                if k[last] > hi[last] {
                    break;
                }
                if (0..last).all(|d| lo[d] <= k[d] && k[d] <= hi[d]) {
                    visited += 1;
                    f(rank);
                }
            }
            return visited;
        }
        // Iterate the (hi-lo+1)^dim cell lattice with an odometer; dim is
        // small (2-3) in this workspace so this stays cheap.
        'outer: loop {
            if let Some(&rank) = self.rank_of.get(&cur[..]) {
                visited += 1;
                f(rank as usize);
            }
            for d in 0..dim {
                if cur[d] < hi[d] {
                    cur[d] += 1;
                    continue 'outer;
                }
                cur[d] = lo[d];
            }
            break;
        }
        visited
    }
}

impl<M: Metric> NeighborIndex for GridIndex<'_, M> {
    fn len(&self) -> usize {
        self.data.len()
    }

    // The default `range_with` delegates here; the grid has no
    // traversal stack, so `range` itself is already allocation-free.
    fn range(&self, q: &[f64], eps: f64, out: &mut Vec<u32>) {
        out.clear();
        let bound = self.metric.to_surrogate(eps);
        let mut evals = 0u64;
        let dim = self.data.dim();
        let visits = self.for_cells(q, eps, |rank| {
            let span = self.span(rank);
            let len = span.len();
            evals += len as u64;
            let cols = dim * span.start..dim * span.end;
            scan_block(
                &self.metric,
                q,
                &self.ids[span],
                &self.coords[cols],
                len,
                bound,
                out,
            );
        });
        if let Some(s) = &self.sheet {
            s.record_range(evals, visits);
        }
    }

    fn knn(&self, q: &[f64], k: usize) -> Vec<(u32, f64)> {
        if k == 0 || self.data.is_empty() {
            return Vec::new();
        }
        // Expand shells of cells until the k-th best distance is covered by
        // the scanned radius; each pass rescans from scratch, which is fine
        // because knn is not on DBSCAN's hot path.
        let mut r = self.cell;
        let mut evals = 0u64;
        let mut visits = 0u64;
        loop {
            let mut heap: BinaryHeap<(F64, u32)> = BinaryHeap::with_capacity(k + 1);
            visits += self.for_cells(q, r, |rank| {
                let ids = &self.ids[self.span(rank)];
                evals += ids.len() as u64;
                for &i in ids {
                    let d = self.metric.dist(q, self.data.point(i));
                    if heap.len() < k {
                        heap.push((F64(d), i));
                    } else if let Some(&(worst, _)) = heap.peek() {
                        if d < worst.0 {
                            heap.pop();
                            heap.push((F64(d), i));
                        }
                    }
                }
            });
            let full = heap.len() == k.min(self.data.len());
            let worst = heap.peek().map(|&(d, _)| d.0).unwrap_or(f64::INFINITY);
            // The scan at L∞ radius r is guaranteed complete for all true
            // distances <= r (since Lp >= L∞ for p >= 1... note the reverse:
            // L∞ <= Lp, so a point at Lp distance d has L∞ distance <= d and
            // was scanned if d <= r).
            if full && worst <= r {
                let mut out: Vec<(u32, f64)> = heap.into_iter().map(|(d, i)| (i, d.0)).collect();
                out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                if let Some(s) = &self.sheet {
                    s.record_knn(evals, visits);
                }
                return out;
            }
            if full {
                // Grow just enough to certify the current worst candidate.
                r = worst.max(r * 2.0);
            } else {
                r *= 2.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use dbdc_geom::{Chebyshev, Euclidean, Manhattan};

    #[test]
    fn matches_linear_scan_euclidean() {
        let d = testutil::random_dataset(400, 42);
        let idx = GridIndex::new(&d, Euclidean, 5.0);
        testutil::check_against_linear(&idx, &d, Euclidean);
    }

    #[test]
    fn matches_linear_scan_manhattan() {
        let d = testutil::random_dataset(300, 7);
        let idx = GridIndex::new(&d, Manhattan, 2.0);
        testutil::check_against_linear(&idx, &d, Manhattan);
    }

    #[test]
    fn matches_linear_scan_chebyshev() {
        let d = testutil::random_dataset(300, 8);
        let idx = GridIndex::new(&d, Chebyshev, 3.0);
        testutil::check_against_linear(&idx, &d, Chebyshev);
    }

    #[test]
    fn tiny_cell_size_still_correct() {
        let d = testutil::random_dataset(100, 3);
        let idx = GridIndex::new(&d, Euclidean, 0.05);
        testutil::check_against_linear(&idx, &d, Euclidean);
    }

    #[test]
    fn both_cell_walks_keep_odometer_order_and_counts() {
        // Small radii walk the box's cell lattice, large ones filter the
        // occupied keys. Either way a query must return its hits cell by
        // cell in colexicographic cell order (ascending id within a
        // cell) and probe exactly the occupied cells inside its box.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(61);
        for dim in [2usize, 3] {
            let mut d = Dataset::new(dim);
            for _ in 0..300 {
                let p: Vec<f64> = (0..dim).map(|_| rng.random_range(-50.0..50.0)).collect();
                d.push(&p);
            }
            for cell in [0.5, 2.0, 7.0] {
                let sheet = Arc::new(CounterSheet::new());
                let idx = GridIndex::new(&d, Euclidean, cell).observed(sheet.clone());
                // Reversed cell coordinates compare lexicographically in
                // colex order.
                let colex = |p: &[f64]| -> Vec<i64> {
                    p.iter().rev().map(|&c| (c / cell).floor() as i64).collect()
                };
                let mut walks = [0usize; 2];
                let mut out = Vec::new();
                for q in d.iter().step_by(23) {
                    for eps in [0.3, 1.0, 4.0, 15.0, 60.0] {
                        let lo = colex(&q.iter().map(|c| c - eps).collect::<Vec<_>>());
                        let hi = colex(&q.iter().map(|c| c + eps).collect::<Vec<_>>());
                        let in_box = |k: &[i64]| (0..dim).all(|i| lo[i] <= k[i] && k[i] <= hi[i]);
                        let lattice: i64 = (0..dim).map(|i| hi[i] - lo[i] + 1).product();
                        walks[usize::from(lattice as usize > idx.occupied_cells())] += 1;

                        let mut want: Vec<(Vec<i64>, u32)> = (0..d.len() as u32)
                            .filter(|&i| {
                                Euclidean.surrogate(q, d.point(i)) <= Euclidean.to_surrogate(eps)
                            })
                            .map(|i| (colex(d.point(i)), i))
                            .collect();
                        want.sort();
                        let keys: Vec<Vec<i64>> =
                            d.iter().map(colex).filter(|k| in_box(k)).collect();
                        let mut cells = keys.clone();
                        cells.sort();
                        cells.dedup();

                        let before = sheet.snapshot();
                        idx.range(q, eps, &mut out);
                        let after = sheet.snapshot();
                        let want: Vec<u32> = want.into_iter().map(|(_, i)| i).collect();
                        assert_eq!(out, want, "dim={dim} cell={cell} eps={eps}");
                        assert_eq!(after.node_visits - before.node_visits, cells.len() as u64);
                        assert_eq!(
                            after.distance_evals - before.distance_evals,
                            keys.len() as u64
                        );
                    }
                }
                assert!(walks[0] > 0 && walks[1] > 0, "both walks ran: {walks:?}");
            }
        }
    }

    #[test]
    fn huge_cell_size_still_correct() {
        let d = testutil::random_dataset(100, 4);
        let idx = GridIndex::new(&d, Euclidean, 1000.0);
        // Points in [-50, 50] straddle the cell boundary at 0, so up to 2
        // cells per dimension may be occupied.
        assert!(idx.occupied_cells() <= 4);
        testutil::check_against_linear(&idx, &d, Euclidean);
    }

    #[test]
    fn cells_preserve_insertion_order() {
        // All points in one cell: range must return them in id order,
        // exactly as the pre-packing implementation did.
        let d = Dataset::from_flat(2, vec![0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4]);
        let idx = GridIndex::new(&d, Euclidean, 10.0);
        assert_eq!(idx.range_vec(&[0.25, 0.25], 5.0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        let d = Dataset::from_flat(2, vec![-0.5, -0.5, 0.5, 0.5, -1.5, -1.5]);
        let idx = GridIndex::new(&d, Euclidean, 1.0);
        let mut out = Vec::new();
        idx.range(&[-0.5, -0.5], 1.5, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::new(2);
        let idx = GridIndex::new(&d, Euclidean, 1.0);
        assert!(idx.is_empty());
        assert!(idx.range_vec(&[0.0, 0.0], 5.0).is_empty());
        assert!(idx.knn(&[0.0, 0.0], 2).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_cell() {
        let d = Dataset::new(2);
        let _ = GridIndex::new(&d, Euclidean, 0.0);
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let d = testutil::random_dataset(3000, 51);
        let seq = GridIndex::new(&d, Euclidean, 2.5).arena_bits();
        for threads in [2, 3, 8] {
            let par = GridIndex::with_threads(&d, Euclidean, 2.5, threads).arena_bits();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn knn_across_distant_shells() {
        // Points far from the query force multiple shell expansions.
        let d = Dataset::from_flat(2, vec![100.0, 0.0, 200.0, 0.0, 300.0, 0.0]);
        let idx = GridIndex::new(&d, Euclidean, 1.0);
        let nn = idx.knn(&[0.0, 0.0], 2);
        assert_eq!(nn[0], (0, 100.0));
        assert_eq!(nn[1], (1, 200.0));
    }
}
