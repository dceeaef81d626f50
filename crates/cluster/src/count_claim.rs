//! The grid count-and-claim kernel: the partitioned local phase's
//! source for the enhanced-DBSCAN state machine of [`crate::scp`] in low
//! dimensions.
//!
//! An expansion needs two facts per point: is it core, and which of its
//! neighbours are still open (unclassified or noise). A range query
//! answers both with the full ε-neighbourhood — about 450 ids per point
//! on a dense site — and the list engine keeps every such list. This
//! kernel answers them on a [`dbdc_index::GridIndex`] with cells of side
//! `ε/√d`, shrunk by [`GUARD`] so that any two points of one cell pass
//! the indexes' `surrogate ≤ ε²` test in floating point (the dense-cell
//! trick of Gunawan 2013 and Gan & Tao, SIGMOD 2015). A site builds that
//! grid once, on one thread, and one `Lattice` over it: its occupied
//! cells in colex rank order, each with its candidate neighbour cells.
//! Every step below reads that one lattice.
//!
//! * **Core flags** (`Lattice::core_flags`, order-independent): the
//!   partitioned layer splits the ranks into contiguous cell ranges of
//!   about equal point counts (`Lattice::ranges`) and decides each
//!   range on a partition worker; the workers share the read-only
//!   lattice, so nothing is copied and no halo is replicated. A cell
//!   holding at least MinPts points makes every member core with no
//!   distance evaluation; every other point counts its own cell whole
//!   and the rest cell by cell, and stops at MinPts. Each decision scans
//!   the same cells in the same order whatever the ranges, so the work
//!   counters do not depend on the split.
//! * **Claims** (`Claims`, the sequential pass): each cell keeps its
//!   members not yet seen closed; a core point's expansion skips closed
//!   cells, takes its own cell's open members whole, and tests the
//!   others' open members.
//! * **Definition 7** keeps one full neighbourhood scan per specific
//!   core point.
//!
//! A cell's candidate neighbour cells come from the grid's colex cell
//! order by one sweep, not from a hash probe per cell of each query box
//! ([`GridIndex::visit_cells`]): those probes dominated the kernel's
//! time on sparse sites, where most cells hold one or two points. A cell
//! range's halo (`Lattice::halo`) is the points of the other ranges'
//! cells that its own cells' candidate runs reach: what its core
//! decisions may read in place.
//!
//! Every answer is the neighbour set the indexes return, so the state
//! machine's result is bit-identical to the list engine's.
//!
//! # When it runs
//!
//! A site runs the kernel in `1..=`[`MAX_DIM`]
//! dimensions when its coordinates lie within [`MAX_CELLS_FROM_ORIGIN`]
//! cells of the origin and `ε²` is a normal float with room to spare.
//! The cells a neighbourhood spans grow like `(2√d + 1)^d`; above the
//! cut the list engine wins (measured in DESIGN.md, "Intra-site
//! parallelism"). Beyond the coordinate bound `floor(x / side)` rounds
//! too coarsely for the guard to cover, and the partitioned layer falls
//! back to the list engine.
//!
//! # Why the guard suffices
//!
//! Let `u = 2⁻⁵³` and `M` the largest `|x| / side`. Two coordinates with
//! the same computed `floor(x / side)` differ by less than
//! `side · (1 + 2Mu)`, and the computed cell side is at most
//! `GUARD · ε/√d · (1 + u)³`. The computed sum of `d` squared
//! differences exceeds the exact one by at most a factor `(1 + u)^(d+2)`,
//! and the computed `ε²` falls short by at most `(1 − u)`. With
//! `GUARD = 1 − 2⁻²⁰` and `M ≤ 2³⁰` the product of these factors stays
//! below one: `(1 − 2⁻¹⁹)(1 + 2⁻²¹)` plus terms of order `u`. Probing
//! cells out to `ε · (1 + 2⁻²⁰)` instead of `ε` likewise absorbs the
//! rounding of cell bounds and of the surrogate, so no neighbour's cell
//! is missed.

use crate::scp::Neighborhoods;
use dbdc_geom::metric::BATCH_LANES;
use dbdc_geom::{Dataset, Euclidean, Metric};
use dbdc_index::{GridCell, GridIndex};
use dbdc_obs::{Counter, CounterSheet, HistSheet};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Sites of up to this many dimensions run the kernel; above it the
/// partitioned layer gathers lists. Measured on 21,000-point
/// `hyper_blobs` in 2 to 5 dimensions (DESIGN.md, "Intra-site
/// parallelism").
pub const MAX_DIM: usize = 3;

/// The factor that shrinks the cell side below `ε/√d`.
pub const GUARD: f64 = 1.0 - 1.0 / (1u64 << 20) as f64;

/// How many cells from the origin a coordinate may lie for the guard to
/// hold; see the module docs.
pub const MAX_CELLS_FROM_ORIGIN: f64 = (1u64 << 30) as f64;

/// The grid geometry of one site.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cells {
    /// The cell side: `ε/√d` shrunk by [`GUARD`].
    side: f64,
    /// The radius cells are probed at: ε plus [`GUARD`]'s margin.
    reach: f64,
    /// `ε²`, the indexes' surrogate bound.
    bound: f64,
}

impl Cells {
    /// The kernel's grid for clustering `data` at `eps`, or `None` when
    /// the kernel does not apply: more than [`MAX_DIM`] dimensions, a
    /// coordinate farther than [`MAX_CELLS_FROM_ORIGIN`] cells from the
    /// origin, or an `ε²` that is not a normal float with room to spare.
    pub(crate) fn fit(data: &Dataset, eps: f64) -> Option<Cells> {
        let dim = data.dim();
        if dim == 0 || dim > MAX_DIM {
            return None;
        }
        let side = eps / (dim as f64).sqrt() * GUARD;
        let bound = Euclidean.to_surrogate(eps);
        let limit = side * MAX_CELLS_FROM_ORIGIN;
        let fits = bound.is_finite()
            && bound >= f64::MIN_POSITIVE * (1u64 << 60) as f64
            && data.as_flat().iter().all(|c| c.abs() <= limit);
        fits.then_some(Cells {
            side,
            reach: eps * (2.0 - GUARD),
            bound,
        })
    }

    /// The grid over `data` with this side.
    pub(crate) fn grid<'a>(&self, data: &'a Dataset) -> GridIndex<'a, Euclidean> {
        GridIndex::new(data, Euclidean, self.side)
    }
}

/// The kernel's index work, recorded like a range query's: `decisions`
/// (core decisions) as `range_queries`, `evals` (surrogate distances
/// computed) as `distance_evals`, `visits` (cells whose members were
/// scanned) as `node_visits`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Work {
    decisions: u64,
    evals: u64,
    visits: u64,
}

impl Work {
    /// Adds this work to `sheet`'s counters.
    pub(crate) fn record(&self, sheet: Option<&Arc<CounterSheet>>) {
        if let Some(s) = sheet {
            s.add_to(Counter::range_queries, self.decisions);
            s.add_to(Counter::distance_evals, self.evals);
            s.add_to(Counter::node_visits, self.visits);
        }
    }
}

/// A grid's occupied cells with, for each, the cells that can hold a
/// neighbour of one of its points. Two points of cells whose keys differ
/// by `δ` are at least `Σ ((|δᵢ| − 1)⁺)² · side²` apart, and
/// `side² · (d + 1)` exceeds the probe radius squared, so a neighbour's
/// cell has `Σ ((|δᵢ| − 1)⁺)² ≤ d`. For each offset of the axes above
/// the first, those cells form one run of the grid's colex ranks (the
/// first axis varies fastest), and the run's bounds only move forward
/// from one cell to the next: one sweep finds them all, with no lookups.
///
/// One lattice serves a whole site: the core decisions of every cell
/// range, read concurrently, then the claims and Definition 7's scans.
pub(crate) struct Lattice<'g> {
    data: &'g Dataset,
    geometry: Cells,
    /// The cells by rank.
    cells: Vec<GridCell<'g>>,
    /// Cell `r`'s members are positions `start[r]..start[r + 1]` of the
    /// cells' ids laid end to end; one more entry than there are cells.
    start: Vec<u32>,
    /// Runs per cell: cell `r`'s candidate neighbour cells are the rank
    /// ranges `near[r * runs..(r + 1) * runs]`.
    near: Vec<(u32, u32)>,
    runs: usize,
}

impl<'g> Lattice<'g> {
    /// The lattice of `grid`, [`Cells::grid`] of `data`.
    pub(crate) fn new(
        grid: &'g GridIndex<'g, Euclidean>,
        data: &'g Dataset,
        geometry: Cells,
    ) -> Lattice<'g> {
        let dim = data.dim();
        let cells: Vec<GridCell<'g>> = grid.cells().collect();
        // Each run: the key offsets of its first and last cell.
        let gap2 = |t: i64| ((t.abs() - 1).max(0)).pow(2);
        let isqrt = |v: i64| (v as f64).sqrt() as i64;
        let span = 1 + isqrt(dim as i64);
        let mut bounds: Vec<([i64; MAX_DIM], [i64; MAX_DIM])> = Vec::new();
        let mut high = [-span; MAX_DIM];
        loop {
            let used: i64 = high[1..dim].iter().map(|&t| gap2(t)).sum();
            if used <= dim as i64 {
                let first = 1 + isqrt(dim as i64 - used);
                let (mut lo, mut hi) = (high, high);
                (lo[0], hi[0]) = (-first, first);
                bounds.push((lo, hi));
            }
            // Odometer over the axes above the first.
            let Some(i) = (1..dim).find(|&i| high[i] < span) else {
                break;
            };
            high[1..i].fill(-span);
            high[i] += 1;
        }
        // Keys, shifted or not, packed 32 bits per axis with the last axis
        // highest, so colex order is integer order: a key lies within
        // 2³⁰ + 1 of zero (`MAX_CELLS_FROM_ORIGIN`) and a shift within
        // `span`, so no field leaves its 32 bits.
        let pack = |key: &[i64], shift: &[i64; MAX_DIM]| {
            key.iter().zip(shift).rev().fold(0u128, |acc, (&k, &t)| {
                (acc << 32) | (k + t + (1 << 31)) as u128
            })
        };
        let packed: Vec<u128> = cells.iter().map(|c| pack(c.key, &[0; MAX_DIM])).collect();
        let n = cells.len();
        let mut ptrs = vec![(0usize, 0usize); bounds.len()];
        let mut near = Vec::with_capacity(n * bounds.len());
        for key in cells.iter().map(|c| c.key) {
            for ((lo_shift, hi_shift), (lo, hi)) in bounds.iter().zip(&mut ptrs) {
                let (first, last) = (pack(key, lo_shift), pack(key, hi_shift));
                while *lo < n && packed[*lo] < first {
                    *lo += 1;
                }
                *hi = (*hi).max(*lo);
                while *hi < n && packed[*hi] <= last {
                    *hi += 1;
                }
                near.push((*lo as u32, *hi as u32));
            }
        }
        let mut start = Vec::with_capacity(n + 1);
        start.push(0u32);
        for cell in &cells {
            start.push(start[cell.rank] + cell.ids.len() as u32);
        }
        Lattice {
            data,
            geometry,
            cells,
            start,
            near,
            runs: bounds.len(),
        }
    }

    /// Splits the cells into `parts` contiguous rank ranges of about
    /// equal point counts, clamped to one range per occupied cell and to
    /// at least one range.
    pub(crate) fn ranges(&self, parts: usize) -> Vec<Range<usize>> {
        let n = self.cells.len();
        let parts = parts.max(1).min(n.max(1));
        let total = self.start[n] as usize;
        let mut split = Vec::with_capacity(parts);
        let mut from = 0;
        for j in 1..parts {
            // The first cell at or past the j-th share, leaving a cell
            // for each range after this one.
            let share = total * j / parts;
            let to = self
                .start
                .partition_point(|&s| (s as usize) < share)
                .clamp(from + 1, n - (parts - j));
            split.push(from..to);
            from = to;
        }
        split.push(from..n);
        split
    }

    /// The points in cell range `own`.
    pub(crate) fn points(&self, own: Range<usize>) -> usize {
        (self.start[own.end] - self.start[own.start]) as usize
    }

    /// The halo of cell range `own`: the points of the cells outside it
    /// that its cells' candidate runs reach. Its core decisions read
    /// them in place.
    pub(crate) fn halo(&self, own: Range<usize>) -> usize {
        let mut outside: Vec<(usize, usize)> = Vec::new();
        for k in 0..self.runs {
            // One run's bounds only move forward from cell to cell, so
            // `reached` ends the union of the run so far.
            let mut reached = 0;
            for r in own.clone() {
                let (a, b) = self.near[r * self.runs + k];
                let (a, b) = ((a as usize).max(reached), b as usize);
                if a >= b {
                    continue;
                }
                reached = b;
                if a < own.start {
                    outside.push((a, b.min(own.start)));
                }
                if b > own.end {
                    outside.push((a.max(own.end), b));
                }
            }
        }
        // The runs of different offsets overlap across cells.
        outside.sort_unstable();
        let mut covered = 0;
        let mut halo = 0;
        for (a, b) in outside {
            let a = a.max(covered);
            if a < b {
                halo += self.points(a..b);
                covered = b;
            }
        }
        halo
    }

    /// The candidate neighbour cells of cell `home`.
    fn near(&self, home: usize) -> impl Iterator<Item = usize> + '_ {
        self.near[home * self.runs..(home + 1) * self.runs]
            .iter()
            .flat_map(|&(a, b)| a as usize..b as usize)
    }

    /// Whether cell `r`'s box lies within the probe radius of `q`.
    fn within(&self, q: &[f64], r: usize) -> bool {
        let side = self.geometry.side;
        let gap2: f64 = self.cells[r]
            .key
            .iter()
            .zip(q)
            .map(|(&k, &x)| {
                let lo = k as f64 * side;
                let g = (lo - x).max(x - (lo + side)).max(0.0);
                g * g
            })
            .sum();
        gap2 <= self.geometry.reach * self.geometry.reach
    }

    /// The cells that can hold a neighbour of point `q` of cell `home`.
    fn around<'s>(&'s self, q: &'s [f64], home: usize) -> impl Iterator<Item = usize> + 's {
        self.near(home).filter(move |&r| self.within(q, r))
    }

    /// Counts the members of cell `r` within ε of `q`, up to `need` of
    /// them, one kernel lane width at a time.
    fn count_within(&self, q: &[f64], r: usize, need: usize, work: &mut Work) -> usize {
        let cell = &self.cells[r];
        let n = cell.ids.len();
        let mut surrogates = [0.0f64; BATCH_LANES];
        let (mut found, mut k0) = (0, 0);
        while k0 < n && found < need {
            let m = BATCH_LANES.min(n - k0);
            Euclidean.surrogate_batch(q, &cell.cols[k0..], n, m, &mut surrogates[..m]);
            work.evals += m as u64;
            found += surrogates[..m]
                .iter()
                .filter(|&&s| s <= self.geometry.bound)
                .count();
            k0 += m;
        }
        found
    }

    /// Decides the core flags of the points in cell range `own`, member
    /// by member in cell order. Each decision scans the same cells,
    /// whatever the ranges, and is one of `Work::decisions` and one
    /// `hist` sample.
    pub(crate) fn core_flags(
        &self,
        own: Range<usize>,
        min_pts: usize,
        hist: Option<&Arc<HistSheet>>,
    ) -> (Vec<bool>, Work) {
        let points = self.points(own.clone());
        let mut core = Vec::with_capacity(points);
        let mut work = Work {
            decisions: points as u64,
            ..Work::default()
        };
        for cell in &self.cells[own] {
            let dense = cell.ids.len() >= min_pts;
            for &id in cell.ids {
                let t0 = hist.map(|_| Instant::now());
                core.push(
                    dense || {
                        // Every member of the point's own cell is a neighbour.
                        let q = self.data.point(id);
                        let mut count = cell.ids.len();
                        for r in self.around(q, cell.rank) {
                            if count >= min_pts {
                                break;
                            }
                            if r != cell.rank {
                                work.visits += 1;
                                count += self.count_within(q, r, min_pts - count, &mut work);
                            }
                        }
                        count >= min_pts
                    },
                );
                if let (Some(h), Some(t0)) = (hist, t0) {
                    h.record_duration(t0.elapsed());
                }
            }
        }
        (core, work)
    }
}

/// The sequential pass's source: core flags decided beforehand, claims
/// and Definition 7's scans on the site's lattice.
pub(crate) struct Claims<'g> {
    lattice: Lattice<'g>,
    core: Vec<bool>,
    /// Each point's cell rank.
    home: Vec<u32>,
    /// Cell `r`'s members not yet seen closed are the first `len[r]` of
    /// `open[lattice.start[r]..]`, in no particular order.
    open: Vec<u32>,
    len: Vec<u32>,
    /// Cells scanned and distances computed by the claims and scans.
    pub(crate) work: Work,
}

impl<'g> Claims<'g> {
    /// The source over `lattice`, whose points' core flags are `flags`,
    /// in the lattice's cell order as [`Lattice::core_flags`] returns
    /// them.
    pub(crate) fn new(lattice: Lattice<'g>, flags: impl IntoIterator<Item = bool>) -> Claims<'g> {
        let n = lattice.data.len();
        let (mut core, mut home) = (vec![false; n], vec![0u32; n]);
        let (mut open, mut len) = (Vec::with_capacity(n), Vec::new());
        let mut flags = flags.into_iter();
        for cell in &lattice.cells {
            len.push(cell.ids.len() as u32);
            open.extend_from_slice(cell.ids);
            for &id in cell.ids {
                home[id as usize] = cell.rank as u32;
                core[id as usize] = flags.next().expect("one flag per point");
            }
        }
        Claims {
            lattice,
            core,
            home,
            open,
            len,
            work: Work::default(),
        }
    }
}

impl Neighborhoods for Claims<'_> {
    fn is_core(&mut self, j: u32, _: usize) -> bool {
        self.core[j as usize]
    }

    fn claim(&mut self, j: u32, state: &mut [i64], mut claim: impl FnMut(u32, &mut i64)) {
        let data = self.lattice.data;
        let q = data.point(j);
        let own = self.home[j as usize] as usize;
        for r in self.lattice.near(own) {
            // Most cells an expansion passes are closed already.
            let len = &mut self.len[r];
            if *len == 0 || !self.lattice.within(q, r) {
                continue;
            }
            self.work.visits += 1;
            let open = &mut self.open[self.lattice.start[r] as usize..];
            let mut k = 0;
            while k < *len as usize {
                let p = open[k];
                let s = &mut state[p as usize];
                if *s < 0
                    && (r == own || {
                        self.work.evals += 1;
                        Euclidean.surrogate(q, data.point(p)) <= self.lattice.geometry.bound
                    })
                {
                    claim(p, s);
                }
                if *s < 0 {
                    k += 1;
                } else {
                    // Closed, now or earlier: drop it from the cell.
                    *len -= 1;
                    open[k] = open[*len as usize];
                }
            }
        }
    }

    fn each_neighbor(&mut self, s: u32, mut visit: impl FnMut(u32)) {
        let q = self.lattice.data.point(s);
        let own = self.home[s as usize] as usize;
        let bound = self.lattice.geometry.bound;
        let mut surrogates = [0.0f64; BATCH_LANES];
        for r in self.lattice.around(q, own) {
            self.work.visits += 1;
            let cell = &self.lattice.cells[r];
            if r == own {
                cell.ids.iter().copied().for_each(&mut visit);
                continue;
            }
            let n = cell.ids.len();
            let mut k0 = 0;
            while k0 < n {
                let m = BATCH_LANES.min(n - k0);
                Euclidean.surrogate_batch(q, &cell.cols[k0..], n, m, &mut surrogates[..m]);
                for (k, &sq) in surrogates[..m].iter().enumerate() {
                    if sq <= bound {
                        visit(cell.ids[k0 + k]);
                    }
                }
                k0 += m;
            }
            self.work.evals += n as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(xs: &[f64]) -> Dataset {
        let mut d = Dataset::new(2);
        for &x in xs {
            d.push(&[x, -x]);
        }
        d
    }

    #[test]
    fn fit_admits_low_dimensions_at_f64_only() {
        let d = line(&[0.0, 1.0, 2.0]);
        assert!(Cells::fit(&d, 1.0).is_some());
        let wide = Dataset::from_flat(MAX_DIM + 1, vec![0.0; MAX_DIM + 1]);
        assert!(Cells::fit(&wide, 1.0).is_none());
    }

    /// Points on a wiggly curve through `dim`-space, `per` to a unit.
    fn curve(dim: usize, n: usize) -> Dataset {
        let mut d = Dataset::new(dim);
        for i in 0..n {
            let t = i as f64 * 0.05;
            let p: Vec<f64> = (0..dim)
                .map(|a| (t * (1.0 + a as f64)).sin() * 3.0 + t)
                .collect();
            d.push(&p);
        }
        d
    }

    #[test]
    fn ranges_split_the_cells_and_halos_are_the_runs_outside() {
        for dim in 1..=MAX_DIM {
            let d = curve(dim, 600);
            let cells = Cells::fit(&d, 0.4).expect("fits");
            let grid = cells.grid(&d);
            let lattice = Lattice::new(&grid, &d, cells);
            let n_cells = lattice.cells.len();
            for parts in [1, 2, 3, 7, n_cells + 5] {
                let ranges = lattice.ranges(parts);
                assert_eq!(ranges.len(), parts.min(n_cells));
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, n_cells);
                assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
                assert!(ranges.iter().all(|r| !r.is_empty()));
                let points: usize = ranges.iter().map(|r| lattice.points(r.clone())).sum();
                assert_eq!(points, d.len());
                for own in ranges {
                    // Every cell outside `own` one of its cells' runs holds.
                    let mut reached = vec![false; n_cells];
                    for r in own.clone() {
                        for c in lattice.near(r).filter(|c| !own.contains(c)) {
                            reached[c] = true;
                        }
                    }
                    let want: usize = (0..n_cells)
                        .filter(|&c| reached[c])
                        .map(|c| lattice.cells[c].ids.len())
                        .sum();
                    assert_eq!(lattice.halo(own.clone()), want, "{dim}-d, {parts} parts");
                }
            }
        }
    }

    #[test]
    fn ranges_balance_points_and_clamp_to_the_cells() {
        let empty = Dataset::new(2);
        let cells = Cells::fit(&empty, 1.0).expect("fits");
        let grid = cells.grid(&empty);
        let lattice = Lattice::new(&grid, &empty, cells);
        assert_eq!(lattice.ranges(4), vec![0..0]);
        assert_eq!(lattice.halo(0..0), 0);

        let d = curve(2, 2000);
        let cells = Cells::fit(&d, 0.3).expect("fits");
        let grid = cells.grid(&d);
        let lattice = Lattice::new(&grid, &d, cells);
        let largest = lattice.cells.iter().map(|c| c.ids.len()).max().unwrap();
        for parts in [2, 4] {
            for r in lattice.ranges(parts) {
                let share = d.len() / parts;
                assert!(
                    lattice.points(r.clone()).abs_diff(share) <= largest,
                    "{r:?}"
                );
            }
        }
    }

    #[test]
    fn fit_rejects_what_the_guard_cannot_cover() {
        let d = line(&[0.0, 1.0]);
        // ε² underflows or overflows, or a coordinate lies past 2³⁰ cells.
        assert!(Cells::fit(&d, 1e-160).is_none());
        assert!(Cells::fit(&d, 1e160).is_none());
        let far = line(&[0.0, 2f64.powi(31)]);
        assert!(Cells::fit(&far, 1.0).is_none());
        assert!(Cells::fit(&far, 4.0).is_some());
    }
}
