//! Distance metrics.
//!
//! DBSCAN — and therefore DBDC — only needs a distance function, not vector
//! coordinates (the paper lists "can be used for all kinds of metric data
//! spaces" as one of the reasons for choosing DBSCAN). Two abstractions are
//! provided:
//!
//! * [`Metric`] — a metric on coordinate slices (`&[f64]`). This is what the
//!   vector-space indexes (grid, kd-tree, R*-tree) and the standard pipeline
//!   use.
//! * [`MetricSpace`] — a metric on arbitrary objects, used by the M-tree and
//!   by the metric-space example (edit distance on strings).

/// Lane width of the batched surrogate kernels: points are processed in
/// fixed-size chunks of this many so the accumulator fits in a stack
/// array rustc can keep in vector registers.
pub const BATCH_LANES: usize = 8;

/// Dimensions up to this size use stack buffers on the allocation-free
/// paths ([`Metric::surrogate_dist_to_box`] and the generic
/// [`Metric::surrogate_batch`]); higher dimensions fall back to heap
/// scratch.
const STACK_DIM: usize = 16;

/// A metric on `d`-dimensional coordinate slices.
///
/// Implementations must satisfy the metric axioms (non-negativity, identity,
/// symmetry, triangle inequality) for the spatial indexes to return correct
/// results. All provided implementations do.
pub trait Metric: Send + Sync {
    /// The distance between `a` and `b`.
    ///
    /// Callers guarantee `a.len() == b.len()`.
    fn dist(&self, a: &[f64], b: &[f64]) -> f64;

    /// A monotone surrogate of the distance that is cheaper to compute, used
    /// for comparisons only (e.g. nearest-neighbour pruning). For the
    /// Euclidean metric this is the squared distance. The default is the
    /// distance itself.
    #[inline]
    fn surrogate(&self, a: &[f64], b: &[f64]) -> f64 {
        self.dist(a, b)
    }

    /// Converts a true distance into surrogate units.
    #[inline]
    fn to_surrogate(&self, d: f64) -> f64 {
        d
    }

    /// Batched [`Metric::surrogate`] over a structure-of-arrays block:
    /// coordinate `d` of point `i` lives at `cols[d * stride + i]`, and
    /// `out[i]` receives `surrogate(q, pᵢ)` for `i < n`.
    ///
    /// Must produce **bit-identical** values to the scalar `surrogate`
    /// (the scalar path is the oracle, property-tested against this).
    /// The provided implementations keep the per-point accumulation in
    /// the same dimension order as their scalar loops and chunk points
    /// [`BATCH_LANES`] at a time so rustc auto-vectorizes across points.
    ///
    /// Callers guarantee `n <= stride`, `cols.len() >= (q.len() - 1) *
    /// stride + n`, and `out.len() >= n`.
    fn surrogate_batch(&self, q: &[f64], cols: &[f64], stride: usize, n: usize, out: &mut [f64]) {
        // Generic fallback: gather each point into scratch and defer to
        // the scalar surrogate, so custom metrics stay correct without
        // writing a kernel.
        let dim = q.len();
        let mut stack = [0.0f64; STACK_DIM];
        let mut heap;
        let buf: &mut [f64] = if dim <= STACK_DIM {
            &mut stack[..dim]
        } else {
            heap = vec![0.0; dim];
            &mut heap
        };
        for (i, o) in out.iter_mut().take(n).enumerate() {
            for (d, c) in buf.iter_mut().enumerate() {
                *c = cols[d * stride + i];
            }
            *o = self.surrogate(q, buf);
        }
    }

    /// Lower bound, in surrogate units, on `surrogate(q, p)` over every
    /// point `p` of the axis-aligned box `[lo, hi]`.
    ///
    /// Equivalent to `to_surrogate(dist_to_box(q, lo, hi))` for every
    /// translation-invariant metric that is monotone in the per-
    /// coordinate absolute differences (all Lp metrics qualify): the
    /// closest point of the box is the per-coordinate clamp of `q`. The
    /// default clamps into a stack buffer and applies `surrogate`;
    /// the Lp implementations override it with direct accumulation.
    fn surrogate_dist_to_box(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
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
            gaps[i] = box_gap(q[i], lo[i], hi[i]);
        }
        self.surrogate(&gaps[..dim], &zeros[..dim])
    }
}

/// Shared chunked loop behind the Lp `surrogate_batch` overrides:
/// points are processed [`BATCH_LANES`] at a time, folding each
/// dimension's per-lane difference `q[d] - pᵢ[d]` into a stack
/// accumulator array. Dimensions advance in ascending order with the
/// same `q - p` subtraction direction as the scalar loops, so each
/// lane performs the identical float-op sequence and the results are
/// bit-identical to the scalar surrogate.
#[inline]
fn batch_kernel(
    q: &[f64],
    cols: &[f64],
    stride: usize,
    n: usize,
    out: &mut [f64],
    fold: impl Fn(f64, f64) -> f64 + Copy,
) {
    const L: usize = BATCH_LANES;
    let mut i = 0;
    while i + L <= n {
        let mut acc = [0.0f64; L];
        for (d, &qd) in q.iter().enumerate() {
            let col = &cols[d * stride + i..d * stride + i + L];
            for (a, &c) in acc.iter_mut().zip(col) {
                *a = fold(*a, qd - c);
            }
        }
        out[i..i + L].copy_from_slice(&acc);
        i += L;
    }
    for j in i..n {
        let mut acc = 0.0;
        for (d, &qd) in q.iter().enumerate() {
            acc = fold(acc, qd - cols[d * stride + j]);
        }
        out[j] = acc;
    }
}

/// Per-coordinate gap between `q` and the interval `[lo, hi]` (0 inside).
#[inline]
fn box_gap(q: f64, lo: f64, hi: f64) -> f64 {
    if q < lo {
        lo - q
    } else if q > hi {
        q - hi
    } else {
        0.0
    }
}

/// The Euclidean (L2) metric — the metric used in all of the paper's
/// experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Euclidean;

#[inline]
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

impl Metric for Euclidean {
    #[inline]
    fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        sq_dist(a, b).sqrt()
    }

    #[inline]
    fn surrogate(&self, a: &[f64], b: &[f64]) -> f64 {
        sq_dist(a, b)
    }

    #[inline]
    fn to_surrogate(&self, d: f64) -> f64 {
        d * d
    }

    fn surrogate_batch(&self, q: &[f64], cols: &[f64], stride: usize, n: usize, out: &mut [f64]) {
        batch_kernel(q, cols, stride, n, out, |acc, diff| acc + diff * diff);
    }

    #[inline]
    fn surrogate_dist_to_box(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for i in 0..q.len() {
            let g = box_gap(q[i], lo[i], hi[i]);
            acc += g * g;
        }
        acc
    }
}

/// The squared Euclidean "metric".
///
/// Not a metric (it violates the triangle inequality) — provided only as a
/// building block for algorithms that explicitly work in squared space, such
/// as k-means' assignment step. It must **not** be used with the spatial
/// indexes, which rely on the triangle inequality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SquaredEuclidean;

impl Metric for SquaredEuclidean {
    #[inline]
    fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        sq_dist(a, b)
    }

    fn surrogate_batch(&self, q: &[f64], cols: &[f64], stride: usize, n: usize, out: &mut [f64]) {
        batch_kernel(q, cols, stride, n, out, |acc, diff| acc + diff * diff);
    }

    #[inline]
    fn surrogate_dist_to_box(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for i in 0..q.len() {
            let g = box_gap(q[i], lo[i], hi[i]);
            acc += g * g;
        }
        acc
    }
}

/// The Manhattan (L1) metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Manhattan;

impl Metric for Manhattan {
    #[inline]
    fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum()
    }

    fn surrogate_batch(&self, q: &[f64], cols: &[f64], stride: usize, n: usize, out: &mut [f64]) {
        batch_kernel(q, cols, stride, n, out, |acc, diff| acc + diff.abs());
    }

    #[inline]
    fn surrogate_dist_to_box(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for i in 0..q.len() {
            acc += box_gap(q[i], lo[i], hi[i]);
        }
        acc
    }
}

/// The Chebyshev (L∞) metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Chebyshev;

impl Metric for Chebyshev {
    #[inline]
    fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    fn surrogate_batch(&self, q: &[f64], cols: &[f64], stride: usize, n: usize, out: &mut [f64]) {
        batch_kernel(q, cols, stride, n, out, |acc, diff| acc.max(diff.abs()));
    }

    #[inline]
    fn surrogate_dist_to_box(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 0.0f64;
        for i in 0..q.len() {
            acc = acc.max(box_gap(q[i], lo[i], hi[i]));
        }
        acc
    }
}

/// The Minkowski (Lp) metric for a caller-chosen order `p >= 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minkowski {
    p: f64,
}

impl Minkowski {
    /// Creates an Lp metric.
    ///
    /// # Panics
    /// Panics if `p < 1` (the Lp "distance" is not a metric for `p < 1`).
    pub fn new(p: f64) -> Self {
        assert!(p >= 1.0, "Minkowski order must be >= 1 to form a metric");
        Self { p }
    }

    /// The order `p`.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Metric for Minkowski {
    #[inline]
    fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        self.surrogate(a, b).powf(1.0 / self.p)
    }

    /// `Σ|xᵢ−yᵢ|^p` — the p-th power of the distance. Monotone for
    /// `p >= 1` (which the constructor enforces), and skips the
    /// per-comparison `powf(1.0/p)` root.
    #[inline]
    fn surrogate(&self, a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs().powf(self.p))
            .sum()
    }

    #[inline]
    fn to_surrogate(&self, d: f64) -> f64 {
        d.powf(self.p)
    }

    fn surrogate_batch(&self, q: &[f64], cols: &[f64], stride: usize, n: usize, out: &mut [f64]) {
        let p = self.p;
        batch_kernel(q, cols, stride, n, out, |acc, diff| {
            acc + diff.abs().powf(p)
        });
    }

    #[inline]
    fn surrogate_dist_to_box(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for i in 0..q.len() {
            acc += box_gap(q[i], lo[i], hi[i]).powf(self.p);
        }
        acc
    }
}

/// A metric on arbitrary objects, for use with the M-tree and other
/// metric-space access methods.
pub trait MetricSpace<T: ?Sized>: Send + Sync {
    /// The distance between two objects.
    fn dist(&self, a: &T, b: &T) -> f64;
}

/// Adapts any [`Metric`] into a [`MetricSpace`] over coordinate vectors, so
/// vector data can be stored in metric-space indexes like the M-tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct VectorSpace<M>(pub M);

impl<M: Metric> MetricSpace<[f64]> for VectorSpace<M> {
    #[inline]
    fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        self.0.dist(a, b)
    }
}

impl<M: Metric> MetricSpace<Vec<f64>> for VectorSpace<M> {
    #[inline]
    fn dist(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
        self.0.dist(a, b)
    }
}

/// Levenshtein edit distance on strings — a genuine non-vector metric used
/// by the metric-space example and the M-tree tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct EditDistance;

impl MetricSpace<str> for EditDistance {
    fn dist(&self, a: &str, b: &str) -> f64 {
        levenshtein(a, b) as f64
    }
}

impl MetricSpace<String> for EditDistance {
    fn dist(&self, a: &String, b: &String) -> f64 {
        levenshtein(a, b) as f64
    }
}

/// Classic two-row dynamic-programming Levenshtein distance, operating on
/// Unicode scalar values.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn euclidean_basic() {
        let m = Euclidean;
        assert_eq!(m.dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(m.dist(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn euclidean_surrogate_is_squared() {
        let m = Euclidean;
        assert_eq!(m.surrogate(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(m.to_surrogate(5.0), 25.0);
    }

    #[test]
    fn manhattan_basic() {
        assert_eq!(Manhattan.dist(&[0.0, 0.0], &[3.0, -4.0]), 7.0);
    }

    #[test]
    fn chebyshev_basic() {
        assert_eq!(Chebyshev.dist(&[0.0, 0.0], &[3.0, -4.0]), 4.0);
        assert_eq!(Chebyshev.dist(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn minkowski_reduces_to_l1_l2() {
        let a = [0.3, -1.2, 4.0];
        let b = [2.0, 0.5, -0.25];
        assert!((Minkowski::new(1.0).dist(&a, &b) - Manhattan.dist(&a, &b)).abs() < 1e-12);
        assert!((Minkowski::new(2.0).dist(&a, &b) - Euclidean.dist(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn minkowski_surrogate_is_pth_power_of_dist() {
        let a = [0.3, -1.2, 4.0];
        let b = [2.0, 0.5, -0.25];
        for p in [1.0, 1.5, 2.0, 3.0, 4.5] {
            let m = Minkowski::new(p);
            let d = m.dist(&a, &b);
            let s = m.surrogate(&a, &b);
            assert!(
                (s - d.powf(p)).abs() <= 1e-9 * s.abs().max(1.0),
                "p={p}: surrogate {s} vs dist^p {}",
                d.powf(p)
            );
            assert!((m.to_surrogate(d) - s).abs() <= 1e-9 * s.abs().max(1.0));
            // Monotone: ordering by surrogate == ordering by dist.
            let c = [0.0, 0.0, 0.0];
            assert_eq!(
                m.surrogate(&a, &b) < m.surrogate(&a, &c),
                m.dist(&a, &b) < m.dist(&a, &c),
                "p={p}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn minkowski_rejects_sub_one() {
        let _ = Minkowski::new(0.5);
    }

    #[test]
    fn levenshtein_basic() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn edit_distance_metric_space() {
        let m = EditDistance;
        assert_eq!(m.dist("rust", "crust"), 1.0);
        let s1 = String::from("graph");
        let s2 = String::from("giraffe");
        assert_eq!(m.dist(&s1, &s2), levenshtein("graph", "giraffe") as f64);
    }

    #[test]
    fn vector_space_adapter_matches_inner_metric() {
        let vs = VectorSpace(Euclidean);
        let a = vec![0.0, 0.0];
        let b = vec![3.0, 4.0];
        assert_eq!(MetricSpace::<[f64]>::dist(&vs, &a, &b), 5.0);
        assert_eq!(MetricSpace::<Vec<f64>>::dist(&vs, &a, &b), 5.0);
    }

    fn coords() -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(-1e3..1e3f64, 3)
    }

    proptest! {
        #[test]
        fn euclidean_axioms((a, b, c) in (coords(), coords(), coords())) {
            metric_axioms(&Euclidean, &a, &b, &c);
        }

        #[test]
        fn manhattan_axioms((a, b, c) in (coords(), coords(), coords())) {
            metric_axioms(&Manhattan, &a, &b, &c);
        }

        #[test]
        fn chebyshev_axioms((a, b, c) in (coords(), coords(), coords())) {
            metric_axioms(&Chebyshev, &a, &b, &c);
        }

        #[test]
        fn minkowski_axioms((a, b, c, p) in (coords(), coords(), coords(), 1.0..5.0f64)) {
            metric_axioms(&Minkowski::new(p), &a, &b, &c);
        }

        #[test]
        fn levenshtein_triangle(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc);
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }
    }

    /// A metric with no kernel overrides, so the proptests below also
    /// exercise the trait's default `surrogate_batch` /
    /// `surrogate_dist_to_box` implementations.
    struct WeightedL1;

    impl Metric for WeightedL1 {
        fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
            a.iter()
                .zip(b.iter())
                .enumerate()
                .map(|(i, (x, y))| (i as f64 + 1.0) * (x - y).abs())
                .sum()
        }
    }

    /// Every metric the kernel proptests sweep, as trait objects.
    fn kernel_metrics() -> Vec<Box<dyn Metric>> {
        vec![
            Box::new(Euclidean),
            Box::new(SquaredEuclidean),
            Box::new(Manhattan),
            Box::new(Chebyshev),
            Box::new(Minkowski::new(1.0)),
            Box::new(Minkowski::new(2.5)),
            Box::new(Minkowski::new(4.0)),
            Box::new(WeightedL1),
        ]
    }

    /// A query, an SoA block of `n` points (with `stride >= n` to
    /// exercise padded blocks), and the same points row-major.
    fn soa_block() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<f64>>, usize)> {
        (1usize..=5, 0usize..=3).prop_flat_map(|(dim, pad)| {
            (
                prop::collection::vec(-1e3..1e3f64, dim),
                prop::collection::vec(prop::collection::vec(-1e3..1e3f64, dim), 0..40),
                Just(pad),
            )
        })
    }

    proptest! {
        /// The batched kernels are bit-identical to the scalar
        /// surrogate, for every metric, dimension, block length, and
        /// padded stride — including the `BATCH_LANES` remainder tail.
        #[test]
        fn surrogate_batch_matches_scalar((q, pts, pad) in soa_block()) {
            let dim = q.len();
            let n = pts.len();
            let stride = n + pad;
            // Column-major block; padding lanes poisoned so an
            // out-of-range lane read shows up as a wrong answer.
            let mut cols = vec![1e12f64; dim * stride];
            for (i, p) in pts.iter().enumerate() {
                for d in 0..dim {
                    cols[d * stride + i] = p[d];
                }
            }
            for m in kernel_metrics() {
                let mut out = vec![f64::NAN; n];
                m.surrogate_batch(&q, &cols, stride, n, &mut out);
                for (i, p) in pts.iter().enumerate() {
                    let scalar = m.surrogate(&q, p);
                    prop_assert_eq!(
                        out[i].to_bits(),
                        scalar.to_bits(),
                        "point {} of {}: batch {} vs scalar {}",
                        i, n, out[i], scalar
                    );
                }
            }
        }

        /// `surrogate_dist_to_box` equals the surrogate distance to the
        /// clamped (closest) point of the box, and lower-bounds the
        /// surrogate to any point inside the box.
        #[test]
        fn surrogate_box_bound_is_clamp_distance(
            (q, corners, inside) in (1usize..=5).prop_flat_map(|dim| {
                (
                    prop::collection::vec(-1e3..1e3f64, dim),
                    prop::collection::vec((-1e3..1e3f64, -1e3..1e3f64), dim),
                    prop::collection::vec(0.0..=1.0f64, dim),
                )
            })
        ) {
            let dim = q.len();
            let lo: Vec<f64> = corners.iter().map(|&(a, b)| a.min(b)).collect();
            let hi: Vec<f64> = corners.iter().map(|&(a, b)| a.max(b)).collect();
            let clamp: Vec<f64> = (0..dim).map(|i| q[i].clamp(lo[i], hi[i])).collect();
            let interior: Vec<f64> = (0..dim)
                .map(|i| lo[i] + inside[i] * (hi[i] - lo[i]))
                .collect();
            for m in kernel_metrics() {
                let bound = m.surrogate_dist_to_box(&q, &lo, &hi);
                let at_clamp = m.surrogate(&q, &clamp);
                prop_assert!(
                    (bound - at_clamp).abs() <= 1e-9 * at_clamp.abs().max(1.0),
                    "bound {} vs clamp surrogate {}", bound, at_clamp
                );
                prop_assert!(
                    bound <= m.surrogate(&q, &interior) * (1.0 + 1e-12) + 1e-9,
                    "bound {} above interior surrogate {}",
                    bound, m.surrogate(&q, &interior)
                );
            }
        }
    }

    fn metric_axioms<M: Metric>(m: &M, a: &[f64], b: &[f64], c: &[f64]) {
        let ab = m.dist(a, b);
        let ba = m.dist(b, a);
        let aa = m.dist(a, a);
        assert!(ab >= 0.0, "non-negative");
        assert!(aa.abs() < 1e-9, "identity");
        assert!((ab - ba).abs() < 1e-9, "symmetry");
        let ac = m.dist(a, c);
        let cb = m.dist(c, b);
        assert!(ab <= ac + cb + 1e-9, "triangle: {ab} > {ac} + {cb}");
    }
}
