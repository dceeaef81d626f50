//! Property-based construction-identity gate: on arbitrary data, the
//! parallel arena builders must produce bit-for-bit the sequential
//! arenas at every thread count, for both backends that build with
//! threads (the R*-tree builds on one thread; its layout is pinned by
//! digests in its own tests).
//! `arena_bits()` serializes node pools, bounds, id arenas, and the
//! SoA coordinate blocks (f64 and f32 alike) via `to_bits`, so any
//! divergence — a reordered subtree, a rebased offset off by one, a
//! narrowing applied in a different order — fails the equality.

use dbdc_geom::{Dataset, Euclidean, Precision};
use dbdc_index::{GridIndex, KdTree};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (
        prop::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 0..400),
        1.0..6.0f64,
    )
        .prop_map(|(pts, stretch)| {
            let mut d = Dataset::new(2);
            for (x, y) in pts {
                d.push(&[x * stretch, y]);
            }
            d
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// kd-tree arenas are bit-identical across thread counts, under
    /// both precisions.
    #[test]
    fn kdtree_arenas_bit_identical(data in arb_dataset()) {
        for precision in [Precision::F64, Precision::F32] {
            let seq = KdTree::with_options(&data, Euclidean, 1, precision);
            for threads in [2usize, 3, 8] {
                let par = KdTree::with_options(&data, Euclidean, threads, precision);
                prop_assert_eq!(seq.arena_bits(), par.arena_bits(),
                    "kd arenas differ at {} threads ({:?})", threads, precision);
            }
        }
    }

    /// Grid cell-table and packed arenas are bit-identical across
    /// thread counts, under both precisions.
    #[test]
    fn grid_arenas_bit_identical(data in arb_dataset(), cell in 0.5..10.0f64) {
        for precision in [Precision::F64, Precision::F32] {
            let seq = GridIndex::with_options(&data, Euclidean, cell, 1, precision);
            for threads in [2usize, 3, 8] {
                let par = GridIndex::with_options(&data, Euclidean, cell, threads, precision);
                prop_assert_eq!(seq.arena_bits(), par.arena_bits(),
                    "grid arenas differ at {} threads ({:?})", threads, precision);
            }
        }
    }
}
