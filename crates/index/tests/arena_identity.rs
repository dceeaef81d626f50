//! Property-based construction-identity gate: on arbitrary data, the
//! parallel arena builders must produce bit-for-bit the sequential
//! arenas at every thread count, for both backends that build with
//! threads (the R*-tree builds on one thread; its layout is pinned by
//! digests in its own tests).
//! `arena_bits()` serializes node pools, bounds, id arenas, and the
//! SoA coordinate blocks via `to_bits`, so any divergence — a
//! reordered subtree, a rebased offset off by one — fails the equality.

use dbdc_geom::{Dataset, Euclidean};
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

    /// kd-tree arenas are bit-identical across thread counts.
    #[test]
    fn kdtree_arenas_bit_identical(data in arb_dataset()) {
        let seq = KdTree::new(&data, Euclidean);
        for threads in [2usize, 3, 8] {
            let par = KdTree::with_threads(&data, Euclidean, threads);
            prop_assert_eq!(seq.arena_bits(), par.arena_bits(),
                "kd arenas differ at {} threads", threads);
        }
    }

    /// Grid cell-table and packed arenas are bit-identical across
    /// thread counts.
    #[test]
    fn grid_arenas_bit_identical(data in arb_dataset(), cell in 0.5..10.0f64) {
        let seq = GridIndex::new(&data, Euclidean, cell);
        for threads in [2usize, 3, 8] {
            let par = GridIndex::with_threads(&data, Euclidean, cell, threads);
            prop_assert_eq!(seq.arena_bits(), par.arena_bits(),
                "grid arenas differ at {} threads", threads);
        }
    }
}
