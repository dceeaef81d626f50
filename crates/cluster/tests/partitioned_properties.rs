//! Property-based identity check for the partitioned local phase: on
//! arbitrary data and parameters, `partitioned_dbscan` must produce
//! exactly the sequential `dbscan` output on every backend, at every
//! thread count, at every partition count — including halo-heavy ε
//! settings where the stripes overlap almost entirely. The partitioned
//! specific core points are pinned too, against a sequential run over a
//! linear scan: the data sets lie on both sides of the grid kernel's
//! dimension cut, so the oracle pins both the kernel and the list
//! engine. Fixed cases probe the kernel's floating-point guard.

use dbdc_cluster::count_claim::{GUARD, MAX_CELLS_FROM_ORIGIN, MAX_DIM};
use dbdc_cluster::{
    dbscan, dbscan_with_scp, partitioned_dbscan, partitioned_dbscan_with_scp_observed,
    DbscanParams, ScpResult,
};
use dbdc_geom::{Dataset, Euclidean, Precision};
use dbdc_index::{build_index, IndexKind, LinearScan};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    // Clumps plus uniform background in 2 to MAX_DIM + 1 dimensions, so
    // the partitioned specific core points come from the grid kernel up
    // to the cut and from gathered lists above it; one axis stretched so
    // the widest-spread axis the striper picks is not always the same.
    let point = || prop::collection::vec(0.0..30.0f64, MAX_DIM + 1);
    (
        2..=MAX_DIM + 1,
        prop::collection::vec((point(), 3..25usize), 1..4),
        prop::collection::vec(point(), 0..15),
        1.0..5.0f64,
        0..=MAX_DIM,
    )
        .prop_map(|(dim, clumps, background, stretch, axis)| {
            let mut d = Dataset::new(dim);
            let mut push = |mut p: Vec<f64>| {
                p.truncate(dim);
                p[axis % dim] *= stretch;
                d.push(&p);
            };
            for (center, n) in clumps {
                for i in 0..n {
                    let t = i as f64;
                    let wiggle = |a: usize| (t * (0.7 + 0.4 * a as f64) + a as f64).sin() * 0.8;
                    push(
                        center
                            .iter()
                            .enumerate()
                            .map(|(a, c)| c + wiggle(a))
                            .collect(),
                    );
                }
            }
            for p in background {
                push(p);
            }
            d
        })
}

/// The partitioned enhanced DBSCAN at 2 and 3 partitions and 1 and 2
/// threads equals the sequential linear-scan run: labels, core flags,
/// query count and every specific core point with its ε-range. Returns
/// the oracle's result.
fn assert_partitioned_equals_oracle(
    data: &Dataset,
    eps: f64,
    min_pts: usize,
    case: &str,
) -> ScpResult {
    let params = DbscanParams::new(eps, min_pts);
    let oracle = dbscan_with_scp(data, &LinearScan::new(data, Euclidean), &params);
    for partitions in [2usize, 3] {
        for threads in [1usize, 2] {
            let (part, _) = partitioned_dbscan_with_scp_observed(
                data,
                IndexKind::Grid,
                &params,
                partitions,
                threads,
                Precision::F64,
                None,
                None,
            );
            let at = format!("{case}: {partitions} partitions, {threads} threads, eps {eps}");
            assert_eq!(
                oracle.dbscan.clustering, part.dbscan.clustering,
                "labels ({at})"
            );
            assert_eq!(oracle.dbscan.core, part.dbscan.core, "core flags ({at})");
            assert_eq!(
                oracle.dbscan.range_queries, part.dbscan.range_queries,
                "query counts ({at})"
            );
            assert_eq!(oracle.scp, part.scp, "specific core points ({at})");
        }
    }
    oracle
}

/// `x` moved one ulp up or down.
fn nudge(x: f64, up: bool) -> f64 {
    if x == 0.0 {
        let tiny = f64::from_bits(1);
        return if up { tiny } else { -tiny };
    }
    let bits = x.to_bits();
    f64::from_bits(if (x > 0.0) == up { bits + 1 } else { bits - 1 })
}

/// Pairs whose members differ by `step` along every axis, with the
/// partner nudged one ulp either way, spread `gap` apart along axis 0
/// from `origin`.
fn diagonal_pairs(dim: usize, origin: f64, step: f64, gap: f64, pairs: usize) -> Dataset {
    let mut d = Dataset::new(dim);
    for i in 0..pairs {
        let base = origin + i as f64 * gap;
        let p: Vec<f64> = (0..dim)
            .map(|a| if a == 0 { base } else { base * 0.5 })
            .collect();
        let partner: Vec<f64> = p
            .iter()
            .map(|&x| {
                let q = x + step;
                match i % 3 {
                    0 => q,
                    1 => nudge(q, true),
                    _ => nudge(q, false),
                }
            })
            .collect();
        d.push(&p);
        d.push(&partner);
    }
    d
}

#[test]
fn pairs_exactly_eps_apart_on_a_cell_diagonal_match_the_oracle() {
    // At MinPts 2 a point is core exactly when its partner passes the
    // `surrogate ≤ ε²` test, which rounding decides either way here.
    let (mut cores, mut lone) = (0, 0);
    for dim in 1..=MAX_DIM {
        for eps in [0.3, 0.5, 1.0, 1.7, 3.0] {
            let step = eps / (dim as f64).sqrt();
            for origin in [0.0, 0.1, 1.0 / 3.0] {
                let d = diagonal_pairs(dim, origin, step, 7.3 * eps, 60);
                let case = format!("{dim}-d pairs from {origin}");
                let oracle = assert_partitioned_equals_oracle(&d, eps, 2, &case);
                cores += oracle.dbscan.core.iter().filter(|&&c| c).count();
                lone += oracle.dbscan.core.iter().filter(|&&c| !c).count();
            }
        }
    }
    assert!(
        cores > 0 && lone > 0,
        "both sides of ε: {cores} core, {lone} not"
    );
}

#[test]
fn points_on_cell_boundaries_match_the_oracle() {
    // Coordinates on the kernel's cell faces and one ulp to either side,
    // with a cell's full diagonal inside one cell.
    for dim in 1..=MAX_DIM {
        for eps in [0.5, 1.0, 2.5] {
            let side = eps / (dim as f64).sqrt() * GUARD;
            let mut d = Dataset::new(dim);
            for k in 0..40i32 {
                let face = f64::from(k) * side;
                for x in [face, nudge(face, true), nudge(face, false)] {
                    let p: Vec<f64> = (0..dim).map(|a| x + a as f64 * side).collect();
                    d.push(&p);
                }
            }
            let corner: Vec<f64> = vec![3.0 * side; dim];
            let opposite: Vec<f64> = corner.iter().map(|&c| nudge(c + side, false)).collect();
            d.push(&corner);
            d.push(&opposite);
            for min_pts in [2, 4, 7] {
                assert_partitioned_equals_oracle(&d, eps, min_pts, &format!("{dim}-d faces"));
            }
        }
    }
}

#[test]
fn negative_coordinates_match_the_oracle() {
    for dim in 1..=MAX_DIM {
        for eps in [0.5, 1.0] {
            let step = eps / (dim as f64).sqrt();
            let d = diagonal_pairs(dim, -500.0 * eps, step, 7.3 * eps, 60);
            assert_partitioned_equals_oracle(&d, eps, 2, &format!("{dim}-d negative pairs"));
            let mut mixed = Dataset::new(dim);
            for k in -30..30i32 {
                let p: Vec<f64> = (0..dim).map(|a| f64::from(k) * 0.21 - a as f64).collect();
                mixed.push(&p);
            }
            for min_pts in [2, 5] {
                let case = format!("{dim}-d across the origin");
                assert_partitioned_equals_oracle(&mixed, eps, min_pts, &case);
            }
        }
    }
}

#[test]
fn coordinates_too_large_for_the_guard_fall_back_and_match_the_oracle() {
    // Beyond MAX_CELLS_FROM_ORIGIN cells `floor(x / side)` rounds too
    // coarsely for the guard, so the partitioned layer gathers lists;
    // just inside it the kernel runs.
    for dim in 1..=MAX_DIM {
        let eps = 0.75;
        let side = eps / (dim as f64).sqrt() * GUARD;
        let step = eps / (dim as f64).sqrt();
        for origin in [0.9 * MAX_CELLS_FROM_ORIGIN * side, 1e12, -3e15] {
            let d = diagonal_pairs(dim, origin, step, 7.3 * eps, 40);
            assert_partitioned_equals_oracle(&d, eps, 2, &format!("{dim}-d pairs at {origin}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Labels, core flags, and neighbor accounting are identical to the
    /// sequential algorithm on every backend × 1/2/8 threads × 1/2/4
    /// partitions.
    #[test]
    fn partitioned_labels_equal_sequential(
        data in arb_dataset(),
        eps in 0.5..3.0f64,
        min_pts in 2usize..7,
    ) {
        let params = DbscanParams::new(eps, min_pts);
        for kind in IndexKind::ALL {
            let idx = build_index(kind, &data, dbdc_geom::Euclidean, eps);
            let seq = dbscan(&data, idx.as_ref(), &params);
            for threads in [1usize, 2, 8] {
                for partitions in [1usize, 2, 4] {
                    let (part, stats) = partitioned_dbscan(
                        &data, kind, &params, partitions, threads, Precision::F64,
                    );
                    prop_assert_eq!(&seq.clustering, &part.clustering,
                        "labels differ ({:?}, {} threads, {} partitions)",
                        kind, threads, partitions);
                    prop_assert_eq!(&seq.core, &part.core,
                        "core flags differ ({:?}, {} threads, {} partitions)",
                        kind, threads, partitions);
                    prop_assert_eq!(stats.partitions, partitions.min(data.len().max(1)),
                        "partition count not honored");
                }
            }
        }
    }

    /// Halo-heavy regime: ε comparable to the whole spread, so every
    /// stripe's halo swallows most of its neighbors' points. The merge
    /// must still reproduce the sequential labels exactly, and the halo
    /// accounting must cover the replication.
    #[test]
    fn halo_heavy_partitions_equal_sequential(
        data in arb_dataset(),
        eps in 8.0..20.0f64,
        min_pts in 2usize..5,
    ) {
        let params = DbscanParams::new(eps, min_pts);
        let idx = build_index(IndexKind::RStar, &data, dbdc_geom::Euclidean, eps);
        let seq = dbscan(&data, idx.as_ref(), &params);
        for partitions in [2usize, 4] {
            let (part, stats) = partitioned_dbscan(
                &data, IndexKind::RStar, &params, partitions, 2, Precision::F64,
            );
            prop_assert_eq!(&seq.clustering, &part.clustering,
                "labels differ at {} halo-heavy partitions", partitions);
            prop_assert_eq!(&seq.core, &part.core,
                "core flags differ at {} halo-heavy partitions", partitions);
            // With ε this large the stripes overlap: some replication
            // must actually have happened (unless everything fit in one
            // clamped stripe).
            if stats.partitions > 1 && data.len() > stats.partitions {
                prop_assert!(stats.halo_points > 0,
                    "ε {} produced no halo over {} points", eps, data.len());
            }
        }
    }

    /// The partitioned enhanced DBSCAN returns exactly the `ScpResult` of
    /// a sequential run over a linear scan, which answers in ascending id
    /// order: labels, core flags, query count, and every specific core
    /// point with its ε-range, on every backend × 2/3/7 partitions × 1/2
    /// threads. Each case also covers repeated points, `MinPts = 1`,
    /// ε = 1e-9 and a one-point dataset.
    #[test]
    fn partitioned_representatives_equal_linear_scan_oracle(
        data in arb_dataset(),
        repeats in prop::collection::vec(0usize..1000, 1..8),
        eps in 0.5..3.0f64,
        min_pts in 2usize..7,
    ) {
        let mut data = data;
        for r in repeats {
            let copy = data.point((r % data.len()) as u32).to_vec();
            data.push(&copy);
        }
        let one_point = data.subset(&[0]);
        for d in [&data, &one_point] {
            for (eps, min_pts) in [(eps, min_pts), (eps, 1), (1e-9, 2)] {
                let params = DbscanParams::new(eps, min_pts);
                let oracle = dbscan_with_scp(d, &LinearScan::new(d, Euclidean), &params);
                for kind in IndexKind::ALL {
                    for partitions in [2usize, 3, 7] {
                        for threads in [1usize, 2] {
                            let (part, _) = partitioned_dbscan_with_scp_observed(
                                d, kind, &params, partitions, threads, Precision::F64,
                                None, None,
                            );
                            let at = format!(
                                "{kind:?}, {partitions} partitions, {threads} threads, \
                                 eps {eps}, min_pts {min_pts}, {} points", d.len()
                            );
                            prop_assert_eq!(&oracle.dbscan.clustering,
                                &part.dbscan.clustering, "labels differ ({})", at);
                            prop_assert_eq!(&oracle.dbscan.core, &part.dbscan.core,
                                "core flags differ ({})", at);
                            prop_assert_eq!(oracle.dbscan.range_queries,
                                part.dbscan.range_queries, "query counts differ ({})", at);
                            prop_assert_eq!(&oracle.scp, &part.scp,
                                "specific core points differ ({})", at);
                        }
                    }
                }
            }
        }
    }
}
