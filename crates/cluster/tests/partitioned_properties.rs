//! Property-based identity check for the partitioned local phase: on
//! arbitrary data and parameters, `partitioned_dbscan` must produce
//! exactly the sequential `dbscan` output on every backend, at every
//! thread count, at every partition count — including halo-heavy ε
//! settings where the stripes overlap almost entirely. The partitioned
//! specific core points are pinned too, against a sequential run over a
//! linear scan: the data sets lie on both sides of the grid kernel's
//! dimension cut, so the oracle pins both the kernel and the list
//! engine. Fixed cases probe the kernel's floating-point guard, its
//! cell ranges on degenerate sites, and that its work counters do not
//! depend on the split.

use dbdc_cluster::count_claim::{GUARD, MAX_CELLS_FROM_ORIGIN, MAX_DIM};
use dbdc_cluster::{
    dbscan, dbscan_with_scp, partitioned_dbscan, partitioned_dbscan_with_scp_observed,
    DbscanParams, ScpResult,
};
use dbdc_geom::{Dataset, Euclidean, Precision};
use dbdc_index::{build_index, IndexKind, LinearScan};
use dbdc_obs::CounterSheet;
use proptest::prelude::*;
use std::sync::Arc;

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

/// The partitioned enhanced DBSCAN on a site the grid kernel runs, at
/// 2/3/7 partitions × 1/2 threads: its `ScpResult` equals the linear-scan
/// oracle's, each cell range owns its points once and has one time, and
/// the halo is 0 exactly when there is one range (the sites here keep
/// their occupied cells adjacent). Returns the range counts, by call.
fn assert_kernel_site(data: &Dataset, eps: f64, min_pts: usize, case: &str) -> Vec<usize> {
    let params = DbscanParams::new(eps, min_pts);
    let oracle = dbscan_with_scp(data, &LinearScan::new(data, Euclidean), &params);
    let mut ranges = Vec::new();
    for partitions in [2usize, 3, 7] {
        for threads in [1usize, 2] {
            let (part, stats) = partitioned_dbscan_with_scp_observed(
                data,
                IndexKind::Grid,
                &params,
                partitions,
                threads,
                Precision::F64,
                None,
                None,
            );
            let at = format!("{case}: {partitions} partitions, {threads} threads");
            assert_eq!(oracle.dbscan.clustering, part.dbscan.clustering, "{at}");
            assert_eq!(oracle.dbscan.core, part.dbscan.core, "{at}");
            assert_eq!(
                oracle.dbscan.range_queries, part.dbscan.range_queries,
                "{at}"
            );
            assert_eq!(oracle.scp, part.scp, "{at}");
            assert_eq!(
                stats.partition_owned.iter().sum::<usize>(),
                data.len(),
                "{at}"
            );
            assert_eq!(stats.partition_times.len(), stats.partitions, "{at}");
            assert_eq!(stats.partition_owned.len(), stats.partitions, "{at}");
            assert_eq!(
                stats.halo_points,
                stats.partition_halo.iter().sum::<usize>() as u64,
                "{at}"
            );
            assert_eq!(stats.halo_points == 0, stats.partitions == 1, "{at}");
            ranges.push(stats.partitions);
        }
    }
    ranges
}

/// The kernel's cell side for `eps` in `dim` dimensions.
fn side(eps: f64, dim: usize) -> f64 {
    eps / (dim as f64).sqrt() * GUARD
}

#[test]
fn empty_and_single_point_sites_run_one_range() {
    for dim in 1..=MAX_DIM {
        let empty = Dataset::new(dim);
        assert!(assert_kernel_site(&empty, 1.0, 2, "empty")
            .iter()
            .all(|&r| r == 1));
        let one = Dataset::from_flat(dim, vec![0.25; dim]);
        for min_pts in [1, 2] {
            let ranges = assert_kernel_site(&one, 1.0, min_pts, "one point");
            assert!(ranges.iter().all(|&r| r == 1));
        }
    }
}

#[test]
fn duplicates_in_one_cell_clamp_to_one_range() {
    for dim in 1..=MAX_DIM {
        let s = side(1.0, dim);
        let mut d = Dataset::new(dim);
        for k in 0..40 {
            // Copies of three points strictly inside one cell.
            let x = s * (0.25 + 0.25 * (k % 3) as f64);
            d.push(&vec![x; dim]);
        }
        for min_pts in [1, 5, 41] {
            let ranges = assert_kernel_site(&d, 1.0, min_pts, "one cell");
            assert!(ranges.iter().all(|&r| r == 1), "{dim}-d: {ranges:?}");
        }
    }
}

#[test]
fn min_pts_one_makes_every_point_core() {
    for dim in 1..=MAX_DIM {
        let mut d = Dataset::new(dim);
        for i in 0..150 {
            let t = i as f64 * 0.11;
            let p: Vec<f64> = (0..dim).map(|a| t + (t * (2.0 + a as f64)).sin()).collect();
            d.push(&p);
        }
        assert_kernel_site(&d, 0.5, 1, &format!("{dim}-d, MinPts 1"));
        let params = DbscanParams::new(0.5, 1);
        let (r, _) = partitioned_dbscan_with_scp_observed(
            &d,
            IndexKind::Grid,
            &params,
            3,
            2,
            Precision::F64,
            None,
            None,
        );
        assert!(r.dbscan.core.iter().all(|&c| c));
    }
}

#[test]
fn more_partitions_than_occupied_cells_clamp_to_the_cells() {
    for dim in 1..=MAX_DIM {
        // Three adjacent cells along axis 0, four points in each.
        let s = side(1.0, dim);
        let mut d = Dataset::new(dim);
        for cell in 0..3 {
            for k in 0..4 {
                let mut p = vec![0.5 * s; dim];
                p[0] = s * (cell as f64 + 0.2 * (k + 1) as f64);
                d.push(&p);
            }
        }
        for min_pts in [3, 6] {
            let ranges = assert_kernel_site(&d, 1.0, min_pts, &format!("{dim}-d, 3 cells"));
            // 2, 3 and 7 partitions, each at 1 and 2 threads.
            assert_eq!(ranges, [2, 2, 3, 3, 3, 3], "{dim}-d");
        }
    }
}

#[test]
fn a_range_boundary_may_split_a_row_of_cells() {
    // One row of cells along axis 0: every range is part of that row.
    for dim in 2..=MAX_DIM {
        let mut d = Dataset::new(dim);
        for i in 0..300 {
            let mut p = vec![0.1; dim];
            p[0] = i as f64 * 0.07;
            d.push(&p);
        }
        for (eps, min_pts) in [(0.3, 4), (0.3, 12), (1.0, 20)] {
            let ranges = assert_kernel_site(&d, eps, min_pts, &format!("{dim}-d row"));
            assert_eq!(ranges, [2, 2, 3, 3, 7, 7], "{dim}-d");
        }
    }
}

#[test]
fn kernel_counters_do_not_depend_on_the_split() {
    // Every core decision scans the same cells of the one site lattice
    // in the same order, whatever the cell ranges and workers.
    for dim in 1..=MAX_DIM {
        let mut d = Dataset::new(dim);
        for i in 0..900 {
            let t = i as f64 * 0.013;
            let blob = (i % 3) as f64 * 6.0;
            let p: Vec<f64> = (0..dim)
                .map(|a| blob + (t * (3.0 + a as f64)).sin() * 2.0 + (t * 7.1).cos() * 0.3)
                .collect();
            d.push(&p);
        }
        let params = DbscanParams::new(0.4, 6);
        let mut first = None;
        for partitions in [2usize, 3, 7] {
            for threads in [1usize, 2] {
                let sheet = Arc::new(CounterSheet::new());
                let (r, stats) = partitioned_dbscan_with_scp_observed(
                    &d,
                    IndexKind::Grid,
                    &params,
                    partitions,
                    threads,
                    Precision::F64,
                    Some(&sheet),
                    None,
                );
                assert_eq!(stats.partitions, partitions);
                let c = sheet.snapshot();
                assert!(c.range_queries > 0 && c.distance_evals > 0 && c.node_visits > 0);
                let seen = (
                    (c.range_queries, c.distance_evals, c.node_visits),
                    r.dbscan.clustering,
                    r.dbscan.core,
                    r.dbscan.range_queries,
                    r.scp,
                );
                match &first {
                    None => first = Some(seen),
                    Some(want) => assert_eq!(
                        want, &seen,
                        "{dim}-d: {partitions} partitions, {threads} threads"
                    ),
                }
            }
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
                    let (part, stats) =
                        partitioned_dbscan(&data, kind, &params, partitions, threads);
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
            let (part, stats) =
                partitioned_dbscan(&data, IndexKind::RStar, &params, partitions, 2);
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
