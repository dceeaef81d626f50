//! Property-based identity check for the partitioned local phase: on
//! arbitrary data and parameters, `partitioned_dbscan` must produce
//! exactly the sequential `dbscan` output on every backend, at every
//! thread count, at every partition count — including halo-heavy ε
//! settings where the stripes overlap almost entirely. The partitioned
//! specific core points are pinned too, against a sequential run over a
//! linear scan.

use dbdc_cluster::{
    dbscan, dbscan_with_scp, partitioned_dbscan, partitioned_dbscan_with_scp_observed, DbscanParams,
};
use dbdc_geom::{Dataset, Euclidean, Precision};
use dbdc_index::{build_index, IndexKind, LinearScan};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    // Clumps plus uniform background, with an anisotropic stretch so
    // the widest-spread axis the striper picks is not always the same.
    (
        prop::collection::vec(((0.0..30.0f64, 0.0..30.0f64), 3..25usize), 1..4),
        prop::collection::vec((0.0..30.0f64, 0.0..30.0f64), 0..15),
        1.0..5.0f64,
        prop::bool::ANY,
    )
        .prop_map(|(clumps, background, stretch, flip)| {
            let mut d = Dataset::new(2);
            let mut push = |x: f64, y: f64| {
                if flip {
                    d.push(&[x, y * stretch]);
                } else {
                    d.push(&[x * stretch, y]);
                }
            };
            for ((cx, cy), n) in clumps {
                for i in 0..n {
                    let t = i as f64;
                    push(cx + (t * 0.7).sin() * 0.8, cy + (t * 1.1).cos() * 0.8);
                }
            }
            for (x, y) in background {
                push(x, y);
            }
            d
        })
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
