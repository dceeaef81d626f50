//! Oracles for the two phases that scan the representatives: the
//! server's global DBSCAN must build the same [`GlobalModel`] over
//! every index backend, and relabeling must label every object as a
//! brute-force scan over all representatives does.

use dbdc::{
    build_global_model, relabel_site, relabel_site_observed, DbdcParams, EpsGlobal, GlobalModel,
    GlobalRep, LocalModel, Representative,
};
use dbdc_geom::{Clustering, Dataset, Euclidean, Label, Metric, Point};
use dbdc_index::{GridIndex, IndexKind};
use dbdc_obs::CounterSheet;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Local models of 1–4 sites in `dim` dimensions. `shape` 0 sends one
/// representative in all, 1 spreads them too far apart to merge (every
/// global cluster a singleton), 2 scatters them so some merge, a third
/// of them exactly `step` along the first axis from the one before (on
/// the `Eps_global` boundary when `step` is `Eps_global`).
fn local_models(seed: u64, dim: usize, shape: u8, step: f64) -> Vec<LocalModel> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sites = rng.random_range(1..=4u32);
    let total = if shape == 0 {
        1
    } else {
        rng.random_range(2..=40usize)
    };
    let mut models: Vec<LocalModel> = (0..sites)
        .map(|site| LocalModel {
            site,
            dim,
            reps: Vec::new(),
        })
        .collect();
    let mut point: Vec<f64> = Vec::new();
    for i in 0..total {
        if shape == 2 && i > 0 && rng.random_range(0..3u32) == 0 {
            point[0] += step;
        } else {
            point = (0..dim)
                .map(|d| match shape {
                    1 if d == 0 => 100.0 * i as f64,
                    1 => 0.0,
                    _ => rng.random_range(0.0..12.0),
                })
                .collect();
        }
        let site = rng.random_range(0..sites) as usize;
        models[site].reps.push(Representative {
            point: Point::from(point.clone()),
            eps_range: rng.random_range(0.2..2.0),
            local_cluster: rng.random_range(0..3u32),
        });
    }
    models
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The server's global model does not depend on the index backend.
    #[test]
    fn global_model_is_index_independent(
        seed in any::<u64>(),
        dim in 1usize..=3,
        shape in 0u8..=2,
        multiple in 0.0..3.0f64,
    ) {
        // Multiples below 0.5 select the paper's default policy.
        let (policy, step) = if multiple < 0.5 {
            (EpsGlobal::MaxEpsRange, 1.0)
        } else {
            (EpsGlobal::MultipleOfLocal(multiple), multiple)
        };
        let models = local_models(seed, dim, shape, step);
        let params = DbdcParams::new(1.0, 4).with_eps_global(policy);
        let oracle = build_global_model(&models, &params.with_index(IndexKind::Linear));
        let n_reps: usize = models.iter().map(|m| m.reps.len()).sum();
        match shape {
            0 => prop_assert_eq!(oracle.n_clusters, 1),
            1 => prop_assert_eq!(oracle.n_clusters as usize, n_reps),
            _ => {}
        }
        for kind in [IndexKind::Grid, IndexKind::KdTree, IndexKind::RStar] {
            let got = build_global_model(&models, &params.with_index(kind));
            prop_assert_eq!(&got, &oracle, "{:?}", kind);
        }
    }

    /// Relabeling matches a brute-force scan over every representative
    /// with the same predicates: a candidate lies within the largest
    /// ε-range in surrogate units, it covers the object within its own
    /// ε-range, the nearest covering one wins (any of equally near
    /// ones), and an uncovered object falls back on its local cluster.
    #[test]
    fn relabel_matches_brute_force(seed in any::<u64>()) {
        let (global, data, local) = relabel_case(seed);
        let cells = cell_kinds(&global);
        prop_assert!(cells.0 > 0 && cells.1 > 0, "single and mixed cells: {:?}", cells);

        let sheet = Arc::new(CounterSheet::new());
        let got = relabel_site_observed(&data, &local, &global, Some(&sheet));
        prop_assert_eq!(&got, &relabel_site(&data, &local, &global));
        let max_range = global.reps.iter().map(|r| r.eps_range).fold(0.0, f64::max);
        let bound = Euclidean.to_surrogate(max_range);
        for (i, p) in data.iter().enumerate() {
            let covering: Vec<(f64, u32)> = global
                .reps
                .iter()
                .filter_map(|r| {
                    let s = Euclidean.surrogate(p, r.point.coords());
                    (s <= bound && s.sqrt() <= r.eps_range).then_some((s.sqrt(), r.global_cluster))
                })
                .collect();
            let label = got.label(i as u32);
            match covering.iter().map(|c| c.0).reduce(f64::min) {
                Some(nearest) => prop_assert!(
                    covering.iter().any(|&(d, g)| d == nearest && label == Label::Cluster(g)),
                    "object {}: {:?} is not a nearest covering cluster of {:?}",
                    i, label, covering
                ),
                None => {
                    let fallback = match local.label(i as u32) {
                        Label::Noise => Label::Noise,
                        Label::Cluster(lc) => global
                            .reps
                            .iter()
                            .find(|r| r.local_cluster == lc)
                            .map_or(Label::Noise, |r| Label::Cluster(r.global_cluster)),
                    };
                    prop_assert_eq!(label, fallback, "uncovered object {}", i);
                }
            }
        }
        let c = sheet.snapshot();
        prop_assert_eq!(c.range_queries, data.len() as u64);
        prop_assert!(c.distance_evals <= (data.len() * global.reps.len()) as u64);
    }
}

/// A global model in 1 to 3 dimensions whose clusters follow stripes 7
/// units wide along the first axis, so cells well inside a stripe hold
/// one cluster, with one representative in six reassigned at random and
/// a coincident pair of two clusters, so some cells mix; plus objects
/// scattered over the area, objects on representatives' ε_r boundaries,
/// copies of earlier objects with coordinates moved onto the grid's
/// lattice lines (multiples of the largest ε-range) or one ulp either
/// side of them, so objects in one cell get different query boxes, and
/// local labels with noise.
fn relabel_case(seed: u64) -> (GlobalModel, Dataset, Clustering) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = rng.random_range(1..=3usize);
    let n_clusters = rng.random_range(2..=4u32);
    // Fewer in one dimension, where the area has fewer cells.
    let n_reps = match dim {
        1 => rng.random_range(3..=14usize),
        _ => rng.random_range(10..=120usize),
    };
    let mut reps: Vec<GlobalRep> = (0..n_reps)
        .map(|_| {
            let point: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..21.0)).collect();
            let stripe = (point[0] / 7.0) as u32 % n_clusters;
            GlobalRep {
                point: Point::from(point),
                eps_range: rng.random_range(0.3..2.5),
                site: rng.random_range(0..5u32),
                local_cluster: rng.random_range(0..4u32),
                global_cluster: if rng.random_range(0..6u32) == 0 {
                    rng.random_range(0..n_clusters)
                } else {
                    stripe
                },
            }
        })
        .collect();
    let twin = GlobalRep {
        global_cluster: (reps[0].global_cluster + 1) % n_clusters,
        ..reps[0].clone()
    };
    reps.push(twin);
    let cell = reps.iter().map(|r| r.eps_range).fold(0.0, f64::max);

    let mut data = Dataset::new(dim);
    let mut local = Vec::new();
    for _ in 0..rng.random_range(1..=150usize) {
        let object: Vec<f64> = match rng.random_range(0..3u32) {
            0 => {
                let r = &reps[rng.random_range(0..reps.len())];
                let (mut x, e) = (r.point.coords().to_vec(), r.eps_range);
                match rng.random_range(0..3u32) {
                    0 => x[0] += e,
                    1 => x[dim - 1] -= e,
                    _ => {
                        let v: Vec<f64> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
                        let norm = v.iter().map(|c| c * c).sum::<f64>().sqrt().max(1e-9);
                        for (c, vc) in x.iter_mut().zip(&v) {
                            *c += e * vc / norm;
                        }
                    }
                }
                x
            }
            1 if !data.is_empty() => {
                // An earlier object with some coordinates moved onto a
                // lattice line bounding its cell, or one ulp off it.
                let mut x = data.point(rng.random_range(0..data.len() as u32)).to_vec();
                let snap = rng.random_range(0..dim);
                for (d, c) in x.iter_mut().enumerate() {
                    if d == snap || rng.random_range(0..2u32) == 0 {
                        let k = (*c / cell).floor() + f64::from(rng.random_range(0..=1u32));
                        *c = ulps_off(k * cell, rng.random_range(-1..=1));
                    }
                }
                x
            }
            _ => (0..dim).map(|_| rng.random_range(-3.0..24.0)).collect(),
        };
        data.push(&object);
        // Local cluster 4 has no representative: its fallback is noise.
        local.push(match rng.random_range(0..6u32) {
            5 => Label::Noise,
            lc => Label::Cluster(lc),
        });
    }
    let global = GlobalModel {
        dim,
        reps,
        n_clusters,
        eps_global: 2.0,
    };
    (global, data, Clustering::from_labels_verbatim(local, 5))
}

/// `x` moved `ulps` (−1, 0 or 1) units in the last place: to the next
/// float up for 1, down for −1. (`f64::next_up` needs Rust 1.86.)
fn ulps_off(x: f64, ulps: i32) -> f64 {
    if ulps == 0 {
        x
    } else if x == 0.0 {
        f64::from_bits(1) * f64::from(ulps)
    } else if (ulps > 0) == (x > 0.0) {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// (single-cluster, mixed) occupied cells of the grid relabeling builds.
fn cell_kinds(global: &GlobalModel) -> (usize, usize) {
    let mut points = Dataset::new(global.dim);
    for r in &global.reps {
        points.push(r.point.coords());
    }
    let max_range = global.reps.iter().map(|r| r.eps_range).fold(0.0, f64::max);
    let grid = GridIndex::new(&points, Euclidean, max_range);
    let mut kinds = (0, 0);
    for c in grid.cells() {
        let g = global.reps[c.ids[0] as usize].global_cluster;
        if c.ids
            .iter()
            .all(|&i| global.reps[i as usize].global_cluster == g)
        {
            kinds.0 += 1;
        } else {
            kinds.1 += 1;
        }
    }
    kinds
}
