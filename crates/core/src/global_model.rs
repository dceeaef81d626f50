//! Global model determination (Section 6 of the paper).
//!
//! The server collects the local models of all sites and clusters the
//! representatives with DBSCAN again, using `MinPts_global = 2` (every
//! representative already stands for a dense neighborhood, so two
//! density-connected representatives are enough evidence to merge their
//! clusters) and an `Eps_global` resolved by the configured policy —
//! the paper's default being the maximum transmitted ε-range, which is
//! "generally close to 2·Eps_local".
//!
//! One deliberate deviation from plain DBSCAN: the paper states that *each
//! local representative forms a cluster on its own*, so representatives
//! that plain DBSCAN would call noise (no neighbor within `Eps_global`)
//! are promoted to singleton global clusters instead of being dropped.

use crate::local_model::LocalModel;
use crate::params::DbdcParams;
use dbdc_cluster::{dbscan, DbscanParams};
use dbdc_geom::{Dataset, Euclidean, Label, Point};
use dbdc_index::{build_index_opts, BuildOptions};

/// A representative annotated with its global cluster id.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalRep {
    /// The representative point.
    pub point: Point,
    /// Its ε-range (validity radius), as transmitted by the site.
    pub eps_range: f64,
    /// Origin site.
    pub site: u32,
    /// Cluster id on the origin site.
    pub local_cluster: u32,
    /// Assigned global cluster id.
    pub global_cluster: u32,
}

/// The global model: every representative with its global cluster id, plus
/// the resolved server parameters. This is what the server broadcasts back
/// to all sites.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalModel {
    /// Dimensionality of the representatives.
    pub dim: usize,
    /// All representatives with global ids.
    pub reps: Vec<GlobalRep>,
    /// Number of global clusters.
    pub n_clusters: u32,
    /// The `Eps_global` actually used.
    pub eps_global: f64,
}

impl GlobalModel {
    /// The global id assigned to local cluster `local_cluster` of `site`
    /// through one of its representatives (they may map to several global
    /// clusters if `Eps_global` is small; this returns the first).
    pub fn global_of(&self, site: u32, local_cluster: u32) -> Option<u32> {
        self.reps
            .iter()
            .find(|r| r.site == site && r.local_cluster == local_cluster)
            .map(|r| r.global_cluster)
    }
}

/// Clusters all transmitted representatives into the global model.
///
/// # Panics
/// Panics if the models disagree on dimensionality.
pub fn build_global_model(models: &[LocalModel], params: &DbdcParams) -> GlobalModel {
    build_global_model_observed(models, params, None)
}

/// [`build_global_model`] with an optional [`dbdc_obs::CounterSheet`]
/// recording the server's range queries and distance evaluations.
///
/// # Panics
/// Panics if the models disagree on dimensionality.
pub fn build_global_model_observed(
    models: &[LocalModel],
    params: &DbdcParams,
    sheet: Option<&std::sync::Arc<dbdc_obs::CounterSheet>>,
) -> GlobalModel {
    let dim = models
        .iter()
        .find(|m| !m.is_empty())
        .map(|m| m.dim)
        .unwrap_or(2);
    let mut points = Dataset::new(dim);
    let mut meta: Vec<(u32, u32, f64)> = Vec::new(); // (site, local_cluster, eps_range)
    for m in models {
        assert!(
            m.is_empty() || m.dim == dim,
            "local models disagree on dimensionality"
        );
        for r in &m.reps {
            points.push(r.point.coords());
            meta.push((m.site, r.local_cluster, r.eps_range));
        }
    }
    let eps_global = params.resolve_eps_global(
        models
            .iter()
            .flat_map(|m| m.reps.iter().map(|r| &r.eps_range)),
    );

    let labels = if points.is_empty() {
        Vec::new()
    } else {
        // An overflowing `MultipleOfLocal` resolves to +inf; f64::MAX
        // has the same squared radius (+inf, so every pair is a
        // neighbour) and keeps the DBSCAN radius and grid cell finite.
        let eps = eps_global.min(f64::MAX);
        // The server's index is the sites' backend, but always at f64 on
        // one build thread: labels depend only on neighbour *sets*, which
        // every backend's f64 range query shares with the linear scan,
        // while an f32 scan could change them.
        let idx = build_index_opts(
            params.index,
            &points,
            Euclidean,
            eps,
            BuildOptions::default(),
            sheet,
            None,
        );
        let result = dbscan(
            &points,
            idx.as_ref(),
            &DbscanParams::new(eps, params.min_pts_global),
        );
        result.clustering.labels().to_vec()
    };

    // Promote unclustered representatives to singleton clusters.
    let mut next = labels
        .iter()
        .filter_map(|l| l.cluster())
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);
    let mut reps = Vec::with_capacity(meta.len());
    for (i, (site, local_cluster, eps_range)) in meta.into_iter().enumerate() {
        let global_cluster = match labels[i] {
            Label::Cluster(c) => c,
            Label::Noise => {
                let c = next;
                next += 1;
                c
            }
        };
        reps.push(GlobalRep {
            point: Point::from(points.point(i as u32)),
            eps_range,
            site,
            local_cluster,
            global_cluster,
        });
    }
    GlobalModel {
        dim,
        reps,
        n_clusters: next,
        eps_global,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_model::Representative;
    use crate::params::EpsGlobal;

    fn model(site: u32, reps: Vec<(f64, f64, f64, u32)>) -> LocalModel {
        LocalModel {
            site,
            dim: 2,
            reps: reps
                .into_iter()
                .map(|(x, y, eps, lc)| Representative {
                    point: Point::xy(x, y),
                    eps_range: eps,
                    local_cluster: lc,
                })
                .collect(),
        }
    }

    #[test]
    fn merges_representatives_across_sites() {
        // The paper's Figure 4: representatives from 3 sites spaced within
        // 2·Eps_local merge into one global cluster.
        let eps_local = 1.0;
        let m1 = model(0, vec![(0.0, 0.0, 1.8, 0), (1.9, 0.0, 1.7, 0)]);
        let m2 = model(1, vec![(3.8, 0.0, 1.9, 0)]);
        let m3 = model(2, vec![(5.5, 0.0, 1.6, 0)]);
        let params = crate::params::DbdcParams::new(eps_local, 4)
            .with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
        let g = build_global_model(&[m1, m2, m3], &params);
        assert_eq!(g.eps_global, 2.0);
        assert_eq!(g.n_clusters, 1);
        assert!(g.reps.iter().all(|r| r.global_cluster == 0));
    }

    #[test]
    fn eps_local_fails_to_merge_figure_4_viii() {
        // With Eps_global = Eps_local the same layout stays fragmented
        // (Figure 4c VIII).
        let m1 = model(0, vec![(0.0, 0.0, 1.8, 0), (1.9, 0.0, 1.7, 0)]);
        let m2 = model(1, vec![(3.8, 0.0, 1.9, 0)]);
        let m3 = model(2, vec![(5.5, 0.0, 1.6, 0)]);
        let params =
            crate::params::DbdcParams::new(1.0, 4).with_eps_global(EpsGlobal::MultipleOfLocal(1.0));
        let g = build_global_model(&[m1, m2, m3], &params);
        assert!(g.n_clusters > 1, "got {} clusters", g.n_clusters);
    }

    #[test]
    fn max_eps_range_policy_uses_transmitted_ranges() {
        let m1 = model(0, vec![(0.0, 0.0, 1.8, 0)]);
        let m2 = model(1, vec![(1.75, 0.0, 1.7, 0)]);
        let params = crate::params::DbdcParams::new(1.0, 4); // default MaxEpsRange
        let g = build_global_model(&[m1, m2], &params);
        // Eps_global = max ε_R = 1.8 covers the 1.75 gap; Eps_local = 1.0
        // would not.
        assert_eq!(g.eps_global, 1.8);
        assert_eq!(g.n_clusters, 1);
    }

    #[test]
    fn isolated_representative_forms_singleton_cluster() {
        let m1 = model(0, vec![(0.0, 0.0, 1.5, 0), (1.0, 0.0, 1.5, 0)]);
        let m2 = model(1, vec![(50.0, 50.0, 1.5, 0)]);
        let params =
            crate::params::DbdcParams::new(1.0, 4).with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
        let g = build_global_model(&[m1, m2], &params);
        // Two reps merge; the distant one is its own cluster, not dropped.
        assert_eq!(g.n_clusters, 2);
        let far = g.reps.iter().find(|r| r.site == 1).unwrap();
        let near: Vec<_> = g.reps.iter().filter(|r| r.site == 0).collect();
        assert_eq!(near[0].global_cluster, near[1].global_cluster);
        assert_ne!(far.global_cluster, near[0].global_cluster);
    }

    #[test]
    fn global_of_lookup() {
        let m1 = model(0, vec![(0.0, 0.0, 1.5, 0), (30.0, 0.0, 1.5, 1)]);
        let params =
            crate::params::DbdcParams::new(1.0, 4).with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
        let g = build_global_model(&[m1], &params);
        assert_eq!(g.n_clusters, 2);
        assert!(g.global_of(0, 0).is_some());
        assert!(g.global_of(0, 1).is_some());
        assert_ne!(g.global_of(0, 0), g.global_of(0, 1));
        assert_eq!(g.global_of(5, 0), None);
    }

    #[test]
    fn empty_input() {
        let params = crate::params::DbdcParams::new(1.0, 4);
        let g = build_global_model(&[], &params);
        assert_eq!(g.n_clusters, 0);
        assert!(g.reps.is_empty());
        let g = build_global_model(&[model(0, vec![])], &params);
        assert_eq!(g.n_clusters, 0);
    }

    #[test]
    fn infinite_eps_global_merges_everything_on_every_backend() {
        // MultipleOfLocal overflows to +inf; no backend may panic on it
        // (the grid sizes its cells by Eps_global).
        let m1 = model(0, vec![(0.0, 0.0, 1.5, 0), (4e5, -3.0, 1.5, 1)]);
        let m2 = model(1, vec![(-7e5, 9.0, 1.5, 0)]);
        for kind in dbdc_index::IndexKind::ALL {
            let params = crate::params::DbdcParams::new(1e10, 4)
                .with_eps_global(EpsGlobal::MultipleOfLocal(1e300))
                .with_index(kind);
            let g = build_global_model(&[m1.clone(), m2.clone()], &params);
            assert_eq!(g.eps_global, f64::INFINITY);
            assert_eq!(g.n_clusters, 1, "{kind:?}");
        }
    }

    #[test]
    fn same_site_clusters_can_merge_globally() {
        // Two local clusters of one site whose representatives are close
        // merge in the global model (the Section 7 example).
        let m = model(0, vec![(0.0, 0.0, 1.8, 0), (1.5, 0.0, 1.8, 1)]);
        let params =
            crate::params::DbdcParams::new(1.0, 4).with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
        let g = build_global_model(&[m], &params);
        assert_eq!(g.n_clusters, 1);
        assert_eq!(g.global_of(0, 0), g.global_of(0, 1));
    }
}
