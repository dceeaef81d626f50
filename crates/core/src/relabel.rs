//! Relabeling of the local clustering from the global model (Section 7).
//!
//! After the server broadcasts the global model, every site independently
//! relabels its objects:
//!
//! * if a local object `o` lies within the ε_r-range of a global
//!   representative `r`, `o` joins `r`'s global cluster (the nearest
//!   qualifying representative wins when several cover `o`);
//! * this both merges formerly independent local clusters (their
//!   representatives share a global id) and upgrades local noise that a
//!   remote representative covers (objects `A`, `B` of the paper's
//!   Figure 5);
//! * objects covered by no representative remain noise (object `C`).
//!
//! Locally clustered objects are guaranteed covered by a representative of
//! their own cluster (the ε-range constructions of Section 5 ensure it; see
//! the coverage tests in `local_model`), but a defensive fallback assigns
//! stragglers — e.g. under float round-off — to the global cluster of their
//! local cluster's first representative.
//!
//! The representatives sit in a [`GridIndex`] with cells as wide as the
//! largest ε-range, so an object's candidates lie in the cells around it.
//! Each occupied cell is tagged once per call with its one global cluster,
//! or as mixed. When every cell around an object carries the same cluster
//! `G`, the nearest covering representative is in `G` whichever one it is,
//! so the scan stops at the first covering representative; elsewhere it
//! finds the nearest one, scanning the cells in the grid's query order and
//! keeping the first of equally near representatives.

use crate::global_model::GlobalModel;
use dbdc_geom::metric::BATCH_LANES;
use dbdc_geom::{Clustering, Dataset, Euclidean, Label, Metric};
use dbdc_index::{GridCell, GridIndex};
use dbdc_obs::Counter;

/// Relabels one site's objects against the global model.
///
/// `local` is the site's own DBSCAN clustering (used for the fallback and
/// for noise identification); the result assigns each of the site's points
/// a **global** cluster id or noise.
pub fn relabel_site(site_data: &Dataset, local: &Clustering, global: &GlobalModel) -> Clustering {
    relabel_site_observed(site_data, local, global, None)
}

/// [`relabel_site`] with an optional [`dbdc_obs::CounterSheet`] recording
/// the work against the representative grid: one range query per object,
/// the surrogate distances computed, and the occupied cells probed.
pub fn relabel_site_observed(
    site_data: &Dataset,
    local: &Clustering,
    global: &GlobalModel,
    sheet: Option<&std::sync::Arc<dbdc_obs::CounterSheet>>,
) -> Clustering {
    assert_eq!(
        site_data.len(),
        local.len(),
        "local clustering must cover the site's data"
    );
    if global.reps.is_empty() || site_data.is_empty() {
        return Clustering::all_noise(site_data.len());
    }

    // Grid over the representative points with cells as wide as the
    // largest ε-range: every representative within that range of an
    // object is a candidate, then filtered by its own range.
    let mut rep_points = Dataset::new(global.dim);
    for r in &global.reps {
        rep_points.push(r.point.coords());
    }
    let max_range = global
        .reps
        .iter()
        .map(|r| r.eps_range)
        .fold(0.0f64, f64::max);
    let grid = GridIndex::new(&rep_points, Euclidean, max_range.max(f64::MIN_POSITIVE));
    let bound = Euclidean.to_surrogate(max_range);
    // Per cell: its one global cluster, or `None` when it mixes several.
    let tags: Vec<Option<u32>> = grid
        .cells()
        .map(|c| {
            let g = global.reps[c.ids[0] as usize].global_cluster;
            c.ids
                .iter()
                .all(|&i| global.reps[i as usize].global_cluster == g)
                .then_some(g)
        })
        .collect();

    let mut labels = Vec::with_capacity(site_data.len());
    let mut cells: Vec<GridCell<'_>> = Vec::new();
    let mut surrogates = [0.0f64; BATCH_LANES];
    let (mut evals, mut probed) = (0u64, 0u64);
    for (i, p) in site_data.iter().enumerate() {
        cells.clear();
        probed += grid.visit_cells(p, max_range, |c| cells.push(c));
        // When every cell around the object holds the same one cluster,
        // any covering representative is in the nearest one's cluster.
        let first = cells.first().and_then(|c| tags[c.rank]);
        let single = first.is_some() && cells.iter().all(|c| tags[c.rank] == first);
        let mut best: Option<(f64, u32)> = None;
        'scan: for c in &cells {
            let n = c.ids.len();
            let mut k0 = 0;
            // One kernel lane width at a time, so stopping at the first
            // covering representative computes at most a lane past it.
            while k0 < n {
                let m = BATCH_LANES.min(n - k0);
                Euclidean.surrogate_batch(p, &c.cols[k0..], n, m, &mut surrogates[..m]);
                evals += m as u64;
                for (k, &s) in surrogates[..m].iter().enumerate() {
                    if s > bound {
                        continue;
                    }
                    let rep = &global.reps[c.ids[k0 + k] as usize];
                    let d = s.sqrt();
                    if d <= rep.eps_range && best.map_or(true, |(bd, _)| d < bd) {
                        best = Some((d, rep.global_cluster));
                        if single {
                            break 'scan;
                        }
                    }
                }
                k0 += m;
            }
        }
        let label = match best {
            Some((_, g)) => Label::Cluster(g),
            None => match local.label(i as u32) {
                Label::Noise => Label::Noise,
                Label::Cluster(lc) => {
                    // Defensive fallback: first representative of the local
                    // cluster.
                    global
                        .reps
                        .iter()
                        .find(|r| r.local_cluster == lc)
                        .map(|r| Label::Cluster(r.global_cluster))
                        .unwrap_or(Label::Noise)
                }
            },
        };
        labels.push(label);
    }
    if let Some(s) = sheet {
        s.add_to(Counter::range_queries, site_data.len() as u64);
        s.add_to(Counter::distance_evals, evals);
        s.add_to(Counter::node_visits, probed);
    }
    // NOTE: ids are global cluster ids shared across sites; do not densify
    // here or sites would disagree. Densification happens when the runtime
    // assembles the full assignment.
    Clustering::from_labels_verbatim(labels, global.n_clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_model::GlobalRep;
    use dbdc_geom::Point;

    fn global(reps: Vec<(f64, f64, f64, u32)>) -> GlobalModel {
        let n = reps.iter().map(|r| r.3 + 1).max().unwrap_or(0);
        GlobalModel {
            dim: 2,
            reps: reps
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, eps, g))| GlobalRep {
                    point: Point::xy(x, y),
                    eps_range: eps,
                    site: 0,
                    local_cluster: i as u32,
                    global_cluster: g,
                })
                .collect(),
            n_clusters: n,
            eps_global: 2.0,
        }
    }

    #[test]
    fn figure_5_scenario() {
        // R1, R2 are local representatives of two local clusters; R3 comes
        // from another site. All three belong to global cluster 0. Objects
        // A, B were local noise inside R3's range; C stays outside.
        let mut d = Dataset::new(2);
        d.push(&[0.0, 0.0]); // in R1's range (local cluster 0)
        d.push(&[3.0, 0.0]); // in R2's range (local cluster 1)
        d.push(&[6.2, 0.0]); // A: local noise, in R3's range
        d.push(&[6.8, 0.0]); // B: local noise, in R3's range
        d.push(&[20.0, 0.0]); // C: local noise, outside everything
        let local = Clustering::from_labels(vec![
            Label::Cluster(0),
            Label::Cluster(1),
            Label::Noise,
            Label::Noise,
            Label::Noise,
        ]);
        let g = global(vec![
            (0.0, 0.0, 1.5, 0), // R1
            (3.0, 0.0, 1.5, 0), // R2
            (6.5, 0.0, 1.5, 0), // R3 (from another site)
        ]);
        let relabeled = relabel_site(&d, &local, &g);
        assert_eq!(relabeled.label(0), Label::Cluster(0));
        assert_eq!(relabeled.label(1), Label::Cluster(0));
        assert_eq!(
            relabeled.label(2),
            Label::Cluster(0),
            "A joins the global cluster"
        );
        assert_eq!(
            relabeled.label(3),
            Label::Cluster(0),
            "B joins the global cluster"
        );
        assert_eq!(relabeled.label(4), Label::Noise, "C stays noise");
    }

    #[test]
    fn merges_two_local_clusters() {
        let mut d = Dataset::new(2);
        d.push(&[0.0, 0.0]);
        d.push(&[2.0, 0.0]);
        let local = Clustering::from_labels(vec![Label::Cluster(0), Label::Cluster(1)]);
        // Both representatives map to the same global cluster.
        let g = global(vec![(0.0, 0.0, 1.0, 0), (2.0, 0.0, 1.0, 0)]);
        let r = relabel_site(&d, &local, &g);
        assert_eq!(r.label(0), r.label(1));
    }

    #[test]
    fn nearest_covering_representative_wins() {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 0.0]);
        let local = Clustering::from_labels(vec![Label::Cluster(0)]);
        // Two overlapping representatives from different global clusters;
        // the nearer one (at x=1.4) wins.
        let g = global(vec![(0.0, 0.0, 2.0, 0), (1.4, 0.0, 2.0, 1)]);
        let r = relabel_site(&d, &local, &g);
        assert_eq!(r.label(0), Label::Cluster(1));
    }

    #[test]
    fn fallback_assigns_uncovered_cluster_member() {
        let mut d = Dataset::new(2);
        d.push(&[10.0, 10.0]); // outside every ε-range
        let local = Clustering::from_labels(vec![Label::Cluster(0)]);
        let g = global(vec![(0.0, 0.0, 1.0, 3)]);
        // local_cluster of that rep is 0 (enumerate index) -> fallback hits;
        // relabel_site keeps global ids verbatim.
        let r = relabel_site(&d, &local, &g);
        assert_eq!(r.label(0), Label::Cluster(3));
    }

    #[test]
    fn empty_global_model_keeps_everything_noise() {
        let mut d = Dataset::new(2);
        d.push(&[0.0, 0.0]);
        let local = Clustering::from_labels(vec![Label::Cluster(0)]);
        let g = GlobalModel {
            dim: 2,
            reps: vec![],
            n_clusters: 0,
            eps_global: 2.0,
        };
        let r = relabel_site(&d, &local, &g);
        assert!(r.label(0).is_noise());
    }

    #[test]
    fn boundary_inclusion_is_closed() {
        let mut d = Dataset::new(2);
        d.push(&[1.5, 0.0]); // exactly on the ε-range boundary
        let local = Clustering::from_labels(vec![Label::Noise]);
        let g = global(vec![(0.0, 0.0, 1.5, 0)]);
        let r = relabel_site(&d, &local, &g);
        assert_eq!(r.label(0), Label::Cluster(0));
    }
}
