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
//! largest ε-range, so an object's candidates lie in the occupied cells of
//! its query box ([`GridIndex::query_box`]). Objects far outnumber boxes,
//! so each distinct box is looked up once per call, in a table keyed by
//! the box: its occupied cells, and whether they all carry one global
//! cluster `G`. In such a one-cluster box the nearest covering
//! representative is in `G` whichever one it is, so the scan starts in
//! the object's own cell, where a covering representative most likely
//! is, and stops at the first covering one; elsewhere it finds the
//! nearest one, scanning the cells in the grid's query order and keeping
//! the first of equally near representatives.
//!
//! The work counters: one range query per object; as node visits, the
//! occupied cells looked up, once per distinct box; as distance
//! evaluations, the surrogate distances computed.

use crate::global_model::{GlobalModel, GlobalRep};
use dbdc_geom::metric::BATCH_LANES;
use dbdc_geom::{Clustering, Dataset, Euclidean, Label, Metric};
use dbdc_index::grid::CellMap;
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
/// the surrogate distances computed, and the occupied cells looked up
/// once per distinct query box.
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
    let cells: Vec<GridCell<'_>> = grid.cells().collect();
    // Per cell: its one global cluster, or `None` when it mixes several.
    let tags: Vec<Option<u32>> = cells
        .iter()
        .map(|c| {
            let g = global.reps[c.ids[0] as usize].global_cluster;
            c.ids
                .iter()
                .all(|&i| global.reps[i as usize].global_cluster == g)
                .then_some(g)
        })
        .collect();

    let mut scan = Scan {
        reps: &global.reps,
        bound: Euclidean.to_surrogate(max_range),
        evals: 0,
    };
    // Each distinct query box's occupied cells, as a span of `ranks`.
    let mut boxes: CellMap<BoxCells> = CellMap::default();
    let mut ranks: Vec<u32> = Vec::new();
    let mut key = vec![0i64; 2 * global.dim];
    let mut own = vec![0i64; global.dim];
    let mut probed = 0u64;
    let mut labels = Vec::with_capacity(site_data.len());
    for (i, p) in site_data.iter().enumerate() {
        grid.query_box(p, max_range, &mut key);
        let b = match boxes.get(&key[..]) {
            Some(&b) => b,
            None => {
                let start = ranks.len();
                probed += grid.visit_cells(p, max_range, |c| ranks.push(c.rank as u32));
                let found = &ranks[start..];
                let first = found.first().and_then(|&r| tags[r as usize]);
                let b = BoxCells {
                    start,
                    end: ranks.len(),
                    single: first.is_some() && found.iter().all(|&r| tags[r as usize] == first),
                };
                boxes.insert(key.as_slice().into(), b);
                b
            }
        };
        let in_box = &ranks[b.start..b.end];
        let mut best = None;
        if b.single {
            // Any covering representative gives the box's one cluster:
            // own cell first, then the rest in query order.
            grid.cell_key(p, &mut own);
            let own_at = in_box
                .iter()
                .position(|&r| cells[r as usize].key == own.as_slice());
            let rest = (0..in_box.len()).filter(|&k| Some(k) != own_at);
            for k in own_at.into_iter().chain(rest) {
                if scan.cell(p, &cells[in_box[k] as usize], true, &mut best) {
                    break;
                }
            }
        } else {
            for &r in in_box {
                scan.cell(p, &cells[r as usize], false, &mut best);
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
        s.add_to(Counter::distance_evals, scan.evals);
        s.add_to(Counter::node_visits, probed);
    }
    // NOTE: ids are global cluster ids shared across sites; do not densify
    // here or sites would disagree. Densification happens when the runtime
    // assembles the full assignment.
    Clustering::from_labels_verbatim(labels, global.n_clusters)
}

/// One query box's occupied cells, `ranks[start..end]` in the grid's query
/// order, and whether they all carry the same one global cluster.
#[derive(Debug, Clone, Copy)]
struct BoxCells {
    start: usize,
    end: usize,
    single: bool,
}

/// Scans cells for the representatives covering an object, counting the
/// surrogate distances it computes.
struct Scan<'a> {
    reps: &'a [GlobalRep],
    /// The largest ε-range in surrogate units.
    bound: f64,
    evals: u64,
}

impl Scan<'_> {
    /// Keeps in `best` the nearest representative of `c` covering `p`
    /// that is strictly nearer than `best` already is, with its global
    /// cluster, so the first of equally near ones stays. With `first_hit`
    /// it returns `true` at the first covering one; the kernel runs one
    /// lane width at a time, so it computes at most a lane past it.
    fn cell(
        &mut self,
        p: &[f64],
        c: &GridCell<'_>,
        first_hit: bool,
        best: &mut Option<(f64, u32)>,
    ) -> bool {
        let n = c.ids.len();
        let mut surrogates = [0.0f64; BATCH_LANES];
        let mut k0 = 0;
        while k0 < n {
            let m = BATCH_LANES.min(n - k0);
            Euclidean.surrogate_batch(p, &c.cols[k0..], n, m, &mut surrogates[..m]);
            self.evals += m as u64;
            for (k, &s) in surrogates[..m].iter().enumerate() {
                if s > self.bound {
                    continue;
                }
                let rep = &self.reps[c.ids[k0 + k] as usize];
                let d = s.sqrt();
                if d <= rep.eps_range && best.map_or(true, |(bd, _)| d < bd) {
                    *best = Some((d, rep.global_cluster));
                    if first_hit {
                        return true;
                    }
                }
            }
            k0 += m;
        }
        false
    }
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

    /// Relabels `d` (local noise throughout) against `g`, returning the
    /// labels and the work counters.
    fn relabel_counted(d: &Dataset, g: &GlobalModel) -> (Clustering, dbdc_obs::Counters) {
        let sheet = std::sync::Arc::new(dbdc_obs::CounterSheet::new());
        let local = Clustering::from_labels_verbatim(vec![Label::Noise; d.len()], 0);
        let r = relabel_site_observed(d, &local, g, Some(&sheet));
        (r, sheet.snapshot())
    }

    #[test]
    fn one_cluster_box_finds_a_cover_outside_the_own_cell() {
        // Cells are 1 wide. The object's own cell (0, 0) holds a
        // representative too small to cover it; the one that does sits
        // in cell (1, 0), of the same cluster.
        let mut d = Dataset::new(2);
        d.push(&[0.5, 0.5]);
        let g = global(vec![(0.1, 0.9, 0.2, 3), (1.2, 0.5, 1.0, 3)]);
        let (r, c) = relabel_counted(&d, &g);
        assert_eq!(r.label(0), Label::Cluster(3));
        assert_eq!(
            (c.range_queries, c.node_visits, c.distance_evals),
            (1, 2, 2)
        );
    }

    #[test]
    fn one_cluster_box_scans_the_own_cell_first() {
        // Cell (0, -1) comes before the own cell (0, 0) in query order
        // and holds three covering representatives, the own cell one.
        // Both objects share a query box, looked up once.
        let mut d = Dataset::new(2);
        d.push(&[0.5, 0.5]);
        d.push(&[0.55, 0.5]);
        let g = global(vec![
            (0.5, -0.1, 1.0, 0),
            (0.5, -0.2, 1.0, 0),
            (0.5, -0.3, 1.0, 0),
            (0.6, 0.5, 1.0, 0),
        ]);
        let (r, c) = relabel_counted(&d, &g);
        assert_eq!(r.labels(), &[Label::Cluster(0); 2]);
        assert_eq!(
            (c.range_queries, c.node_visits, c.distance_evals),
            (2, 2, 2)
        );
    }

    #[test]
    fn mixed_box_keeps_the_first_of_equally_near_in_query_order() {
        // Around the object at (0.25, 0.25): its own cell's representative
        // covers it at 0.99, and two of other clusters, in cells (-1, 0)
        // and (1, 0), cover it at exactly 0.75. Cell (-1, 0) comes first
        // in query order, although its representative comes last.
        let mut d = Dataset::new(2);
        d.push(&[0.25, 0.25]);
        let g = global(vec![
            (1.0, 0.25, 1.0, 1),
            (0.95, 0.95, 1.0, 2),
            (-0.5, 0.25, 1.0, 0),
        ]);
        let (r, _) = relabel_counted(&d, &g);
        assert_eq!(r.label(0), Label::Cluster(0));
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
