//! Post-clustering site catalog (the payoff of Section 7).
//!
//! "These updated local client clusterings help the clients to answer
//! server questions efficiently, e.g. questions such as 'give me all
//! objects on your site which belong to the global cluster 4711'." This
//! module implements exactly that: a per-site inverted index from global
//! cluster ids to local object ids, plus a federation helper that fans a
//! query out over all sites and tallies per-site cluster statistics.

use dbdc_geom::{Clustering, Dataset, Label};
use std::collections::HashMap;

/// A site's queryable view of its relabeled data.
#[derive(Debug, Clone)]
pub struct SiteCatalog {
    site: u32,
    /// Global cluster id -> local point ids.
    by_cluster: HashMap<u32, Vec<u32>>,
    n_points: usize,
    n_noise: usize,
}

impl SiteCatalog {
    /// Builds the catalog from a site's relabeled clustering (global ids,
    /// as produced by [`crate::relabel_site`]).
    pub fn new(site: u32, relabeled: &Clustering) -> Self {
        let mut by_cluster: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut n_noise = 0;
        for (i, l) in relabeled.labels().iter().enumerate() {
            match l {
                Label::Cluster(c) => by_cluster.entry(*c).or_default().push(i as u32),
                Label::Noise => n_noise += 1,
            }
        }
        Self {
            site,
            by_cluster,
            n_points: relabeled.len(),
            n_noise,
        }
    }

    /// The site id.
    pub fn site(&self) -> u32 {
        self.site
    }

    /// Number of points on the site.
    pub fn len(&self) -> usize {
        self.n_points
    }

    /// Whether the site holds no points.
    pub fn is_empty(&self) -> bool {
        self.n_points == 0
    }

    /// Local noise count.
    pub fn n_noise(&self) -> usize {
        self.n_noise
    }

    /// The global cluster ids present on this site.
    pub fn clusters(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.by_cluster.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// "Give me all objects on your site which belong to the global
    /// cluster `c`" — the paper's example query. Returns local point ids.
    pub fn members_of(&self, c: u32) -> &[u32] {
        self.by_cluster.get(&c).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of the site's objects in global cluster `c`.
    pub fn count_of(&self, c: u32) -> usize {
        self.members_of(c).len()
    }
}

/// The federation of all site catalogs — what the server can ask without
/// ever seeing raw data beyond the query results it explicitly requests.
#[derive(Debug, Clone, Default)]
pub struct Federation {
    sites: Vec<SiteCatalog>,
}

impl Federation {
    /// Builds the federation from per-site relabeled clusterings.
    pub fn new(site_clusterings: &[Clustering]) -> Self {
        Self {
            sites: site_clusterings
                .iter()
                .enumerate()
                .map(|(s, c)| SiteCatalog::new(s as u32, c))
                .collect(),
        }
    }

    /// Per-site member counts for global cluster `c`:
    /// `(site, count)` for every site holding members.
    pub fn cluster_distribution(&self, c: u32) -> Vec<(u32, usize)> {
        self.sites
            .iter()
            .filter(|s| s.count_of(c) > 0)
            .map(|s| (s.site(), s.count_of(c)))
            .collect()
    }

    /// Total size of global cluster `c` across all sites.
    pub fn cluster_size(&self, c: u32) -> usize {
        self.sites.iter().map(|s| s.count_of(c)).sum()
    }

    /// All global clusters present anywhere, sorted.
    pub fn clusters(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.sites.iter().flat_map(|s| s.clusters()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Fetches the actual objects of cluster `c` from every site — the only
    /// operation that moves raw data, and it moves exactly the requested
    /// cluster. `site_data[s]` must be site `s`'s dataset.
    pub fn fetch_cluster(&self, c: u32, site_data: &[Dataset]) -> Dataset {
        assert_eq!(site_data.len(), self.sites.len(), "one dataset per site");
        let dim = site_data
            .iter()
            .find(|d| !d.is_empty())
            .map(|d| d.dim())
            .unwrap_or(2);
        let mut out = Dataset::new(dim);
        for (catalog, data) in self.sites.iter().zip(site_data) {
            for &id in catalog.members_of(c) {
                out.push(data.point(id));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{DbdcParams, EpsGlobal};
    use crate::partition::Partitioner;
    use crate::runtime::central_dbscan;
    use crate::step::{local_phase, relabel_phase, server_phase};
    use dbdc_obs::NoopRecorder;

    fn labels(v: &[i64]) -> Clustering {
        Clustering::from_labels_verbatim(
            v.iter()
                .map(|&i| {
                    if i < 0 {
                        Label::Noise
                    } else {
                        Label::Cluster(i as u32)
                    }
                })
                .collect(),
            10,
        )
    }

    #[test]
    fn site_catalog_answers_the_papers_query() {
        let c = labels(&[4, 4, -1, 7, 4]);
        let cat = SiteCatalog::new(3, &c);
        assert_eq!(cat.site(), 3);
        assert_eq!(cat.members_of(4), &[0, 1, 4]);
        assert_eq!(cat.members_of(7), &[3]);
        assert!(cat.members_of(9).is_empty());
        assert_eq!(cat.n_noise(), 1);
        assert_eq!(cat.clusters(), vec![4, 7]);
        assert_eq!(cat.count_of(4), 3);
        assert_eq!(cat.len(), 5);
    }

    #[test]
    fn federation_aggregates_across_sites() {
        let fed = Federation::new(&[labels(&[0, 0, 1]), labels(&[1, 1, -1]), labels(&[0, 2, 2])]);
        assert_eq!(fed.clusters(), vec![0, 1, 2]);
        assert_eq!(fed.cluster_size(0), 3);
        assert_eq!(fed.cluster_size(1), 3);
        assert_eq!(fed.cluster_distribution(0), vec![(0, 2), (2, 1)]);
        assert_eq!(fed.cluster_distribution(1), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn fetch_cluster_moves_only_the_requested_points() {
        let site0 = Dataset::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]);
        let site1 = Dataset::from_flat(2, vec![2.0, 2.0]);
        let fed = Federation::new(&[labels(&[5, -1]), labels(&[5])]);
        let fetched = fed.fetch_cluster(5, &[site0, site1]);
        assert_eq!(fetched.len(), 2);
        assert_eq!(fetched.point(0), &[0.0, 0.0]);
        assert_eq!(fetched.point(1), &[2.0, 2.0]);
    }

    #[test]
    fn end_to_end_federation_counts_match_assignment() {
        // Run the protocol step by step so the per-site relabelings
        // (with shared global ids) are available, then check the
        // federation's totals against the assembled assignment.
        let g = dbdc_datagen::dataset_c(31);
        let params = DbdcParams::new(g.suggested_eps, g.suggested_min_pts)
            .with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
        let sites = 3;
        let assignment = Partitioner::RandomEqual { seed: 31 }.assign(&g.data, sites);
        let (parts, _) = g.data.partition(sites, &assignment);
        let locals: Vec<_> = (0..sites as u32)
            .zip(&parts)
            .map(|(site, part)| local_phase(site, part, &params, &NoopRecorder))
            .collect();
        let uploads: Vec<&[u8]> = locals.iter().map(|l| l.encoded.as_ref()).collect();
        let server = server_phase(&uploads, &params, None).expect("uploads decode");
        let relabeled: Vec<Clustering> = (0..sites as u32)
            .zip(parts.iter().zip(&locals))
            .map(|(site, (part, local))| {
                let clustering = &local.scp.dbscan.clustering;
                relabel_phase(site, part, clustering, &server.encoded, &NoopRecorder)
                    .expect("broadcast decodes")
                    .1
            })
            .collect();
        let fed = Federation::new(&relabeled);
        // Every global cluster's federated size equals its total membership.
        let total: usize = fed.clusters().iter().map(|&c| fed.cluster_size(c)).sum();
        let noise: usize = relabeled.iter().map(|c| c.n_noise()).sum();
        assert_eq!(total + noise, g.data.len());
        // And the central run agrees on the big picture.
        let (central, _) = central_dbscan(&g.data, &params);
        assert_eq!(
            fed.clusters().len(),
            central.clustering.n_clusters() as usize
        );
    }
}
