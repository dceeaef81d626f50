//! DBDC configuration.

use dbdc_cluster::Execution;
use dbdc_index::{IndexKind, Precision};

/// Which local model the client sites build (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LocalModelKind {
    /// `REP_Scor` (Section 5.1): the specific core points themselves, with
    /// their specific ε-ranges.
    #[default]
    Scor,
    /// `REP_kMeans` (Section 5.2): per cluster, k-means centroids seeded by
    /// the specific core points, with max-assigned-distance ε-ranges.
    KMeans,
}

impl LocalModelKind {
    /// Short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            LocalModelKind::Scor => "REP_Scor",
            LocalModelKind::KMeans => "REP_kMeans",
        }
    }
}

/// How the server chooses `Eps_global` (Section 6).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EpsGlobal {
    /// The paper's proposed default: the maximum ε-range over all local
    /// representatives ("generally close to 2·Eps_local").
    #[default]
    MaxEpsRange,
    /// A user-tuned multiple of `Eps_local` (the paper's experiments sweep
    /// this; 2.0 is the recommended setting).
    MultipleOfLocal(f64),
    /// An absolute radius.
    Absolute(f64),
}

/// Full DBDC parameter set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbdcParams {
    /// `Eps` for the local DBSCAN runs.
    pub eps_local: f64,
    /// `MinPts` for the local DBSCAN runs.
    pub min_pts_local: usize,
    /// Server-side ε policy.
    pub eps_global: EpsGlobal,
    /// `MinPts_global`. The paper fixes this to 2: every representative
    /// stands for a whole ε-neighborhood, so two density-connected
    /// representatives suffice to merge their clusters.
    pub min_pts_global: usize,
    /// Which local model to build.
    pub model: LocalModelKind,
    /// Spatial index backend for the local DBSCAN runs and the server's
    /// global DBSCAN over the representatives (which always runs at f64
    /// on one build thread).
    pub index: IndexKind,
    /// Worker threads for each DBSCAN run (local phases and the central
    /// baseline). `1` runs the classic sequential algorithm; any other
    /// value uses the deterministic parallel execution layer
    /// ([`mod@dbdc_cluster::par_dbscan`]), with `0` meaning "all available
    /// cores". The clustering result is identical for every setting.
    pub threads: usize,
    /// Spatial partitions for each site's local phase. `1` (the
    /// default) clusters through one index over the site's whole shard;
    /// any other value stripes the shard along its widest-spread axis
    /// with ε-halos and runs one private index per partition
    /// ([`mod@dbdc_cluster::partitioned`]), with `0` meaning "one
    /// partition per worker thread". Labels are identical for every
    /// setting.
    pub partitions: usize,
    /// Always [`Precision::F64`]; nothing reads it.
    pub precision: Precision,
}

impl DbdcParams {
    /// Creates a parameter set with the paper's defaults for everything but
    /// the local DBSCAN parameters.
    ///
    /// # Panics
    /// Panics if `eps_local` is not positive and finite or
    /// `min_pts_local == 0`.
    pub fn new(eps_local: f64, min_pts_local: usize) -> Self {
        assert!(
            eps_local.is_finite() && eps_local > 0.0,
            "eps_local must be positive and finite"
        );
        assert!(min_pts_local > 0, "min_pts_local must be at least 1");
        Self {
            eps_local,
            min_pts_local,
            eps_global: EpsGlobal::default(),
            min_pts_global: 2,
            model: LocalModelKind::default(),
            index: IndexKind::default(),
            threads: 1,
            partitions: 1,
            precision: Precision::F64,
        }
    }

    /// Selects the DBSCAN worker-thread count (builder style); see
    /// [`DbdcParams::threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Selects the local-phase partition count (builder style); see
    /// [`DbdcParams::partitions`].
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Selects the local model kind (builder style).
    pub fn with_model(mut self, model: LocalModelKind) -> Self {
        self.model = model;
        self
    }

    /// Selects the `Eps_global` policy (builder style).
    pub fn with_eps_global(mut self, eps_global: EpsGlobal) -> Self {
        self.eps_global = eps_global;
        self
    }

    /// How each local DBSCAN run executes: [`DbdcParams::index`],
    /// [`DbdcParams::threads`] and [`DbdcParams::partitions`].
    pub fn execution(&self) -> Execution {
        Execution {
            index: self.index,
            threads: self.threads,
            partitions: self.partitions,
        }
    }

    /// Selects the index backend (builder style).
    pub fn with_index(mut self, index: IndexKind) -> Self {
        self.index = index;
        self
    }

    /// Resolves the ε the server will cluster the representatives with,
    /// given the ε-ranges of all collected representatives.
    pub fn resolve_eps_global<'a>(&self, rep_ranges: impl Iterator<Item = &'a f64>) -> f64 {
        match self.eps_global {
            EpsGlobal::MaxEpsRange => rep_ranges
                .copied()
                .fold(0.0f64, f64::max)
                .max(self.eps_local),
            EpsGlobal::MultipleOfLocal(m) => {
                assert!(m.is_finite() && m > 0.0, "multiplier must be positive");
                m * self.eps_local
            }
            EpsGlobal::Absolute(e) => {
                assert!(e.is_finite() && e > 0.0, "absolute eps must be positive");
                e
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = DbdcParams::new(1.5, 4);
        assert_eq!(p.min_pts_global, 2);
        assert_eq!(p.model, LocalModelKind::Scor);
        assert_eq!(p.eps_global, EpsGlobal::MaxEpsRange);
    }

    #[test]
    fn resolve_max_eps_range() {
        let p = DbdcParams::new(1.0, 4);
        let ranges = [1.2, 1.9, 1.4];
        assert_eq!(p.resolve_eps_global(ranges.iter()), 1.9);
        // With no representatives fall back to eps_local.
        assert_eq!(p.resolve_eps_global([].iter()), 1.0);
    }

    #[test]
    fn resolve_multiplier_and_absolute() {
        let p = DbdcParams::new(1.5, 4).with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
        assert_eq!(p.resolve_eps_global([9.0].iter()), 3.0);
        let p = p.with_eps_global(EpsGlobal::Absolute(0.7));
        assert_eq!(p.resolve_eps_global([9.0].iter()), 0.7);
    }

    #[test]
    fn builder_style() {
        let p = DbdcParams::new(1.0, 3)
            .with_model(LocalModelKind::KMeans)
            .with_index(dbdc_index::IndexKind::Grid)
            .with_threads(4);
        assert_eq!(p.model, LocalModelKind::KMeans);
        assert_eq!(p.index, dbdc_index::IndexKind::Grid);
        assert_eq!(p.model.name(), "REP_kMeans");
        assert_eq!(p.threads, 4);
    }

    #[test]
    fn threads_default_to_sequential() {
        let p = DbdcParams::new(1.0, 3);
        assert_eq!(p.threads, 1);
        assert_eq!(p.partitions, 1);
        assert_eq!(p.precision, Precision::F64);
        let p = p.with_partitions(4);
        assert_eq!(p.partitions, 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_eps() {
        let _ = DbdcParams::new(-1.0, 3);
    }

    #[test]
    #[should_panic(expected = "multiplier must be positive")]
    fn rejects_bad_multiplier() {
        let p = DbdcParams::new(1.0, 3).with_eps_global(EpsGlobal::MultipleOfLocal(0.0));
        let _ = p.resolve_eps_global([].iter());
    }
}
