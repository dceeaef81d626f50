//! Clustering algorithms for the DBDC reproduction.
//!
//! * [`mod@dbscan`] — DBSCAN \[Ester et al. 96\], the paper's local and global
//!   clustering algorithm, with per-point core flags.
//! * [`scp`] — the paper's "slightly enhanced DBSCAN" that extracts
//!   *specific core points* and their specific ε-ranges on the fly
//!   (Definitions 6 and 7), the substrate of both local models.
//! * [`kmeans`] — seeded Lloyd's algorithm (for the `REP_kMeans` local
//!   model, Section 5.2) and a k-means++ baseline.
//! * [`mod@optics`] — OPTICS \[Ankerst et al. 99\], the alternative global-model
//!   builder discussed in Section 6.
//! * [`incremental`] — incremental DBSCAN \[Ester et al. 98\], the paper's
//!   cited mechanism for keeping local models fresh without re-clustering.
//! * [`singlelink`] — single-link agglomerative clustering, the rejected
//!   alternative of Section 4, for comparisons.
//! * [`mod@metric_dbscan`] — DBSCAN over arbitrary metric spaces via the
//!   M-tree, demonstrating the "not confined to vector spaces" claim.
//! * [`mod@par_dbscan`] — deterministic parallel DBSCAN: concurrent
//!   ε-range queries on a scoped worker pool, core merging through a
//!   [`union_find::UnionFind`], output bit-identical to [`dbscan::dbscan`].
//! * [`mod@partitioned`] — partitioned local DBSCAN: spatial stripes
//!   with ε-halos, a private index per partition, per-partition workers,
//!   labels identical to [`dbscan::dbscan`] at every partition count.
//! * [`count_claim`] — the grid count-and-claim kernel the partitioned
//!   layer runs in low dimensions: core flags decided on grid cells,
//!   expansions that scan only each cell's open members.
//! * [`exec`] — the one dispatch that picks sequential, parallel or
//!   partitioned DBSCAN from an [`Execution`]'s settings.
//! * [`mod@dbcv`] — the DBCV relative validity index \[Moulavi et al. 14\],
//!   the ground-truth-free quality signal for unlabeled workloads.

pub mod count_claim;
pub mod dbcv;
pub mod dbscan;
pub mod exec;
pub mod incremental;
pub mod kdist;
pub mod kmeans;
pub mod metric_dbscan;
pub mod optics;
pub mod par_dbscan;
pub mod partitioned;
pub mod scp;
pub mod singlelink;
pub mod union_find;

pub use dbcv::{dbcv, dbcv_with, CorePath, DbcvOutcome};
pub use dbscan::{dbscan, dbscan_euclidean, DbscanParams, DbscanResult};
pub use exec::{ExecTimes, Execution};
pub use incremental::IncrementalDbscan;
pub use kdist::{k_distance, KDistance};
pub use kmeans::{kmeans_pp, kmeans_seeded, KMeansParams, KMeansResult};
pub use metric_dbscan::{metric_dbscan, MetricDbscanResult};
pub use optics::{extract_dbscan, optics, OpticsResult};
pub use par_dbscan::{
    effective_threads, par_dbscan, par_dbscan_observed, par_dbscan_with_scp, parallel_neighborhoods,
};
pub use partitioned::{
    effective_partitions, partitioned_dbscan, partitioned_dbscan_with_scp_observed, PartitionStats,
};
pub use scp::{dbscan_with_scp, ScpResult, SpecificCorePoint};
pub use singlelink::{single_link, Dendrogram, Merge};
pub use union_find::UnionFind;
