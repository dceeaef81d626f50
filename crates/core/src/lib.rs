//! **DBDC — Density Based Distributed Clustering** (Januzaj, Kriegel,
//! Pfeifle; EDBT 2004), reproduced in Rust.
//!
//! DBDC clusters horizontally distributed data without centralizing it:
//!
//! 1. every client site clusters its own data with DBSCAN
//!    ([`dbdc_cluster::dbscan()`]), enhanced to extract *specific core points*
//!    on the fly ([`dbdc_cluster::scp`]);
//! 2. each site condenses its clusters into a [`local_model`] — a set of
//!    representatives `(r, ε_r)`, built either as `REP_Scor` (the specific
//!    core points themselves) or `REP_kMeans` (k-means-refined centroids);
//! 3. the server clusters all representatives with DBSCAN
//!    (`MinPts_global = 2`, `Eps_global ≈ 2·Eps_local`) into a
//!    [`global_model`];
//! 4. the global model is broadcast and every site [`relabel`]s its objects,
//!    merging local clusters and upgrading covered noise.
//!
//! [`step`] holds one site's half of the protocol and the server's step,
//! shared by every execution path; [`runtime`] orchestrates the whole
//! protocol over them (sequentially, matching the paper's cost model, or
//! threaded); [`quality`] implements the paper's
//! `P^I`/`P^II` object quality functions and `Q_DBDC`; [`wire`] gives the
//! models an exact byte cost; [`partition`] distributes datasets onto sites;
//! [`network`] converts bytes into simulated transfer times.
//!
//! # Quickstart
//!
//! ```
//! use dbdc::{DbdcParams, EpsGlobal, Partitioner, run_dbdc, central_dbscan};
//! use dbdc::quality::{q_dbdc, ObjectQuality};
//!
//! let generated = dbdc_datagen::dataset_c(42);
//! let params = DbdcParams::new(1.6, 5)
//!     .with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
//!
//! // Distributed clustering over 4 simulated sites.
//! let outcome = run_dbdc(&generated.data, &params,
//!                        Partitioner::RandomEqual { seed: 7 }, 4);
//!
//! // Compare against the central reference.
//! let (central, _) = central_dbscan(&generated.data, &params);
//! let report = q_dbdc(&outcome.assignment, &central.clustering,
//!                     ObjectQuality::PII);
//! assert!(report.q > 0.9);
//! ```

pub mod catalog;
pub mod global_model;
pub mod local_model;
pub mod network;
pub mod observe;
pub mod params;
pub mod partition;
pub mod pdbscan;
pub mod quality;
pub mod rachet;
pub mod relabel;
pub mod runtime;
pub mod step;
pub mod streaming;
pub mod wire;

pub use catalog::{Federation, SiteCatalog};
pub use global_model::{build_global_model, build_global_model_observed, GlobalModel, GlobalRep};
pub use local_model::{build_local_model, LocalModel, Representative};
pub use network::{NetworkConfigError, NetworkModel};
pub use observe::dbdc_run_report;
pub use params::{DbdcParams, EpsGlobal, LocalModelKind};
pub use partition::Partitioner;
pub use pdbscan::{run_pdbscan, PdbscanOutcome};
pub use quality::{cluster_report, q_dbdc, ClusterMatch, ObjectQuality, QualityReport};
pub use rachet::{run_rachet, ClusterSummary, RachetOutcome};
pub use relabel::{relabel_site, relabel_site_observed};
pub use runtime::{
    central_dbscan, central_dbscan_recorded, run_dbdc, run_dbdc_recorded, run_dbdc_threaded,
    run_dbdc_threaded_recorded, DbdcOutcome, PhaseThreads, Timings,
};
pub use step::{local_phase, relabel_phase, server_phase, LocalPhase, LocalTimes, ServerPhase};
pub use streaming::{ClientSession, ServerSession};
