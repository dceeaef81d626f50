//! The protocol's steps, shared by every execution path.
//!
//! A client site's half of Section 3 is [`local_phase`] — (1) local
//! DBSCAN with specific core points, (2) extracting and encoding the
//! local model — and, once the global model is broadcast, (4)
//! [`relabel_phase`]. The server's step (3) between them is
//! [`server_phase`]. The in-process runtime ([`crate::runtime`]) and the
//! TCP fleet (`dbdc-net`) both run exactly these functions, so their
//! labels, models and message bytes agree.

use crate::global_model::{build_global_model_observed, GlobalModel};
use crate::local_model::{build_local_model, LocalModel};
use crate::params::DbdcParams;
use crate::relabel::relabel_site_observed;
use crate::wire::{self, WireError};
use bytes::Bytes;
use dbdc_cluster::{DbscanParams, ScpResult};
use dbdc_geom::{Clustering, Dataset};
use dbdc_obs::{Counter, CounterSheet, Recorder, Span};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall times of one site's local phase, by sub-phase.
#[derive(Debug, Clone, Default)]
pub struct LocalTimes {
    /// Index construction. Zero when the site ran partitioned (each
    /// partition builds its own index inside [`LocalTimes::partitions`]).
    pub build: Duration,
    /// DBSCAN over the built index(es), excluding `build`.
    pub cluster: Duration,
    /// Local model extraction.
    pub extract: Duration,
    /// Wire encoding of the local model.
    pub encode: Duration,
    /// Wall time of each spatial partition; empty when unpartitioned.
    pub partitions: Vec<Duration>,
}

impl LocalTimes {
    /// The whole local phase.
    pub fn total(&self) -> Duration {
        self.build + self.cluster + self.extract + self.encode
    }

    /// The site's `local[site]` span, run on `threads` threads:
    /// `build`, `cluster` (with one `partition[j]` child per spatial
    /// partition), `extract`, `encode`.
    pub fn to_span(&self, site: usize, threads: usize) -> Span {
        let mut cluster = Span::new("cluster", self.cluster);
        for (j, &t) in self.partitions.iter().enumerate() {
            cluster.push(Span::new(format!("partition[{j}]"), t));
        }
        let mut local = Span::new(format!("local[{site}]"), self.total()).with_threads(threads);
        local.push(Span::new("build", self.build));
        local.push(cluster);
        local.push(Span::new("extract", self.extract));
        local.push(Span::new("encode", self.encode));
        local
    }
}

/// What a site's local phase produced.
#[derive(Debug, Clone)]
pub struct LocalPhase {
    /// The site's clustering with its specific core points. It stays on
    /// the site for the relabel phase.
    pub scp: ScpResult,
    /// The encoded local model: the site's upload message.
    pub encoded: Bytes,
    /// Sub-phase wall times.
    pub times: LocalTimes,
}

/// Site `site`'s local phase over its points `data`: DBSCAN with
/// specific core points as [`DbdcParams::execution`] directs, then the
/// local model, then its wire encoding. Index work, `eps_range_ns`
/// latencies, halo replication, representatives and sent bytes land in
/// `rec`'s `local[site]` scope.
///
/// # Panics
/// Panics if the local model does not fit the wire format.
pub fn local_phase(
    site: u32,
    data: &Dataset,
    params: &DbdcParams,
    rec: &dyn Recorder,
) -> LocalPhase {
    let scope = format!("local[{site}]");
    let dbscan_params = DbscanParams::new(params.eps_local, params.min_pts_local);
    let (scp, exec) = params
        .execution()
        .dbscan_with_scp(data, &dbscan_params, rec, &scope);
    let t0 = Instant::now();
    let model = build_local_model(params.model, data, &scp, site);
    let extract = t0.elapsed();
    let encoded = wire::encode_local_model(&model).expect("local model fits the wire format");
    let encode = t0.elapsed() - extract;
    if let Some(s) = rec.sheet(&scope) {
        s.add_to(Counter::representatives, model.len() as u64);
        s.add_to(Counter::bytes_sent, encoded.len() as u64);
    }
    let times = LocalTimes {
        build: exec.build,
        cluster: exec.cluster,
        extract,
        encode,
        partitions: exec.partitions,
    };
    LocalPhase {
        scp,
        encoded,
        times,
    }
}

/// What the server's step produced.
#[derive(Debug, Clone)]
pub struct ServerPhase {
    /// Every site's decoded local model, in upload order.
    pub models: Vec<LocalModel>,
    /// The global model.
    pub global: GlobalModel,
    /// The encoded global model: the broadcast message.
    pub encoded: Bytes,
}

/// The server's step: decode the sites' uploads, cluster their
/// representatives into the global model, encode it for the broadcast.
/// The global DBSCAN's work and the representative count land in
/// `sheet`.
///
/// # Panics
/// Panics if the global model does not fit the wire format.
pub fn server_phase<U: AsRef<[u8]>>(
    uploads: &[U],
    params: &DbdcParams,
    sheet: Option<&Arc<CounterSheet>>,
) -> Result<ServerPhase, WireError> {
    let models = uploads
        .iter()
        .map(|u| wire::decode_local_model(u.as_ref()))
        .collect::<Result<Vec<LocalModel>, _>>()?;
    let global = build_global_model_observed(&models, params, sheet);
    let encoded = wire::encode_global_model(&global).expect("global model fits the wire format");
    if let Some(s) = sheet {
        s.add_to(
            Counter::representatives,
            models.iter().map(|m| m.len() as u64).sum(),
        );
    }
    Ok(ServerPhase {
        models,
        global,
        encoded,
    })
}

/// Site `site`'s relabel phase: decode the `broadcast` global model,
/// then relabel the site's points `data` from their `local` clustering.
/// The received bytes and the relabel's index work land in `rec`'s
/// `relabel[site]` scope. Returns the decoded global model and the
/// final labels, or [`WireError::ModelDimMismatch`] if a non-empty
/// model's dimensionality is not the data's.
pub fn relabel_phase(
    site: u32,
    data: &Dataset,
    local: &Clustering,
    broadcast: &[u8],
    rec: &dyn Recorder,
) -> Result<(GlobalModel, Clustering), WireError> {
    let sheet = rec.sheet(&format!("relabel[{site}]"));
    let global = wire::decode_global_model(broadcast)?;
    if !global.reps.is_empty() && global.dim != data.dim() {
        return Err(WireError::ModelDimMismatch {
            model: global.dim,
            data: data.dim(),
        });
    }
    if let Some(s) = &sheet {
        s.add_to(Counter::bytes_received, broadcast.len() as u64);
    }
    let labels = relabel_site_observed(data, local, &global, sheet.as_ref());
    Ok((global, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_model::GlobalRep;
    use dbdc_geom::{Label, Point};
    use dbdc_obs::NoopRecorder;

    fn broadcast(dim: usize, n_reps: usize) -> Bytes {
        let reps = (0..n_reps)
            .map(|i| GlobalRep {
                point: Point::from(vec![i as f64; dim]),
                eps_range: 1.0,
                site: 0,
                local_cluster: 0,
                global_cluster: 0,
            })
            .collect();
        let global = GlobalModel {
            dim,
            reps,
            n_clusters: n_reps.min(1) as u32,
            eps_global: 2.0,
        };
        wire::encode_global_model(&global).expect("fits the wire format")
    }

    #[test]
    fn relabel_rejects_a_broadcast_of_another_dimension() {
        let data = Dataset::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]);
        let local = Clustering::from_labels(vec![Label::Cluster(0), Label::Noise]);
        for dim in [1, 3] {
            let got = relabel_phase(0, &data, &local, &broadcast(dim, 2), &NoopRecorder);
            assert_eq!(
                got.err(),
                Some(WireError::ModelDimMismatch {
                    model: dim,
                    data: 2
                })
            );
        }
        // An empty model carries no points to compare, whatever its dim.
        let (_, labels) = relabel_phase(0, &data, &local, &broadcast(3, 0), &NoopRecorder)
            .expect("an empty global model is accepted");
        assert!(labels.labels().iter().all(|l| l.is_noise()));
        let (_, labels) = relabel_phase(0, &data, &local, &broadcast(2, 2), &NoopRecorder)
            .expect("matching dimensions relabel");
        assert_eq!(labels.label(0), Label::Cluster(0));
    }
}
