//! The traced in-process composition: the protocol of `run_dbdc`, driven
//! step by step from outside through each layer's public functions, with
//! a span around every call and `RecordingRecorder` sheets counting the
//! work.
//!
//! It must produce exactly `run_dbdc`'s outcome; the benchmark checks
//! that on every traced repetition, and a test pins it at threads 1/2 ×
//! partitions 1/2, so a change to `runtime::local_phase` that this file
//! does not follow fails instead of skewing the ledger.

use std::time::Duration;

use dbdc::{
    build_global_model_observed, build_local_model, relabel_site_observed, wire, DbdcOutcome,
    DbdcParams, GlobalModel, LocalModel, Partitioner,
};
use dbdc_cluster::{
    dbscan_with_scp, effective_partitions, effective_threads, par_dbscan_with_scp,
    partitioned_dbscan_with_scp_observed, DbscanParams,
};
use dbdc_geom::{Clustering, Dataset, Euclidean, Label};
use dbdc_index::{build_index_opts, BuildOptions};
use dbdc_obs::{Recorder, RecordingRecorder};

use crate::trace::Tracer;

/// Work counts of one traced repetition, read from the recorder sheets
/// and the layers' return values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Points in the dataset.
    pub points: u64,
    /// ε-range queries answered by the site indexes.
    pub range_queries: u64,
    /// Distance evaluations inside those queries.
    pub dist_evals: u64,
    /// Index nodes inspected by those queries.
    pub node_visits: u64,
    /// Points replicated into ε-halos (partitioned sites only).
    pub halo_points: u64,
    /// Representatives in all local models.
    pub reps: u64,
    /// Distance evaluations of the server's global DBSCAN.
    pub global_dist_evals: u64,
    /// Distance evaluations of all sites' relabeling.
    pub relabel_dist_evals: u64,
}

/// What one traced repetition produced.
#[derive(Debug, Clone)]
pub struct Composed {
    /// The final labels of all points, in dataset order.
    pub assignment: Clustering,
    /// The server's global model.
    pub global: GlobalModel,
    /// Encoded size of each site's local model.
    pub per_site_bytes_up: Vec<usize>,
    /// Encoded size of the global model.
    pub global_model_bytes: usize,
    /// The work counts.
    pub counts: Counts,
    /// The paper's cost model: slowest site's local phase + server +
    /// slowest relabel, from the spans.
    pub cost_model: Duration,
}

impl Composed {
    /// `Ok` when this is exactly `reference`'s protocol result.
    pub fn matches(&self, reference: &DbdcOutcome) -> Result<(), String> {
        let checks = [
            ("labels", self.assignment == reference.assignment),
            ("global model", self.global == reference.global),
            (
                "per-site upload bytes",
                self.per_site_bytes_up == reference.per_site_bytes_up,
            ),
            (
                "global model bytes",
                self.global_model_bytes == reference.global_model_bytes,
            ),
            (
                "representatives",
                self.counts.reps == reference.n_representatives as u64,
            ),
        ];
        match checks.iter().find(|(_, ok)| !ok) {
            None => Ok(()),
            Some((what, _)) => Err(format!("traced composition differs from run_dbdc: {what}")),
        }
    }
}

/// Runs the protocol of `run_dbdc(data, params, partitioner, n_sites)`
/// layer by layer, recording spans into `tracer` under one
/// `runtime.run` root. On an error the spans still open are closed.
pub fn compose(
    data: &Dataset,
    params: &DbdcParams,
    partitioner: Partitioner,
    n_sites: usize,
    tracer: &mut Tracer,
) -> Result<Composed, String> {
    let result = compose_steps(data, params, partitioner, n_sites, tracer);
    if result.is_err() {
        tracer.close_all();
    }
    result
}

fn compose_steps(
    data: &Dataset,
    params: &DbdcParams,
    partitioner: Partitioner,
    n_sites: usize,
    tracer: &mut Tracer,
) -> Result<Composed, String> {
    let rec = RecordingRecorder::new();
    let mut counts = Counts {
        points: data.len() as u64,
        ..Counts::default()
    };
    let root = tracer.open("runtime.run");

    let span = tracer.open("partition.assign");
    let assignment = partitioner.assign(data, n_sites);
    let (parts, back) = data.partition(n_sites, &assignment);
    tracer.close(span);

    // --- Sites: local clustering, model, encode. ---
    let dbscan_params = DbscanParams::new(params.eps_local, params.min_pts_local);
    let partitions = effective_partitions(params.partitions, params.threads);
    let mut locals = Vec::with_capacity(n_sites);
    let mut slowest_local = 0u64;
    for (site, part) in parts.iter().enumerate() {
        let site_span = tracer.open(format!("runtime.site[{site}]"));
        let sheet = rec.sheet(&format!("local[{site}]"));
        let scp = if partitions > 1 {
            let span = tracer.open("cluster.dbscan");
            let (scp, stats) = partitioned_dbscan_with_scp_observed(
                part,
                params.index,
                &dbscan_params,
                partitions,
                params.threads,
                params.precision,
                sheet.as_ref(),
                None,
            );
            tracer.close(span);
            counts.halo_points += stats.halo_points;
            scp
        } else {
            let span = tracer.open("index.build");
            let index = build_index_opts(
                params.index,
                part,
                Euclidean,
                params.eps_local,
                BuildOptions {
                    threads: effective_threads(params.threads),
                    precision: params.precision,
                },
                sheet.as_ref(),
                None,
            );
            tracer.close(span);
            let span = tracer.open("cluster.dbscan");
            let scp = if params.threads == 1 {
                dbscan_with_scp(part, index.as_ref(), &dbscan_params)
            } else {
                par_dbscan_with_scp(part, index.as_ref(), &dbscan_params, params.threads)
            };
            drop(index);
            tracer.close(span);
            scp
        };
        let span = tracer.open("local_model.extract");
        let model: LocalModel = build_local_model(params.model, part, &scp, site as u32);
        tracer.close(span);
        let span = tracer.open("wire.encode");
        let encoded = wire::encode_local_model(&model).map_err(|e| e.to_string())?;
        tracer.close(span);
        counts.reps += model.len() as u64;
        tracer.close(site_span);
        slowest_local = slowest_local.max(tracer.spans()[site_span].duration_ns());
        locals.push((scp, encoded));
    }

    // --- Server: decode, global DBSCAN, encode the broadcast. ---
    let server_span = tracer.open("runtime.server");
    let span = tracer.open("wire.decode");
    let models = locals
        .iter()
        .map(|(_, b)| wire::decode_local_model(b))
        .collect::<Result<Vec<LocalModel>, _>>()
        .map_err(|e| e.to_string())?;
    tracer.close(span);
    let span = tracer.open("global_model.build");
    let global = build_global_model_observed(&models, params, rec.sheet("global").as_ref());
    tracer.close(span);
    let span = tracer.open("wire.encode");
    let encoded_global = wire::encode_global_model(&global).map_err(|e| e.to_string())?;
    tracer.close(span);
    tracer.close(server_span);
    let server_ns = tracer.spans()[server_span].duration_ns();

    // --- Sites: decode the broadcast, relabel. ---
    let mut site_labels = Vec::with_capacity(n_sites);
    let mut slowest_relabel = 0u64;
    for (site, part) in parts.iter().enumerate() {
        let relabel_span = tracer.open(format!("runtime.relabel[{site}]"));
        let sheet = rec.sheet(&format!("relabel[{site}]"));
        let span = tracer.open("wire.decode");
        let g = wire::decode_global_model(&encoded_global).map_err(|e| e.to_string())?;
        tracer.close(span);
        let span = tracer.open("relabel.site");
        let labels =
            relabel_site_observed(part, &locals[site].0.dbscan.clustering, &g, sheet.as_ref());
        tracer.close(span);
        tracer.close(relabel_span);
        slowest_relabel = slowest_relabel.max(tracer.spans()[relabel_span].duration_ns());
        site_labels.push(labels);
    }

    // --- Reassemble the full clustering in dataset order. ---
    let span = tracer.open("runtime.assemble");
    let mut full = vec![Label::Noise; data.len()];
    for (site, ids) in back.iter().enumerate() {
        for (pos, &orig) in ids.iter().enumerate() {
            full[orig as usize] = site_labels[site].label(pos as u32);
        }
    }
    let assignment = Clustering::from_labels(full);
    tracer.close(span);
    tracer.close(root);

    for site in 0..n_sites {
        let c = rec.counters(&format!("local[{site}]"));
        counts.range_queries += c.range_queries;
        counts.dist_evals += c.distance_evals;
        counts.node_visits += c.node_visits;
        counts.relabel_dist_evals += rec.counters(&format!("relabel[{site}]")).distance_evals;
    }
    counts.global_dist_evals = rec.counters("global").distance_evals;
    Ok(Composed {
        assignment,
        global,
        per_site_bytes_up: locals.iter().map(|(_, b)| b.len()).collect(),
        global_model_bytes: encoded_global.len(),
        counts,
        cost_model: Duration::from_nanos(slowest_local + server_ns + slowest_relabel),
    })
}
