//! Second batch of ablations: the model-size/quality trade-off and
//! robustness to site failures.

use crate::table::{f, Table};
use dbdc::{
    central_dbscan, local_phase, q_dbdc, relabel_site, run_dbdc, wire, DbdcParams, EpsGlobal,
    ObjectQuality, Partitioner,
};
use dbdc_datagen::scaled_a;
use dbdc_geom::{Clustering, Label};
use dbdc_obs::NoopRecorder;

use super::{quick, SEED};

fn workload() -> dbdc_datagen::GeneratedData {
    if quick() {
        scaled_a(2_000, SEED)
    } else {
        dbdc_datagen::dataset_a(SEED)
    }
}

/// `abl-tradeoff` — Section 5's "optimum trade-off between complexity and
/// accuracy", made concrete: sweeping `Eps_local` trades representative
/// count (model size) against distributed quality. Every row re-runs both
/// the central reference and DBDC at that ε.
pub fn tradeoff() -> String {
    let g = workload();
    let base_eps = g.suggested_eps;
    let mut t = Table::new([
        "Eps_local",
        "repr. [%]",
        "model bytes",
        "P^II vs central [%]",
    ]);
    for mult in [0.5, 0.75, 1.0, 1.5, 2.0, 3.0] {
        let eps = base_eps * mult;
        let params = DbdcParams::new(eps, g.suggested_min_pts)
            .with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
        let (central, _) = central_dbscan(&g.data, &params);
        let outcome = run_dbdc(&g.data, &params, Partitioner::RandomEqual { seed: SEED }, 4);
        let q = q_dbdc(&outcome.assignment, &central.clustering, ObjectQuality::PII);
        t.row([
            f(eps, 2),
            f(100.0 * outcome.representative_fraction(), 1),
            outcome.bytes_up.to_string(),
            f(100.0 * q.q, 1),
        ]);
    }
    format!(
        "## abl-tradeoff — model size vs quality as Eps_local varies (data set A, 4 sites)\n\nSmaller ε packs more specific core points (bigger models, finer detail); larger ε compresses harder. Quality is judged against the central run *at the same ε*.\n\n{}",
        t.render()
    )
}

/// `abl-failure` — what happens when sites fail to report.
///
/// The paper assumes all sites answer; a real deployment loses some. Here
/// the server builds the global model from a subset of the local models and
/// the *surviving* sites still relabel everything they have. Reported
/// quality is over the surviving sites' points, against the central
/// clustering restricted to the same points.
pub fn failure() -> String {
    let g = workload();
    let params = DbdcParams::new(g.suggested_eps, g.suggested_min_pts)
        .with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
    let (central, _) = central_dbscan(&g.data, &params);
    let sites = 8;
    let assignment = Partitioner::RandomEqual { seed: SEED }.assign(&g.data, sites);
    let (parts, back) = g.data.partition(sites, &assignment);
    // Local phase once per site.
    let mut models = Vec::new();
    let mut locals = Vec::new();
    for (site, part) in parts.iter().enumerate() {
        let local = local_phase(site as u32, part, &params, &NoopRecorder);
        models.push(wire::decode_local_model(&local.encoded).expect("own local model decodes"));
        locals.push(local.scp);
    }
    let mut t = Table::new([
        "failed sites",
        "global clusters",
        "P^II on surviving points [%]",
    ]);
    for failed in [0usize, 1, 2, 4] {
        let surviving: Vec<usize> = (failed..sites).collect();
        let surviving_models: Vec<dbdc::LocalModel> =
            surviving.iter().map(|&s| models[s].clone()).collect();
        let global = dbdc::build_global_model(&surviving_models, &params);
        // Relabel surviving sites; compare on their points only.
        let mut distr = Vec::new();
        let mut reference = Vec::new();
        for &s in &surviving {
            let labels = relabel_site(&parts[s], &locals[s].dbscan.clustering, &global);
            for (pos, &orig) in back[s].iter().enumerate() {
                distr.push(labels.label(pos as u32));
                reference.push(central.clustering.label(orig));
            }
        }
        let distr = Clustering::from_labels(distr);
        let reference = Clustering::from_labels(reference);
        let q = q_dbdc(&distr, &reference, ObjectQuality::PII);
        t.row([
            failed.to_string(),
            global.n_clusters.to_string(),
            f(100.0 * q.q, 1),
        ]);
    }
    format!(
        "## abl-failure — global model built from a subset of sites (data set A, {sites} sites)\n\nSites fail independently (the paper's client-independence assumption); the surviving sites' clustering quality should be unaffected because every site's model describes the same global cluster structure.\n\n{}",
        t.render()
    )
}

/// `abl-streaming` — the streaming sessions vs the batch pipeline.
///
/// Runs the full dataset through [`dbdc::ClientSession`]s in batches with
/// drift-gated transmissions and compares the final global clustering
/// against the batch pipeline and the central reference.
pub fn streaming() -> String {
    let g = if quick() {
        scaled_a(1_200, SEED)
    } else {
        scaled_a(6_000, SEED)
    };
    let params = DbdcParams::new(g.suggested_eps, g.suggested_min_pts)
        .with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
    let sites = 4;
    let (central, _) = central_dbscan(&g.data, &params);
    let batch = run_dbdc(&g.data, &params, Partitioner::RoundRobin, sites);
    let q_batch = q_dbdc(&batch.assignment, &central.clustering, ObjectQuality::PII);

    let mut clients: Vec<dbdc::ClientSession> = (0..sites)
        .map(|s| dbdc::ClientSession::new(s as u32, 2, params))
        .collect();
    let mut server = dbdc::ServerSession::new(2, 2.0 * params.eps_local, &params);
    let mut transmissions = 0usize;
    let mut site_points: Vec<dbdc_geom::Dataset> = vec![dbdc_geom::Dataset::new(2); sites];
    let chunk = g.data.len() / 10;
    for (i, p) in g.data.iter().enumerate() {
        clients[i % sites].insert(p);
        site_points[i % sites].push(p);
        if (i + 1) % chunk == 0 || i + 1 == g.data.len() {
            for c in clients.iter_mut() {
                if c.drift() > 0.1 {
                    server.ingest(&c.take_model());
                    transmissions += 1;
                }
            }
        }
    }
    let global = server.snapshot();
    let mut full = vec![Label::Noise; g.data.len()];
    for (s, client) in clients.iter().enumerate() {
        let labels = relabel_site(&site_points[s], &client.clustering(), &global);
        for (pos, orig) in (s..g.data.len()).step_by(sites).enumerate() {
            full[orig] = labels.label(pos as u32);
        }
    }
    let stream_clustering = Clustering::from_labels(full);
    let q_stream = q_dbdc(&stream_clustering, &central.clustering, ObjectQuality::PII);

    let mut t = Table::new(["mode", "P^II vs central [%]", "model transmissions"]);
    t.row([
        "batch DBDC".to_string(),
        f(100.0 * q_batch.q, 1),
        sites.to_string(),
    ]);
    t.row([
        "streaming DBDC (drift-gated)".to_string(),
        f(100.0 * q_stream.q, 1),
        transmissions.to_string(),
    ]);
    format!(
        "## abl-streaming — incremental sessions vs the batch pipeline (dataset-A mixture, {sites} sites, 10 batches)\n\nStreaming clients maintain their clustering incrementally and re-send models only when the structure drifts; the server folds models in as they arrive (Section 6's incremental mode).\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tradeoff_renders_monotone_model_sizes() {
        std::env::set_var("DBDC_QUICK", "1");
        let r = tradeoff();
        assert!(r.contains("abl-tradeoff"));
        assert!(r.contains("model bytes"));
    }

    #[test]
    fn failure_keeps_surviving_quality_high() {
        std::env::set_var("DBDC_QUICK", "1");
        let r = failure();
        assert!(r.contains("abl-failure"));
        // Four rows: 0, 1, 2, 4 failed sites.
        assert!(r.matches('\n').count() > 8);
    }

    #[test]
    fn streaming_renders() {
        std::env::set_var("DBDC_QUICK", "1");
        let r = streaming();
        assert!(r.contains("streaming DBDC"));
        assert!(r.contains("batch DBDC"));
    }
}
