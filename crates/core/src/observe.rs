//! Assembling a [`RunReport`] from a recorded DBDC run.
//!
//! [`crate::runtime::run_dbdc_recorded`] leaves a [`RecordingRecorder`]
//! holding the measured phase-span tree and one counter scope per
//! protocol party. This module turns that raw capture plus the
//! [`DbdcOutcome`] into the stable report the CLI emits: it injects the
//! *modeled* `upload`/`broadcast` phases into the span tree (no bytes
//! cross a wire in this single-process reproduction, so their durations
//! come from the [`NetworkModel`]), merges each site's local and relabel
//! counters, and prices the real transfer sizes on all three link
//! presets.

use crate::network::NetworkModel;
use crate::params::DbdcParams;
use crate::runtime::DbdcOutcome;
use dbdc_geom::Label;
use dbdc_obs::{
    ClusterStats, Counters, DatasetInfo, NetworkCost, RecordingRecorder, RunReport, SiteStats,
    Span, TransferStats,
};

/// The link presets a report prices the transfers with, in order.
pub const LINK_PRESETS: [&str; 3] = ["lan", "wan", "slow_uplink"];

/// Resolves a preset name from [`LINK_PRESETS`].
pub fn link_preset(name: &str) -> Option<NetworkModel> {
    match name {
        "lan" => Some(NetworkModel::lan()),
        "wan" => Some(NetworkModel::wan()),
        "slow_uplink" => Some(NetworkModel::slow_uplink()),
        _ => None,
    }
}

/// Resolves any link spec a CLI accepts: a preset from [`LINK_PRESETS`]
/// or a custom validated `BYTES_PER_SEC:LATENCY_MS` pair.
pub fn link_model(spec: &str) -> Option<NetworkModel> {
    NetworkModel::from_spec(spec).ok()
}

/// The measured `dbdc` span tree extended with the modeled transfer
/// phases on `link`: `upload` goes after the last `local[i]` child,
/// `broadcast` after `global`, both flagged modeled, and the root wall
/// grows by both so it stays the sum of the sequential protocol steps.
pub fn span_with_network(measured: &Span, outcome: &DbdcOutcome, link: &NetworkModel) -> Span {
    let upload = link.concurrent_upload(&outcome.per_site_bytes_up);
    let broadcast = if outcome.n_sites == 0 {
        std::time::Duration::ZERO
    } else {
        link.transfer_time(outcome.global_model_bytes)
    };
    let mut root = measured.clone();
    root.wall += upload + broadcast;
    let last_local = root
        .children
        .iter()
        .rposition(|c| c.name.starts_with("local["))
        .map(|i| i + 1)
        .unwrap_or(0);
    root.children
        .insert(last_local, Span::modeled("upload", upload));
    let after_global = root
        .children
        .iter()
        .position(|c| c.name == "global")
        .map(|i| i + 1)
        .unwrap_or(root.children.len());
    root.children
        .insert(after_global, Span::modeled("broadcast", broadcast));
    root
}

/// Builds the full [`RunReport`] for a recorded distributed run.
///
/// `link` selects the preset whose modeled transfer phases are spliced
/// into the span tree (the `network` section always prices all of
/// [`LINK_PRESETS`]); pass `None` to keep the measured tree as-is.
/// `run_id` is the operator's shared run identity (see schema v3): the
/// report is stamped `role: standalone` — every protocol role lives in
/// this one process — which also keeps `merge_reports` from quietly
/// mixing an in-process report into a real server + sites fleet.
pub fn dbdc_run_report(
    command: &str,
    dim: usize,
    params: &DbdcParams,
    outcome: &DbdcOutcome,
    rec: &RecordingRecorder,
    link: Option<&str>,
    run_id: Option<String>,
) -> RunReport {
    let n_points: usize = outcome.site_sizes.iter().sum();
    let mut report = RunReport::new(command)
        .with_identity("standalone", run_id, "standalone")
        .with_param("eps_local", params.eps_local)
        .with_param("min_pts_local", params.min_pts_local)
        .with_param("model", params.model.name())
        .with_param("index", params.index.name())
        .with_param("threads", params.threads)
        .with_param("partitions", params.partitions)
        .with_param("sites", outcome.n_sites);
    report.dataset = Some(DatasetInfo {
        points: n_points,
        dim,
    });

    // Span trees: splice the modeled transfers of the chosen link into
    // every recorded dbdc tree.
    let net = link.and_then(link_model);
    report.spans = rec
        .spans()
        .into_iter()
        .map(|s| match &net {
            Some(n) if s.name == "dbdc" => span_with_network(&s, outcome, n),
            _ => s,
        })
        .collect();
    report.scopes = rec.scopes();
    report.hists = rec.hist_scopes();

    // Per-site stats: counters from the local and relabel scopes merged.
    report.sites = (0..outcome.n_sites)
        .map(|site| {
            let mut counters = rec.counters(&format!("local[{site}]"));
            counters.add(&rec.counters(&format!("relabel[{site}]")));
            SiteStats {
                site,
                points: outcome.site_sizes[site],
                representatives: counters.representatives as usize,
                bytes_up: outcome.per_site_bytes_up[site],
                local: outcome.timings.local[site].total(),
                relabel: outcome.timings.relabel[site],
                counters,
            }
        })
        .collect();

    report.transfer = Some(TransferStats {
        bytes_up: outcome.bytes_up,
        bytes_down: outcome.bytes_down,
        per_site_bytes_up: outcome.per_site_bytes_up.clone(),
        global_model_bytes: outcome.global_model_bytes,
        representatives: outcome.n_representatives,
    });
    report.network = LINK_PRESETS
        .iter()
        .map(|&name| {
            let net = link_preset(name).expect("preset names resolve");
            NetworkCost {
                link: name.to_string(),
                upload: net.concurrent_upload(&outcome.per_site_bytes_up),
                broadcast: if outcome.n_sites == 0 {
                    std::time::Duration::ZERO
                } else {
                    net.transfer_time(outcome.global_model_bytes)
                },
                total: outcome.total_with_network(&net),
            }
        })
        .collect();
    report.clusters = Some(cluster_stats(
        outcome.assignment.n_clusters() as usize,
        outcome.assignment.labels(),
    ));
    report
}

/// A [`ClusterStats`] from a cluster count and a label slice.
pub fn cluster_stats(clusters: usize, labels: &[Label]) -> ClusterStats {
    ClusterStats {
        clusters,
        noise: labels.iter().filter(|l| l.is_noise()).count(),
    }
}

/// The merged counters of every scope a recorder captured.
pub fn total_counters(rec: &RecordingRecorder) -> Counters {
    Counters::sum(rec.scopes().iter().map(|(_, c)| c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EpsGlobal;
    use crate::partition::Partitioner;
    use crate::runtime::run_dbdc_recorded;
    use dbdc_datagen::dataset_c;

    fn recorded_outcome() -> (DbdcOutcome, RecordingRecorder) {
        let g = dataset_c(21);
        let p = DbdcParams::new(1.6, 5).with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
        let rec = RecordingRecorder::new();
        let outcome = run_dbdc_recorded(&g.data, &p, Partitioner::RandomEqual { seed: 3 }, 3, &rec);
        (outcome, rec)
    }

    #[test]
    fn report_covers_every_protocol_phase() {
        let (outcome, rec) = recorded_outcome();
        let p = DbdcParams::new(1.6, 5);
        let report = dbdc_run_report("run", 2, &p, &outcome, &rec, Some("wan"), None);
        let root = report.find_span("dbdc").expect("dbdc span recorded");
        for name in [
            "local[0]",
            "local[2]",
            "cluster",
            "extract",
            "encode",
            "upload",
            "global",
            "broadcast",
            "relabel[0]",
            "relabel[2]",
        ] {
            assert!(root.find(name).is_some(), "missing span {name}");
        }
        assert!(root.find("upload").unwrap().modeled);
        assert!(root.find("broadcast").unwrap().modeled);
        assert_eq!(report.sites.len(), 3);
        assert_eq!(report.network.len(), LINK_PRESETS.len());
        let clusters = report.clusters.expect("cluster stats");
        assert_eq!(clusters.clusters, outcome.assignment.n_clusters() as usize);
    }

    #[test]
    fn report_carries_latency_and_phase_histograms() {
        let (outcome, rec) = recorded_outcome();
        let p = DbdcParams::new(1.6, 5);
        let report = dbdc_run_report("run", 2, &p, &outcome, &rec, None, None);
        let hist = |name: &str| {
            report
                .hists
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing hist {name}"))
                .1
                .clone()
        };
        // Every ε-range and knn query of each site's local phase landed
        // one latency sample.
        for site in 0..3 {
            let h = hist(&format!("local[{site}]/eps_range_ns"));
            let c = rec.counters(&format!("local[{site}]"));
            assert_eq!(h.count(), c.range_queries + c.knn_queries);
            assert!(h.max() >= h.p50());
        }
        // Phase walls: one sample per site for local/relabel, one for
        // global.
        assert_eq!(hist("phase/local_ns").count(), 3);
        assert_eq!(hist("phase/relabel_ns").count(), 3);
        assert_eq!(hist("phase/global_ns").count(), 1);
        // Histograms survive the JSON round trip exactly.
        let back = RunReport::parse(&report.to_json_string()).expect("parses");
        assert_eq!(back.hists, report.hists);
    }

    #[test]
    fn noop_recorder_yields_no_histograms() {
        let g = dataset_c(22);
        let p = DbdcParams::new(1.6, 5).with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
        let rec = RecordingRecorder::new();
        let with = run_dbdc_recorded(&g.data, &p, Partitioner::RoundRobin, 2, &rec);
        let without = crate::runtime::run_dbdc(&g.data, &p, Partitioner::RoundRobin, 2);
        // Instrumentation must not change the clustering.
        assert_eq!(with.assignment, without.assignment);
        assert!(!rec.hist_scopes().is_empty());
    }

    #[test]
    fn modeled_root_wall_matches_cost_model() {
        let (outcome, rec) = recorded_outcome();
        let measured = &rec.spans()[0];
        let net = NetworkModel::wan();
        let extended = span_with_network(measured, &outcome, &net);
        assert_eq!(extended.wall, outcome.total_with_network(&net));
        // Phase order: locals, upload, global, broadcast, relabels.
        let names: Vec<&str> = extended.children.iter().map(|c| c.name.as_str()).collect();
        let upload = names.iter().position(|n| *n == "upload").unwrap();
        let global = names.iter().position(|n| *n == "global").unwrap();
        let broadcast = names.iter().position(|n| *n == "broadcast").unwrap();
        assert!(upload < global && global < broadcast);
        assert!(names[..upload].iter().all(|n| n.starts_with("local[")));
    }

    #[test]
    fn site_counters_merge_local_and_relabel() {
        let (outcome, rec) = recorded_outcome();
        let p = DbdcParams::new(1.6, 5);
        let report = dbdc_run_report("run", 2, &p, &outcome, &rec, None, None);
        for s in &report.sites {
            let local = rec.counters(&format!("local[{}]", s.site));
            let relabel = rec.counters(&format!("relabel[{}]", s.site));
            assert_eq!(
                s.counters.range_queries,
                local.range_queries + relabel.range_queries
            );
            assert_eq!(
                s.counters.bytes_sent,
                outcome.per_site_bytes_up[s.site] as u64
            );
            assert!(relabel.bytes_received > 0, "relabel downloads the model");
        }
        // The JSON emitter truncates durations to whole microseconds, so
        // live reports converge after one serialization: a second round
        // trip is byte-identical.
        let text = report.to_json_string();
        let back = RunReport::parse(&text).expect("parses");
        assert_eq!(back.to_json_string(), text);
    }
}
