//! The DBDC runtime: orchestration of the four protocol steps.
//!
//! Section 3 of the paper: (1) local clustering, (2) determination of the
//! local models, (3) determination of the global model, (4) relabeling of
//! all local data. This module runs the whole protocol — the steps of
//! [`crate::step`] — over a partitioned dataset, either sequentially (the paper's measurement setup — "we
//! carried out all local clusterings sequentially ... the overall runtime
//! was formed by adding the time needed for the global clustering to the
//! maximum time needed for the local clusterings") or with one thread per
//! site for wall-clock validation. Independently of the per-site driver,
//! [`DbdcParams::threads`] selects how many worker threads each DBSCAN run
//! uses internally via the deterministic parallel execution layer
//! ([`mod@dbdc_cluster::par_dbscan`]); every combination produces the same
//! clustering.
//!
//! Local models travel through the wire codec in both modes, so the byte
//! counts reported in [`DbdcOutcome`] are exact message sizes.

use crate::global_model::GlobalModel;
use crate::params::DbdcParams;
use crate::partition::Partitioner;
use crate::step::{local_phase, relabel_phase, server_phase, LocalPhase, LocalTimes};
use dbdc_cluster::{effective_threads, DbscanParams, DbscanResult};
use dbdc_geom::{Clustering, Dataset, Label};
use dbdc_obs::{Counter, NoopRecorder, Recorder, Span};
use std::time::{Duration, Instant};

/// OS threads active in each protocol phase (diagnostic, recorded by the
/// runtime): the product of concurrently running sites and the worker
/// threads each site's DBSCAN uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseThreads {
    /// Local clustering + model extraction.
    pub local: usize,
    /// Server-side global clustering.
    pub global: usize,
    /// Per-site relabeling.
    pub relabel: usize,
}

/// Timings of all protocol phases.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Each site's local phase (clustering + model extraction +
    /// encoding), by sub-phase.
    pub local: Vec<LocalTimes>,
    /// Server-side global clustering (including model decode).
    pub global: Duration,
    /// Wall time of each site's relabeling.
    pub relabel: Vec<Duration>,
    /// Thread counts per phase.
    pub threads: PhaseThreads,
}

impl Timings {
    /// The slowest local phase — the paper's distributed local cost.
    pub fn local_max(&self) -> Duration {
        self.local
            .iter()
            .map(LocalTimes::total)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// The slowest relabel phase.
    pub fn relabel_max(&self) -> Duration {
        self.relabel.iter().copied().max().unwrap_or(Duration::ZERO)
    }

    /// The paper's overall-runtime cost model:
    /// `max(local times) + global time`.
    pub fn dbdc_total(&self) -> Duration {
        self.local_max() + self.global
    }

    /// The cost model extended with the (concurrent) relabel phase.
    pub fn dbdc_total_with_relabel(&self) -> Duration {
        self.dbdc_total() + self.relabel_max()
    }

    /// The timings as a [`Span`] tree: a `dbdc` root (walled at
    /// [`Timings::dbdc_total_with_relabel`]) with one `local[i]` child
    /// per site ([`LocalTimes::to_span`]), then `global` and one
    /// `relabel[i]` per site.
    pub fn to_span(&self) -> Span {
        let mut root = Span::new("dbdc", self.dbdc_total_with_relabel());
        for (i, t) in self.local.iter().enumerate() {
            root.push(t.to_span(i, self.threads.local.max(1)));
        }
        root.push(Span::new("global", self.global).with_threads(self.threads.global.max(1)));
        for (i, &t) in self.relabel.iter().enumerate() {
            root.push(
                Span::new(format!("relabel[{i}]"), t).with_threads(self.threads.relabel.max(1)),
            );
        }
        root
    }
}

/// Everything a DBDC run produces.
#[derive(Debug, Clone)]
pub struct DbdcOutcome {
    /// Number of client sites.
    pub n_sites: usize,
    /// The server's global model.
    pub global: GlobalModel,
    /// The final distributed clustering of **all** points, in the original
    /// dataset order, with dense cluster ids.
    pub assignment: Clustering,
    /// Per-site timings.
    pub timings: Timings,
    /// Total client→server bytes (all encoded local models).
    pub bytes_up: usize,
    /// Total server→client bytes (the encoded global model, once per site).
    pub bytes_down: usize,
    /// Exact encoded size of each site's local model, in site order — the
    /// actual upload message sizes the network cost model charges.
    pub per_site_bytes_up: Vec<usize>,
    /// Exact encoded size of the global model — the broadcast message every
    /// site downloads.
    pub global_model_bytes: usize,
    /// Total number of transmitted representatives.
    pub n_representatives: usize,
    /// Per-site point counts.
    pub site_sizes: Vec<usize>,
}

impl DbdcOutcome {
    /// Representatives as a fraction of the dataset size — the "number of
    /// local repr. \[%\]" column of the paper's Figure 10.
    pub fn representative_fraction(&self) -> f64 {
        let n: usize = self.site_sizes.iter().sum();
        if n == 0 {
            0.0
        } else {
            self.n_representatives as f64 / n as f64
        }
    }

    /// The paper's cost model extended with simulated network transfers
    /// over `net`: all sites upload their models concurrently, so the
    /// **slowest link** — the site with the largest encoded model —
    /// dominates ([`crate::network::NetworkModel::concurrent_upload`] over
    /// the actual per-site message sizes, not an average). The global
    /// model is then broadcast to every site concurrently, costing one
    /// transfer of its exact encoded size. Compute phases come from
    /// [`Timings::dbdc_total_with_relabel`].
    pub fn total_with_network(&self, net: &crate::network::NetworkModel) -> Duration {
        let upload = net.concurrent_upload(&self.per_site_bytes_up);
        let download = if self.n_sites == 0 {
            Duration::ZERO
        } else {
            net.transfer_time(self.global_model_bytes)
        };
        self.timings.dbdc_total_with_relabel() + upload + download
    }
}

/// Runs the full DBDC protocol sequentially (the paper's measurement mode).
pub fn run_dbdc(
    data: &Dataset,
    params: &DbdcParams,
    partitioner: Partitioner,
    n_sites: usize,
) -> DbdcOutcome {
    run_dbdc_recorded(data, params, partitioner, n_sites, &NoopRecorder)
}

/// [`run_dbdc`] reporting into `rec`: per-site counter scopes
/// (`local[i]`, `global`, `relabel[i]`) and the protocol phase-span
/// tree. With a [`NoopRecorder`] this is exactly [`run_dbdc`].
pub fn run_dbdc_recorded(
    data: &Dataset,
    params: &DbdcParams,
    partitioner: Partitioner,
    n_sites: usize,
    rec: &dyn Recorder,
) -> DbdcOutcome {
    run(data, params, partitioner, n_sites, false, rec)
}

/// Runs the full DBDC protocol with one OS thread per site, each spawning
/// [`DbdcParams::threads`] DBSCAN workers. The timings still record
/// per-site wall time; the protocol result is identical to the sequential
/// mode (asserted by tests).
pub fn run_dbdc_threaded(
    data: &Dataset,
    params: &DbdcParams,
    partitioner: Partitioner,
    n_sites: usize,
) -> DbdcOutcome {
    run_dbdc_threaded_recorded(data, params, partitioner, n_sites, &NoopRecorder)
}

/// [`run_dbdc_threaded`] reporting into `rec`, like
/// [`run_dbdc_recorded`]. Counter sheets are lock-free, so concurrent
/// sites record without serializing on the recorder.
pub fn run_dbdc_threaded_recorded(
    data: &Dataset,
    params: &DbdcParams,
    partitioner: Partitioner,
    n_sites: usize,
    rec: &dyn Recorder,
) -> DbdcOutcome {
    run(data, params, partitioner, n_sites, true, rec)
}

/// Runs `f` for every site: in site order, or on one OS thread per site.
fn per_site<T: Send>(
    parts: &[Dataset],
    threaded: bool,
    f: impl Fn(usize, &Dataset) -> T + Sync,
) -> Vec<T> {
    if !threaded {
        return parts
            .iter()
            .enumerate()
            .map(|(i, part)| f(i, part))
            .collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(i, part)| scope.spawn(move || f(i, part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("site thread panicked"))
            .collect()
    })
}

/// The protocol over `n_sites` shards, sites run by [`per_site`].
fn run(
    data: &Dataset,
    params: &DbdcParams,
    partitioner: Partitioner,
    n_sites: usize,
    threaded: bool,
    rec: &dyn Recorder,
) -> DbdcOutcome {
    let assignment = partitioner.assign(data, n_sites);
    let (parts, back) = data.partition(n_sites, &assignment);
    let locals: Vec<LocalPhase> = per_site(&parts, threaded, |site, part| {
        local_phase(site as u32, part, params, rec)
    });

    // --- Server: decode the models, cluster the representatives. ---
    let global_sheet = rec.sheet("global");
    let t_global = Instant::now();
    let uploads: Vec<&[u8]> = locals.iter().map(|l| l.encoded.as_ref()).collect();
    let server =
        server_phase(&uploads, params, global_sheet.as_ref()).expect("self-encoded models decode");
    let global_time = t_global.elapsed();
    let per_site_bytes_up: Vec<usize> = uploads.iter().map(|u| u.len()).collect();
    let bytes_up: usize = per_site_bytes_up.iter().sum();
    let n_representatives: usize = server.models.iter().map(|m| m.len()).sum();
    let global_model_bytes = server.encoded.len();
    let bytes_down = global_model_bytes * parts.len();
    if let Some(s) = &global_sheet {
        s.add_to(Counter::bytes_received, bytes_up as u64);
        s.add_to(Counter::bytes_sent, bytes_down as u64);
    }

    // --- Clients: each decodes the broadcast copy and relabels. ---
    let relabeled = per_site(&parts, threaded, |site, part| {
        let t0 = Instant::now();
        let local = &locals[site].scp.dbscan.clustering;
        let (_, labels) = relabel_phase(site as u32, part, local, &server.encoded, rec)
            .expect("self-encoded model decodes");
        (labels, t0.elapsed())
    });
    let (site_labels, relabel_times): (Vec<Clustering>, Vec<Duration>) =
        relabeled.into_iter().unzip();

    // --- Reassemble the full clustering in original order. ---
    let mut full = vec![Label::Noise; data.len()];
    for (site, ids) in back.iter().enumerate() {
        for (pos, &orig) in ids.iter().enumerate() {
            full[orig as usize] = site_labels[site].label(pos as u32);
        }
    }
    let assignment = Clustering::from_labels(full);

    let workers = effective_threads(params.threads);
    let sites_in_flight = if threaded { n_sites.max(1) } else { 1 };
    let timings = Timings {
        local: locals.into_iter().map(|l| l.times).collect(),
        global: global_time,
        relabel: relabel_times,
        threads: PhaseThreads {
            local: sites_in_flight * workers,
            global: 1,
            relabel: sites_in_flight,
        },
    };
    if rec.is_enabled() {
        // Phase walls as distributions *across sites*: with many sites
        // the p99 exposes the straggler the paper's max-based cost
        // model charges for.
        if let Some(h) = rec.hist("phase/local_ns") {
            for t in &timings.local {
                h.record_duration(t.total());
            }
        }
        if let Some(h) = rec.hist("phase/relabel_ns") {
            for t in &timings.relabel {
                h.record_duration(*t);
            }
        }
        if let Some(h) = rec.hist("phase/global_ns") {
            h.record_duration(timings.global);
        }
        rec.record_span(timings.to_span());
    }
    DbdcOutcome {
        n_sites,
        assignment,
        timings,
        global: server.global,
        bytes_up,
        bytes_down,
        per_site_bytes_up,
        global_model_bytes,
        n_representatives,
        site_sizes: parts.iter().map(|p| p.len()).collect(),
    }
}

/// The central baseline: one DBSCAN over the complete dataset with the
/// local parameters, timed. This is the `CL_central` reference of Section 8
/// and the efficiency baseline of Section 9. Honors
/// [`DbdcParams::threads`] like the local phases do.
pub fn central_dbscan(data: &Dataset, params: &DbdcParams) -> (DbscanResult, Duration) {
    central_dbscan_recorded(data, params, &NoopRecorder)
}

/// [`central_dbscan`] reporting into `rec` under the `central` counter
/// scope, with a single `central` span. The run is never partitioned.
pub fn central_dbscan_recorded(
    data: &Dataset,
    params: &DbdcParams,
    rec: &dyn Recorder,
) -> (DbscanResult, Duration) {
    let t0 = Instant::now();
    let mut exec = params.execution();
    exec.partitions = 1;
    let dbscan_params = DbscanParams::new(params.eps_local, params.min_pts_local);
    let (result, _) = exec.dbscan(data, &dbscan_params, rec, "central");
    let elapsed = t0.elapsed();
    if rec.is_enabled() {
        rec.record_span(
            Span::new("central", elapsed).with_threads(effective_threads(params.threads)),
        );
    }
    (result, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{EpsGlobal, LocalModelKind};
    use crate::quality::{q_dbdc, ObjectQuality};
    use dbdc_datagen::dataset_c;

    fn params() -> DbdcParams {
        DbdcParams::new(1.6, 5).with_eps_global(EpsGlobal::MultipleOfLocal(2.0))
    }

    #[test]
    fn end_to_end_matches_central_on_dataset_c() {
        let g = dataset_c(1);
        let p = params();
        let outcome = run_dbdc(&g.data, &p, Partitioner::RandomEqual { seed: 4 }, 4);
        let (central, _) = central_dbscan(&g.data, &p);
        // Data set C has 3 clean clusters: both clusterings find them and
        // the distributed quality is near-perfect (paper Figure 11).
        assert_eq!(central.clustering.n_clusters(), 3);
        assert_eq!(outcome.assignment.n_clusters(), 3);
        let q2 = q_dbdc(&outcome.assignment, &central.clustering, ObjectQuality::PII);
        assert!(q2.q > 0.9, "P^II quality {}", q2.q);
        let q1 = q_dbdc(
            &outcome.assignment,
            &central.clustering,
            ObjectQuality::PI {
                qp: p.min_pts_local,
            },
        );
        assert!(q1.q > 0.9, "P^I quality {}", q1.q);
    }

    #[test]
    fn kmeans_model_also_works() {
        let g = dataset_c(2);
        let p = params().with_model(LocalModelKind::KMeans);
        let outcome = run_dbdc(&g.data, &p, Partitioner::RandomEqual { seed: 4 }, 4);
        let (central, _) = central_dbscan(&g.data, &p);
        let q2 = q_dbdc(&outcome.assignment, &central.clustering, ObjectQuality::PII);
        assert!(q2.q > 0.9, "P^II quality {}", q2.q);
    }

    #[test]
    fn threaded_equals_sequential() {
        let g = dataset_c(3);
        let p = params();
        let seq = run_dbdc(&g.data, &p, Partitioner::RandomEqual { seed: 9 }, 5);
        let thr = run_dbdc_threaded(&g.data, &p, Partitioner::RandomEqual { seed: 9 }, 5);
        assert_eq!(seq.assignment, thr.assignment);
        assert_eq!(seq.bytes_up, thr.bytes_up);
        assert_eq!(seq.n_representatives, thr.n_representatives);
    }

    #[test]
    fn every_thread_count_gives_the_same_outcome() {
        // The determinism guarantee end to end: sequential and threaded
        // drivers, with 1/2/8 intra-site workers, all produce the same
        // protocol result.
        let g = dataset_c(12);
        let base = run_dbdc(&g.data, &params(), Partitioner::RandomEqual { seed: 7 }, 3);
        for threads in [0, 1, 2, 8] {
            let p = params().with_threads(threads);
            for threaded in [false, true] {
                let out = if threaded {
                    run_dbdc_threaded(&g.data, &p, Partitioner::RandomEqual { seed: 7 }, 3)
                } else {
                    run_dbdc(&g.data, &p, Partitioner::RandomEqual { seed: 7 }, 3)
                };
                assert_eq!(
                    base.assignment, out.assignment,
                    "threads={threads} threaded={threaded}"
                );
                assert_eq!(base.bytes_up, out.bytes_up);
                assert_eq!(base.per_site_bytes_up, out.per_site_bytes_up);
                assert_eq!(base.global_model_bytes, out.global_model_bytes);
                assert_eq!(base.n_representatives, out.n_representatives);
            }
        }
    }

    #[test]
    fn central_baseline_is_thread_count_invariant() {
        let g = dataset_c(13);
        let (seq, _) = central_dbscan(&g.data, &params());
        for threads in [0, 2, 8] {
            let (par, _) = central_dbscan(&g.data, &params().with_threads(threads));
            assert_eq!(seq.clustering, par.clustering, "threads={threads}");
            assert_eq!(seq.core, par.core);
            assert_eq!(seq.range_queries, par.range_queries);
        }
    }

    #[test]
    fn transmission_is_small() {
        let g = dataset_c(4);
        let p = params();
        let outcome = run_dbdc(&g.data, &p, Partitioner::RandomEqual { seed: 1 }, 4);
        let raw = crate::wire::raw_data_bytes(g.data.len(), 2);
        assert!(
            outcome.bytes_up * 2 < raw,
            "model bytes {} vs raw {}",
            outcome.bytes_up,
            raw
        );
        assert!(outcome.n_representatives > 0);
        assert!(outcome.representative_fraction() < 0.5);
    }

    #[test]
    fn single_site_degenerates_to_central_clustering() {
        // With one site, the local clustering is the central clustering and
        // relabeling through the model must preserve it almost exactly.
        let g = dataset_c(5);
        let p = params();
        let outcome = run_dbdc(&g.data, &p, Partitioner::RoundRobin, 1);
        let (central, _) = central_dbscan(&g.data, &p);
        let q = q_dbdc(&outcome.assignment, &central.clustering, ObjectQuality::PII);
        assert!(q.q > 0.95, "quality {}", q.q);
    }

    #[test]
    fn timings_are_recorded() {
        let g = dataset_c(6);
        let outcome = run_dbdc(&g.data, &params(), Partitioner::RoundRobin, 3);
        assert_eq!(outcome.timings.local.len(), 3);
        assert_eq!(outcome.timings.relabel.len(), 3);
        assert!(outcome.timings.dbdc_total() >= outcome.timings.local_max());
        assert!(outcome.timings.dbdc_total_with_relabel() >= outcome.timings.dbdc_total());
        assert_eq!(outcome.site_sizes.iter().sum::<usize>(), g.data.len());
    }

    #[test]
    fn phase_thread_counts_are_recorded() {
        let g = dataset_c(11);
        let seq = run_dbdc(&g.data, &params(), Partitioner::RoundRobin, 3);
        assert_eq!(
            seq.timings.threads,
            PhaseThreads {
                local: 1,
                global: 1,
                relabel: 1
            }
        );
        let thr = run_dbdc_threaded(
            &g.data,
            &params().with_threads(2),
            Partitioner::RoundRobin,
            3,
        );
        assert_eq!(
            thr.timings.threads,
            PhaseThreads {
                local: 6,
                global: 1,
                relabel: 3
            }
        );
    }

    #[test]
    fn empty_dataset_runs() {
        let d = Dataset::new(2);
        let outcome = run_dbdc(&d, &params(), Partitioner::RoundRobin, 2);
        assert_eq!(outcome.assignment.len(), 0);
        assert_eq!(outcome.n_representatives, 0);
    }

    #[test]
    fn many_sites_on_small_data() {
        let g = dataset_c(7);
        let outcome = run_dbdc(&g.data, &params(), Partitioner::RandomEqual { seed: 2 }, 20);
        assert_eq!(outcome.n_sites, 20);
        assert_eq!(outcome.assignment.len(), g.data.len());
    }

    #[test]
    fn network_extended_cost_model() {
        let g = dataset_c(8);
        let outcome = run_dbdc(&g.data, &params(), Partitioner::RoundRobin, 4);
        let lan = crate::network::NetworkModel::lan();
        let slow = crate::network::NetworkModel::slow_uplink();
        let base = outcome.timings.dbdc_total_with_relabel();
        let with_lan = outcome.total_with_network(&lan);
        let with_slow = outcome.total_with_network(&slow);
        assert!(with_lan > base);
        assert!(with_slow > with_lan, "slow uplink must dominate LAN");
    }

    #[test]
    fn network_cost_charges_slowest_site_exactly() {
        // The upload phase is concurrent: the site with the largest encoded
        // model determines the cost, not the per-site average.
        let g = dataset_c(9);
        let outcome = run_dbdc(&g.data, &params(), Partitioner::RandomEqual { seed: 3 }, 4);
        assert_eq!(outcome.per_site_bytes_up.len(), 4);
        assert_eq!(
            outcome.per_site_bytes_up.iter().sum::<usize>(),
            outcome.bytes_up
        );
        assert_eq!(
            outcome.global_model_bytes * outcome.n_sites,
            outcome.bytes_down
        );
        let net = crate::network::NetworkModel::wan();
        let slowest = *outcome.per_site_bytes_up.iter().max().unwrap();
        let expected = outcome.timings.dbdc_total_with_relabel()
            + net.transfer_time(slowest)
            + net.transfer_time(outcome.global_model_bytes);
        assert_eq!(outcome.total_with_network(&net), expected);
    }

    #[test]
    fn network_cost_without_sites_is_pure_compute() {
        // `run_dbdc` insists on at least one site, so build the degenerate
        // outcome by hand: no uploads, no broadcast, only compute time.
        let outcome = DbdcOutcome {
            n_sites: 0,
            global: GlobalModel {
                dim: 2,
                reps: Vec::new(),
                n_clusters: 0,
                eps_global: 1.0,
            },
            assignment: Clustering::from_labels(Vec::new()),
            timings: Timings::default(),
            bytes_up: 0,
            bytes_down: 0,
            per_site_bytes_up: Vec::new(),
            global_model_bytes: 0,
            n_representatives: 0,
            site_sizes: Vec::new(),
        };
        let net = crate::network::NetworkModel::wan();
        assert_eq!(
            outcome.total_with_network(&net),
            outcome.timings.dbdc_total_with_relabel()
        );
    }
}
