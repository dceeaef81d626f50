//! Sequential vs. parallel DBSCAN on dataset C: the deterministic parallel
//! execution layer must produce identical labels while the ε-range query
//! phase scales with the worker count. Thread counts beyond the machine's
//! core count only measure scheduling overhead, so the sweep is still run
//! (the determinism contract must hold everywhere) but speedup claims
//! should be read against `std::thread::available_parallelism`.
//!
//! Besides the criterion timings, the harness writes
//! `BENCH_par_dbscan.json` at the repository root through
//! [`dbdc_bench::report`]: a schema-v2 `RunReport` (the same shape
//! `dbdc-cli --metrics-out` emits) with per-configuration mean walls as
//! spans, a per-configuration wall-time histogram (one sample per
//! repetition, the cells `report diff` compares), the environment
//! fingerprint, and one observed run's work counters per configuration.
//! The timing loops run *unobserved* — the report's counters come from
//! separate instrumented runs, so the emitted walls are the
//! no-op-recorder baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbdc_bench::report::{dataset_checksum, env_fingerprint, wall_histogram, write_bench_json};
use dbdc_cluster::{dbscan, par_dbscan, par_dbscan_observed, DbscanParams};
use dbdc_datagen::dataset_c;
use dbdc_geom::Euclidean;
use dbdc_index::{build_index, build_index_opts, BuildOptions, IndexKind};
use dbdc_obs::{DatasetInfo, Recorder, RecordingRecorder, RunReport, Span};
use std::hint::black_box;
use std::time::{Duration, Instant};

const REPORT_ITERS: u32 = 10;
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn bench_seq_vs_parallel(c: &mut Criterion) {
    let g = dataset_c(42);
    let params = DbscanParams::new(g.suggested_eps, g.suggested_min_pts);
    let idx = build_index(IndexKind::RStar, &g.data, Euclidean, params.eps);

    // The parallel path must be a drop-in replacement before it is worth
    // timing at all.
    let seq = dbscan(&g.data, idx.as_ref(), &params);
    for threads in [2usize, 4, 8] {
        let par = par_dbscan(&g.data, idx.as_ref(), &params, threads);
        assert_eq!(seq.clustering, par.clustering);
        assert_eq!(seq.core, par.core);
    }

    let mut group = c.benchmark_group("par_dbscan_dataset_c");
    group.sample_size(20);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(dbscan(&g.data, idx.as_ref(), &params)));
    });
    for threads in THREAD_SWEEP {
        group.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, &t| {
            b.iter(|| black_box(par_dbscan(&g.data, idx.as_ref(), &params, t)));
        });
    }
    group.finish();

    write_run_report(&g, &params);
}

/// Emits `BENCH_par_dbscan.json`: per-configuration wall histograms and
/// mean walls plus the observed work counters of one instrumented run
/// each.
fn write_run_report(g: &dbdc_datagen::GeneratedData, params: &DbscanParams) {
    let idx = build_index(IndexKind::RStar, &g.data, Euclidean, params.eps);
    let t0 = Instant::now();
    let mut hists = Vec::new();
    let mut root = Span::new("bench_par_dbscan", Duration::ZERO);
    let seq = wall_histogram(REPORT_ITERS, || {
        black_box(dbscan(&g.data, idx.as_ref(), params));
    });
    root.push(Span::new(
        "sequential",
        Duration::from_nanos(seq.mean() as u64),
    ));
    hists.push(("seq/total_ns".to_string(), seq));
    for threads in THREAD_SWEEP {
        let h = wall_histogram(REPORT_ITERS, || {
            black_box(par_dbscan(&g.data, idx.as_ref(), params, threads));
        });
        root.push(
            Span::new(
                format!("parallel[{threads}]"),
                Duration::from_nanos(h.mean() as u64),
            )
            .with_threads(threads),
        );
        hists.push((format!("par[{threads}]/total_ns"), h));
    }
    root.wall = t0.elapsed();

    // Work counters: one observed run per configuration, outside the
    // timing loops.
    let rec = RecordingRecorder::new();
    let seq_sheet = rec.sheet("sequential").expect("recording recorder");
    let seq_idx = build_index_opts(
        IndexKind::RStar,
        &g.data,
        Euclidean,
        params.eps,
        BuildOptions::default(),
        Some(&seq_sheet),
        None,
    );
    dbscan(&g.data, seq_idx.as_ref(), params);
    let threads = 2usize;
    let par_sheet = rec
        .sheet(&format!("parallel[{threads}]"))
        .expect("recording recorder");
    let par_idx = build_index_opts(
        IndexKind::RStar,
        &g.data,
        Euclidean,
        params.eps,
        BuildOptions::default(),
        Some(&par_sheet),
        None,
    );
    par_dbscan_observed(&g.data, par_idx.as_ref(), params, threads, Some(&par_sheet));

    let mut report = RunReport::new("bench_par_dbscan")
        .with_param("dataset", "c")
        .with_param("eps", params.eps)
        .with_param("min_pts", params.min_pts)
        .with_param("index", IndexKind::RStar.name())
        .with_param("report_iters", REPORT_ITERS);
    report.env = Some(env_fingerprint(dataset_checksum(&g.data)));
    report.dataset = Some(DatasetInfo {
        points: g.data.len(),
        dim: g.data.dim(),
    });
    report.spans = vec![root];
    report.scopes = rec.scopes();
    report.hists = hists;

    write_bench_json("par_dbscan", &report);
}

criterion_group!(benches, bench_seq_vs_parallel);
criterion_main!(benches);
