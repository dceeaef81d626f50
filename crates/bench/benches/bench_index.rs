//! Micro-benchmarks of the spatial index backends (the `abl-index`
//! companion): build cost and ε-range query cost on dataset-A-like data.
//!
//! Besides the criterion timings, the harness writes `BENCH_index.json`
//! at the repository root through [`dbdc_bench::report`]: a schema-v2
//! `RunReport` with a per-backend wall histogram for build, a batch of
//! ε-range queries, and a batch of knn queries, plus the environment
//! fingerprint — diffable with `dbdc-cli report diff`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbdc_bench::report::{dataset_checksum, env_fingerprint, wall_histogram, write_bench_json};
use dbdc_datagen::scaled_a;
use dbdc_geom::Euclidean;
use dbdc_index::{build_index, IndexKind};
use dbdc_obs::{DatasetInfo, RunReport};
use std::hint::black_box;

const REPORT_ITERS: u32 = 5;
const QUERY_BATCH: u32 = 200;

const N: usize = 5_000;
const EPS: f64 = 1.0;

fn bench_build(c: &mut Criterion) {
    let g = scaled_a(N, 7);
    let mut group = c.benchmark_group("index_build");
    for kind in IndexKind::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, &k| {
            b.iter(|| black_box(build_index(k, &g.data, Euclidean, EPS)));
        });
    }
    group.finish();
}

fn bench_range_query(c: &mut Criterion) {
    let g = scaled_a(N, 7);
    let mut group = c.benchmark_group("index_range_query");
    for kind in IndexKind::ALL {
        let idx = build_index(kind, &g.data, Euclidean, EPS);
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, _| {
            let mut out = Vec::new();
            let mut i = 0u32;
            b.iter(|| {
                i = (i + 37) % N as u32;
                idx.range(g.data.point(i), EPS, &mut out);
                black_box(out.len())
            });
        });
    }
    group.finish();
}

fn bench_knn(c: &mut Criterion) {
    let g = scaled_a(N, 7);
    let mut group = c.benchmark_group("index_knn10");
    for kind in IndexKind::ALL {
        let idx = build_index(kind, &g.data, Euclidean, EPS);
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, _| {
            let mut i = 0u32;
            b.iter(|| {
                i = (i + 37) % N as u32;
                black_box(idx.knn(g.data.point(i), 10))
            });
        });
    }
    group.finish();
}

/// Emits `BENCH_index.json`: per-backend wall histograms for build and
/// query batches, timed outside criterion with [`wall_histogram`].
fn write_run_report(_c: &mut Criterion) {
    let g = scaled_a(N, 7);
    let mut hists = Vec::new();
    for kind in IndexKind::ALL {
        hists.push((
            format!("{}/build_ns", kind.name()),
            wall_histogram(REPORT_ITERS, || {
                black_box(build_index(kind, &g.data, Euclidean, EPS));
            }),
        ));
        let idx = build_index(kind, &g.data, Euclidean, EPS);
        let mut out = Vec::new();
        let mut i = 0u32;
        hists.push((
            format!("{}/range_batch_ns", kind.name()),
            wall_histogram(REPORT_ITERS, || {
                for _ in 0..QUERY_BATCH {
                    i = (i + 37) % N as u32;
                    idx.range(g.data.point(i), EPS, &mut out);
                    black_box(out.len());
                }
            }),
        ));
        hists.push((
            format!("{}/knn10_batch_ns", kind.name()),
            wall_histogram(REPORT_ITERS, || {
                for _ in 0..QUERY_BATCH {
                    i = (i + 37) % N as u32;
                    black_box(idx.knn(g.data.point(i), 10));
                }
            }),
        ));
    }
    let mut report = RunReport::new("bench_index")
        .with_param("n", N)
        .with_param("eps", EPS)
        .with_param("query_batch", QUERY_BATCH)
        .with_param("report_iters", REPORT_ITERS);
    report.env = Some(env_fingerprint(dataset_checksum(&g.data)));
    report.dataset = Some(DatasetInfo {
        points: g.data.len(),
        dim: g.data.dim(),
    });
    report.hists = hists;
    write_bench_json("index", &report);
}

criterion_group!(
    benches,
    bench_build,
    bench_range_query,
    bench_knn,
    write_run_report
);
criterion_main!(benches);
