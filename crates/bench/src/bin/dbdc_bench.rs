//! `dbdc-bench`: the continuous-benchmark harness.
//!
//! Runs the declarative matrix — datasets A/B/C × every index backend ×
//! thread counts 1/2/8 — through the full DBDC protocol and writes a
//! `RunReport` (`BENCH_dbdc.json` by default) whose `hists` section
//! holds two histograms per matrix cell, with one sample per
//! repetition:
//!
//! * `…/total_ns` — protocol wall time (min over [`RUNS_PER_SAMPLE`]
//!   back-to-back runs);
//! * `…/build_ns` — the slowest site's index-construction wall of the
//!   same runs (min across the sample's runs, like `total_ns`), so a
//!   regression in arena construction is visible separately from the
//!   query-dominated total;
//! * `…/eps_range_ns` — the *median per-query ε-range latency* of one
//!   latency-observed protocol run (all `local[i]/eps_range_ns` site
//!   histograms merged, then collapsed to their p50). The within-run
//!   median is already robust over thousands of queries, so one
//!   observed run per repetition suffices, and the across-rep spread
//!   stays tight enough for `report diff` to gate on.
//!
//! A second sweep covers the partitioned local phase: every dataset ×
//! index at `--threads 2` with [`PARTITIONS`] spatial stripes per site,
//! as `{set}/{kind}/t2/p{P}/total_ns` cells (partitioned mode builds
//! one private index per stripe, so there is no site-wide build wall to
//! sample).
//!
//! The report also carries a `quality` block: one DBCV score of the
//! distributed clustering per dataset (stored in `per_site` as
//! `a`/`b`/`c`, with their mean as the global value). The protocol is
//! fully seeded, so these are bit-identical across runs of the same
//! build — `report diff`'s directional quality gate catches any
//! clustering-quality regression with zero noise floor.
//!
//! `dbdc-cli report diff BENCH_baseline.json BENCH_dbdc.json` then
//! compares two such files cell by cell.
//!
//! Repetitions are interleaved (rep 0 of every cell, then rep 1, …) so
//! slow host drift — thermal throttling, a background job — spreads
//! across all cells instead of biasing the cells that happened to run
//! last. The per-cell spread that interleaving captures is exactly what
//! the diff uses as its noise floor.
//!
//! Quick mode (the default) truncates each dataset to a small prefix so
//! the whole matrix finishes in seconds on CI; `--full` runs the native
//! dataset sizes. Cell names are identical in both modes, so a quick
//! baseline diffs cleanly against a quick run.
//!
//! ```text
//! dbdc-bench [--reps N] [--out PATH] [--full]
//! ```

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dbdc::{run_dbdc, run_dbdc_recorded, DbdcParams, Partitioner};
use dbdc_bench::report::{dataset_checksum, env_fingerprint};
use dbdc_cluster::dbcv::dbcv;
use dbdc_datagen::{dataset_a, dataset_b, dataset_c, GeneratedData};
use dbdc_geom::{Dataset, Euclidean};
use dbdc_index::IndexKind;
use dbdc_obs::{DatasetInfo, Histogram, NoopRecorder, QualityStats, RecordingRecorder, RunReport};

/// Thread counts each (dataset, index) pair is swept over.
const THREADS: [usize; 3] = [1, 2, 8];

/// Partition counts of the partitioned-local sweep (at `--threads 2`).
const PARTITIONS: [usize; 2] = [2, 4];

/// Quick mode keeps this many points per dataset. Sized so each cell
/// runs long enough (tens of milliseconds) that millisecond-scale OS
/// scheduling noise stays inside the diff's default tolerance.
const QUICK_POINTS: usize = 2_000;

/// Sites the protocol distributes every cell over.
const SITES: usize = 4;

/// Each recorded sample is the minimum wall over this many
/// back-to-back protocol runs. The min strips scheduler hiccups (a
/// preempted run only ever reads *slower*, never faster), so the
/// per-cell distribution reflects the code, not the host's mood —
/// which is what makes the diff's percentile gates stable enough to
/// hold on a shared machine.
const RUNS_PER_SAMPLE: u32 = 5;

struct Cli {
    reps: u32,
    out: String,
    full: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        reps: 20,
        out: "BENCH_dbdc.json".to_string(),
        full: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("--{name} needs a value"));
        match arg.as_str() {
            "--reps" => {
                cli.reps = value("reps")?.parse().map_err(|e| format!("--reps: {e}"))?;
                if cli.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--out" => cli.out = value("out")?,
            "--full" => cli.full = true,
            "--help" | "-h" => {
                println!("usage: dbdc-bench [--reps N] [--out PATH] [--full]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// The first `n` points of `g.data` (ground truth is irrelevant here —
/// the harness times the protocol, it doesn't score quality).
fn truncate(g: &GeneratedData, n: usize) -> Dataset {
    let mut d = Dataset::with_capacity(g.data.dim(), n.min(g.data.len()));
    for p in g.data.iter().take(n) {
        d.push(p);
    }
    d
}

struct BenchDataset {
    name: &'static str,
    data: Dataset,
    eps: f64,
    min_pts: usize,
}

fn datasets(full: bool) -> Vec<BenchDataset> {
    [
        ("a", dataset_a(7)),
        ("b", dataset_b(7)),
        ("c", dataset_c(7)),
    ]
    .into_iter()
    .map(|(name, g)| BenchDataset {
        name,
        data: if full {
            g.data.clone()
        } else {
            truncate(&g, QUICK_POINTS)
        },
        eps: g.suggested_eps,
        min_pts: g.suggested_min_pts,
    })
    .collect()
}

fn main() {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("dbdc-bench: {e}");
            std::process::exit(2);
        }
    };

    let sets = datasets(cli.full);
    // One checksum covering all three inputs, so the fingerprint pins
    // the exact data the matrix timed.
    let checksum = sets
        .iter()
        .map(|s| dataset_checksum(&s.data))
        .collect::<Vec<_>>()
        .join("-");
    let total_points: usize = sets.iter().map(|s| s.data.len()).sum();

    // Cell name → histogram of per-repetition protocol walls.
    let mut cells: BTreeMap<String, Histogram> = BTreeMap::new();
    let n_cells = sets.len() * IndexKind::ALL.len() * (THREADS.len() + PARTITIONS.len());
    eprintln!(
        "dbdc-bench: {n_cells} cells x {} reps ({} mode, {total_points} points total)",
        cli.reps,
        if cli.full { "full" } else { "quick" },
    );

    // Rep 0 is an unrecorded warmup pass: it touches every allocation
    // path and faults in the pages, so cold-start cost doesn't land in
    // one recorded cell.
    for rep in 0..cli.reps + 1 {
        for set in &sets {
            for kind in IndexKind::ALL {
                for threads in THREADS {
                    let params = DbdcParams::new(set.eps, set.min_pts)
                        .with_index(kind)
                        .with_threads(threads);
                    let runs = if rep == 0 { 1 } else { RUNS_PER_SAMPLE };
                    let mut wall = Duration::MAX;
                    let mut build = Duration::MAX;
                    for _ in 0..runs {
                        let t0 = Instant::now();
                        let outcome = run_dbdc(
                            &set.data,
                            &params,
                            Partitioner::RandomEqual { seed: 11 },
                            SITES,
                        );
                        wall = wall.min(t0.elapsed());
                        // The slowest site's index-construction wall: the
                        // build cost on the protocol's critical path.
                        build = build.min(
                            outcome
                                .timings
                                .local
                                .iter()
                                .map(|t| t.build)
                                .max()
                                .unwrap_or(Duration::ZERO),
                        );
                        std::hint::black_box(&outcome.assignment);
                    }
                    if rep == 0 {
                        continue;
                    }
                    let cell = format!("{}/{}/t{}/total_ns", set.name, kind.name(), threads);
                    cells.entry(cell).or_default().record_duration(wall);
                    let cell = format!("{}/{}/t{}/build_ns", set.name, kind.name(), threads);
                    cells.entry(cell).or_default().record_duration(build);
                    // One latency-observed run per repetition: merge the
                    // per-site ε-range query histograms and record their
                    // median as this rep's eps_range_ns sample.
                    let rec = RecordingRecorder::new();
                    let outcome = run_dbdc_recorded(
                        &set.data,
                        &params,
                        Partitioner::RandomEqual { seed: 11 },
                        SITES,
                        &rec,
                    );
                    std::hint::black_box(&outcome.assignment);
                    let mut merged = Histogram::default();
                    for (scope, h) in rec.hist_scopes() {
                        if scope.starts_with("local[") && scope.ends_with("/eps_range_ns") {
                            merged.merge(&h);
                        }
                    }
                    if !merged.is_empty() {
                        let cell =
                            format!("{}/{}/t{}/eps_range_ns", set.name, kind.name(), threads);
                        cells.entry(cell).or_default().record(merged.p50());
                    }
                }
                // The partitioned-local sweep: each site split into P
                // partitions on two workers (in 2-d, P cell ranges of the
                // grid kernel's one site grid). The clustering is
                // identical to the cells above; only the wall should move.
                for parts in PARTITIONS {
                    let params = DbdcParams::new(set.eps, set.min_pts)
                        .with_index(kind)
                        .with_threads(2)
                        .with_partitions(parts);
                    let runs = if rep == 0 { 1 } else { RUNS_PER_SAMPLE };
                    let mut wall = Duration::MAX;
                    for _ in 0..runs {
                        let t0 = Instant::now();
                        let outcome = run_dbdc(
                            &set.data,
                            &params,
                            Partitioner::RandomEqual { seed: 11 },
                            SITES,
                        );
                        wall = wall.min(t0.elapsed());
                        std::hint::black_box(&outcome.assignment);
                    }
                    if rep == 0 {
                        continue;
                    }
                    let cell = format!("{}/{}/t2/p{}/total_ns", set.name, kind.name(), parts);
                    cells.entry(cell).or_default().record_duration(wall);
                }
            }
        }
        if rep == 0 {
            eprintln!("dbdc-bench: warmup done");
        } else {
            eprintln!("dbdc-bench: rep {}/{} done", rep, cli.reps);
        }
    }

    // One DBCV score per dataset, pinned to the sequential R*-tree run.
    // An unpartitioned run picks its specific core points in its index's
    // answer order, so the backend can change the clustering: data set
    // B's quick DBCV is 0.4719 under rstar, 0.4686 kdtree, 0.4649 grid
    // and 0.3276 linear. Deterministic: same build + seed → same bits.
    let mut per_set = Vec::with_capacity(sets.len());
    let mut q_clusters = 0usize;
    let mut q_noise = 0usize;
    for set in &sets {
        let params = DbdcParams::new(set.eps, set.min_pts).with_index(IndexKind::RStar);
        let outcome = run_dbdc(
            &set.data,
            &params,
            Partitioner::RandomEqual { seed: 11 },
            SITES,
        );
        let q = dbcv(&set.data, &outcome.assignment, Euclidean, &NoopRecorder);
        eprintln!("dbdc-bench: dataset {} DBCV {:+.4}", set.name, q.value);
        q_clusters += q.n_clusters;
        q_noise += q.n_noise;
        per_set.push((set.name.to_string(), q.value));
    }
    let mean_dbcv = per_set.iter().map(|(_, v)| v).sum::<f64>() / per_set.len() as f64;
    let mut quality = QualityStats::from_dbcv(mean_dbcv, q_clusters, q_noise, Vec::new());
    quality.per_site = per_set;

    let mut report = RunReport::new("dbdc-bench")
        .with_param("reps", cli.reps)
        .with_param("mode", if cli.full { "full" } else { "quick" })
        .with_param("sites", SITES)
        .with_param("threads", THREADS.map(|t| t.to_string()).join(","));
    report.env = Some(env_fingerprint(checksum));
    report.dataset = Some(DatasetInfo {
        points: total_points,
        dim: 2,
    });
    report.hists = cells.into_iter().collect();
    report.quality = Some(quality);

    std::fs::write(&cli.out, report.to_json_string()).unwrap_or_else(|e| {
        eprintln!("dbdc-bench: write {}: {e}", cli.out);
        std::process::exit(1);
    });
    println!("{}", report.render());
    println!("wrote {}", cli.out);
}
