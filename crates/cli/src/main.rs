//! `dbdc-cli` — run DBDC from the command line.
//!
//! ```text
//! dbdc-cli generate --set a --seed 42 --out points.csv
//! dbdc-cli central  --input points.csv --eps 1.0 --min-pts 5 --out labels.csv
//! dbdc-cli run      --input points.csv --eps 1.0 --min-pts 5 --sites 4 \
//!                   --model scor --eps-global 2.0 --out labels.csv
//! dbdc-cli compare  --input points.csv --eps 1.0 --min-pts 5 --sites 4
//! ```

use dbdc::observe::cluster_stats;
use dbdc::{
    central_dbscan_recorded, dbdc_run_report, q_dbdc, run_dbdc_recorded,
    run_dbdc_threaded_recorded, EpsGlobal, ObjectQuality, Partitioner,
};
use dbdc_cli::args::Args;
use dbdc_cli::opts::{
    build_params, eps_global_choice, finish_report, local_params, no_positionals, parse_link,
    parse_partitioner, quality_stats, read_input, require_sites, wants_report, CliResult,
};
use dbdc_cli::{csv, netcmd};
use dbdc_geom::Dataset;
use dbdc_obs::{fmt_ms, DatasetInfo, NoopRecorder, Recorder, RecordingRecorder, RunReport, Span};
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(rest),
        "central" => cmd_central(rest),
        "run" => cmd_run(rest),
        "compare" => cmd_compare(rest),
        "tune" => cmd_tune(rest),
        "plot" => cmd_plot(rest),
        "suggest" => cmd_suggest(rest),
        "stream" => cmd_stream(rest),
        "serve" => netcmd::cmd_serve(rest),
        "site" => netcmd::cmd_site(rest),
        "proxy" => netcmd::cmd_proxy(rest),
        "watch" => netcmd::cmd_watch(rest),
        "report" => cmd_report(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
dbdc-cli — Density Based Distributed Clustering (EDBT 2004)

commands:
  generate --set a|b|c --seed N [--n N] [--out FILE] [--truth]
      write a synthetic test data set as CSV (x,y; --truth appends labels)
  central --input FILE --eps E --min-pts M [--index KIND] [--threads T]
      [--out FILE]
      central DBSCAN over a CSV point file
  run --input FILE --eps E --min-pts M --sites K [--model scor|kmeans]
      [--eps-global MULT|max] [--partitioner random|roundrobin|stripes]
      [--seed N] [--threaded] [--threads T] [--partitions P]
      [--precision f64|f32] [--out FILE]
      the DBDC protocol over K simulated sites
  compare --input FILE --eps E --min-pts M --sites K [--model scor|kmeans]
      [--eps-global MULT|max] [--seed N] [--threads T] [--partitions P]
      [--precision f64|f32]
      run both and report the paper's quality measures
  tune --input FILE --eps E --min-pts M --sites K [--model scor|kmeans]
      [--candidates LIST] [--partitioner ...] [--seed N] [--threads T]
      sweep Eps_global candidates (multipliers or \"max\", default
      1.0,1.5,2.0,2.5,3.0,4.0,max), score each distributed run by its
      ground-truth-free DBCV, print the sweep table, select the argmax
  plot --input FILE --out FILE.svg [--eps E --min-pts M] [--title T]
      render a CSV point file as an SVG scatter plot, clustered with
      DBSCAN when --eps/--min-pts are given
  suggest --input FILE [--k K]
      suggest an Eps via the sorted k-distance knee (k defaults to 4)
  stream --input FILE --eps E --min-pts M --sites K [--batch N]
      [--drift D] [--seed S]
      replay the file as a stream into incremental client sessions and an
      incremental server; report transmissions saved by drift gating
  serve ... / site ...
      the DBDC protocol over real TCP — also built as the standalone
      dbdc-server and dbdc-site binaries; run `dbdc-cli serve --help`
      or `dbdc-cli site --help` for their flags; both take --run-id ID
      so their reports can be merged
  proxy ...
      a fault-injecting TCP forwarder between sites and server; run
      `dbdc-cli proxy --help` for its flags
  watch ADDR [ADDR...] [--interval MS] [--once]
      poll the fleet's --admin-addr /metrics endpoints and render a live
      table of frame/byte rates, retries, per-phase percentiles, and
      session state; run `dbdc-cli watch --help` for details
  report --input FILE [--require NAME,NAME,...]
      [--require-counter NAME,NAME,...] [--require-quality SCOPE,...]
      [--hist]
      render a --metrics-out JSON report; fail unless every --require'd
      name is present as a phase span or histogram scope, every
      --require-counter'd counter is nonzero in some scope, and every
      --require-quality'd scope (global, or a per-site name like
      site[0]) carries a finite DBCV; --hist prints only the histogram
      table
  report diff OLD NEW [--threshold FRACTION]
      [--quality-threshold DROP] [--only SUBSTR]
      compare two reports cell-by-cell (per-histogram p50/p99, plus
      quality/* cells) and exit nonzero on regression; histogram
      tolerance is max(FRACTION, baseline cell spread), FRACTION
      defaulting to 0.25; quality cells gate directionally — rises
      pass, drops beyond the absolute DROP (default 0.10) fail, and
      --threshold never loosens them; --only gates just the cells
      whose name contains SUBSTR
  report merge SERVER [SITE...] --out FILE
      join one server report with its site reports (matched by
      --run-id) into a single fleet report: counters summed, histograms
      bucket-merged, spans grafted under per-site subtrees; a lone
      server report merges into a degenerate fleet report (with a
      warning), which is what a killed fleet leaves behind
  report timeline REPORT --out trace.json
      render a (merged) report's span forest as Chrome trace_event
      JSON — one pid per process, clocks aligned via the handshake
      spans; open in chrome://tracing or ui.perfetto.dev

KIND: linear|grid|kdtree|rstar (default rstar)
T: DBSCAN worker threads; 1 = sequential (default), 0 = all cores.
   The clustering is identical for every value.
P: spatial partitions per site's local phase; 1 = one index over the
   whole shard (default), 0 = one partition per worker thread. Each
   partition is an ε-halo'd stripe along the shard's widest-spread axis
   with its own private index; labels are identical for every value.
--precision f32 stores index coordinates as f32 (half the scan
   bandwidth); approximate near the ε boundary, so `run` also executes
   the f64 oracle and reports label agreement plus the DBCV delta.

observability (every command):
  --trace              print the phase-span tree and counter scopes
  --metrics-out FILE   write the full RunReport as JSON
  --run-id ID          shared run identity stamped into the report
                       (run/compare/serve/site/proxy); `report merge`
                       matches fleet reports on it
  --link lan|wan|slow_uplink|BW:LAT_MS
                       link for the modeled upload/broadcast spans in
                       run/compare reports (default wan); custom links are
                       BYTES_PER_SEC:LATENCY_MS, e.g. 125000:250";

/// A minimal report for commands without a distributed run: one span,
/// the input dataset, and whatever scopes the recorder collected.
fn simple_report(
    command: &str,
    dataset: Option<DatasetInfo>,
    span: Span,
    rec: &RecordingRecorder,
) -> RunReport {
    let mut report = RunReport::new(command);
    report.dataset = dataset;
    report.spans = vec![span];
    report.scopes = rec.scopes();
    report.hists = rec.hist_scopes();
    report
}

fn write_output(
    args: &Args,
    data: &Dataset,
    labels: &dbdc_geom::Clustering,
) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = args.get("out") {
        let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        csv::write_dataset(BufWriter::new(file), data, Some(labels))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_generate(raw: &[String]) -> CliResult {
    let args = Args::parse(
        raw,
        &["set", "seed", "n", "out", "truth", "trace", "metrics-out"],
    )?;
    no_positionals(&args)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let t0 = Instant::now();
    let g = match args.require("set")? {
        "a" | "A" => match args.get("n") {
            Some(_) => dbdc_datagen::scaled_a(args.require_as("n")?, seed),
            None => dbdc_datagen::dataset_a(seed),
        },
        "b" | "B" => dbdc_datagen::dataset_b(seed),
        "c" | "C" => dbdc_datagen::dataset_c(seed),
        other => return Err(format!("--set expects a|b|c, got {other:?}").into()),
    };
    let gen_time = t0.elapsed();
    println!(
        "generated {} points, {} true clusters (suggested: --eps {} --min-pts {})",
        g.data.len(),
        g.truth.n_clusters(),
        g.suggested_eps,
        g.suggested_min_pts
    );
    // Truth labels are written only on request: the default output must be
    // directly consumable by `central`/`run`/`compare`.
    let truth = args.switch("truth").then_some(&g.truth);
    match args.get("out") {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            csv::write_dataset(BufWriter::new(file), &g.data, truth)?;
            println!("wrote {path}");
        }
        None => csv::write_dataset(std::io::stdout().lock(), &g.data, truth)?,
    }
    if wants_report(&args) {
        let report = simple_report(
            "generate",
            Some(DatasetInfo {
                points: g.data.len(),
                dim: g.data.dim(),
            }),
            Span::new("generate", gen_time),
            &RecordingRecorder::new(),
        )
        .with_param("set", args.require("set")?)
        .with_param("seed", seed);
        finish_report(&args, &report)?;
    }
    Ok(())
}

fn cmd_central(raw: &[String]) -> CliResult {
    let args = Args::parse(
        raw,
        &[
            "input",
            "eps",
            "min-pts",
            "index",
            "threads",
            "out",
            "trace",
            "metrics-out",
        ],
    )?;
    no_positionals(&args)?;
    let data = read_input(&args)?;
    let params = local_params(&args)?
        .with_index(args.get_or("index", dbdc_index::IndexKind::RStar)?)
        .with_threads(args.get_or("threads", 1)?);
    let wants = wants_report(&args);
    let rec = RecordingRecorder::new();
    let recorder: &dyn Recorder = if wants { &rec } else { &NoopRecorder };
    let (result, elapsed) = central_dbscan_recorded(&data, &params, recorder);
    println!(
        "central DBSCAN: {} points -> {} clusters, {} noise in {}",
        data.len(),
        result.clustering.n_clusters(),
        result.clustering.n_noise(),
        fmt_ms(elapsed)
    );
    if wants {
        let mut report = RunReport::new("central")
            .with_param("eps_local", params.eps_local)
            .with_param("min_pts_local", params.min_pts_local)
            .with_param("index", params.index.name())
            .with_param("threads", params.threads);
        report.dataset = Some(DatasetInfo {
            points: data.len(),
            dim: data.dim(),
        });
        report.spans = rec.spans();
        report.scopes = rec.scopes();
        report.hists = rec.hist_scopes();
        report.clusters = Some(cluster_stats(
            result.clustering.n_clusters() as usize,
            result.clustering.labels(),
        ));
        finish_report(&args, &report)?;
    }
    write_output(&args, &data, &result.clustering)
}

fn cmd_run(raw: &[String]) -> CliResult {
    let args = Args::parse(
        raw,
        &[
            "input",
            "eps",
            "min-pts",
            "sites",
            "model",
            "eps-global",
            "partitioner",
            "seed",
            "threaded",
            "threads",
            "partitions",
            "precision",
            "index",
            "out",
            "trace",
            "metrics-out",
            "link",
            "run-id",
        ],
    )?;
    no_positionals(&args)?;
    let data = read_input(&args)?;
    let params = build_params(&args)?;
    let sites = require_sites(&args)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let part = parse_partitioner(&args, seed)?;
    let link = parse_link(&args)?;
    let wants = wants_report(&args);
    let rec = RecordingRecorder::new();
    let recorder: &dyn Recorder = if wants { &rec } else { &NoopRecorder };
    let outcome = if args.switch("threaded") {
        run_dbdc_threaded_recorded(&data, &params, part, sites, recorder)
    } else {
        run_dbdc_recorded(&data, &params, part, sites, recorder)
    };
    println!(
        "DBDC({}) over {sites} sites: {} clusters, {} noise",
        params.model.name(),
        outcome.assignment.n_clusters(),
        outcome.assignment.n_noise()
    );
    println!(
        "representatives: {} ({:.1}% of data); transfer: {} B up, {} B down",
        outcome.n_representatives,
        100.0 * outcome.representative_fraction(),
        outcome.bytes_up,
        outcome.bytes_down
    );
    println!(
        "per-site upload bytes: {:?}; global model: {} B per site",
        outcome.per_site_bytes_up, outcome.global_model_bytes
    );
    println!(
        "timings: local max {}, global {}, total {}",
        fmt_ms(outcome.timings.local_max()),
        fmt_ms(outcome.timings.global),
        fmt_ms(outcome.timings.dbdc_total())
    );
    // --precision f32 is approximate near the ε boundary, so the run is
    // judged against the bit-exact f64 oracle: the same data, partitioner,
    // and parameters, with only the scan precision flipped back.
    let oracle = (params.precision == dbdc_index::Precision::F32).then(|| {
        let oracle_params = params.with_precision(dbdc_index::Precision::F64);
        if args.switch("threaded") {
            run_dbdc_threaded_recorded(&data, &oracle_params, part, sites, &NoopRecorder)
        } else {
            run_dbdc_recorded(&data, &oracle_params, part, sites, &NoopRecorder)
        }
    });
    let agreement = oracle
        .as_ref()
        .map(|o| label_agreement(&outcome.assignment, &o.assignment));
    if let Some(frac) = agreement {
        println!("f32 vs f64 oracle: {:.2}% label agreement", 100.0 * frac);
    }
    if wants {
        // DBCV is the ground-truth-free validity of the final labeling;
        // computed only when a report is requested (it reads the whole
        // dataset again).
        let quality = quality_stats(&data, &outcome.assignment, params.index, recorder);
        println!(
            "quality: DBCV {:+.4} over {} cluster(s), {} noise",
            quality.dbcv, quality.clusters, quality.noise
        );
        let mut report = dbdc_run_report(
            "run",
            data.dim(),
            &params,
            &outcome,
            &rec,
            Some(link),
            args.get("run-id").map(String::from),
        );
        if let (Some(frac), Some(o)) = (agreement, &oracle) {
            let oracle_q = quality_stats(&data, &o.assignment, params.index, &NoopRecorder);
            let delta = quality.dbcv - oracle_q.dbcv;
            println!(
                "f32 DBCV {:+.4} vs f64 oracle {:+.4} (delta {:+.4})",
                quality.dbcv, oracle_q.dbcv, delta
            );
            report
                .params
                .push(("f32_label_agreement".into(), format!("{frac:.6}")));
            report
                .params
                .push(("f32_dbcv_delta".into(), format!("{delta:+.6}")));
        }
        report.quality = Some(quality);
        finish_report(&args, &report)?;
    }
    write_output(&args, &data, &outcome.assignment)
}

/// Fraction of points on which two clusterings agree, under the greedy
/// first-occurrence bijection between their cluster ids: noise must map
/// to noise, and two clustered points agree only while the id mapping
/// stays one-to-one in both directions.
fn label_agreement(a: &dbdc_geom::Clustering, b: &dbdc_geom::Clustering) -> f64 {
    use std::collections::HashMap;
    assert_eq!(
        a.labels().len(),
        b.labels().len(),
        "clusterings must cover the same points"
    );
    if a.labels().is_empty() {
        return 1.0;
    }
    let mut fwd: HashMap<u32, u32> = HashMap::new();
    let mut rev: HashMap<u32, u32> = HashMap::new();
    let mut same = 0usize;
    for (la, lb) in a.labels().iter().zip(b.labels()) {
        match (la.cluster(), lb.cluster()) {
            (None, None) => same += 1,
            (Some(ca), Some(cb)) => {
                let f = *fwd.entry(ca).or_insert(cb);
                let r = *rev.entry(cb).or_insert(ca);
                if f == cb && r == ca {
                    same += 1;
                }
            }
            _ => {}
        }
    }
    same as f64 / a.labels().len() as f64
}

fn cmd_compare(raw: &[String]) -> CliResult {
    let args = Args::parse(
        raw,
        &[
            "input",
            "eps",
            "min-pts",
            "sites",
            "model",
            "eps-global",
            "seed",
            "threads",
            "partitions",
            "precision",
            "index",
            "trace",
            "metrics-out",
            "link",
            "run-id",
        ],
    )?;
    no_positionals(&args)?;
    let data = read_input(&args)?;
    let params = build_params(&args)?;
    let sites = require_sites(&args)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let link = parse_link(&args)?;
    let wants = wants_report(&args);
    let rec = RecordingRecorder::new();
    let recorder: &dyn Recorder = if wants { &rec } else { &NoopRecorder };
    let (central, central_time) = central_dbscan_recorded(&data, &params, recorder);
    let outcome = run_dbdc_recorded(
        &data,
        &params,
        Partitioner::RandomEqual { seed },
        sites,
        recorder,
    );
    let p1 = q_dbdc(
        &outcome.assignment,
        &central.clustering,
        ObjectQuality::PI {
            qp: params.min_pts_local,
        },
    );
    let p2 = q_dbdc(&outcome.assignment, &central.clustering, ObjectQuality::PII);
    println!(
        "central: {} clusters in {} | DBDC({}): {} clusters in {} (speedup {:.2}x)",
        central.clustering.n_clusters(),
        fmt_ms(central_time),
        params.model.name(),
        outcome.assignment.n_clusters(),
        fmt_ms(outcome.timings.dbdc_total()),
        central_time.as_secs_f64() / outcome.timings.dbdc_total().as_secs_f64()
    );
    println!(
        "quality: P^I {:.1}%  P^II {:.1}%  | representatives {:.1}%  bytes up {}",
        100.0 * p1.q,
        100.0 * p2.q,
        100.0 * outcome.representative_fraction(),
        outcome.bytes_up
    );
    println!(
        "per-site upload bytes: {:?}; global model: {} B per site",
        outcome.per_site_bytes_up, outcome.global_model_bytes
    );
    if wants {
        // The paper's reference-based breakdown becomes counters so
        // `--metrics-out` captures what the stdout line above prints;
        // P^II is the finer measure, so its per-object breakdown is the
        // one recorded (the noise splits are identical under both).
        if let Some(sheet) = rec.sheet("quality") {
            sheet.add_quality_breakdown(
                p2.perfect as u64,
                p2.zero as u64,
                p2.noise_both as u64,
                p2.noise_distr_only as u64,
                p2.noise_central_only as u64,
            );
        }
        let mut quality = quality_stats(&data, &outcome.assignment, params.index, recorder);
        quality.q_dbdc_p1 = Some(p1.q);
        quality.q_dbdc_p2 = Some(p2.q);
        let mut report = dbdc_run_report(
            "compare",
            data.dim(),
            &params,
            &outcome,
            &rec,
            Some(link),
            args.get("run-id").map(String::from),
        );
        report.params.push(("p_i".into(), format!("{:.4}", p1.q)));
        report.params.push(("p_ii".into(), format!("{:.4}", p2.q)));
        report.quality = Some(quality);
        finish_report(&args, &report)?;
    }
    Ok(())
}

/// Default `tune` sweep grid. Includes the CLI's default Eps_global
/// (`x2.0`) so the selection can never score below the out-of-the-box
/// setting, plus the paper-motivated extreme (`max`).
const TUNE_CANDIDATES: &str = "1.0,1.5,2.0,2.5,3.0,4.0,max";

fn cmd_tune(raw: &[String]) -> CliResult {
    let args = Args::parse(
        raw,
        &[
            "input",
            "eps",
            "min-pts",
            "sites",
            "model",
            "candidates",
            "partitioner",
            "seed",
            "threads",
            "index",
            "trace",
            "metrics-out",
            "run-id",
        ],
    )?;
    no_positionals(&args)?;
    let data = read_input(&args)?;
    let base = build_params(&args)?;
    let sites = require_sites(&args)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let part = parse_partitioner(&args, seed)?;
    let spec = args.get("candidates").unwrap_or(TUNE_CANDIDATES);
    let mut candidates: Vec<(String, EpsGlobal)> = Vec::new();
    for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        candidates.push((tok.to_string(), eps_global_choice("candidates", tok)?));
    }
    if candidates.is_empty() {
        return Err("--candidates is empty".into());
    }

    let wants = wants_report(&args);
    let rec = RecordingRecorder::new();
    let recorder: &dyn Recorder = if wants { &rec } else { &NoopRecorder };
    let t0 = Instant::now();
    let mut rows = Vec::with_capacity(candidates.len());
    let mut spans = Vec::with_capacity(candidates.len());
    println!(
        "{:<12} {:>8} {:>7} {:>7} {:>10} {:>8}",
        "eps_global", "clusters", "noise", "reps%", "bytes_up", "DBCV"
    );
    for (name, eg) in &candidates {
        let params = base.with_eps_global(*eg);
        let c0 = Instant::now();
        let outcome = run_dbdc_recorded(&data, &params, part, sites, &NoopRecorder);
        // The sweep is scored by DBCV alone: ground-truth-free, so the
        // same procedure works on unlabeled production data.
        let quality = quality_stats(&data, &outcome.assignment, params.index, recorder);
        spans.push(Span::new(format!("candidate[{name}]"), c0.elapsed()));
        println!(
            "{:<12} {:>8} {:>7} {:>6.1}% {:>10} {:>+8.4}",
            name,
            quality.clusters,
            quality.noise,
            100.0 * outcome.representative_fraction(),
            outcome.bytes_up,
            quality.dbcv
        );
        rows.push((name.clone(), quality));
    }
    // Argmax by DBCV; ties keep the earliest (smallest) candidate, so a
    // flat curve still picks the cheapest Eps_global.
    let best = rows
        .iter()
        .enumerate()
        .max_by(|(ia, (_, a)), (ib, (_, b))| {
            a.dbcv
                .partial_cmp(&b.dbcv)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ib.cmp(ia))
        })
        .map(|(i, _)| i)
        .unwrap_or(0);
    let (best_name, best_quality) = &rows[best];
    println!(
        "selected --eps-global {best_name} (DBCV {:+.4})",
        best_quality.dbcv
    );

    if wants {
        let mut root = Span::new("tune", t0.elapsed());
        for s in spans {
            root.push(s);
        }
        let mut report = RunReport::new("tune")
            .with_identity("tune", args.get("run-id").map(String::from), "tune")
            .with_param("eps_local", base.eps_local)
            .with_param("min_pts_local", base.min_pts_local)
            .with_param("sites", sites)
            .with_param("candidates", spec)
            .with_param("selected_eps_global", best_name.as_str());
        report.dataset = Some(DatasetInfo {
            points: data.len(),
            dim: data.dim(),
        });
        for (name, q) in &rows {
            report
                .params
                .push((format!("dbcv[{name}]"), format!("{:.6}", q.dbcv)));
        }
        report.spans = vec![root];
        report.scopes = rec.scopes();
        report.hists = rec.hist_scopes();
        report.quality = Some(best_quality.clone());
        finish_report(&args, &report)?;
    }
    Ok(())
}

fn cmd_plot(raw: &[String]) -> CliResult {
    let args = Args::parse(
        raw,
        &[
            "input",
            "out",
            "eps",
            "min-pts",
            "title",
            "index",
            "trace",
            "metrics-out",
        ],
    )?;
    no_positionals(&args)?;
    let data = read_input(&args)?;
    if data.dim() != 2 {
        return Err("plot requires 2-d data".into());
    }
    let wants = wants_report(&args);
    let rec = RecordingRecorder::new();
    let recorder: &dyn Recorder = if wants { &rec } else { &NoopRecorder };
    let t0 = Instant::now();
    let clustering = match (args.get("eps"), args.get("min-pts")) {
        (Some(_), Some(_)) => {
            let params = local_params(&args)?
                .with_index(args.get_or("index", dbdc_index::IndexKind::RStar)?);
            let (result, _) = central_dbscan_recorded(&data, &params, recorder);
            println!(
                "clustered: {} clusters, {} noise",
                result.clustering.n_clusters(),
                result.clustering.n_noise()
            );
            Some(result.clustering)
        }
        (None, None) => None,
        _ => return Err("--eps and --min-pts must be given together".into()),
    };
    let svg = dbdc_geom::svg::scatter_svg(
        &data,
        clustering.as_ref(),
        &[],
        &dbdc_geom::svg::SvgOptions {
            title: args.get("title").unwrap_or_default().to_string(),
            ..Default::default()
        },
    );
    let path = args.require("out")?;
    std::fs::write(path, svg).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    if wants {
        let mut report = simple_report(
            "plot",
            Some(DatasetInfo {
                points: data.len(),
                dim: data.dim(),
            }),
            Span::new("plot", t0.elapsed()),
            &rec,
        );
        // The central span (if any) arrives from the recorder.
        report.spans.extend(rec.spans());
        if let Some(c) = &clustering {
            report.clusters = Some(cluster_stats(c.n_clusters() as usize, c.labels()));
        }
        finish_report(&args, &report)?;
    }
    Ok(())
}

fn cmd_suggest(raw: &[String]) -> CliResult {
    let args = Args::parse(raw, &["input", "k", "index", "trace", "metrics-out"])?;
    no_positionals(&args)?;
    let data = read_input(&args)?;
    let k: usize = args.get_or("k", 4)?;
    let kind: dbdc_index::IndexKind = args.get_or("index", dbdc_index::IndexKind::RStar)?;
    let wants = wants_report(&args);
    let rec = RecordingRecorder::new();
    let sheet = if wants { rec.sheet("suggest") } else { None };
    let t0 = Instant::now();
    let index = dbdc_index::build_index_opts(
        kind,
        &data,
        dbdc_geom::Euclidean,
        1.0,
        dbdc_index::BuildOptions::default(),
        sheet.as_ref(),
        None,
    );
    let kd = dbdc_cluster::k_distance(&data, index.as_ref(), k);
    let kd_time = t0.elapsed();
    println!("sorted {k}-distance curve: {}", kd.sparkline(60));
    println!(
        "max {:.4}  p10 {:.4}  median {:.4}  p90 {:.4}  min {:.4}",
        kd.quantile(0.0),
        kd.quantile(0.1),
        kd.quantile(0.5),
        kd.quantile(0.9),
        kd.quantile(1.0)
    );
    println!(
        "suggested: --eps {:.4} --min-pts {} (knee of the curve)",
        kd.knee(),
        k + 1
    );
    if wants {
        let report = simple_report(
            "suggest",
            Some(DatasetInfo {
                points: data.len(),
                dim: data.dim(),
            }),
            Span::new("suggest", kd_time),
            &rec,
        )
        .with_param("k", k)
        .with_param("index", kind.name());
        finish_report(&args, &report)?;
    }
    Ok(())
}

fn cmd_stream(raw: &[String]) -> CliResult {
    let args = Args::parse(
        raw,
        &[
            "input",
            "eps",
            "min-pts",
            "sites",
            "batch",
            "drift",
            "seed",
            "trace",
            "metrics-out",
        ],
    )?;
    no_positionals(&args)?;
    let data = read_input(&args)?;
    let params = local_params(&args)?.with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
    let sites = require_sites(&args)?;
    let batch: usize = args.get_or("batch", 200)?;
    let drift_threshold: f64 = args.get_or("drift", 0.1)?;
    let t0 = Instant::now();
    let mut clients: Vec<dbdc::ClientSession> = (0..sites)
        .map(|s| dbdc::ClientSession::new(s as u32, data.dim(), params))
        .collect();
    let mut server = dbdc::ServerSession::new(data.dim(), 2.0 * params.eps_local, &params);
    let mut transmissions = 0usize;
    let mut batches = 0usize;
    for (i, p) in data.iter().enumerate() {
        clients[i % sites].insert(p);
        if (i + 1) % (batch * sites) == 0 || i + 1 == data.len() {
            batches += 1;
            for c in clients.iter_mut() {
                if c.drift() > drift_threshold {
                    server.ingest(&c.take_model());
                    transmissions += 1;
                }
            }
            let snap = server.snapshot();
            println!(
                "after {:>7} points: {} global clusters from {} representatives ({} transmissions)",
                i + 1,
                snap.n_clusters,
                server.n_representatives(),
                transmissions
            );
        }
    }
    let possible = batches * sites;
    println!(
        "drift gating sent {transmissions} of {possible} possible models ({:.0}% saved)",
        100.0 * (1.0 - transmissions as f64 / possible.max(1) as f64)
    );
    if wants_report(&args) {
        let report = simple_report(
            "stream",
            Some(DatasetInfo {
                points: data.len(),
                dim: data.dim(),
            }),
            Span::new("stream", t0.elapsed()),
            &RecordingRecorder::new(),
        )
        .with_param("sites", sites)
        .with_param("batch", batch)
        .with_param("transmissions", transmissions)
        .with_param("possible_transmissions", possible);
        finish_report(&args, &report)?;
    }
    Ok(())
}

fn load_report(path: &str) -> Result<RunReport, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    RunReport::parse(&text).map_err(|e| format!("{path}: {e}").into())
}

fn cmd_report(raw: &[String]) -> CliResult {
    let args = Args::parse(
        raw,
        &[
            "input",
            "require",
            "require-counter",
            "require-quality",
            "hist",
            "threshold",
            "quality-threshold",
            "only",
            "out",
        ],
    )?;
    // `report diff OLD NEW`, `report merge SERVER SITE...`, and
    // `report timeline REPORT` are positional sub-forms; everything
    // else is the single-report validator/renderer.
    match args.positional().first().map(String::as_str) {
        Some("diff") => return cmd_report_diff(&args),
        Some("merge") => return cmd_report_merge(&args),
        Some("timeline") => return cmd_report_timeline(&args),
        _ => {}
    }
    no_positionals(&args)?;
    let path = args.require("input")?;
    let report = load_report(path)?;
    if let Some(required) = args.get("require") {
        // A required name may be satisfied by a phase span *or* a
        // histogram scope: latency distributions like `net/session_ns`
        // have no span of their own.
        let missing: Vec<&str> = required
            .split(',')
            .map(str::trim)
            .filter(|name| {
                !name.is_empty()
                    && report.find_span(name).is_none()
                    && !report.hists.iter().any(|(n, _)| n == name)
            })
            .collect();
        if !missing.is_empty() {
            // Name what IS there: a failed gate is usually a typo or a
            // scope that moved, and the fix is picking from this list.
            let mut present: Vec<String> = Vec::new();
            for root in &report.spans {
                collect_span_names(root, &mut present);
            }
            present.extend(report.hists.iter().map(|(n, _)| n.clone()));
            return Err(format!(
                "{path}: report is missing required span(s)/histogram(s): {}\n\
                 present spans/histograms: {}",
                missing.join(", "),
                if present.is_empty() {
                    "(none)".to_string()
                } else {
                    present.join(", ")
                }
            )
            .into());
        }
    }
    if let Some(required) = args.get("require-counter") {
        // A counter "exists" when some scope recorded a nonzero value:
        // an all-zero counter means the instrumentation never fired,
        // which is exactly the wiring regression this flag guards.
        let missing: Vec<&str> = required
            .split(',')
            .map(str::trim)
            .filter(|name| !name.is_empty() && !report_counter_nonzero(&report, name))
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "{path}: required counter(s) absent or zero in every scope: {}",
                missing.join(", ")
            )
            .into());
        }
    }
    if let Some(required) = args.get("require-quality") {
        // `global` demands the report's own quality block; any other
        // name demands a per-site quality entry (as `report merge`
        // repopulates them). Either way the DBCV must be finite — a NaN
        // from a broken scorer must not pass a quality gate.
        let missing: Vec<&str> = required
            .split(',')
            .map(str::trim)
            .filter(|name| !name.is_empty() && !report_quality_present(&report, name))
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "{path}: report is missing finite quality for scope(s): {}",
                missing.join(", ")
            )
            .into());
        }
    }
    if args.switch("hist") {
        // Distributions only; the full render below would repeat them.
        print!("{}", dbdc_obs::report::render_hists(&report.hists));
        return Ok(());
    }
    print!("{}", report.render());
    Ok(())
}

/// Every span name in the tree, depth-first — the "what is actually in
/// this report" list a failed `--require` prints.
fn collect_span_names(span: &Span, out: &mut Vec<String>) {
    out.push(span.name.clone());
    for child in &span.children {
        collect_span_names(child, out);
    }
}

/// Whether the report carries a finite DBCV for the given quality
/// scope: `global` is the report's own quality block, anything else is
/// a per-site entry name.
fn report_quality_present(report: &RunReport, name: &str) -> bool {
    let Some(q) = &report.quality else {
        return false;
    };
    match name {
        "global" => q.dbcv.is_finite(),
        peer => q.per_site.iter().any(|(p, v)| p == peer && v.is_finite()),
    }
}

/// Whether `name` is a known counter field with a nonzero total across
/// the report's scopes.
fn report_counter_nonzero(report: &RunReport, name: &str) -> bool {
    let Some(idx) = dbdc_obs::Counters::FIELDS.iter().position(|f| *f == name) else {
        return false;
    };
    report.scopes.iter().any(|(_, c)| c.values()[idx] != 0)
}

/// `report merge SERVER [SITE...] --out FILE`: join one server report
/// with its site reports into a single fleet report. A server report
/// alone is accepted — the degenerate fleet a killed run leaves behind
/// — and merges with a warning.
fn cmd_report_merge(args: &Args) -> CliResult {
    let positional = args.positional();
    if positional.len() < 2 {
        return Err("usage: report merge SERVER [SITE...] --out FILE".into());
    }
    let out = args.require("out")?;
    let server = load_report(&positional[1])?;
    let sites: Vec<RunReport> = positional[2..]
        .iter()
        .map(|p| load_report(p))
        .collect::<Result<_, _>>()?;
    let site_refs: Vec<&RunReport> = sites.iter().collect();
    let (merged, warnings) =
        dbdc_obs::merge_reports(&server, &site_refs).map_err(|e| format!("report merge: {e}"))?;
    for w in &warnings {
        eprintln!("warning: {w}");
    }
    std::fs::write(out, merged.to_json_string()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "merged 1 server + {} site report(s) into {out}{}",
        sites.len(),
        if warnings.is_empty() {
            String::new()
        } else {
            format!(" ({} warning(s))", warnings.len())
        }
    );
    Ok(())
}

/// `report timeline REPORT --out trace.json`: export the span forest as
/// Chrome trace_event JSON.
fn cmd_report_timeline(args: &Args) -> CliResult {
    let [_, path] = args.positional() else {
        return Err("usage: report timeline REPORT --out trace.json".into());
    };
    let out = args.require("out")?;
    let report = load_report(path)?;
    let trace = dbdc_obs::chrome_trace(&report).map_err(|e| format!("report timeline: {e}"))?;
    let events = trace
        .get("traceEvents")
        .and_then(dbdc_obs::Json::as_arr)
        .map(<[_]>::len)
        .unwrap_or(0);
    std::fs::write(out, trace.to_string_pretty())
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out} ({events} events); open in chrome://tracing or ui.perfetto.dev");
    Ok(())
}

fn cmd_report_diff(args: &Args) -> CliResult {
    let [_, old_path, new_path] = args.positional() else {
        return Err("usage: report diff OLD NEW [--threshold FRACTION] \
             [--quality-threshold DROP] [--only SUBSTR]"
            .into());
    };
    let threshold: f64 = args.get_or("threshold", dbdc_obs::diff::DEFAULT_THRESHOLD)?;
    if !(0.0..10.0).contains(&threshold) {
        return Err(format!("--threshold expects a fraction like 0.25, got {threshold}").into());
    }
    // Quality is gated separately and directionally: a rise always
    // passes, a drop beyond this absolute tolerance fails, and the
    // latency --threshold never loosens it.
    let quality_tolerance: f64 =
        args.get_or("quality-threshold", dbdc_obs::QUALITY_DROP_TOLERANCE)?;
    if !(0.0..=2.0).contains(&quality_tolerance) {
        return Err(format!(
            "--quality-threshold expects an absolute DBCV drop in 0..=2, got {quality_tolerance}"
        )
        .into());
    }
    let old = load_report(old_path)?;
    let new = load_report(new_path)?;
    // Timings from another core count or toolchain are not like-for-like;
    // say so, but leave the verdict to the cells.
    if let (Some(a), Some(b)) = (&old.env, &new.env) {
        let mut moved = Vec::new();
        if a.nproc != b.nproc {
            moved.push(format!("nproc {} vs {}", a.nproc, b.nproc));
        }
        if a.rustc != b.rustc {
            moved.push(format!("{} vs {}", a.rustc, b.rustc));
        }
        if !moved.is_empty() {
            eprintln!(
                "warning: not a like-for-like comparison: {}",
                moved.join(", ")
            );
        }
    }
    let mut rows = dbdc_obs::diff_reports_with(&old, &new, threshold, quality_tolerance);
    // `--only SUBSTR` narrows the gate to matching cells (e.g. CI fails
    // on `eps_range_ns` regressions while the full diff stays advisory).
    if let Some(only) = args.get("only") {
        rows.retain(|r| r.cell.contains(only));
        if rows.is_empty() {
            return Err(format!("--only {only}: no cell matches").into());
        }
    }
    if rows.is_empty() {
        println!("no cells to compare (baseline has no hists or quality)");
        return Ok(());
    }
    for row in &rows {
        println!("{}", row.render());
    }
    let failures = rows.iter().filter(|r| r.outcome.is_failure()).count();
    if failures > 0 {
        return Err(format!(
            "{failures} regression(s) against {old_path} (threshold {:.0}%, widened by baseline spread)",
            threshold * 1e2
        )
        .into());
    }
    println!("ok: {} cell(s) within tolerance of {old_path}", rows.len());
    Ok(())
}
