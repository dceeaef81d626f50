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
    run_dbdc_threaded_recorded, EpsGlobal, ObjectQuality,
};
use dbdc_cli::args::{Args, Form};
use dbdc_cli::flags;
use dbdc_cli::opts::{
    build_params, dataset_info, eps_global_choice, finish_report, finish_report_to, local_params,
    parse_link, parse_partitioner, quality_stats, read_input, read_protocol_input, require_sites,
    wants_report, CliResult, Command,
};
use dbdc_cli::{csv, netcmd, overview, run_form};
use dbdc_geom::Dataset;
use dbdc_obs::{fmt_ms, NoopRecorder, Recorder, RecordingRecorder, RunReport, Span};
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::time::Instant;

/// Each command form, in `--help` order, with the function that runs it.
static COMMANDS: [(&Form, Command); 16] = [
    (&flags::GENERATE, cmd_generate),
    (&flags::CENTRAL, cmd_central),
    (&flags::RUN, cmd_run),
    (&flags::COMPARE, cmd_compare),
    (&flags::TUNE, cmd_tune),
    (&flags::PLOT, cmd_plot),
    (&flags::SUGGEST, cmd_suggest),
    (&flags::STREAM, cmd_stream),
    (&flags::SERVE, netcmd::cmd_serve),
    (&flags::SITE, netcmd::cmd_site),
    (&flags::PROXY, netcmd::cmd_proxy),
    (&flags::WATCH, netcmd::cmd_watch),
    (&flags::REPORT, cmd_report),
    (&flags::REPORT_DIFF, cmd_report_diff),
    (&flags::REPORT_MERGE, cmd_report_merge),
    (&flags::REPORT_TIMELINE, cmd_report_timeline),
];

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // The form whose command words open the line, the longest one
    // winning: `report diff A B` is `report diff`, not `report`.
    let words = |form: &Form| form.command.split(' ').count();
    let opens = |form: &Form| form.command.split(' ').eq(raw.iter().take(words(form)));
    let Some((form, run)) = COMMANDS
        .iter()
        .filter(|(form, _)| opens(form))
        .max_by_key(|(form, _)| words(form))
    else {
        let overview = overview(COMMANDS.iter().map(|(form, _)| *form));
        let first = raw.first().map(String::as_str);
        if let Some("--help" | "-h" | "help") = first {
            print!("{overview}");
            return ExitCode::SUCCESS;
        }
        if let Some(other) = first {
            eprintln!("error: unknown command {other:?}");
        }
        eprint!("{overview}");
        return ExitCode::from(if first.is_none() { 2 } else { 1 });
    };
    run_form(form, &raw[words(form)..], *run)
}

/// A report for commands without a distributed run: its spans, the
/// input dataset, and whatever scopes the recorder collected.
fn simple_report(
    command: &str,
    data: &Dataset,
    spans: Vec<Span>,
    rec: &RecordingRecorder,
) -> RunReport {
    let mut report = RunReport::new(command);
    report.dataset = Some(dataset_info(data));
    report.spans = spans;
    report.scopes = rec.scopes();
    report.hists = rec.hist_scopes();
    report
}

/// Writes `data`, with a label column when given one, to `--out`.
fn write_output(args: &Args, data: &Dataset, labels: Option<&dbdc_geom::Clustering>) -> CliResult {
    if let Some(path) = args.get("out") {
        let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        csv::write_dataset(BufWriter::new(file), data, labels)?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_generate(args: &Args) -> CliResult {
    let seed: u64 = args.get_or("seed", 42)?;
    let set = args.require("set")?;
    let n: Option<usize> = args.get_as("n")?;
    let t0 = Instant::now();
    let g = match (set, n) {
        ("a" | "A", Some(n)) => dbdc_datagen::scaled_a(n, seed),
        ("a" | "A", None) => dbdc_datagen::dataset_a(seed),
        ("b" | "B", None) => dbdc_datagen::dataset_b(seed),
        ("c" | "C", None) => dbdc_datagen::dataset_c(seed),
        ("b" | "B" | "c" | "C", Some(_)) => return Err("--n sizes data set a only".into()),
        (other, _) => return Err(format!("--set expects a|b|c, got {other:?}").into()),
    };
    let gen_time = t0.elapsed();
    let status = format!(
        "generated {} points, {} true clusters (suggested: --eps {} --min-pts {})",
        g.data.len(),
        g.truth.n_clusters(),
        g.suggested_eps,
        g.suggested_min_pts
    );
    // Truth labels are written only on request: the default output must be
    // directly consumable by `central`/`run`/`compare`.
    let truth = args.switch("truth").then_some(&g.truth);
    if args.get("out").is_some() {
        println!("{status}");
        write_output(args, &g.data, truth)?;
    } else {
        // With the CSV on stdout, the status line must not become its first row.
        eprintln!("{status}");
        csv::write_dataset(std::io::stdout().lock(), &g.data, truth)?;
    }
    if wants_report(args) {
        let report = simple_report(
            "generate",
            &g.data,
            vec![Span::new("generate", gen_time)],
            &RecordingRecorder::new(),
        )
        .with_param("set", set)
        .with_param("seed", seed);
        if args.get("out").is_some() {
            finish_report(args, &report)?;
        } else {
            finish_report_to(args, &report, std::io::stderr().lock())?;
        }
    }
    Ok(())
}

fn cmd_central(args: &Args) -> CliResult {
    let data = read_input(args)?;
    let params = local_params(args)?
        .with_index(args.get_or("index", dbdc_index::IndexKind::RStar)?)
        .with_threads(args.get_or("threads", 1)?);
    let wants = wants_report(args);
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
        let mut report = simple_report("central", &data, rec.spans(), &rec)
            .with_param("eps_local", params.eps_local)
            .with_param("min_pts_local", params.min_pts_local)
            .with_param("index", params.index.name())
            .with_param("threads", params.threads);
        report.clusters = Some(cluster_stats(
            result.clustering.n_clusters() as usize,
            result.clustering.labels(),
        ));
        finish_report(args, &report)?;
    }
    write_output(args, &data, Some(&result.clustering))
}

fn cmd_run(args: &Args) -> CliResult {
    let data = read_protocol_input(args)?;
    let params = build_params(args)?;
    let sites = require_sites(args)?;
    let part = parse_partitioner(args)?;
    let link = parse_link(args)?;
    let wants = wants_report(args);
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
        report.quality = Some(quality);
        finish_report(args, &report)?;
    }
    write_output(args, &data, Some(&outcome.assignment))
}

fn cmd_compare(args: &Args) -> CliResult {
    let data = read_protocol_input(args)?;
    let params = build_params(args)?;
    let sites = require_sites(args)?;
    let part = parse_partitioner(args)?;
    let link = parse_link(args)?;
    let wants = wants_report(args);
    let rec = RecordingRecorder::new();
    let recorder: &dyn Recorder = if wants { &rec } else { &NoopRecorder };
    let (central, central_time) = central_dbscan_recorded(&data, &params, recorder);
    let outcome = run_dbdc_recorded(&data, &params, part, sites, recorder);
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
        finish_report(args, &report)?;
    }
    Ok(())
}

/// Default `tune` sweep grid. Includes the CLI's default Eps_global
/// (`x2.0`) so the selection can never score below the out-of-the-box
/// setting, plus the paper-motivated extreme (`max`).
const TUNE_CANDIDATES: &str = "1.0,1.5,2.0,2.5,3.0,4.0,max";

fn cmd_tune(args: &Args) -> CliResult {
    let data = read_protocol_input(args)?;
    let base = build_params(args)?;
    let sites = require_sites(args)?;
    let part = parse_partitioner(args)?;
    let spec = args.get("candidates").unwrap_or(TUNE_CANDIDATES);
    let mut candidates: Vec<(String, EpsGlobal)> = Vec::new();
    for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        candidates.push((tok.to_string(), eps_global_choice("candidates", tok)?));
    }
    if candidates.is_empty() {
        return Err("--candidates is empty".into());
    }

    let wants = wants_report(args);
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
        let mut report = simple_report("tune", &data, vec![root], &rec)
            .with_identity("tune", args.get("run-id").map(String::from), "tune")
            .with_param("eps_local", base.eps_local)
            .with_param("min_pts_local", base.min_pts_local)
            .with_param("sites", sites)
            .with_param("candidates", spec)
            .with_param("selected_eps_global", best_name.as_str());
        for (name, q) in &rows {
            report
                .params
                .push((format!("dbcv[{name}]"), format!("{:.6}", q.dbcv)));
        }
        report.quality = Some(best_quality.clone());
        finish_report(args, &report)?;
    }
    Ok(())
}

fn cmd_plot(args: &Args) -> CliResult {
    let data = read_input(args)?;
    if data.dim() != 2 {
        return Err("plot requires 2-d data".into());
    }
    let wants = wants_report(args);
    let rec = RecordingRecorder::new();
    let recorder: &dyn Recorder = if wants { &rec } else { &NoopRecorder };
    let t0 = Instant::now();
    let clustering = match (args.get("eps"), args.get("min-pts")) {
        (Some(_), Some(_)) => {
            let params =
                local_params(args)?.with_index(args.get_or("index", dbdc_index::IndexKind::RStar)?);
            let (result, _) = central_dbscan_recorded(&data, &params, recorder);
            println!(
                "clustered: {} clusters, {} noise",
                result.clustering.n_clusters(),
                result.clustering.n_noise()
            );
            Some(result.clustering)
        }
        (None, None) if args.get("index").is_some() => {
            return Err("--index applies only with --eps and --min-pts".into())
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
        let mut report = simple_report("plot", &data, vec![Span::new("plot", t0.elapsed())], &rec);
        // The central span (if any) arrives from the recorder.
        report.spans.extend(rec.spans());
        if let Some(c) = &clustering {
            report.clusters = Some(cluster_stats(c.n_clusters() as usize, c.labels()));
        }
        finish_report(args, &report)?;
    }
    Ok(())
}

fn cmd_suggest(args: &Args) -> CliResult {
    let data = read_input(args)?;
    let k: usize = args.get_or("k", 4)?;
    if k == 0 {
        return Err("--k expects at least 1, got 0".into());
    }
    let kind: dbdc_index::IndexKind = args.get_or("index", dbdc_index::IndexKind::RStar)?;
    let wants = wants_report(args);
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
        let report = simple_report("suggest", &data, vec![Span::new("suggest", kd_time)], &rec)
            .with_param("k", k)
            .with_param("index", kind.name());
        finish_report(args, &report)?;
    }
    Ok(())
}

fn cmd_stream(args: &Args) -> CliResult {
    let data = read_input(args)?;
    let params = local_params(args)?.with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
    let sites = require_sites(args)?;
    let batch: usize = args.get_or("batch", 200)?;
    if batch == 0 {
        return Err("--batch expects at least 1, got 0".into());
    }
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
    if wants_report(args) {
        let report = simple_report(
            "stream",
            &data,
            vec![Span::new("stream", t0.elapsed())],
            &RecordingRecorder::new(),
        )
        .with_param("sites", sites)
        .with_param("batch", batch)
        .with_param("transmissions", transmissions)
        .with_param("possible_transmissions", possible);
        finish_report(args, &report)?;
    }
    Ok(())
}

fn load_report(path: &str) -> Result<RunReport, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    RunReport::parse(&text).map_err(|e| format!("{path}: {e}").into())
}

fn cmd_report(args: &Args) -> CliResult {
    let path = args.require("input")?;
    let report = load_report(path)?;
    // A required name may be satisfied by a phase span *or* a histogram
    // scope: latency distributions like `net/session_ns` have no span of
    // their own.
    let missing = absent(args, "require", |name| {
        report.find_span(name).is_some() || report.hists.iter().any(|(n, _)| n == name)
    });
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
    // A counter "exists" when some scope recorded a nonzero value: an
    // all-zero counter means the instrumentation never fired, which is
    // exactly the wiring regression this flag guards.
    let missing = absent(args, "require-counter", |name| {
        report_counter_nonzero(&report, name)
    });
    if !missing.is_empty() {
        return Err(format!(
            "{path}: required counter(s) absent or zero in every scope: {}",
            missing.join(", ")
        )
        .into());
    }
    // `global` demands the report's own quality block; any other name
    // demands a per-site quality entry (as `report merge` repopulates
    // them). Either way the DBCV must be finite — a NaN from a broken
    // scorer must not pass a quality gate.
    let missing = absent(args, "require-quality", |name| {
        report_quality_present(&report, name)
    });
    if !missing.is_empty() {
        return Err(format!(
            "{path}: report is missing finite quality for scope(s): {}",
            missing.join(", ")
        )
        .into());
    }
    if args.switch("hist") {
        // Distributions only; the full render below would repeat them.
        print!("{}", dbdc_obs::report::render_hists(&report.hists));
        return Ok(());
    }
    print!("{}", report.render());
    Ok(())
}

/// The names of the comma-separated `--{key}` list that fail `present`.
fn absent<'a>(args: &'a Args, key: &str, present: impl Fn(&str) -> bool) -> Vec<&'a str> {
    let names = args.get(key).into_iter().flat_map(|list| list.split(','));
    names
        .map(str::trim)
        .filter(|n| !n.is_empty() && !present(n))
        .collect()
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
    // The form's operands guarantee a SERVER.
    let (server, sites) = args.positional().split_at(1);
    let out = args.require("out")?;
    let server = load_report(&server[0])?;
    let sites: Vec<RunReport> = sites
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
    let path = &args.positional()[0];
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
    let (old_path, new_path) = (&args.positional()[0], &args.positional()[1]);
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
