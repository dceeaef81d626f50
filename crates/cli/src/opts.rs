//! Flag parsing shared by every DBDC binary: protocol parameters,
//! partitioners, links, input files, and report emission.

use crate::args::Args;
use crate::csv;
use dbdc::{DbdcParams, EpsGlobal, LocalModelKind, Partitioner};
use dbdc_cluster::dbcv::{dbcv_with, CorePath};
use dbdc_geom::{Clustering, Dataset, Euclidean};
use dbdc_obs::{DatasetInfo, QualityStats, Recorder, RunReport};
use std::fs::File;
use std::io::{BufReader, Write};

/// Past this many points the exact `O(nᵢ²)` core-distance sum gives way
/// to the index-accelerated truncated path (still exact for clusters of
/// up to [`QUALITY_KNN_K`] objects).
const QUALITY_EXACT_LIMIT: usize = 4_096;

/// Within-cluster neighbours the truncated core-distance sum keeps.
const QUALITY_KNN_K: usize = 64;

/// Scores a clustering with the ground-truth-free DBCV index and packs
/// the result as the report's `quality` block. Every emitter (run,
/// compare, site, serve, tune) funnels through here so they all use the
/// same core-distance policy; the DBCV hot-loop counters land in the
/// recorder's `quality` scope.
pub fn quality_stats(
    data: &Dataset,
    labels: &Clustering,
    index: dbdc_index::IndexKind,
    rec: &dyn Recorder,
) -> QualityStats {
    let path = if data.len() <= QUALITY_EXACT_LIMIT {
        CorePath::Exact
    } else {
        CorePath::Knn {
            k: QUALITY_KNN_K,
            index,
        }
    };
    let out = dbcv_with(data, labels, Euclidean, path, rec);
    QualityStats::from_dbcv(out.value, out.n_clusters, out.n_noise, out.cluster_validity)
}

/// Every subcommand's result type.
pub type CliResult = Result<(), Box<dyn std::error::Error>>;

/// The function that runs one command form.
pub type Command = fn(&Args) -> CliResult;

/// Whether the command should assemble a [`RunReport`] at all.
pub fn wants_report(args: &Args) -> bool {
    args.switch("trace") || args.get("metrics-out").is_some()
}

/// Emits an assembled report: `--trace` prints the rendered form,
/// `--metrics-out FILE` writes the JSON.
pub fn finish_report(args: &Args, report: &RunReport) -> CliResult {
    finish_report_to(args, report, std::io::stdout().lock())
}

/// [`finish_report`], printing the trace and the `wrote FILE` note to
/// `out` instead of stdout.
pub fn finish_report_to(args: &Args, report: &RunReport, mut out: impl Write) -> CliResult {
    if args.switch("trace") {
        write!(out, "{}", report.render())?;
    }
    if let Some(path) = args.get("metrics-out") {
        std::fs::write(path, report.to_json_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "wrote {path}")?;
    }
    Ok(())
}

/// The modeled-transfer link for run/compare reports: a preset name or a
/// custom `BYTES_PER_SEC:LATENCY_MS` spec, validated here so a typo'd
/// link surfaces as a CLI error instead of a panic in the cost model.
pub fn parse_link(args: &Args) -> Result<&str, Box<dyn std::error::Error>> {
    let link = args.get("link").unwrap_or("wan");
    dbdc::NetworkModel::from_spec(link).map_err(|e| format!("--link: {e}"))?;
    Ok(link)
}

/// The report's record of a dataset's size and shape.
pub fn dataset_info(data: &Dataset) -> DatasetInfo {
    DatasetInfo {
        points: data.len(),
        dim: data.dim(),
    }
}

/// Loads the `--input` CSV point file.
pub fn read_input(args: &Args) -> Result<Dataset, Box<dyn std::error::Error>> {
    let path = args.require("input")?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    Ok(csv::read_dataset(BufReader::new(file))?)
}

/// Loads `--input` for a command whose local models cross the wire
/// (`run`, `compare`, `tune`, `site`), rejecting a file wider than the
/// wire format's `dim` field before any clustering.
pub fn read_protocol_input(args: &Args) -> Result<Dataset, Box<dyn std::error::Error>> {
    let data = read_input(args)?;
    dbdc::wire::check_dim(data.dim()).map_err(|e| format!("--input: {e}"))?;
    Ok(data)
}

/// One `Eps_global` choice given to `--{flag}`: `max`, or a positive
/// finite multiplier of `--eps`.
pub fn eps_global_choice(flag: &str, v: &str) -> Result<EpsGlobal, String> {
    if v == "max" {
        return Ok(EpsGlobal::MaxEpsRange);
    }
    match v.parse::<f64>() {
        Ok(mult) if mult.is_finite() && mult > 0.0 => Ok(EpsGlobal::MultipleOfLocal(mult)),
        _ => Err(format!(
            "--{flag} expects a positive multiplier or \"max\", got {v:?}"
        )),
    }
}

/// [`DbdcParams::new`] from `--eps` and `--min-pts`, rejecting the
/// values it would panic on: ε must be positive and finite, MinPts at
/// least 1.
pub fn local_params(args: &Args) -> Result<DbdcParams, Box<dyn std::error::Error>> {
    let eps: f64 = args.require_as("eps")?;
    if !(eps.is_finite() && eps > 0.0) {
        return Err(format!("--eps expects a positive finite distance, got {eps}").into());
    }
    let min_pts: usize = args.require_as("min-pts")?;
    if min_pts == 0 {
        return Err("--min-pts expects at least 1, got 0".into());
    }
    Ok(DbdcParams::new(eps, min_pts))
}

/// Parses `--sites`, which must be at least 1.
pub fn require_sites(args: &Args) -> Result<usize, Box<dyn std::error::Error>> {
    match args.require_as("sites")? {
        0 => Err("--sites expects at least 1 site, got 0".into()),
        sites => Ok(sites),
    }
}

/// Parses `--partitioner` (random|roundrobin|stripes) and the random
/// split's `--seed`, which the other two would ignore.
pub fn parse_partitioner(args: &Args) -> Result<Partitioner, Box<dyn std::error::Error>> {
    match (args.get("partitioner"), args.get_as("seed")?) {
        (None | Some("random"), seed) => Ok(Partitioner::RandomEqual {
            seed: seed.unwrap_or(42),
        }),
        (Some("roundrobin" | "stripes"), Some(_)) => {
            Err("--seed applies only to --partitioner random".into())
        }
        (Some("roundrobin"), None) => Ok(Partitioner::RoundRobin),
        (Some("stripes"), None) => Ok(Partitioner::SpatialStripes { axis: 0 }),
        (Some(v), _) => {
            Err(format!("--partitioner expects random|roundrobin|stripes, got {v:?}").into())
        }
    }
}

/// Builds the full [`DbdcParams`] from `--eps`, `--min-pts`, and the
/// optional eps-global/model/index/threads/partitions/precision flags.
pub fn build_params(args: &Args) -> Result<DbdcParams, Box<dyn std::error::Error>> {
    let eps_global = match args.get("eps-global") {
        None => EpsGlobal::MultipleOfLocal(2.0),
        Some(v) => eps_global_choice("eps-global", v)?,
    };
    let model = match args.get("model") {
        None | Some("scor") => LocalModelKind::Scor,
        Some("kmeans") => LocalModelKind::KMeans,
        Some(v) => return Err(format!("--model expects scor|kmeans, got {v:?}").into()),
    };
    let index: dbdc_index::IndexKind = args.get_or("index", dbdc_index::IndexKind::RStar)?;
    let threads: usize = args.get_or("threads", 1)?;
    let partitions: usize = args.get_or("partitions", 1)?;
    let precision: dbdc_index::Precision = args.get_or("precision", dbdc_index::Precision::F64)?;
    Ok(local_params(args)?
        .with_eps_global(eps_global)
        .with_model(model)
        .with_index(index)
        .with_threads(threads)
        .with_partitions(partitions)
        .with_precision(precision))
}
