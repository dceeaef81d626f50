//! The stable `RunReport` schema and its emitters.
//!
//! A [`RunReport`] is the single artifact a DBDC run leaves behind: the
//! phase-span tree, every counter scope, per-site statistics, transfer
//! sizes, modeled network cost, and clustering outcome. The CLI writes
//! it via `--metrics-out`, prints [`RunReport::render`] via `--trace`,
//! the bench harness writes `BENCH_*.json` in the same format, and CI
//! validates it with `dbdc-cli report`.
//!
//! Schema stability rules: key order is fixed (objects serialize in
//! declaration order), every duration is integer microseconds
//! (`*_us`), absent optional sections serialize as `null`, and any
//! shape change must bump [`SCHEMA_VERSION`]. [`RunReport::from_json`]
//! reads every version back to [`MIN_SCHEMA_VERSION`] — sections a past
//! version lacked default to empty — and refuses versions newer than
//! this build.
//!
//! Version history: v1 had no `env` and no `hists`; v2 added both.
//! v3 added distributed-run identity (`role`/`run_id`/`peer`), the
//! optional per-span `start_us` offset, and the wire/fault counter
//! fields. v4 added the optional `quality` section (DBCV, Q_DBDC,
//! per-cluster validity) and the quality counter fields. v5 added the
//! `halo_points` counter field for the partitioned local phase — all
//! of which parse as absent/zero from older reports, so v1-v4 files
//! remain readable.

use std::time::Duration;

use crate::counters::Counters;
use crate::fmt_ms;
use crate::hist::{fmt_sample, Histogram};
use crate::json::Json;
use crate::span::Span;

/// Version of the JSON shape. Bump on any schema change.
pub const SCHEMA_VERSION: u32 = 5;

/// Oldest schema version [`RunReport::from_json`] still reads.
pub const MIN_SCHEMA_VERSION: u32 = 1;

/// Fingerprint of the environment a report was produced in, so two
/// reports can be compared knowing whether the hardware or toolchain
/// moved underneath them. Producers fill in what they can determine;
/// unknown fields hold `"unknown"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvFingerprint {
    /// Available hardware parallelism (`nproc`).
    pub nproc: usize,
    /// `rustc --version` of the producing build.
    pub rustc: String,
    /// Git revision of the producing tree.
    pub git_rev: String,
    /// Checksum of the input dataset(s) the run consumed.
    pub dataset_checksum: String,
}

/// The producing environment: hardware parallelism, toolchain, git
/// revision, and the given checksum of the input data. Fields that cannot
/// be determined (no `rustc`/`git` on PATH, detached tree) hold
/// `"unknown"` rather than failing the run.
pub fn env_fingerprint(dataset_checksum: String) -> EnvFingerprint {
    let run = |cmd: &str, args: &[&str]| -> Option<String> {
        let out = std::process::Command::new(cmd).args(args).output().ok()?;
        if !out.status.success() {
            return None;
        }
        let s = String::from_utf8(out.stdout).ok()?;
        let s = s.trim();
        (!s.is_empty()).then(|| s.to_string())
    };
    EnvFingerprint {
        nproc: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        rustc: run("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        git_rev: run("git", &["rev-parse", "--short=12", "HEAD"])
            .unwrap_or_else(|| "unknown".into()),
        dataset_checksum,
    }
}

/// Size and dimensionality of the input dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetInfo {
    /// Number of points.
    pub points: usize,
    /// Dimensionality.
    pub dim: usize,
}

/// Per-site outcome: sizes, phase walls, and that site's counters
/// (local clustering plus relabeling, merged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStats {
    /// Site index.
    pub site: usize,
    /// Points held by this site.
    pub points: usize,
    /// Representatives in the site's local model.
    pub representatives: usize,
    /// Encoded local-model bytes uploaded by this site.
    pub bytes_up: usize,
    /// Wall time of the local phase (cluster + extract + encode).
    pub local: Duration,
    /// Wall time of the relabel phase.
    pub relabel: Duration,
    /// Work counters across both phases.
    pub counters: Counters,
}

/// Protocol transfer sizes (real encoded bytes, not modeled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferStats {
    /// Total upload bytes across sites.
    pub bytes_up: usize,
    /// Total broadcast bytes across sites.
    pub bytes_down: usize,
    /// Upload bytes per site.
    pub per_site_bytes_up: Vec<usize>,
    /// Encoded global model size (one copy).
    pub global_model_bytes: usize,
    /// Representatives in the global model.
    pub representatives: usize,
}

/// Modeled cost of the transfers on one link preset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkCost {
    /// Link preset name (`lan`, `wan`, `slow_uplink`).
    pub link: String,
    /// Modeled concurrent-upload time (slowest site).
    pub upload: Duration,
    /// Modeled broadcast time of the global model.
    pub broadcast: Duration,
    /// End-to-end run time including compute and both transfers.
    pub total: Duration,
}

/// Clustering outcome summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterStats {
    /// Number of clusters found.
    pub clusters: usize,
    /// Number of noise points.
    pub noise: usize,
}

/// Clustering quality, measured rather than printed (schema v4).
///
/// DBCV (Moulavi et al., SDM 2014) is always present — it needs no
/// ground truth — while the paper's `Q_DBDC` fields are filled only
/// when a central reference clustering was available to compare
/// against. Merged fleet reports additionally carry each site's local
/// DBCV keyed by peer name.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityStats {
    /// DBCV validity index of the reported clustering, in `[-1, 1]`.
    pub dbcv: f64,
    /// Clusters DBCV scored (size ≥ 2 after singleton demotion).
    pub clusters: usize,
    /// Objects DBCV counted as noise (including singleton clusters).
    pub noise: usize,
    /// Per-cluster DBCV validity, indexed by cluster id.
    pub cluster_validity: Vec<f64>,
    /// `Q_DBDC` under `P^I`, when a central reference exists.
    pub q_dbdc_p1: Option<f64>,
    /// `Q_DBDC` under `P^II`, when a central reference exists.
    pub q_dbdc_p2: Option<f64>,
    /// Local DBCV per site (`peer name → value`), for merged reports.
    pub per_site: Vec<(String, f64)>,
}

impl QualityStats {
    /// A quality block carrying only a DBCV evaluation.
    pub fn from_dbcv(dbcv: f64, clusters: usize, noise: usize, validity: Vec<f64>) -> QualityStats {
        QualityStats {
            dbcv,
            clusters,
            noise,
            cluster_validity: validity,
            q_dbdc_p1: None,
            q_dbdc_p2: None,
            per_site: Vec::new(),
        }
    }
}

/// Everything one run reports. See the module docs for the schema
/// rules.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Schema version ([`SCHEMA_VERSION`] when produced by this build).
    pub schema_version: u32,
    /// CLI subcommand or harness name that produced the report.
    pub command: String,
    /// Which side of a distributed run produced this: `"server"`,
    /// `"site"`, or `"merged"`. `None` for single-process commands.
    pub role: Option<String>,
    /// Operator-chosen identifier shared by every process of one
    /// distributed run; `report merge` refuses to join reports whose
    /// run ids disagree.
    pub run_id: Option<String>,
    /// This process's identity within the run (`"server"`,
    /// `"site[3]"`), unique per run — duplicate peers are how merging
    /// a report with itself is detected.
    pub peer: Option<String>,
    /// Echoed parameters, in display order.
    pub params: Vec<(String, String)>,
    /// Environment fingerprint, when the producer captured one.
    pub env: Option<EnvFingerprint>,
    /// Input dataset, when there is one.
    pub dataset: Option<DatasetInfo>,
    /// Recorded span trees, in arrival order (usually one root).
    pub spans: Vec<Span>,
    /// Counter scopes, in first-request order.
    pub scopes: Vec<(String, Counters)>,
    /// Histogram scopes (latency/size distributions), in first-request
    /// order. Scope names carry the unit suffix (`_ns`, `_ops`).
    pub hists: Vec<(String, Histogram)>,
    /// Per-site statistics (empty for non-distributed commands).
    pub sites: Vec<SiteStats>,
    /// Transfer sizes, for distributed runs.
    pub transfer: Option<TransferStats>,
    /// Modeled network cost per link preset.
    pub network: Vec<NetworkCost>,
    /// Clustering outcome, when the command clusters.
    pub clusters: Option<ClusterStats>,
    /// Measured clustering quality, when the command evaluates it.
    pub quality: Option<QualityStats>,
}

impl RunReport {
    /// An empty report for `command` at the current schema version.
    pub fn new(command: impl Into<String>) -> RunReport {
        RunReport {
            schema_version: SCHEMA_VERSION,
            command: command.into(),
            role: None,
            run_id: None,
            peer: None,
            params: Vec::new(),
            env: None,
            dataset: None,
            spans: Vec::new(),
            scopes: Vec::new(),
            hists: Vec::new(),
            sites: Vec::new(),
            transfer: None,
            network: Vec::new(),
            clusters: None,
            quality: None,
        }
    }

    /// Adds an echoed parameter, builder-style.
    pub fn with_param(mut self, key: impl Into<String>, value: impl ToString) -> RunReport {
        self.params.push((key.into(), value.to_string()));
        self
    }

    /// Sets the distributed-run identity, builder-style. `run_id` may
    /// be `None` when the operator did not pass `--run-id`.
    pub fn with_identity(
        mut self,
        role: impl Into<String>,
        run_id: Option<String>,
        peer: impl Into<String>,
    ) -> RunReport {
        self.role = Some(role.into());
        self.run_id = run_id;
        self.peer = Some(peer.into());
        self
    }

    /// The report as a JSON tree.
    pub fn to_json(&self) -> Json {
        let opt_str = |s: &Option<String>| match s {
            Some(s) => Json::str(s),
            None => Json::Null,
        };
        Json::obj([
            ("schema_version", Json::num_u64(self.schema_version as u64)),
            ("command", Json::str(&self.command)),
            ("role", opt_str(&self.role)),
            ("run_id", opt_str(&self.run_id)),
            ("peer", opt_str(&self.peer)),
            (
                "params",
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v)))
                        .collect(),
                ),
            ),
            (
                "env",
                match &self.env {
                    Some(e) => Json::obj([
                        ("nproc", Json::num_u64(e.nproc as u64)),
                        ("rustc", Json::str(&e.rustc)),
                        ("git_rev", Json::str(&e.git_rev)),
                        ("dataset_checksum", Json::str(&e.dataset_checksum)),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "dataset",
                match &self.dataset {
                    Some(d) => Json::obj([
                        ("points", Json::num_u64(d.points as u64)),
                        ("dim", Json::num_u64(d.dim as u64)),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "spans",
                Json::Arr(self.spans.iter().map(Span::to_json).collect()),
            ),
            (
                "counters",
                Json::Obj(
                    self.scopes
                        .iter()
                        .map(|(name, c)| (name.clone(), counters_to_json(c)))
                        .collect(),
                ),
            ),
            (
                "hists",
                Json::Obj(
                    self.hists
                        .iter()
                        .map(|(name, h)| (name.clone(), h.to_json()))
                        .collect(),
                ),
            ),
            (
                "sites",
                Json::Arr(
                    self.sites
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("site", Json::num_u64(s.site as u64)),
                                ("points", Json::num_u64(s.points as u64)),
                                ("representatives", Json::num_u64(s.representatives as u64)),
                                ("bytes_up", Json::num_u64(s.bytes_up as u64)),
                                ("local_us", Json::num_u64(s.local.as_micros() as u64)),
                                ("relabel_us", Json::num_u64(s.relabel.as_micros() as u64)),
                                ("counters", counters_to_json(&s.counters)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "transfer",
                match &self.transfer {
                    Some(t) => Json::obj([
                        ("bytes_up", Json::num_u64(t.bytes_up as u64)),
                        ("bytes_down", Json::num_u64(t.bytes_down as u64)),
                        (
                            "per_site_bytes_up",
                            Json::Arr(
                                t.per_site_bytes_up
                                    .iter()
                                    .map(|&b| Json::num_u64(b as u64))
                                    .collect(),
                            ),
                        ),
                        (
                            "global_model_bytes",
                            Json::num_u64(t.global_model_bytes as u64),
                        ),
                        ("representatives", Json::num_u64(t.representatives as u64)),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "network",
                Json::Arr(
                    self.network
                        .iter()
                        .map(|n| {
                            Json::obj([
                                ("link", Json::str(&n.link)),
                                ("upload_us", Json::num_u64(n.upload.as_micros() as u64)),
                                (
                                    "broadcast_us",
                                    Json::num_u64(n.broadcast.as_micros() as u64),
                                ),
                                ("total_us", Json::num_u64(n.total.as_micros() as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "clusters",
                match &self.clusters {
                    Some(c) => Json::obj([
                        ("clusters", Json::num_u64(c.clusters as u64)),
                        ("noise", Json::num_u64(c.noise as u64)),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "quality",
                match &self.quality {
                    Some(q) => {
                        let opt_num = |v: &Option<f64>| match v {
                            Some(v) => Json::Num(*v),
                            None => Json::Null,
                        };
                        Json::obj([
                            ("dbcv", Json::Num(q.dbcv)),
                            ("clusters", Json::num_u64(q.clusters as u64)),
                            ("noise", Json::num_u64(q.noise as u64)),
                            (
                                "cluster_validity",
                                Json::Arr(
                                    q.cluster_validity.iter().map(|&v| Json::Num(v)).collect(),
                                ),
                            ),
                            ("q_dbdc_p1", opt_num(&q.q_dbdc_p1)),
                            ("q_dbdc_p2", opt_num(&q.q_dbdc_p2)),
                            (
                                "per_site",
                                Json::Obj(
                                    q.per_site
                                        .iter()
                                        .map(|(peer, v)| (peer.clone(), Json::Num(*v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    }
                    None => Json::Null,
                },
            ),
        ])
    }

    /// The report as the exact bytes `--metrics-out` writes.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Rebuilds and validates a report from parsed JSON. Accepts every
    /// schema version from [`MIN_SCHEMA_VERSION`] to [`SCHEMA_VERSION`]
    /// — sections an older version lacked (v1: `env`, `hists`) default
    /// to empty — and rejects unknown *future* versions and malformed
    /// sections with a message naming the offending field.
    pub fn from_json(v: &Json) -> Result<RunReport, String> {
        let schema_version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("report missing \"schema_version\"")? as u32;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema_version) {
            return Err(format!(
                "unsupported schema_version {schema_version} \
                 (this build reads {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
            ));
        }
        let command = v
            .get("command")
            .and_then(Json::as_str)
            .ok_or("report missing \"command\"")?
            .to_string();
        // Distributed identity arrived in v3; missing or null in older
        // reports simply means "not a distributed process".
        let opt_str = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
        let role = opt_str("role");
        let run_id = opt_str("run_id");
        let peer = opt_str("peer");
        let params = match v.get("params") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("param {k:?} is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("report missing \"params\" object".into()),
        };
        let env = match v.get("env") {
            Some(Json::Null) | None => None,
            Some(e) => Some(EnvFingerprint {
                nproc: req_usize(e, "nproc", "env")?,
                rustc: req_str(e, "rustc", "env")?,
                git_rev: req_str(e, "git_rev", "env")?,
                dataset_checksum: req_str(e, "dataset_checksum", "env")?,
            }),
        };
        let dataset = match v.get("dataset") {
            Some(Json::Null) | None => None,
            Some(d) => Some(DatasetInfo {
                points: req_usize(d, "points", "dataset")?,
                dim: req_usize(d, "dim", "dataset")?,
            }),
        };
        let spans = v
            .get("spans")
            .and_then(Json::as_arr)
            .ok_or("report missing \"spans\" array")?
            .iter()
            .map(Span::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let scopes = match v.get("counters") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(name, c)| counters_from_json(c).map(|c| (name.clone(), c)))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("report missing \"counters\" object".into()),
        };
        // v1 reports predate histograms; absence means "none recorded".
        let hists = match v.get("hists") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(name, h)| {
                    Histogram::from_json(h)
                        .map(|h| (name.clone(), h))
                        .map_err(|e| format!("hist {name:?}: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(Json::Null) | None => Vec::new(),
            Some(_) => return Err("report \"hists\" is not an object".into()),
        };
        let sites = v
            .get("sites")
            .and_then(Json::as_arr)
            .ok_or("report missing \"sites\" array")?
            .iter()
            .map(|s| {
                Ok(SiteStats {
                    site: req_usize(s, "site", "site entry")?,
                    points: req_usize(s, "points", "site entry")?,
                    representatives: req_usize(s, "representatives", "site entry")?,
                    bytes_up: req_usize(s, "bytes_up", "site entry")?,
                    local: req_duration(s, "local_us", "site entry")?,
                    relabel: req_duration(s, "relabel_us", "site entry")?,
                    counters: counters_from_json(
                        s.get("counters").ok_or("site entry missing \"counters\"")?,
                    )?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let transfer = match v.get("transfer") {
            Some(Json::Null) | None => None,
            Some(t) => Some(TransferStats {
                bytes_up: req_usize(t, "bytes_up", "transfer")?,
                bytes_down: req_usize(t, "bytes_down", "transfer")?,
                per_site_bytes_up: t
                    .get("per_site_bytes_up")
                    .and_then(Json::as_arr)
                    .ok_or("transfer missing \"per_site_bytes_up\"")?
                    .iter()
                    .map(|b| {
                        b.as_u64()
                            .map(|b| b as usize)
                            .ok_or_else(|| "per_site_bytes_up entry not an integer".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                global_model_bytes: req_usize(t, "global_model_bytes", "transfer")?,
                representatives: req_usize(t, "representatives", "transfer")?,
            }),
        };
        let network = v
            .get("network")
            .and_then(Json::as_arr)
            .ok_or("report missing \"network\" array")?
            .iter()
            .map(|n| {
                Ok(NetworkCost {
                    link: n
                        .get("link")
                        .and_then(Json::as_str)
                        .ok_or("network entry missing \"link\"")?
                        .to_string(),
                    upload: req_duration(n, "upload_us", "network entry")?,
                    broadcast: req_duration(n, "broadcast_us", "network entry")?,
                    total: req_duration(n, "total_us", "network entry")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let clusters = match v.get("clusters") {
            Some(Json::Null) | None => None,
            Some(c) => Some(ClusterStats {
                clusters: req_usize(c, "clusters", "clusters")?,
                noise: req_usize(c, "noise", "clusters")?,
            }),
        };
        // The quality section arrived in v4; missing or null in older
        // reports means "quality was not measured".
        let quality = match v.get("quality") {
            Some(Json::Null) | None => None,
            Some(q) => {
                let opt_num = |key: &str| match q.get(key) {
                    Some(Json::Null) | None => Ok(None),
                    Some(v) => v
                        .as_f64()
                        .map(Some)
                        .ok_or_else(|| format!("quality {key:?} is not a number")),
                };
                Some(QualityStats {
                    dbcv: q
                        .get("dbcv")
                        .and_then(Json::as_f64)
                        .ok_or("quality missing \"dbcv\"")?,
                    clusters: req_usize(q, "clusters", "quality")?,
                    noise: req_usize(q, "noise", "quality")?,
                    cluster_validity: q
                        .get("cluster_validity")
                        .and_then(Json::as_arr)
                        .ok_or("quality missing \"cluster_validity\"")?
                        .iter()
                        .map(|v| {
                            v.as_f64()
                                .ok_or_else(|| "cluster_validity entry not a number".to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    q_dbdc_p1: opt_num("q_dbdc_p1")?,
                    q_dbdc_p2: opt_num("q_dbdc_p2")?,
                    per_site: match q.get("per_site") {
                        Some(Json::Obj(pairs)) => pairs
                            .iter()
                            .map(|(peer, v)| {
                                v.as_f64().map(|v| (peer.clone(), v)).ok_or_else(|| {
                                    format!("per_site quality {peer:?} is not a number")
                                })
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                        Some(Json::Null) | None => Vec::new(),
                        Some(_) => return Err("quality \"per_site\" is not an object".into()),
                    },
                })
            }
        };
        Ok(RunReport {
            schema_version,
            command,
            role,
            run_id,
            peer,
            params,
            env,
            dataset,
            spans,
            scopes,
            hists,
            sites,
            transfer,
            network,
            clusters,
            quality,
        })
    }

    /// Parses and validates a report from JSON text.
    pub fn parse(text: &str) -> Result<RunReport, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        RunReport::from_json(&v)
    }

    /// Finds a span by name across all recorded trees.
    pub fn find_span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find_map(|s| s.find(name))
    }

    /// Renders the human-readable report `--trace` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== {} report (schema v{}) ==\n",
            self.command, self.schema_version
        ));
        if self.role.is_some() || self.run_id.is_some() || self.peer.is_some() {
            let unset = "-".to_string();
            out.push_str(&format!(
                "identity: role {}, run {}, peer {}\n",
                self.role.as_ref().unwrap_or(&unset),
                self.run_id.as_ref().unwrap_or(&unset),
                self.peer.as_ref().unwrap_or(&unset),
            ));
        }
        if !self.params.is_empty() {
            let echoed: Vec<String> = self
                .params
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&format!("params: {}\n", echoed.join(" ")));
        }
        if let Some(e) = &self.env {
            out.push_str(&format!(
                "env: nproc {}, {}, rev {}, data {}\n",
                e.nproc, e.rustc, e.git_rev, e.dataset_checksum
            ));
        }
        if let Some(d) = &self.dataset {
            out.push_str(&format!("dataset: {} points, dim {}\n", d.points, d.dim));
        }
        if !self.spans.is_empty() {
            out.push_str("phases:\n");
            for span in &self.spans {
                for line in span.render().lines() {
                    out.push_str(&format!("  {line}\n"));
                }
            }
        }
        if !self.scopes.is_empty() {
            out.push_str("counters:\n");
            for (name, c) in &self.scopes {
                let nonzero: Vec<String> = Counters::FIELDS
                    .iter()
                    .zip(c.values())
                    .filter(|(_, v)| *v != 0)
                    .map(|(f, v)| format!("{f}={v}"))
                    .collect();
                let body = if nonzero.is_empty() {
                    "(idle)".to_string()
                } else {
                    nonzero.join(" ")
                };
                out.push_str(&format!("  {name:<12} {body}\n"));
            }
        }
        if !self.hists.is_empty() {
            out.push_str(&render_hists(&self.hists));
        }
        if !self.sites.is_empty() {
            out.push_str("sites:\n");
            for s in &self.sites {
                out.push_str(&format!(
                    "  site {}: {} points, {} reps, {} B up, local {}, relabel {}\n",
                    s.site,
                    s.points,
                    s.representatives,
                    s.bytes_up,
                    fmt_ms(s.local),
                    fmt_ms(s.relabel),
                ));
            }
        }
        if let Some(t) = &self.transfer {
            out.push_str(&format!(
                "transfer: up {} B {:?}, global model {} B, down {} B, {} representatives\n",
                t.bytes_up,
                t.per_site_bytes_up,
                t.global_model_bytes,
                t.bytes_down,
                t.representatives,
            ));
        }
        if !self.network.is_empty() {
            out.push_str("network (modeled):\n");
            for n in &self.network {
                out.push_str(&format!(
                    "  {:<12} upload {} + broadcast {} -> total {}\n",
                    n.link,
                    fmt_ms(n.upload),
                    fmt_ms(n.broadcast),
                    fmt_ms(n.total),
                ));
            }
        }
        if let Some(c) = &self.clusters {
            out.push_str(&format!(
                "clusters: {} clusters, {} noise points\n",
                c.clusters, c.noise
            ));
        }
        if let Some(q) = &self.quality {
            out.push_str(&format!(
                "quality: DBCV {:+.4} over {} clusters, {} noise",
                q.dbcv, q.clusters, q.noise
            ));
            if let (Some(p1), Some(p2)) = (q.q_dbdc_p1, q.q_dbdc_p2) {
                out.push_str(&format!(", Q_DBDC P^I {p1:.4} P^II {p2:.4}"));
            }
            out.push('\n');
            for (peer, v) in &q.per_site {
                out.push_str(&format!("  {peer}: local DBCV {v:+.4}\n"));
            }
        }
        out
    }
}

/// Renders histogram scopes as the table `render` and the CLI `--hist`
/// flag print: one row per scope with count, p50/p90/p99, and max,
/// formatted by the scope's unit suffix via [`fmt_sample`].
pub fn render_hists(hists: &[(String, Histogram)]) -> String {
    let mut out = String::new();
    out.push_str("hists:\n");
    let width = hists.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (name, h) in hists {
        out.push_str(&format!(
            "  {name:<width$}  n={} p50={} p90={} p99={} max={}\n",
            h.count(),
            fmt_sample(name, h.p50()),
            fmt_sample(name, h.p90()),
            fmt_sample(name, h.p99()),
            fmt_sample(name, h.max()),
        ));
    }
    out
}

/// Counters as a JSON object, all fields in [`Counters::FIELDS`]
/// order.
pub fn counters_to_json(c: &Counters) -> Json {
    Json::Obj(
        Counters::FIELDS
            .iter()
            .zip(c.values())
            .map(|(name, v)| (name.to_string(), Json::num_u64(v)))
            .collect(),
    )
}

/// Rebuilds counters from [`counters_to_json`] output. The first
/// [`Counters::CORE_FIELDS`] fields (the nine original ones) are
/// required; the later fields (added from schema v3 on) read as zero
/// when absent or not an integer, so v1/v2 counter objects still parse.
pub fn counters_from_json(v: &Json) -> Result<Counters, String> {
    let mut values = [0u64; Counters::N];
    for (f, (name, cell)) in Counters::FIELDS.iter().zip(&mut values).enumerate() {
        match v.get(name).and_then(Json::as_u64) {
            Some(n) => *cell = n,
            None if f < Counters::CORE_FIELDS => return Err(format!("counters missing {name:?}")),
            None => {}
        }
    }
    Ok(Counters::from_values(values))
}

fn req_usize(v: &Json, key: &str, what: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .map(|n| n as usize)
        .ok_or_else(|| format!("{what} missing {key:?}"))
}

fn req_str(v: &Json, key: &str, what: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{what} missing {key:?}"))
}

fn req_duration(v: &Json, key: &str, what: &str) -> Result<Duration, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .map(Duration::from_micros)
        .ok_or_else(|| format!("{what} missing {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_always_fills_every_field() {
        let env = env_fingerprint("abc".into());
        assert!(env.nproc >= 1);
        assert!(!env.rustc.is_empty());
        assert!(!env.git_rev.is_empty());
        assert_eq!(env.dataset_checksum, "abc");
    }

    fn sample() -> RunReport {
        let mut root = Span::new("dbdc", Duration::from_micros(10_000));
        let mut local = Span::new("local[0]", Duration::from_micros(4_000));
        local.push(Span::new("cluster", Duration::from_micros(3_000)));
        local.push(Span::new("extract", Duration::from_micros(700)));
        local.push(Span::new("encode", Duration::from_micros(300)));
        root.push(local);
        root.push(Span::modeled("upload", Duration::from_micros(120)));
        root.push(Span::new("global", Duration::from_micros(800)));
        root.push(Span::modeled("broadcast", Duration::from_micros(60)));
        root.push(Span::new("relabel[0]", Duration::from_micros(500)));

        let local_counters = Counters {
            range_queries: 40,
            distance_evals: 1600,
            representatives: 6,
            bytes_sent: 280,
            ..Counters::default()
        };
        RunReport {
            schema_version: SCHEMA_VERSION,
            command: "run".into(),
            role: Some("server".into()),
            run_id: Some("run-7".into()),
            peer: Some("server".into()),
            params: vec![("eps".into(), "1.2".into()), ("sites".into(), "1".into())],
            env: Some(EnvFingerprint {
                nproc: 8,
                rustc: "rustc 1.75.0".into(),
                git_rev: "abc1234".into(),
                dataset_checksum: "11deadbeef".into(),
            }),
            dataset: Some(DatasetInfo { points: 40, dim: 2 }),
            spans: vec![root],
            scopes: vec![
                ("local[0]".into(), local_counters),
                (
                    "global".into(),
                    Counters {
                        range_queries: 6,
                        distance_evals: 36,
                        bytes_received: 280,
                        bytes_sent: 300,
                        ..Counters::default()
                    },
                ),
            ],
            hists: vec![(
                "local[0]/eps_range_ns".into(),
                Histogram::from_values([900, 1_200, 1_500, 40_000]),
            )],
            sites: vec![SiteStats {
                site: 0,
                points: 40,
                representatives: 6,
                bytes_up: 280,
                local: Duration::from_micros(4_000),
                relabel: Duration::from_micros(500),
                counters: local_counters,
            }],
            transfer: Some(TransferStats {
                bytes_up: 280,
                bytes_down: 300,
                per_site_bytes_up: vec![280],
                global_model_bytes: 300,
                representatives: 6,
            }),
            network: vec![NetworkCost {
                link: "lan".into(),
                upload: Duration::from_micros(120),
                broadcast: Duration::from_micros(60),
                total: Duration::from_micros(10_180),
            }],
            clusters: Some(ClusterStats {
                clusters: 2,
                noise: 3,
            }),
            quality: Some(QualityStats {
                dbcv: 0.8125,
                clusters: 2,
                noise: 3,
                cluster_validity: vec![0.875, 0.75],
                q_dbdc_p1: Some(0.96875),
                q_dbdc_p2: Some(0.9375),
                per_site: vec![("site[0]".into(), 0.78125)],
            }),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let report = sample();
        let text = report.to_json_string();
        let back = RunReport::parse(&text).expect("own output parses");
        assert_eq!(back, report);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn minimal_report_round_trips() {
        let report = RunReport::new("generate").with_param("set", "a");
        let back = RunReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(back, report);
        assert!(back.dataset.is_none());
        assert!(back.transfer.is_none());
        assert!(back.clusters.is_none());
        assert!(back.quality.is_none());
    }

    #[test]
    fn rejects_other_schema_versions() {
        let mut v = sample().to_json();
        if let Json::Obj(pairs) = &mut v {
            pairs[0].1 = Json::num_u64(99);
        }
        let err = RunReport::from_json(&v).unwrap_err();
        assert!(err.contains("schema_version 99"), "{err}");
    }

    #[test]
    fn reads_v1_reports_without_env_or_hists() {
        // A v1 report has no "env" and no "hists" keys at all.
        let mut v = sample().to_json();
        if let Json::Obj(pairs) = &mut v {
            pairs[0].1 = Json::num_u64(1);
            pairs.retain(|(k, _)| {
                k != "env"
                    && k != "hists"
                    && k != "role"
                    && k != "run_id"
                    && k != "peer"
                    && k != "quality"
            });
        }
        let back = RunReport::from_json(&v).expect("v1 still parses");
        assert_eq!(back.schema_version, 1);
        assert!(back.env.is_none());
        assert!(back.hists.is_empty());
        assert!(back.role.is_none() && back.run_id.is_none() && back.peer.is_none());
        // Everything a v1 report did carry survives.
        assert_eq!(back.scopes.len(), 2);
        assert_eq!(back.sites.len(), 1);
    }

    #[test]
    fn reads_v2_reports_without_identity_or_wire_counters() {
        // A v2 report: no role/run_id/peer, nine-field counter
        // objects, five-key spans.
        let mut v = sample().to_json();
        if let Json::Obj(pairs) = &mut v {
            pairs[0].1 = Json::num_u64(2);
            pairs.retain(|(k, _)| k != "role" && k != "run_id" && k != "peer" && k != "quality");
            for (k, val) in pairs.iter_mut() {
                if k == "counters" {
                    if let Json::Obj(scopes) = val {
                        for (_, c) in scopes.iter_mut() {
                            if let Json::Obj(fields) = c {
                                fields.truncate(Counters::CORE_FIELDS);
                            }
                        }
                    }
                }
            }
        }
        let back = RunReport::from_json(&v).expect("v2 still parses");
        assert_eq!(back.schema_version, 2);
        assert!(back.role.is_none());
        assert_eq!(back.scopes[0].1.range_queries, 40);
        assert_eq!(back.scopes[0].1.frames_sent, 0);
        assert!(back.quality.is_none());
    }

    #[test]
    fn reads_v3_reports_without_quality() {
        // A v3 report: no "quality" key, 23-field counter objects.
        let mut v = sample().to_json();
        if let Json::Obj(pairs) = &mut v {
            pairs[0].1 = Json::num_u64(3);
            pairs.retain(|(k, _)| k != "quality");
            for (k, val) in pairs.iter_mut() {
                if k == "counters" {
                    if let Json::Obj(scopes) = val {
                        for (_, c) in scopes.iter_mut() {
                            if let Json::Obj(fields) = c {
                                fields.retain(|(f, _)| {
                                    !f.starts_with("quality_") && f != "mst_edges"
                                });
                            }
                        }
                    }
                }
            }
        }
        let back = RunReport::from_json(&v).expect("v3 still parses");
        assert_eq!(back.schema_version, 3);
        assert!(back.quality.is_none());
        assert_eq!(back.scopes[0].1.range_queries, 40);
        assert_eq!(back.scopes[0].1.quality_perfect, 0);
    }

    #[test]
    fn rejects_malformed_sections() {
        let mut v = sample().to_json();
        if let Json::Obj(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "spans");
        }
        let err = RunReport::from_json(&v).unwrap_err();
        assert!(err.contains("spans"), "{err}");
    }

    #[test]
    fn deeply_nested_input_is_an_error() {
        let text = sample().to_json_string();
        let head = text
            .trim_end()
            .strip_suffix('}')
            .expect("report is an object");
        let hostile = format!("{head}, \"extra\": {}", "[".repeat(100_000));
        let err = RunReport::parse(&hostile).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
    }

    #[test]
    fn find_span_searches_all_trees() {
        let report = sample();
        assert!(report.find_span("encode").is_some());
        assert!(report.find_span("broadcast").unwrap().modeled);
        assert!(report.find_span("nope").is_none());
    }

    #[test]
    fn render_mentions_every_section() {
        let text = sample().render();
        for needle in [
            "== run report (schema v5) ==",
            "identity: role server, run run-7, peer server",
            "eps=1.2",
            "env: nproc 8, rustc 1.75.0, rev abc1234, data 11deadbeef",
            "dataset: 40 points, dim 2",
            "phases:",
            "local[0]",
            "counters:",
            "range_queries=40",
            "hists:",
            "local[0]/eps_range_ns",
            "n=4",
            "site 0: 40 points",
            "transfer: up 280 B [280]",
            "network (modeled):",
            "lan",
            "clusters: 2 clusters, 3 noise points",
            "quality: DBCV +0.8125 over 2 clusters, 3 noise, Q_DBDC P^I 0.9688 P^II 0.9375",
            "site[0]: local DBCV +0.7812",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
