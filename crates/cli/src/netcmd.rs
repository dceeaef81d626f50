//! The networked subcommands: `serve` (the DBDC server) and `site`
//! (one client site), also exposed as the standalone `dbdc-server` and
//! `dbdc-site` binaries.
//!
//! Together they run the exact protocol of `dbdc-cli run`, but over
//! real TCP: every site process loads the shared input file, derives
//! *its own* partition with the shared `--partitioner`/`--seed`
//! (deterministic, so no coordinator has to ship data around), runs
//! the local phase, and exchanges wire-encoded models with the server.
//! The resulting `--metrics-out` reports carry **measured**
//! `upload`/`broadcast` spans — real socket walls, where the
//! single-process runtime can only model them from byte counts.
//!
//! Rendezvous: the server binds (`--bind`, default an ephemeral
//! loopback port) and writes the bound address to `--addr-file`; sites
//! either poll that file (`--addr-file`, `--wait-ms`) or take an
//! explicit `--connect HOST:PORT`.

use crate::args::{ArgError, Args};
use crate::opts::{
    build_params, dataset_info, finish_report, parse_partitioner, quality_stats,
    read_protocol_input, require_sites, wants_report, CliResult,
};
use dbdc_geom::{dataset_checksum, Clustering, Dataset, Label};
use dbdc_net::http_get;
use dbdc_net::{
    run_site, serve, AdminServer, AdminState, FaultPlan, FaultProxy, ServeOptions, SiteOptions,
};
use dbdc_obs::{
    delta, env_fingerprint, fmt_ms, fmt_sample, NoopRecorder, Recorder, RecordingRecorder,
    RunReport, SiteStats, SnapshotEngine, Span, TelemetrySnapshot, TransferStats,
};
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `serve` / `dbdc-server`: accept `--sites` connections, build and
/// broadcast the global model, report measured transfer walls.
pub fn cmd_serve(args: &Args) -> CliResult {
    let params = build_params(args)?;
    let n_sites = require_sites(args)?;
    let bind = args.get("bind").unwrap_or("127.0.0.1:0");
    let listener = TcpListener::bind(bind).map_err(|e| format!("cannot bind {bind}: {e}"))?;
    let addr = listener.local_addr()?;
    println!("dbdc-server listening on {addr} for {n_sites} site(s)");
    if let Some(path) = args.get("addr-file") {
        write_addr_file(path, addr)?;
    }

    let mut opts = ServeOptions::new(n_sites, params);
    set_ms(args, "read-timeout-ms", &mut opts.read_timeout)?;
    if let Some(resends) = args.get_as("resend")? {
        opts.resend_attempts = resends;
    }
    set_ms(args, "deadline-ms", &mut opts.deadline)?;
    set_ms(args, "drain-ms", &mut opts.drain_window)?;

    let wants = wants_report(args);
    let tel = Telemetry::new(args, "serve", "server", "server".into());
    let recorder = tel.recorder(wants, args);
    // The protocol listener is already accepting by the time the admin
    // plane comes up, so the server's readiness predicate is constant.
    let _admin = tel.spawn_admin(args, Box::new(|| true))?;

    let t0 = Instant::now();
    let outcome = match serve(listener, opts, recorder) {
        Ok(outcome) => outcome,
        Err(e) => {
            // A deadline or protocol failure loses the run, not the
            // telemetry: flush everything the recorder holds as a
            // partial report marked clean=false before surfacing the
            // error, so post-mortems of killed fleets have data.
            if wants {
                let mut report = tel.partial_report();
                report.spans = vec![Span::new("dbdc_serve", t0.elapsed())];
                finish_report(args, &report)?;
            }
            return Err(format!("serve: {e}").into());
        }
    };

    let bytes_up: usize = outcome.per_site_bytes_up.iter().sum();
    println!(
        "served {n_sites} site(s): global model {} clusters from {} representatives",
        outcome.global.n_clusters, outcome.n_representatives
    );
    println!(
        "transfer: {} B up ({:?} per site), {} B down per site",
        bytes_up, outcome.per_site_bytes_up, outcome.global_model_bytes
    );
    println!(
        "measured walls: upload {}, global {}, broadcast {} ({} connection(s))",
        fmt_ms(outcome.upload_wall),
        fmt_ms(outcome.global_wall),
        fmt_ms(outcome.broadcast_wall),
        outcome.connections
    );

    if wants {
        let mut report = tel
            .report()
            .with_param("sites", n_sites)
            .with_param("connections", outcome.connections)
            .with_param("clean", true);
        // The server holds no dataset; the checksum slot says so rather
        // than aliasing some site's input.
        report.env = Some(env_fingerprint("none".into()));
        // Unlike `run`'s modeled transfer spans, these are measured
        // socket walls: Span::new leaves `modeled` false.
        // The root span carries the full serve wall (drain included):
        // in a merged timeline it is the window every site session must
        // nest inside, and the phase sum would cut off the drain tail.
        let mut root = Span::new("dbdc_serve", outcome.serve_wall);
        root.push(Span::new("upload", outcome.upload_wall));
        root.push(Span::new("global", outcome.global_wall));
        root.push(Span::new("broadcast", outcome.broadcast_wall));
        // Per-site handshake windows, explicitly placed at their offset
        // from serve start: `report timeline` pairs each with the
        // matching site's handshake span to align the process clocks.
        for (i, hs) in outcome.handshakes.iter().enumerate() {
            if let Some((start, wall)) = hs {
                root.push(Span::new(format!("handshake[{i}]"), *wall).with_start(*start));
            }
        }
        report.spans = vec![root];
        report.scopes = tel.rec.scopes();
        report.hists = tel.rec.hist_scopes();
        report.transfer = Some(TransferStats {
            bytes_up,
            bytes_down: outcome.global_model_bytes * n_sites,
            per_site_bytes_up: outcome.per_site_bytes_up.clone(),
            global_model_bytes: outcome.global_model_bytes,
            representatives: outcome.n_representatives,
        });
        // The server never sees raw points, so its quality signal is
        // the DBCV of the global model itself: the representatives,
        // labeled by their global cluster. `report merge` keeps this as
        // the fleet's global quality next to the sites' local scores.
        if !outcome.global.reps.is_empty() {
            let points: Vec<dbdc_geom::Point> = outcome
                .global
                .reps
                .iter()
                .map(|r| r.point.clone())
                .collect();
            let rep_data = Dataset::from_points(&points);
            let labels = Clustering::from_labels(
                outcome
                    .global
                    .reps
                    .iter()
                    .map(|r| Label::Cluster(r.global_cluster))
                    .collect(),
            );
            let quality = quality_stats(&rep_data, &labels, params.index, recorder);
            println!(
                "quality: global-model DBCV {:+.4} over {} cluster(s)",
                quality.dbcv, quality.clusters
            );
            report.scopes = tel.rec.scopes();
            report.quality = Some(quality);
        }
        finish_report(args, &report)?;
    }
    Ok(())
}

/// `site` / `dbdc-site`: derive this site's partition, run the client
/// protocol against the server, optionally write the final labels.
pub fn cmd_site(args: &Args) -> CliResult {
    let data = read_protocol_input(args)?;
    let params = build_params(args)?;
    let site: u32 = args.require_as("site")?;
    let n_sites = require_sites(args)?;
    if site as usize >= n_sites {
        return Err(format!("--site {site} out of range for --sites {n_sites}").into());
    }
    let partitioner = parse_partitioner(args)?;
    // Every site derives the same deterministic partitioning and keeps
    // its own slice — identical to the in-process runtime's split.
    let assignment = partitioner.assign(&data, n_sites);
    let (mut parts, back) = data.partition(n_sites, &assignment);
    let site_data = parts.swap_remove(site as usize);
    let origin_ids = &back[site as usize];

    let addr = resolve_addr(args)?;
    let mut opts = SiteOptions::new(site, n_sites as u32, params);
    set_ms(args, "connect-timeout-ms", &mut opts.connect_timeout)?;
    set_ms(args, "read-timeout-ms", &mut opts.read_timeout)?;
    if let Some(attempts) = args.get_as("retries")? {
        opts.retry.attempts = attempts;
    }
    set_ms(args, "retry-base-ms", &mut opts.retry.base_delay)?;
    set_ms(args, "retry-max-ms", &mut opts.retry.max_delay)?;

    let wants = wants_report(args);
    let tel = Telemetry::new(args, "site", "site", format!("site[{site}]"));
    let recorder = tel.recorder(wants, args);
    // A site is ready once its handshake has completed: the wire
    // metrics count the HELLO_ACK under its own per-kind subscope, so
    // readiness is a plain counter probe against the live recorder.
    let ready_rec = Arc::clone(&tel.rec);
    let hello_ack_scope = format!("net/site[{site}]/HELLO_ACK");
    let ready = move || ready_rec.counters(&hello_ack_scope).frames_received >= 1;
    let _admin = tel.spawn_admin(args, Box::new(ready))?;

    let outcome = match run_site(addr, &site_data, &opts, recorder) {
        Ok(outcome) => outcome,
        Err(e) => {
            // Mirror the server: a failed session still flushes the
            // partial report (local-phase counters, attempted wire
            // traffic) marked clean=false.
            if wants {
                let report = tel.partial_report();
                finish_report(args, &report)?;
            }
            return Err(format!("site {site}: {e}").into());
        }
    };

    println!(
        "site {site}/{n_sites}: {} points, {} B up, {} B down, {} attempt(s)",
        site_data.len(),
        outcome.bytes_up,
        outcome.bytes_down,
        outcome.attempts
    );
    println!(
        "measured walls: local {}, session {}, relabel {}",
        fmt_ms(outcome.local_wall),
        fmt_ms(outcome.session_wall),
        fmt_ms(outcome.relabel_wall)
    );

    if let Some(path) = args.get("out") {
        write_labels(path, origin_ids, &outcome.labels)?;
        println!("wrote {path}");
    }

    if wants {
        let mut report = tel
            .report()
            .with_param("site", site)
            .with_param("sites", n_sites)
            .with_param("attempts", outcome.attempts)
            .with_param("clean", true);
        report.env = Some(env_fingerprint(dataset_checksum(&data)));
        report.dataset = Some(dataset_info(&site_data));
        let mut root = Span::new(
            "dbdc_site",
            outcome.local_wall + outcome.session_wall + outcome.relabel_wall,
        );
        let workers = dbdc_cluster::effective_threads(params.threads);
        root.push(outcome.local_times.to_span(site as usize, workers));
        // The session wall covers upload + broadcast receipt: a
        // measured span where the in-process report splices modeled
        // `upload`/`broadcast` durations. Its children are the measured
        // sub-phases of the *successful* attempt, explicitly placed at
        // their offset from that attempt's connect call (on a retried
        // session, earlier failed attempts and backoff also live inside
        // the session wall but carry no spans of their own).
        let mut session = Span::new("session", outcome.session_wall);
        let p = outcome.session_phases;
        session.push(Span::new("handshake", p.handshake).with_start(p.handshake_start));
        session.push(Span::new("upload", p.upload).with_start(p.upload_start));
        session.push(Span::new("download", p.download).with_start(p.download_start));
        root.push(session);
        root.push(Span::new(format!("relabel[{site}]"), outcome.relabel_wall));
        report.spans = vec![root];
        report.scopes = tel.rec.scopes();
        report.hists = tel.rec.hist_scopes();
        report.sites = vec![SiteStats {
            site: site as usize,
            points: site_data.len(),
            representatives: tel.rec.counters(&format!("local[{site}]")).representatives as usize,
            bytes_up: outcome.bytes_up,
            local: outcome.local_wall,
            relabel: outcome.relabel_wall,
            counters: tel.rec.counters(&format!("local[{site}]")),
        }];
        report.transfer = Some(TransferStats {
            bytes_up: outcome.bytes_up,
            bytes_down: outcome.bytes_down,
            per_site_bytes_up: vec![outcome.bytes_up],
            global_model_bytes: outcome.bytes_down,
            representatives: outcome.global.reps.len(),
        });
        // Local DBCV of this site's final (relabeled) clustering over
        // its own partition — the per-site quality `report merge`
        // collects into the fleet report's per_site list.
        let quality = quality_stats(&site_data, &outcome.labels, params.index, recorder);
        println!(
            "quality: local DBCV {:+.4} over {} cluster(s), {} noise",
            quality.dbcv, quality.clusters, quality.noise
        );
        report.scopes = tel.rec.scopes();
        report.quality = Some(quality);
        finish_report(args, &report)?;
    }
    Ok(())
}

/// `proxy`: a standalone fault-injecting forwarder so shell walkthroughs
/// and CI can run the server/site fleet through an adversarial link
/// without writing Rust.
pub fn cmd_proxy(args: &Args) -> CliResult {
    let plan = FaultPlan {
        seed: args.get_or("seed", 1u64)?,
        drop: args.get_or("drop", 0.0)?,
        delay_p: args.get_or("delay-p", 0.0)?,
        delay: Duration::from_millis(args.get_or("delay-ms", 10u64)?),
        truncate: args.get_or("truncate", 0.0)?,
        bitflip: args.get_or("bitflip", 0.0)?,
    };
    // Each frame draws one fault from the four probabilities stacked
    // into consecutive bands of one uniform draw, so each must lie in
    // [0, 1] and together they may not exceed 1 (rounding aside).
    let bands = [
        ("--drop", plan.drop),
        ("--truncate", plan.truncate),
        ("--bitflip", plan.bitflip),
        ("--delay-p", plan.delay_p),
    ];
    if let Some((flag, p)) = bands.iter().find(|(_, p)| !(0.0..=1.0).contains(p)) {
        return Err(format!("{flag} must be a probability in [0, 1], got {p}").into());
    }
    let total: f64 = bands.iter().map(|(_, p)| p).sum();
    if total > 1.0 + 1e-9 {
        let given: Vec<&str> = bands
            .iter()
            .filter(|(_, p)| *p > 0.0)
            .map(|b| b.0)
            .collect();
        return Err(format!(
            "{} sum to {total}, above 1: each frame draws at most one fault",
            given.join(" + ")
        )
        .into());
    }
    let upstream = resolve_addr(args)?;
    let wants = wants_report(args);
    let tel = Telemetry::new(args, "proxy", "proxy", "proxy".into());
    let t0 = Instant::now();
    let mut proxy = if wants || args.get("admin-addr").is_some() {
        FaultProxy::spawn_observed(upstream, plan, &*tel.rec)
    } else {
        FaultProxy::spawn(upstream, plan)
    }
    .map_err(|e| format!("proxy: {e}"))?;
    // The proxy is forwarding as soon as spawn returns; the admin plane
    // exposes the injected-fault ledger (proxy/c2s, proxy/s2c) live.
    let _admin = tel.spawn_admin(args, Box::new(|| true))?;
    println!("dbdc proxy forwarding {} -> {upstream}", proxy.addr());
    if let Some(path) = args.get("proxy-addr-file") {
        write_addr_file(path, proxy.addr())?;
    }
    std::thread::sleep(Duration::from_millis(args.get_or("duration-ms", 30_000)?));
    proxy.shutdown();
    let wall = t0.elapsed();
    let stats = proxy.stats();
    println!(
        "proxy: forwarded {}, dropped {}, delayed {}, truncated {}, bitflipped {}",
        stats.forwarded.load(Ordering::Relaxed),
        stats.dropped.load(Ordering::Relaxed),
        stats.delayed.load(Ordering::Relaxed),
        stats.truncated.load(Ordering::Relaxed),
        stats.bitflipped.load(Ordering::Relaxed),
    );
    if wants {
        let mut report = tel
            .report()
            .with_param("seed", plan.seed)
            .with_param("drop", plan.drop)
            .with_param("forwarded", stats.forwarded.load(Ordering::Relaxed));
        report.env = Some(env_fingerprint("none".into()));
        report.spans = vec![Span::new("dbdc_proxy", wall)];
        report.scopes = tel.rec.scopes();
        finish_report(args, &report)?;
    }
    Ok(())
}

/// `watch`: poll the fleet's `--admin-addr` endpoints, diff consecutive
/// snapshots, and render a live rates table.
pub fn cmd_watch(args: &Args) -> CliResult {
    let addrs = args.positional();
    let once = args.switch("once");
    if once && args.get("interval").is_some() {
        return Err("--interval paces continuous mode; --once scrapes a single time".into());
    }
    let interval = Duration::from_millis(args.get_or("interval", 1000u64)?);
    let timeout = Duration::from_secs(2);

    let mut prev: Vec<Option<TelemetrySnapshot>> = (0..addrs.len()).map(|_| None).collect();
    let mut all_down_ticks = 0u32;
    loop {
        let mut frame = String::new();
        let mut up = 0usize;
        for (i, addr) in addrs.iter().enumerate() {
            match scrape(addr, timeout) {
                Ok((snap, ready)) => {
                    up += 1;
                    frame.push_str(&render_peer(addr, &snap, prev[i].as_ref(), ready));
                    prev[i] = Some(snap);
                }
                Err(e) => {
                    frame.push_str(&format!("{addr}  DOWN ({e})\n"));
                    prev[i] = None;
                }
            }
        }
        if once {
            print!("{frame}");
            if up == 0 {
                return Err("watch: no admin endpoint reachable".into());
            }
            return Ok(());
        }
        // Continuous mode repaints in place (clear screen, home cursor).
        print!(
            "\x1b[2J\x1b[Hdbdc watch — {up}/{} peer(s) up, every {:?}\n\n{frame}",
            addrs.len(),
            interval
        );
        let _ = std::io::stdout().flush();
        if up == 0 {
            all_down_ticks += 1;
            if all_down_ticks >= 3 {
                println!("all peers unreachable for {all_down_ticks} ticks; fleet has exited");
                return Ok(());
            }
        } else {
            all_down_ticks = 0;
        }
        std::thread::sleep(interval);
    }
}

/// One poll of a peer: `/metrics` parsed into a snapshot, plus its
/// `/readyz` verdict.
fn scrape(addr: &str, timeout: Duration) -> Result<(TelemetrySnapshot, bool), String> {
    let (status, body) = http_get(addr, "/metrics", timeout).map_err(|e| format!("{e}"))?;
    if status != 200 {
        return Err(format!("/metrics returned {status}"));
    }
    let snap = TelemetrySnapshot::from_prometheus(&body)?;
    let ready = matches!(http_get(addr, "/readyz", timeout), Ok((200, _)));
    Ok((snap, ready))
}

/// Renders one peer's block: an identity/rates line from the delta
/// window, then per-phase percentile lines from the cumulative
/// histograms. With no previous scrape the window is the whole process
/// lifetime, so the "rates" are lifetime averages — exactly right for
/// `--once`.
fn render_peer(
    addr: &str,
    snap: &TelemetrySnapshot,
    prev: Option<&TelemetrySnapshot>,
    ready: bool,
) -> String {
    let window = match prev {
        Some(p) => delta(p, snap),
        None => delta(&TelemetrySnapshot::default(), snap),
    };
    let secs = (window.uptime_us as f64 / 1e6).max(1e-9);
    let d = window.total();
    let totals = snap.total();
    let peer = snap.identity.peer.as_deref().unwrap_or("?");
    let role = snap.identity.role.as_deref().unwrap_or("?");
    let state = if ready { "ready" } else { "wait" };
    let mut out = format!(
        "{addr}  {peer} ({role})  {state}  up {:.1}s\n  \
         tx {:.1} fr/s {:.0} B/s   rx {:.1} fr/s {:.0} B/s   \
         retries {}   faults {}   rejects {}\n",
        snap.uptime_us as f64 / 1e6,
        d.frames_sent as f64 / secs,
        d.wire_bytes_sent as f64 / secs,
        d.frames_received as f64 / secs,
        d.wire_bytes_received as f64 / secs,
        totals.retries,
        totals.faults_dropped
            + totals.faults_delayed
            + totals.faults_truncated
            + totals.faults_bitflipped,
        totals.checksum_failures
            + totals.truncated_rejects
            + totals.oversize_rejects
            + totals.handshake_rejections,
    );
    for (scope, h) in &snap.hists {
        if h.count() == 0 {
            continue;
        }
        out.push_str(&format!(
            "  {scope}: n={} p50 {} p90 {}\n",
            h.count(),
            fmt_sample(scope, h.percentile(50.0)),
            fmt_sample(scope, h.percentile(90.0)),
        ));
    }
    out
}

/// A networked process's identity and recorder: what its reports, its
/// partial reports and its `--admin-addr` plane say about it.
#[derive(Clone)]
struct Telemetry {
    command: &'static str,
    role: &'static str,
    run_id: Option<String>,
    peer: String,
    rec: Arc<RecordingRecorder>,
}

impl Telemetry {
    fn new(args: &Args, command: &'static str, role: &'static str, peer: String) -> Telemetry {
        Telemetry {
            command,
            role,
            run_id: args.get("run-id").map(String::from),
            peer,
            rec: Arc::new(RecordingRecorder::new()),
        }
    }

    /// The live recorder when a report or the admin plane will read it,
    /// otherwise one that costs nothing.
    fn recorder(&self, wants: bool, args: &Args) -> &dyn Recorder {
        if wants || args.get("admin-addr").is_some() {
            &*self.rec
        } else {
            &NoopRecorder
        }
    }

    /// A report stamped with this process's identity.
    fn report(&self) -> RunReport {
        RunReport::new(self.command).with_identity(self.role, self.run_id.clone(), &self.peer)
    }

    /// The partial report a live `/report` scrape or an abnormal exit can
    /// assemble: identity plus everything the recorder holds right now.
    /// Outcome-derived sections (transfer, quality, measured phase spans)
    /// don't exist until the run completes, so they are absent; the
    /// `clean=false` param marks the report as a mid-run or failed-run view
    /// (the normal exit path stamps `clean=true`).
    fn partial_report(&self) -> RunReport {
        let mut report = self.report().with_param("clean", false);
        report.env = Some(env_fingerprint("none".into()));
        report.scopes = self.rec.scopes();
        report.hists = self.rec.hist_scopes();
        report
    }

    /// Binds the `--admin-addr` telemetry plane when requested: `/metrics`
    /// snapshots the recorder, `/readyz` answers from the role-specific
    /// predicate, `/report` serves the current partial report. Returns the
    /// handle to keep alive for the duration of the run (`None` when the
    /// flag is absent — the admin plane then costs nothing at all).
    fn spawn_admin(
        &self,
        args: &Args,
        ready: Box<dyn Fn() -> bool + Send + Sync>,
    ) -> Result<Option<AdminServer>, Box<dyn std::error::Error>> {
        let Some(addr) = args.get("admin-addr") else {
            return Ok(None);
        };
        let engine = SnapshotEngine::new(Arc::clone(&self.rec));
        let engine = engine.with_identity(self.role, self.run_id.clone(), &self.peer);
        let tel = self.clone();
        let report = Box::new(move || tel.partial_report().to_json_string());
        let state = AdminState {
            engine,
            ready,
            report,
        };
        let admin = AdminServer::spawn(addr, state)
            .map_err(|e| format!("cannot bind admin address {addr}: {e}"))?;
        println!("admin telemetry on http://{}/metrics", admin.addr());
        Ok(Some(admin))
    }
}

/// Writes the server address atomically (write + rename) so a polling
/// site can never observe a half-written file.
fn write_addr_file(path: &str, addr: SocketAddr) -> CliResult {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, addr.to_string()).map_err(|e| format!("cannot write {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot rename {tmp} to {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// The server address: `--connect HOST:PORT`, or poll `--addr-file`
/// until it appears (the server writes it after binding).
fn resolve_addr(args: &Args) -> Result<SocketAddr, Box<dyn std::error::Error>> {
    if let Some(spec) = args.get("connect") {
        if let Some(poll) = ["addr-file", "wait-ms"]
            .iter()
            .find(|k| args.get(k).is_some())
        {
            return Err(
                format!("--{poll} polls for the server's address; --connect names it").into(),
            );
        }
        return spec
            .parse()
            .map_err(|e| format!("--connect {spec}: {e}").into());
    }
    let Some(path) = args.get("addr-file") else {
        return Err("need --connect ADDR or --addr-file FILE".into());
    };
    let wait = Duration::from_millis(args.get_or("wait-ms", 10_000u64)?);
    let t0 = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(addr) = text.trim().parse() {
                return Ok(addr);
            }
        }
        if t0.elapsed() > wait {
            return Err(format!("no server address in {path} after {wait:?}").into());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Overrides `slot` with the `--{key}` milliseconds when the flag is
/// given, keeping the library's default otherwise.
fn set_ms(args: &Args, key: &str, slot: &mut Duration) -> Result<(), ArgError> {
    if let Some(ms) = args.get_as(key)? {
        *slot = Duration::from_millis(ms);
    }
    Ok(())
}

/// Writes `original_index,label` lines (label `-1` = noise) for this
/// site's points, in partition order.
fn write_labels(path: &str, origin_ids: &[u32], labels: &dbdc_geom::Clustering) -> CliResult {
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    for (pos, &orig) in origin_ids.iter().enumerate() {
        let label = match labels.label(pos as u32) {
            Label::Noise => -1i64,
            Label::Cluster(c) => c as i64,
        };
        writeln!(w, "{orig},{label}")?;
    }
    w.flush()?;
    Ok(())
}
