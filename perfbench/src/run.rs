//! The measurement passes.
//!
//! An untraced pass (`--trace 0`) times whole protocol runs and reports
//! the end-to-end metrics. A traced pass (`--trace 1`) alternates
//! untraced runs with traced ones and reports the per-layer ledger; the
//! difference between the two walls is the tracing overhead. Both passes
//! check every repetition's output.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dbdc::quality::{q_dbdc, ObjectQuality};
use dbdc::{central_dbscan, run_dbdc, DbdcOutcome};
use dbdc_bench::report::{dataset_checksum, env_fingerprint};
use dbdc_obs::{NoopRecorder, RecordingRecorder};

use crate::compose::{compose, Counts};
use crate::fleet::{run_session, Session};
use crate::metrics::{Def, Ledger, END_TO_END, PER_LAYER};
use crate::stats::{lower_median_index, median, peak_rss_mb, tail};
use crate::trace::{self_seconds_by_name, Tracer};
use crate::workload::{Inputs, Mode, Workload, HELD_OUT_SEED};

/// Set-ups per run: at least this many…
const MIN_SETUPS: usize = 5;
/// …and until this much time has gone into them…
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// …but never more than this many.
const MAX_SETUPS: usize = 10_000;

/// Q_DBDC below this means the distributed labels are broken, not just
/// a little worse: a gross sanity floor, far under every workload's
/// value.
const Q_FLOOR: f64 = 0.5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: &'static Workload,
    /// Draws the points and the split.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Shrink the inputs (for the benchmark's own tests).
    pub tiny: bool,
    /// Where the traced pass writes its spans.
    pub spans: PathBuf,
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why each failed (the first few).
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts one operation with its outcome.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = result {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(problem);
            }
        }
    }

    /// Whether every operation succeeded.
    pub fn passed(&self) -> bool {
        self.failed == 0
    }
}

/// A finished pass.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The measured metrics.
    pub ledger: Ledger,
    /// Which table the pass fills.
    pub table: &'static [Def],
    /// The output checks.
    pub checks: Checks,
}

/// Runs the pass `args` asks for, printing the environment and the
/// workload's inputs first.
pub fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let mut checks = Checks::default();
    let mut ledger = Ledger::default();
    let inputs = w.setup(args.seed, args.tiny);
    let setups = Setups::collect(args, &inputs);
    checks.record(if setups.reproducible {
        Ok(())
    } else {
        Err("the same seed produced different inputs".into())
    });
    let data = &inputs.data;
    let env = env_fingerprint(dataset_checksum(data));
    println!(
        "env nproc={} rustc={:?} git_rev={}",
        env.nproc, env.rustc, env.git_rev
    );
    println!(
        "workload {} points={} sites={} dim={} checksum={} seed={} held_out_seed={HELD_OUT_SEED} threads={} partitions={} mode={}",
        w.name,
        data.len(),
        w.sites,
        data.dim(),
        env.dataset_checksum,
        args.seed,
        w.threads,
        w.partitions,
        match w.mode {
            Mode::InProcess => "in-process",
            Mode::Fleet => "fleet (closed loop: 1 fleet in flight, 1 site thread and 1 connection per site)",
        },
    );
    let inputs = &inputs;
    let reference = run_dbdc(&inputs.data, &inputs.params, inputs.partitioner, w.sites);
    checks.record(sane(&reference, inputs, w.sites));
    if args.trace {
        match w.mode {
            Mode::InProcess => {
                traced_in_process(args, inputs, &reference, &mut checks, &mut ledger)
            }
            Mode::Fleet => traced_fleet(args, inputs, &reference, &mut checks, &mut ledger),
        }
        ledger.set(
            "datagen.generate_s",
            median(&setups.generate),
            setups.note(),
        );
        // Rows left unset only when every traced repetition failed, which
        // the checks have recorded.
        for d in &PER_LAYER {
            if ledger.get(d.name).is_none() {
                ledger.set(d.name, 0.0, "not measured: no traced repetition succeeded");
            }
        }
        Outcome {
            ledger,
            table: &PER_LAYER,
            checks,
        }
    } else {
        let walls = match w.mode {
            Mode::InProcess => timed_in_process(args, inputs, &reference, &mut checks),
            Mode::Fleet => timed_fleet(args, inputs, &reference, &mut checks),
        };
        // Read before the oracle runs, so it covers set-up and the
        // protocol runs only.
        let peak = peak_rss_mb();
        checks.record(peak.as_ref().map(|_| ()).map_err(Clone::clone));
        let q = oracle_q(inputs, &reference, &mut checks);
        ledger.set(
            "wall_s",
            median(&walls),
            format!("median of {}", walls.len()),
        );
        let t = tail(&walls);
        ledger.set(
            "wall_tail_s",
            t.value,
            if t.n >= 2 * crate::stats::TAIL_EVIDENCE {
                format!("p{} of n={}, {} beyond", t.percentile, t.n, t.beyond)
            } else {
                format!("p50 of n={}: too few samples for a tail", t.n)
            },
        );
        ledger.set("setup_s", median(&setups.total), setups.note());
        ledger.set(
            "peak_rss_mb",
            peak.unwrap_or(0.0),
            "VmHWM after the timed runs",
        );
        ledger.set("q_dbdc_pii", q, "vs central_dbscan, Def. 9-11");
        ledger.set("bytes_up", reference.bytes_up as f64, "");
        ledger.set(
            "bytes_down",
            reference.bytes_down as f64,
            format!("{} x {} sites", reference.global_model_bytes, w.sites),
        );
        ledger.set(
            "failed_frac",
            checks.failed as f64 / checks.attempted.max(1) as f64,
            format!("{} of {}", checks.failed, checks.attempted),
        );
        Outcome {
            ledger,
            table: &END_TO_END,
            checks,
        }
    }
}

/// Set-up timings, taken before the protocol runs; every set-up must
/// reproduce the kept inputs.
struct Setups {
    total: Vec<f64>,
    generate: Vec<f64>,
    reproducible: bool,
}

impl Setups {
    /// Sets the workload up again until [`MIN_SETUPS`] samples and
    /// [`SETUP_BUDGET`] are reached (at most [`MAX_SETUPS`]), counting
    /// the set-up that produced `kept` as the first sample.
    fn collect(args: &Args, kept: &Inputs) -> Self {
        let t0 = Instant::now();
        let mut setups = Setups {
            total: vec![(kept.generate + kept.split).as_secs_f64()],
            generate: vec![kept.generate.as_secs_f64()],
            reproducible: true,
        };
        while (setups.total.len() < MIN_SETUPS || t0.elapsed() < SETUP_BUDGET)
            && setups.total.len() < MAX_SETUPS
        {
            let inputs = args.workload.setup(args.seed, args.tiny);
            setups
                .total
                .push((inputs.generate + inputs.split).as_secs_f64());
            setups.generate.push(inputs.generate.as_secs_f64());
            setups.reproducible &= inputs.data == kept.data && inputs.back == kept.back;
        }
        setups
    }

    fn note(&self) -> String {
        format!("median of {} set-ups", self.total.len())
    }
}

/// Internal consistency of the reference outcome.
fn sane(reference: &DbdcOutcome, inputs: &Inputs, sites: usize) -> Result<(), String> {
    if reference.assignment.len() != inputs.data.len() {
        return Err("the reference run does not label every point".into());
    }
    if reference.assignment.n_clusters() == 0 {
        return Err("the reference run found no cluster".into());
    }
    if reference.per_site_bytes_up.iter().sum::<usize>() != reference.bytes_up
        || reference.global_model_bytes * sites != reference.bytes_down
    {
        return Err("the reference run's byte counts do not add up".into());
    }
    Ok(())
}

/// Every repetition must reproduce the reference exactly.
fn same_outcome(out: &DbdcOutcome, reference: &DbdcOutcome) -> Result<(), String> {
    let checks = [
        ("labels", out.assignment == reference.assignment),
        (
            "bytes up",
            out.per_site_bytes_up == reference.per_site_bytes_up,
        ),
        ("bytes down", out.bytes_down == reference.bytes_down),
        (
            "representatives",
            out.n_representatives == reference.n_representatives,
        ),
    ];
    match checks.iter().find(|(_, ok)| !ok) {
        None => Ok(()),
        Some((what, _)) => Err(format!("a repetition differs from the first run: {what}")),
    }
}

/// Runs `f` until `seconds` have passed (at least once).
fn for_seconds(seconds: f64, mut f: impl FnMut()) {
    let t0 = Instant::now();
    loop {
        f();
        if t0.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

/// One `run_dbdc` call per sample.
fn timed_in_process(
    args: &Args,
    inputs: &Inputs,
    reference: &DbdcOutcome,
    checks: &mut Checks,
) -> Vec<f64> {
    let mut walls = Vec::new();
    for_seconds(args.seconds, || {
        let t0 = Instant::now();
        let out = run_dbdc(
            &inputs.data,
            &inputs.params,
            inputs.partitioner,
            args.workload.sites,
        );
        walls.push(t0.elapsed().as_secs_f64());
        checks.record(same_outcome(&out, reference));
    });
    walls
}

/// One fleet session per sample, after one untimed warm-up session.
fn timed_fleet(
    args: &Args,
    inputs: &Inputs,
    reference: &DbdcOutcome,
    checks: &mut Checks,
) -> Vec<f64> {
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            checks.record(Err(format!("bind loopback: {e}")));
            return vec![0.0];
        }
    };
    let mut walls = Vec::new();
    let mut session = |walls: Option<&mut Vec<f64>>| match run_session(
        &listener,
        &inputs.parts,
        &inputs.params,
        &NoopRecorder,
    ) {
        Ok(s) => {
            if let Some(walls) = walls {
                walls.push(s.wall().as_secs_f64());
            }
            checks.record(s.check(&inputs.back, reference));
        }
        Err(e) => checks.record(Err(e)),
    };
    session(None);
    for_seconds(args.seconds, || session(Some(&mut walls)));
    walls
}

/// Q_DBDC with P^II of the reference labels against central DBSCAN on
/// the same input, computed once, outside every timed interval.
fn oracle_q(inputs: &Inputs, reference: &DbdcOutcome, checks: &mut Checks) -> f64 {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (central, _) = central_dbscan(&inputs.data, &inputs.params.with_threads(threads));
    let q = q_dbdc(
        &reference.assignment,
        &central.clustering,
        ObjectQuality::PII,
    )
    .q;
    checks.record(if (Q_FLOOR..=1.0).contains(&q) {
        Ok(())
    } else {
        Err(format!("Q_DBDC(P^II) = {q} is outside [{Q_FLOOR}, 1]"))
    });
    q
}

/// One traced composition: its wall, layer self times and counts.
#[derive(Debug, Clone)]
struct TracedRep {
    wall: f64,
    self_s: BTreeMap<String, f64>,
    counts: Counts,
    cost_model: f64,
}

/// Runs one traced composition as repetition `rep`, checked against
/// the reference.
fn traced_rep(
    inputs: &Inputs,
    sites: usize,
    reference: &DbdcOutcome,
    tracer: &mut Tracer,
    rep: u32,
    checks: &mut Checks,
) -> Option<TracedRep> {
    tracer.set_rep(rep);
    let root = tracer.spans().len();
    let composed = compose(
        &inputs.data,
        &inputs.params,
        inputs.partitioner,
        sites,
        tracer,
    );
    let composed = match composed {
        Ok(c) => c,
        Err(e) => {
            checks.record(Err(e));
            return None;
        }
    };
    checks.record(composed.matches(reference));
    Some(TracedRep {
        wall: tracer.spans()[root].duration_ns() as f64 * 1e-9,
        self_s: self_seconds_by_name(tracer.spans(), root),
        counts: composed.counts,
        cost_model: composed.cost_model.as_secs_f64(),
    })
}

/// Alternates untraced `run_dbdc` calls with traced compositions.
fn traced_in_process(
    args: &Args,
    inputs: &Inputs,
    reference: &DbdcOutcome,
    checks: &mut Checks,
    ledger: &mut Ledger,
) {
    let sites = args.workload.sites;
    let mut tracer = Tracer::new();
    let mut untraced = Vec::new();
    let mut reps = Vec::new();
    let mut rep = 0u32;
    for_seconds(args.seconds, || {
        let t0 = Instant::now();
        let out = run_dbdc(&inputs.data, &inputs.params, inputs.partitioner, sites);
        untraced.push(t0.elapsed().as_secs_f64());
        checks.record(same_outcome(&out, reference));
        reps.extend(traced_rep(
            inputs,
            sites,
            reference,
            &mut tracer,
            rep,
            checks,
        ));
        rep += 1;
    });
    if let Some(wall) = layer_rows(&reps, ledger) {
        ledger.set(
            "obs.traced_wall_s",
            wall,
            format!("the median-wall traced rep of {}", reps.len()),
        );
        ledger.set(
            "obs.overhead_frac",
            wall / median(&untraced) - 1.0,
            format!(
                "traced vs untraced run_dbdc, median of {} untraced",
                untraced.len()
            ),
        );
    }
    for name in NET_TIMES.iter().chain(&NET_COUNTS) {
        ledger.set(name, 0.0, "not run: in-process workload");
    }
    write_spans(args, &tracer, checks);
}

const NET_TIMES: [&str; 7] = [
    "net.handshake_s",
    "net.upload_s",
    "net.download_s",
    "net.site_local_s",
    "net.site_relabel_s",
    "net.server_global_s",
    "net.drain_s",
];

const NET_COUNTS: [&str; 4] = [
    "net.connections",
    "net.retries",
    "net.frames",
    "net.wire_bytes",
];

/// Fills every in-process layer row from the traced repetition with the
/// median wall, so the rows add up to its wall exactly, and returns that
/// wall (`None` without any traced repetition).
fn layer_rows(reps: &[TracedRep], ledger: &mut Ledger) -> Option<f64> {
    if reps.is_empty() {
        return None;
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    let m = &reps[lower_median_index(&walls)];
    let note = format!("from the median-wall traced rep of {}", reps.len());
    let s = |name: &str| m.self_s.get(name).copied().unwrap_or(0.0);
    let partitioned =
        m.self_s.contains_key("cluster.dbscan") && !m.self_s.contains_key("index.build");
    ledger.set("partition.assign_s", s("partition.assign"), note.clone());
    ledger.set(
        "index.build_s",
        s("index.build"),
        if partitioned {
            "0: partitioned sites build their indexes inside cluster.dbscan_s"
        } else {
            ""
        },
    );
    let c = &m.counts;
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    ledger.set("index.range_queries", c.range_queries as f64, "");
    ledger.set("index.dist_evals", c.dist_evals as f64, "");
    ledger.set("index.node_visits", c.node_visits as f64, "");
    ledger.set(
        "index.evals_per_query",
        per(c.dist_evals, c.range_queries),
        "",
    );
    ledger.set("cluster.dbscan_s", s("cluster.dbscan"), "");
    ledger.set("cluster.halo_points", c.halo_points as f64, "");
    ledger.set(
        "cluster.halo_frac",
        per(c.halo_points, c.points),
        "halo points per point",
    );
    ledger.set("local_model.extract_s", s("local_model.extract"), "");
    ledger.set("local_model.reps", c.reps as f64, "");
    ledger.set(
        "local_model.rep_frac",
        per(c.reps, c.points),
        "reps per point",
    );
    ledger.set(
        "wire.encode_s",
        s("wire.encode"),
        "local models + global model",
    );
    ledger.set(
        "wire.decode_s",
        s("wire.decode"),
        "local models + one global copy per site",
    );
    ledger.set("global_model.build_s", s("global_model.build"), "");
    ledger.set("global_model.dist_evals", c.global_dist_evals as f64, "");
    ledger.set("relabel.site_s", s("relabel.site"), "all sites");
    ledger.set("relabel.dist_evals", c.relabel_dist_evals as f64, "");
    ledger.set(
        "relabel.evals_per_point",
        per(c.relabel_dist_evals, c.points),
        "",
    );
    let runtime: f64 = m
        .self_s
        .iter()
        .filter(|(k, _)| k.starts_with("runtime."))
        .map(|(_, v)| v)
        .sum();
    ledger.set(
        "runtime.unattributed_s",
        runtime,
        "self time outside every layer; layer self times + this = obs.traced_wall_s",
    );
    ledger.set(
        "runtime.cost_model_s",
        m.cost_model,
        "max local + global + max relabel (not gated)",
    );
    Some(m.wall)
}

/// One traced fleet session's phase walls and wire counts.
#[derive(Debug, Clone, Copy)]
struct FleetRep {
    wall: f64,
    phases: [f64; 7],
    connections: u64,
    frames: u64,
    wire_bytes: u64,
}

/// Alternates untraced fleet sessions, traced fleet sessions (recorder
/// attached to `serve` and `run_site`), and traced in-process
/// compositions of the same partitions for the layer rows.
fn traced_fleet(
    args: &Args,
    inputs: &Inputs,
    reference: &DbdcOutcome,
    checks: &mut Checks,
    ledger: &mut Ledger,
) {
    let sites = args.workload.sites;
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            return checks.record(Err(format!("bind loopback: {e}")));
        }
    };
    let mut tracer = Tracer::new();
    let mut untraced = Vec::new();
    let mut fleet = Vec::new();
    let mut reps = Vec::new();
    let mut retries = 0u64;
    let mut rep = 0u32;
    for_seconds(args.seconds, || {
        match run_session(&listener, &inputs.parts, &inputs.params, &NoopRecorder) {
            Ok(s) => {
                untraced.push(s.wall().as_secs_f64());
                retries += s.retries();
                checks.record(s.check(&inputs.back, reference));
            }
            Err(e) => checks.record(Err(e)),
        }
        tracer.set_rep(rep);
        let rec = RecordingRecorder::new();
        match run_session(&listener, &inputs.parts, &inputs.params, &rec) {
            Ok(s) => {
                retries += s.retries();
                checks.record(s.check(&inputs.back, reference));
                fleet.extend(fleet_rep(&s, &rec, &mut tracer));
            }
            Err(e) => checks.record(Err(e)),
        }
        reps.extend(traced_rep(
            inputs,
            sites,
            reference,
            &mut tracer,
            rep,
            checks,
        ));
        rep += 1;
    });
    layer_rows(&reps, ledger);
    write_spans(args, &tracer, checks);
    if fleet.is_empty() {
        return;
    }
    let walls: Vec<f64> = fleet.iter().map(|f| f.wall).collect();
    let note = format!("median of {} traced sessions", fleet.len());
    for (i, name) in NET_TIMES.iter().enumerate() {
        let v: Vec<f64> = fleet.iter().map(|f| f.phases[i]).collect();
        ledger.set(name, median(&v), note.clone());
    }
    let m = fleet[lower_median_index(&walls)];
    ledger.set("net.connections", m.connections as f64, "per session");
    ledger.set("net.retries", retries as f64, "all sessions of the run");
    ledger.set("net.frames", m.frames as f64, "per session, all parties");
    ledger.set(
        "net.wire_bytes",
        m.wire_bytes as f64,
        "per session, all parties",
    );
    ledger.set("obs.traced_wall_s", median(&walls), note);
    ledger.set(
        "obs.overhead_frac",
        median(&walls) / median(&untraced) - 1.0,
        format!(
            "traced vs untraced fleet sessions, median of {} untraced",
            untraced.len()
        ),
    );
}

/// Reads one traced session's phase walls and counters, and records its
/// spans: `fleet.session` over the server (`net.serve`) and each site
/// (`net.site[i]`), with the phases placed inside them.
fn fleet_rep(s: &Session, rec: &RecordingRecorder, tracer: &mut Tracer) -> Option<FleetRep> {
    let server = s.server.as_ref().ok()?;
    let sites: Vec<_> = s
        .sites
        .iter()
        .map(|r| r.as_ref().ok())
        .collect::<Option<_>>()?;
    let max = |f: &dyn Fn(&dbdc_net::SiteOutcome) -> Duration| {
        sites.iter().map(|s| f(s)).max().unwrap_or_default()
    };
    let phases = [
        max(&|s| s.session_phases.handshake),
        max(&|s| s.session_phases.upload),
        max(&|s| s.session_phases.download),
        max(&|s| s.local_wall),
        max(&|s| s.relabel_wall),
        server.global_wall,
        s.drain(),
    ];
    let mut frames = 0;
    let mut wire_bytes = 0;
    for scope in (0..sites.len())
        .map(|i| format!("net/site[{i}]"))
        .chain(["net/server".to_string()])
    {
        let c = rec.counters(&scope);
        frames += c.frames_sent;
        wire_bytes += c.wire_bytes_sent;
    }

    let launched = tracer.ns(s.launched);
    let root = tracer.push("fleet.session", launched, tracer.ns(s.serve_done), None);
    let serve = tracer.push("net.serve", launched, tracer.ns(s.serve_done), Some(root));
    let global_at = launched + ns(server.upload_wall);
    tracer.push(
        "net.server_global",
        global_at,
        global_at + ns(server.global_wall),
        Some(serve),
    );
    let done = tracer.ns(s.serve_done);
    tracer.push("net.drain", done - ns(s.drain()), done, Some(serve));
    for (i, (site, &end)) in sites.iter().zip(&s.site_done).enumerate() {
        let end = tracer.ns(end);
        let id = tracer.push(format!("net.site[{i}]"), launched, end, Some(root));
        let local_end = launched + ns(site.local_wall);
        tracer.push("net.site_local", launched, local_end, Some(id));
        let p = site.session_phases;
        for (name, start, len) in [
            ("net.handshake", p.handshake_start, p.handshake),
            ("net.upload", p.upload_start, p.upload),
            ("net.download", p.download_start, p.download),
        ] {
            let at = local_end + ns(start);
            tracer.push(name, at, at + ns(len), Some(id));
        }
        tracer.push(
            "net.site_relabel",
            end.saturating_sub(ns(site.relabel_wall)),
            end,
            Some(id),
        );
    }
    Some(FleetRep {
        wall: s.wall().as_secs_f64(),
        phases: phases.map(|d| d.as_secs_f64()),
        connections: server.connections,
        frames,
        wire_bytes,
    })
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Writes the traced pass's spans once, at the end.
fn write_spans(args: &Args, tracer: &Tracer, checks: &mut Checks) {
    let written = args
        .spans
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&args.spans, tracer.to_json()));
    match written {
        Ok(()) => println!(
            "spans {} ({} spans)",
            args.spans.display(),
            tracer.spans().len()
        ),
        Err(e) => checks.record(Err(format!("write {}: {e}", args.spans.display()))),
    }
}
