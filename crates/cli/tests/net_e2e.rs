//! Process-level end-to-end: the real `dbdc-server` and `dbdc-site`
//! binaries, as separate OS processes over loopback TCP, produce
//! exactly the labels of the in-process `run_dbdc` — on a clean link
//! and through an adversarial fault proxy.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use dbdc::{run_dbdc, DbdcParams, EpsGlobal, Partitioner};
use dbdc_cli::csv;
use dbdc_geom::{Clustering, Dataset, Label};
use dbdc_net::{FaultPlan, FaultProxy};
use dbdc_obs::{Counters, Json, RecordingRecorder, RunReport};

const N_SITES: usize = 4;
const EPS: &str = "1.6";
const MIN_PTS: &str = "5";
const SEED: &str = "7";

fn params() -> DbdcParams {
    DbdcParams::new(1.6, 5).with_eps_global(EpsGlobal::MultipleOfLocal(2.0))
}

/// A scratch directory unique to this test invocation.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbdc-net-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes the dataset as CSV and reads it back, so the reference run
/// uses byte-for-byte what the site processes will parse.
fn write_points(dir: &Path) -> (PathBuf, Dataset) {
    let g = dbdc_datagen::dataset_c(31);
    let path = dir.join("points.csv");
    let file = File::create(&path).expect("create points.csv");
    csv::write_dataset(BufWriter::new(file), &g.data, None).expect("write points.csv");
    let file = File::open(&path).expect("reopen points.csv");
    let data = csv::read_dataset(BufReader::new(file)).expect("reparse points.csv");
    (path, data)
}

fn spawn_server(dir: &Path, extra: &[&str]) -> (Child, PathBuf) {
    let addr_file = dir.join("addr.txt");
    let child = Command::new(env!("CARGO_BIN_EXE_dbdc-server"))
        .args([
            "--sites",
            &N_SITES.to_string(),
            "--eps",
            EPS,
            "--min-pts",
            MIN_PTS,
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--deadline-ms",
            "120000",
        ])
        .args(extra)
        .spawn()
        .expect("spawn dbdc-server");
    (child, addr_file)
}

fn await_addr(addr_file: &Path) -> String {
    let t0 = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(addr_file) {
            let text = text.trim();
            if !text.is_empty() {
                return text.to_string();
            }
        }
        assert!(t0.elapsed() < Duration::from_secs(20), "server never bound");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn spawn_site(points: &Path, dir: &Path, site: usize, connect: &str, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_dbdc-site"))
        .args([
            "--input",
            points.to_str().unwrap(),
            "--site",
            &site.to_string(),
            "--sites",
            &N_SITES.to_string(),
            "--eps",
            EPS,
            "--min-pts",
            MIN_PTS,
            "--seed",
            SEED,
            "--connect",
            connect,
            "--out",
            dir.join(format!("labels-{site}.csv")).to_str().unwrap(),
        ])
        .args(extra)
        .spawn()
        .expect("spawn dbdc-site")
}

/// Merges the sites' `original_index,label` files into one clustering.
/// Site labels already share the global id space, so dense renumbering
/// mirrors the in-process assembly exactly.
fn merge_labels(dir: &Path, n: usize) -> Clustering {
    let mut full = vec![Label::Noise; n];
    let mut seen = 0usize;
    for site in 0..N_SITES {
        let path = dir.join(format!("labels-{site}.csv"));
        let text = std::fs::read_to_string(&path).expect("read site labels");
        for line in text.lines() {
            let (orig, label) = line.split_once(',').expect("orig,label line");
            let orig: usize = orig.parse().expect("original index");
            let label: i64 = label.parse().expect("label id");
            full[orig] = match label {
                -1 => Label::Noise,
                c => Label::Cluster(u32::try_from(c).expect("cluster id fits u32")),
            };
            seen += 1;
        }
    }
    assert_eq!(seen, n, "sites covered every point exactly once");
    Clustering::from_labels(full)
}

fn wait_ok(mut child: Child, what: &str) {
    let status = child.wait().expect("wait for child");
    assert!(status.success(), "{what} failed: {status}");
}

/// Runs the `dbdc-cli` binary and asserts it exits cleanly.
fn run_cli(args: &[&str]) {
    let status = Command::new(env!("CARGO_BIN_EXE_dbdc-cli"))
        .args(args)
        .status()
        .expect("run dbdc-cli");
    assert!(status.success(), "dbdc-cli {args:?} failed: {status}");
}

fn load_report(path: &Path) -> RunReport {
    let text = std::fs::read_to_string(path).expect("read report file");
    RunReport::parse(&text).expect("parse report JSON")
}

fn scope<'a>(report: &'a RunReport, name: &str) -> &'a Counters {
    report
        .scopes
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, c)| c)
        .unwrap_or_else(|| panic!("scope {name} missing from report"))
}

/// Paths for the per-process `--metrics-out` reports plus the merged one.
fn report_paths(dir: &Path) -> (PathBuf, Vec<PathBuf>, PathBuf) {
    let server = dir.join("server-report.json");
    let sites = (0..N_SITES)
        .map(|s| dir.join(format!("site-report-{s}.json")))
        .collect();
    (server, sites, dir.join("merged.json"))
}

/// Merges the per-process reports through the real CLI and loads the result.
fn merge_reports_via_cli(server: &Path, sites: &[PathBuf], merged: &Path) -> RunReport {
    let mut args = vec!["report", "merge", server.to_str().unwrap()];
    for s in sites {
        args.push(s.to_str().unwrap());
    }
    args.extend(["--out", merged.to_str().unwrap()]);
    run_cli(&args);
    load_report(merged)
}

#[test]
fn separate_processes_match_in_process_runtime() {
    let dir = scratch("clean");
    let (points, data) = write_points(&dir);
    let reference = run_dbdc(
        &data,
        &params(),
        Partitioner::RandomEqual { seed: 7 },
        N_SITES,
    );

    let (server_report, site_reports, merged_path) = report_paths(&dir);
    let (server, addr_file) = spawn_server(
        &dir,
        &[
            "--drain-ms",
            "400",
            "--run-id",
            "e2e-clean",
            "--metrics-out",
            server_report.to_str().unwrap(),
        ],
    );
    let addr = await_addr(&addr_file);
    let sites: Vec<Child> = (0..N_SITES)
        .map(|s| {
            let extra = [
                "--run-id",
                "e2e-clean",
                "--metrics-out",
                site_reports[s].to_str().unwrap(),
            ];
            spawn_site(&points, &dir, s, &addr, &extra)
        })
        .collect();
    for (s, child) in sites.into_iter().enumerate() {
        wait_ok(child, &format!("site {s}"));
    }
    wait_ok(server, "server");

    let merged = merge_labels(&dir, data.len());
    assert_eq!(
        merged, reference.assignment,
        "process-level labels differ from in-process run_dbdc"
    );

    // --- distributed telemetry: merge the five reports via the CLI ---
    let report = merge_reports_via_cli(&server_report, &site_reports, &merged_path);
    assert_eq!(report.schema_version, 5, "merged report is schema v5");
    assert_eq!(report.role.as_deref(), Some("merged"));
    assert_eq!(report.run_id.as_deref(), Some("e2e-clean"));

    // Fleet quality: the server's global-model DBCV wins the global
    // slot, and every site's local DBCV survives the merge by peer name.
    let quality = report
        .quality
        .as_ref()
        .expect("merged fleet report carries a quality block");
    assert!(
        quality.dbcv.is_finite() && (-1.0..=1.0).contains(&quality.dbcv),
        "global DBCV out of range: {}",
        quality.dbcv
    );
    for s in 0..N_SITES {
        let peer = format!("site[{s}]");
        let (_, local) = quality
            .per_site
            .iter()
            .find(|(p, _)| *p == peer)
            .unwrap_or_else(|| panic!("merged quality lost {peer}"));
        assert!(
            local.is_finite() && (-1.0..=1.0).contains(local),
            "{peer}: local DBCV out of range: {local}"
        );
    }

    // Wire-byte identity per site: the aggregate byte counter must equal
    // frame arithmetic over the per-kind counters. A clean session sends
    // HELLO (10 B payload), LOCAL_MODEL (bytes_up payload) and one or
    // more GLOBAL_ACKs (empty payload); each frame adds 13 B of framing.
    const WIRE: u64 = 13;
    let mut site_sent_total = 0u64;
    let mut site_recv_total = 0u64;
    for s in 0..N_SITES {
        let agg = scope(&report, &format!("net/site[{s}]"));
        let hello = scope(&report, &format!("net/site[{s}]/HELLO")).frames_sent;
        let model = scope(&report, &format!("net/site[{s}]/LOCAL_MODEL")).frames_sent;
        let ack = scope(&report, &format!("net/site[{s}]/GLOBAL_ACK")).frames_sent;
        let bytes_up = report
            .sites
            .iter()
            .find(|st| st.site == s)
            .unwrap_or_else(|| panic!("merged report lost site {s} stats"))
            .bytes_up as u64;
        assert_eq!(hello, 1, "site {s}: clean run needs exactly one HELLO");
        assert_eq!(model, 1, "site {s}: clean run uploads its model once");
        assert!(ack >= 1, "site {s}: at least one GLOBAL_ACK");
        assert_eq!(
            agg.wire_bytes_sent,
            (10 + WIRE) * hello + (bytes_up + WIRE) * model + WIRE * ack,
            "site {s}: aggregate wire bytes disagree with frame arithmetic"
        );
        assert_eq!(agg.frames_sent, hello + model + ack);
        assert_eq!(agg.retries, 0, "site {s}: clean link must not retry");
        assert_eq!(agg.checksum_failures, 0);
        site_sent_total += agg.wire_bytes_sent;
        site_recv_total += agg.wire_bytes_received;
    }

    // Conservation across the loopback link: every byte a site put on the
    // wire is a byte the server took off it, and vice versa.
    let server_agg = scope(&report, "net/server");
    assert_eq!(server_agg.wire_bytes_received, site_sent_total);
    assert_eq!(server_agg.wire_bytes_sent, site_recv_total);
    assert_eq!(
        scope(&report, "net/server/HELLO").frames_received,
        N_SITES as u64
    );

    // Session histogram: only site attempts record it, one per site.
    let (_, session_hist) = report
        .hists
        .iter()
        .find(|(n, _)| n == "net/session_ns")
        .expect("merged report carries net/session_ns");
    assert_eq!(session_hist.count(), N_SITES as u64);

    // --- and the causal timeline: 5 pids, sites nested in the serve window ---
    let trace_path = dir.join("trace.json");
    run_cli(&[
        "report",
        "timeline",
        merged_path.to_str().unwrap(),
        "--out",
        trace_path.to_str().unwrap(),
    ]);
    let trace = Json::parse(&std::fs::read_to_string(&trace_path).expect("read trace.json"))
        .expect("trace.json is valid JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let pid_of = |e: &Json| e.get("pid").and_then(Json::as_u64).expect("pid");
    let name_of = |e: &Json| {
        e.get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let is_x = |e: &Json| e.get("ph").and_then(Json::as_str) == Some("X");

    let mut pids: Vec<u64> = events.iter().filter(|e| is_x(e)).map(pid_of).collect();
    pids.sort_unstable();
    pids.dedup();
    assert_eq!(
        pids,
        [1, 2, 3, 4, 5],
        "one pid per process: server + 4 sites"
    );

    let serve = events
        .iter()
        .find(|e| is_x(e) && name_of(e) == "dbdc_serve")
        .expect("server serve span in trace");
    let ts = |e: &Json| e.get("ts").and_then(Json::as_u64).expect("ts");
    let dur = |e: &Json| e.get("dur").and_then(Json::as_u64).expect("dur");
    let (serve_start, serve_end) = (ts(serve), ts(serve) + dur(serve));
    for pid in 2..=5u64 {
        let upload = events
            .iter()
            .find(|e| is_x(e) && pid_of(e) == pid && name_of(e) == "upload")
            .unwrap_or_else(|| panic!("pid {pid}: no upload span in trace"));
        assert!(
            ts(upload) >= serve_start && ts(upload) + dur(upload) <= serve_end,
            "pid {pid}: upload [{}, {}] escapes serve window [{serve_start}, {serve_end}]",
            ts(upload),
            ts(upload) + dur(upload),
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The sites honour the local-phase flags: at `--threads 2 --partitions
/// 2` the fleet's labels are the in-process runtime's at the same
/// settings, and every site's report carries the partitioned local
/// phase — `partition[j]` spans and the halo counter — into the merge.
#[test]
fn partitioned_sites_match_in_process_runtime() {
    let dir = scratch("partitioned");
    let (points, data) = write_points(&dir);
    let reference = run_dbdc(
        &data,
        &params().with_threads(2).with_partitions(2),
        Partitioner::RandomEqual { seed: 7 },
        N_SITES,
    );

    let (server_report, site_reports, merged_path) = report_paths(&dir);
    let (server, addr_file) = spawn_server(
        &dir,
        &[
            "--drain-ms",
            "400",
            "--run-id",
            "e2e-partitioned",
            "--metrics-out",
            server_report.to_str().unwrap(),
        ],
    );
    let addr = await_addr(&addr_file);
    let sites: Vec<Child> = (0..N_SITES)
        .map(|s| {
            let extra = [
                "--threads",
                "2",
                "--partitions",
                "2",
                "--run-id",
                "e2e-partitioned",
                "--metrics-out",
                site_reports[s].to_str().unwrap(),
            ];
            spawn_site(&points, &dir, s, &addr, &extra)
        })
        .collect();
    for (s, child) in sites.into_iter().enumerate() {
        wait_ok(child, &format!("site {s}"));
    }
    wait_ok(server, "server");

    assert_eq!(
        merge_labels(&dir, data.len()),
        reference.assignment,
        "partitioned fleet labels differ from in-process run_dbdc"
    );

    let report = merge_reports_via_cli(&server_report, &site_reports, &merged_path);
    for s in 0..N_SITES {
        let local = report
            .spans
            .iter()
            .find_map(|root| root.find(&format!("local[{s}]")))
            .unwrap_or_else(|| panic!("merged report lost site {s}'s local span"));
        for name in ["build", "partition[0]", "partition[1]", "extract", "encode"] {
            assert!(local.find(name).is_some(), "local[{s}] has no {name} span");
        }
        assert!(
            scope(&report, &format!("local[{s}]")).halo_points > 0,
            "site {s}: no halo points"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A fleet that dies mid-run must not die silently: the server's
/// deadline exit still flushes its partial `--metrics-out` report
/// (marked `clean=false`), and while it waits the admin plane serves
/// live telemetry that `dbdc-cli watch --once` can render.
#[test]
fn killed_fleet_still_leaves_server_report() {
    let dir = scratch("killed");
    let server_report = dir.join("server-report.json");
    let addr_file = dir.join("addr.txt");
    let mut server = Command::new(env!("CARGO_BIN_EXE_dbdc-server"))
        .args([
            "--sites",
            &N_SITES.to_string(),
            "--eps",
            EPS,
            "--min-pts",
            MIN_PTS,
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--deadline-ms",
            "2500",
            "--run-id",
            "e2e-killed",
            "--metrics-out",
            server_report.to_str().unwrap(),
            "--admin-addr",
            "127.0.0.1:0",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dbdc-server");

    // The ephemeral admin port is announced on stdout before serving
    // starts; read lines until it appears.
    let stdout = server.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufRead::lines(BufReader::new(stdout));
    let admin_addr = loop {
        let line = lines
            .next()
            .expect("server stdout closed before admin line")
            .expect("read server stdout");
        if let Some(rest) = line.strip_prefix("admin telemetry on http://") {
            break rest.trim_end_matches("/metrics").to_string();
        }
    };
    await_addr(&addr_file);

    // No sites ever connect. While the server waits out its deadline,
    // watch a single scrape through the real CLI.
    let watch = Command::new(env!("CARGO_BIN_EXE_dbdc-cli"))
        .args(["watch", &admin_addr, "--once"])
        .output()
        .expect("run dbdc-cli watch");
    assert!(watch.status.success(), "watch --once failed: {watch:?}");
    let table = String::from_utf8_lossy(&watch.stdout);
    assert!(
        table.contains("server (server)"),
        "watch table lacks the server identity line: {table}"
    );

    // Deadline expiry: nonzero exit, but the partial report is on disk.
    let status = server.wait().expect("wait for server");
    assert!(
        !status.success(),
        "server should fail its deadline with no sites"
    );
    let report = load_report(&server_report);
    assert_eq!(report.role.as_deref(), Some("server"));
    assert_eq!(report.run_id.as_deref(), Some("e2e-killed"));
    assert_eq!(
        report.params.iter().find(|(k, _)| k == "clean"),
        Some(&("clean".to_string(), "false".to_string())),
        "partial report must be marked clean=false"
    );

    // The degenerate fleet still merges: server report alone.
    let merged_path = dir.join("merged.json");
    run_cli(&[
        "report",
        "merge",
        server_report.to_str().unwrap(),
        "--out",
        merged_path.to_str().unwrap(),
    ]);
    let merged = load_report(&merged_path);
    assert_eq!(merged.role.as_deref(), Some("merged"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn separate_processes_converge_through_fault_proxy() {
    let dir = scratch("lossy");
    let (points, data) = write_points(&dir);
    let reference = run_dbdc(
        &data,
        &params(),
        Partitioner::RandomEqual { seed: 7 },
        N_SITES,
    );

    // Give the server generous timeouts: with drops and delays in the
    // way, sessions replay until the GOODBYE lands.
    let (server_report, site_reports, merged_path) = report_paths(&dir);
    let (server, addr_file) = spawn_server(
        &dir,
        &[
            "--drain-ms",
            "1200",
            "--read-timeout-ms",
            "500",
            "--run-id",
            "e2e-lossy",
            "--metrics-out",
            server_report.to_str().unwrap(),
        ],
    );
    let server_addr: std::net::SocketAddr = await_addr(&addr_file).parse().expect("server addr");
    let rec = RecordingRecorder::new();
    let proxy = FaultProxy::spawn_observed(server_addr, FaultPlan::lossy(0xE2E), &rec)
        .expect("spawn proxy");
    let via = proxy.addr().to_string();

    let sites: Vec<Child> = (0..N_SITES)
        .map(|s| {
            let site_extra = [
                "--retries",
                "25",
                "--retry-base-ms",
                "25",
                "--retry-max-ms",
                "400",
                "--read-timeout-ms",
                "800",
                "--run-id",
                "e2e-lossy",
                "--metrics-out",
                site_reports[s].to_str().unwrap(),
            ];
            spawn_site(&points, &dir, s, &via, &site_extra)
        })
        .collect();
    for (s, child) in sites.into_iter().enumerate() {
        wait_ok(child, &format!("site {s}"));
    }
    wait_ok(server, "server");

    let merged = merge_labels(&dir, data.len());
    assert_eq!(
        merged, reference.assignment,
        "labels diverged through the fault proxy"
    );

    // The merged report's retry counters must account for the injected
    // faults. Drops, truncations and bitflips each stall one session
    // attempt (delays do not), so whenever the proxy injected any of
    // them, some site must have retried.
    let report = merge_reports_via_cli(&server_report, &site_reports, &merged_path);
    let total_retries: u64 = (0..N_SITES)
        .map(|s| scope(&report, &format!("net/site[{s}]")).retries)
        .sum();
    let c2s = rec.counters("proxy/c2s");
    let s2c = rec.counters("proxy/s2c");
    let stalls = c2s.faults_dropped
        + s2c.faults_dropped
        + c2s.faults_truncated
        + s2c.faults_truncated
        + c2s.faults_bitflipped
        + s2c.faults_bitflipped;
    assert!(
        total_retries >= 1 || stalls == 0,
        "proxy injected {stalls} stalling fault(s) but no site retried"
    );
    // Every attempt — first tries and retries alike — lands one sample
    // in the shared session histogram.
    let (_, session_hist) = report
        .hists
        .iter()
        .find(|(n, _)| n == "net/session_ns")
        .expect("merged report carries net/session_ns");
    assert_eq!(session_hist.count(), N_SITES as u64 + total_retries);

    let _ = std::fs::remove_dir_all(&dir);
}
