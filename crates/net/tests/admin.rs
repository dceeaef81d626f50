//! The admin plane over a real loopback fleet: mid-run `/metrics`
//! scrapes show live non-zero traffic bounded by the final totals, and
//! a scrape taken after `serve` returns equals the exit-time recorder
//! state — counter for counter, bucket for bucket — so the watch table
//! and the `--metrics-out` report can never disagree about a finished
//! run. The client half, `http_get`, reads a bounded response.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbdc::{DbdcParams, EpsGlobal, Partitioner};
use dbdc_datagen::dataset_c;
use dbdc_net::{
    http_get, run_site, serve, AdminServer, AdminState, ServeOptions, SiteOptions,
    MAX_RESPONSE_BYTES,
};
use dbdc_obs::{NoopRecorder, RecordingRecorder, RunReport, SnapshotEngine, TelemetrySnapshot};

const N_SITES: usize = 4;

fn params() -> DbdcParams {
    DbdcParams::new(1.6, 5).with_eps_global(EpsGlobal::MultipleOfLocal(2.0))
}

fn scrape(addr: &str, path: &str) -> (u16, String) {
    http_get(addr, path, Duration::from_secs(5)).expect("admin endpoint reachable")
}

#[test]
fn admin_scrapes_track_a_live_fleet_exactly() {
    let g = dataset_c(31);
    let assignment = Partitioner::RandomEqual { seed: 7 }.assign(&g.data, N_SITES);
    let (parts, _) = g.data.partition(N_SITES, &assignment);

    // The admin plane sits on the server's recorder, exactly as
    // `dbdc-server --admin-addr` wires it.
    let rec = Arc::new(RecordingRecorder::new());
    let engine = SnapshotEngine::new(Arc::clone(&rec)).with_identity(
        "server",
        Some("adm1".into()),
        "server",
    );
    let report_rec = Arc::clone(&rec);
    let admin = AdminServer::spawn(
        "127.0.0.1:0",
        AdminState {
            engine,
            ready: Box::new(|| true),
            report: Box::new(move || {
                let mut r = RunReport::new("serve")
                    .with_identity("server", Some("adm1".into()), "server")
                    .with_param("clean", false);
                r.scopes = report_rec.scopes();
                r.hists = report_rec.hist_scopes();
                r.to_json_string()
            }),
        },
    )
    .expect("bind admin");
    let admin_addr = admin.addr().to_string();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server_addr = listener.local_addr().expect("local addr");
    let mut opts = ServeOptions::new(N_SITES, params());
    opts.drain_window = Duration::from_millis(300);
    let server_rec = Arc::clone(&rec);
    let server = std::thread::spawn(move || serve(listener, opts, &*server_rec));

    // Sites run with a noop recorder: the plane under test is the
    // server's. Mid-run, poll /metrics until the server has sent at
    // least one frame — a live reading taken while sockets are open.
    let mid = std::thread::scope(|scope| {
        for (site, part) in parts.iter().enumerate() {
            let opts = SiteOptions::new(site as u32, N_SITES as u32, params());
            scope.spawn(move || {
                run_site(server_addr, part, &opts, &NoopRecorder).expect("site session")
            });
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (status, body) = scrape(&admin_addr, "/metrics");
            assert_eq!(status, 200);
            let snap = TelemetrySnapshot::from_prometheus(&body).expect("parse mid-run scrape");
            if snap.total().frames_sent > 0 {
                break snap;
            }
            assert!(Instant::now() < deadline, "no frames_sent observed in 30s");
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    server.join().expect("server thread").expect("serve");

    // Liveness/readiness still answer after the run itself finished.
    assert_eq!(scrape(&admin_addr, "/healthz").0, 200);
    assert_eq!(scrape(&admin_addr, "/readyz").0, 200);

    // The final scrape IS the exit-time recorder state: every counter
    // scope and every histogram, exactly.
    let (status, body) = scrape(&admin_addr, "/metrics");
    assert_eq!(status, 200);
    let fin = TelemetrySnapshot::from_prometheus(&body).expect("parse final scrape");
    assert_eq!(fin.counters, rec.scopes());
    assert_eq!(fin.hists, rec.hist_scopes());
    assert!(fin.total().frames_sent > 0);
    assert_eq!(fin.identity.run_id.as_deref(), Some("adm1"));

    // Monotonic: the mid-run reading never exceeds the final one, in
    // any cell of any scope.
    for (scope, c) in &mid.counters {
        let f = fin
            .counters_for(scope)
            .expect("mid-run scope survives to the end");
        for ((m, fv), field) in c
            .values()
            .iter()
            .zip(f.values())
            .zip(dbdc_obs::Counters::FIELDS)
        {
            assert!(*m <= fv, "{scope}: mid-run {field}={m} exceeds final {fv}");
        }
    }

    // /report serves the same truth as a partial RunReport.
    let (status, body) = scrape(&admin_addr, "/report");
    assert_eq!(status, 200);
    let report = RunReport::parse(&body).expect("parse /report");
    assert_eq!(report.scopes, fin.counters);
    assert_eq!(report.role.as_deref(), Some("server"));
    admin.shutdown();
}

/// A fake endpoint whose response runs 1 MiB past the limit: `http_get`
/// stops reading at `MAX_RESPONSE_BYTES` and fails naming the limit,
/// instead of buffering for as long as the peer sends.
#[test]
fn http_get_stops_at_the_response_limit() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let endpoint = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut request = [0u8; 256];
        let _ = stream.read(&mut request);
        let head = b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n";
        let chunk = vec![b' '; 1 << 16];
        let mut sent = 0;
        let _ = stream.write_all(head);
        while sent < MAX_RESPONSE_BYTES + (1 << 20) && stream.write_all(&chunk).is_ok() {
            sent += chunk.len();
        }
        head.len() + sent
    });
    let err = match http_get(&addr, "/report", Duration::from_secs(5)) {
        Ok((status, body)) => panic!("status {status} with a {}-byte body", body.len()),
        Err(err) => err,
    };
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("MAX_RESPONSE_BYTES"), "{err}");
    let sent = endpoint.join().expect("endpoint thread");
    assert!(
        sent > MAX_RESPONSE_BYTES,
        "the endpoint sent only {sent} bytes"
    );
}
