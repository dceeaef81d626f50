//! The admin plane: a tiny std-only HTTP/1.0 responder for live
//! telemetry.
//!
//! Every post-mortem surface (RunReport, `report merge`, timelines)
//! requires the process to exit first. The admin listener is the live
//! counterpart: `dbdc-server`, `dbdc-site`, and `dbdc-cli proxy` bind it
//! on `--admin-addr` and serve four endpoints over plain HTTP/1.0
//! (`Connection: close`, one request per connection — simple enough for
//! `curl`, Prometheus, and the `dbdc-cli watch` poller, with no HTTP
//! library in sight):
//!
//! * `GET /metrics` — the current [`TelemetrySnapshot`] in Prometheus
//!   text exposition format (counters as monotonic `_total` series,
//!   histograms as cumulative buckets plus `_sum`/`_count`);
//! * `GET /healthz` — 200 while the process is up (liveness);
//! * `GET /readyz` — 200 once the role-specific readiness predicate
//!   holds, 503 before: the server is ready once its protocol listener
//!   is accepting, a site once its handshake has completed, the proxy
//!   once it is forwarding;
//! * `GET /report` — the current *partial* RunReport as JSON: the same
//!   schema the process would write to `--metrics-out` at exit,
//!   assembled from live sheets. Crash-safe visibility: whatever a
//!   scrape captured survives the process dying a millisecond later.
//!
//! The responder runs one thread that blocks in `accept` and handles
//! each connection inline (admin traffic is a poll every second or so,
//! not a serving workload); shutdown wakes it with one loopback
//! self-connect, so an idle admin plane costs no wake-ups. It holds only
//! `Arc`s and boxed closures, so the instrumented run never
//! synchronizes with it beyond the relaxed atomic reads the snapshot
//! engine already does.
//!
//! [`TelemetrySnapshot`]: dbdc_obs::TelemetrySnapshot

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbdc_obs::SnapshotEngine;

use crate::accept::AcceptLoop;
use crate::frame::DEFAULT_MAX_FRAME_BYTES;

/// How long a connection may dribble its response before the responder
/// gives up on it.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a client may take to send its whole request head. The
/// responder serves one connection at a time, so this bounds how long
/// one slow client keeps every other scrape waiting.
const HEAD_DEADLINE: Duration = Duration::from_secs(1);

/// The most bytes [`http_get`] reads of one response, head and body: the
/// frame cap, which any `/report` fits within.
pub const MAX_RESPONSE_BYTES: usize = DEFAULT_MAX_FRAME_BYTES;

/// What the admin endpoints serve, bundled by the binary that owns the
/// run.
pub struct AdminState {
    /// Snapshot source for `/metrics`.
    pub engine: SnapshotEngine,
    /// Role-specific readiness predicate for `/readyz`.
    pub ready: Box<dyn Fn() -> bool + Send + Sync>,
    /// Assembles the current partial RunReport JSON for `/report`.
    pub report: Box<dyn Fn() -> String + Send + Sync>,
}

/// A running admin listener; dropping (or [`AdminServer::shutdown`])
/// stops the accept loop.
pub struct AdminServer {
    acceptor: AcceptLoop,
}

impl AdminServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving.
    pub fn spawn(addr: &str, state: AdminState) -> io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        let acceptor = AcceptLoop::spawn(listener, "dbdc-admin", Arc::default(), move |stream| {
            // Inline handling: admin requests are tiny and rare, and a
            // slow client is bounded by HEAD_DEADLINE and IO_TIMEOUT.
            let _ = handle_connection(stream, &state);
        })?;
        Ok(AdminServer { acceptor })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(mut self) {
        self.acceptor.shutdown();
    }
}

fn handle_connection(mut stream: TcpStream, state: &AdminState) -> io::Result<()> {
    stream.set_write_timeout(Some(IO_TIMEOUT))?;

    // Read until the request head is complete (blank line), within one
    // deadline for the whole head; the admin API is GET-only so there
    // is never a body to consume.
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return respond(&mut stream, 408, "text/plain", "request head too slow\n");
        }
        stream.set_read_timeout(Some(left))?;
        let n = match stream.read(&mut buf) {
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            break;
        }
        // A blank line split across reads starts at most 3 bytes back.
        let from = head.len().saturating_sub(3);
        head.extend_from_slice(&buf[..n]);
        if head.len() > 8192 {
            return respond(&mut stream, 400, "text/plain", "request too large\n");
        }
        let fresh = &head[from..];
        if fresh.windows(4).any(|w| w == b"\r\n\r\n") || fresh.windows(2).any(|w| w == b"\n\n") {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    match path {
        "/metrics" => {
            let body = state.engine.snapshot().to_prometheus();
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/healthz" => respond(&mut stream, 200, "text/plain", "ok\n"),
        "/readyz" => {
            if (state.ready)() {
                respond(&mut stream, 200, "text/plain", "ready\n")
            } else {
                respond(&mut stream, 503, "text/plain", "not ready\n")
            }
        }
        "/report" => {
            let body = (state.report)();
            respond(&mut stream, 200, "application/json", &body)
        }
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A minimal HTTP/1.0 GET against an admin endpoint; returns
/// `(status, body)`. This is the client half `dbdc-cli watch` and the
/// test suites poll with — raw `TcpStream`, no HTTP library. A response
/// longer than [`MAX_RESPONSE_BYTES`] is an `InvalidData` error, so a
/// peer that never stops sending cannot grow the caller without bound.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let sockaddr: SocketAddr = addr
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{addr:?}: {e}")))?;
    let mut stream = TcpStream::connect_timeout(&sockaddr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: dbdc\r\n\r\n").as_bytes())?;
    let mut raw = Vec::new();
    stream
        .take(MAX_RESPONSE_BYTES as u64 + 1)
        .read_to_end(&mut raw)?;
    if raw.len() > MAX_RESPONSE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response longer than MAX_RESPONSE_BYTES ({MAX_RESPONSE_BYTES} bytes)"),
        ));
    }
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let body = match text.find("\r\n\r\n") {
        Some(i) => text[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdc_obs::{Recorder, RecordingRecorder, RunReport, TelemetrySnapshot};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn spawn_admin(ready: bool) -> (AdminServer, Arc<RecordingRecorder>) {
        let rec = Arc::new(RecordingRecorder::new());
        let engine = SnapshotEngine::new(Arc::clone(&rec)).with_identity(
            "server",
            Some("t1".into()),
            "server",
        );
        let report_rec = Arc::clone(&rec);
        let ready_flag = Arc::new(AtomicBool::new(ready));
        let state = AdminState {
            engine,
            ready: Box::new(move || ready_flag.load(Ordering::Relaxed)),
            report: Box::new(move || {
                let mut r =
                    RunReport::new("serve").with_identity("server", Some("t1".into()), "server");
                r.scopes = report_rec.scopes();
                r.hists = report_rec.hist_scopes();
                r.to_json_string()
            }),
        };
        let admin = AdminServer::spawn("127.0.0.1:0", state).expect("bind admin");
        (admin, rec)
    }

    fn get(admin: &AdminServer, path: &str) -> (u16, String) {
        http_get(&admin.addr().to_string(), path, Duration::from_secs(5)).expect("http_get")
    }

    #[test]
    fn metrics_endpoint_serves_parsable_exposition() {
        let (admin, rec) = spawn_admin(true);
        (&*rec as &dyn Recorder)
            .sheet("net/server")
            .unwrap()
            .add_frame_sent(23, 10);
        let (status, body) = get(&admin, "/metrics");
        assert_eq!(status, 200);
        let snap = TelemetrySnapshot::from_prometheus(&body).expect("parse scrape");
        assert_eq!(snap.counters_for("net/server").unwrap().frames_sent, 1);
        assert_eq!(snap.identity.run_id.as_deref(), Some("t1"));
        admin.shutdown();
    }

    #[test]
    fn health_ready_and_404() {
        let (admin, _rec) = spawn_admin(false);
        assert_eq!(get(&admin, "/healthz").0, 200);
        assert_eq!(get(&admin, "/readyz").0, 503);
        assert_eq!(get(&admin, "/nope").0, 404);
        admin.shutdown();

        let (admin, _rec) = spawn_admin(true);
        let (status, body) = get(&admin, "/readyz");
        assert_eq!((status, body.as_str()), (200, "ready\n"));
    }

    #[test]
    fn report_endpoint_serves_parsable_partial_report() {
        let (admin, rec) = spawn_admin(true);
        (&*rec as &dyn Recorder)
            .sheet("net/server")
            .unwrap()
            .add_frame_received(13, 0);
        let (status, body) = get(&admin, "/report");
        assert_eq!(status, 200);
        let report = RunReport::parse(&body).expect("parse /report JSON");
        assert_eq!(report.role.as_deref(), Some("server"));
        let net = report.scopes.iter().find(|(n, _)| n == "net/server");
        assert_eq!(net.unwrap().1.frames_received, 1);
    }

    #[test]
    fn shutdown_returns_without_any_client() {
        let (admin, _rec) = spawn_admin(true);
        let (done, finished) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            admin.shutdown();
            done.send(()).expect("test still waiting");
        });
        finished
            .recv_timeout(Duration::from_secs(30))
            .expect("shutdown of an admin plane no client reached returned");
        stopper.join().expect("shutdown thread panicked");
    }

    #[test]
    fn a_trickling_client_cannot_hold_the_admin_plane() {
        let (admin, _rec) = spawn_admin(true);
        let addr = admin.addr();
        // Connected first, so the responder takes it before the scrape.
        let mut trickler = TcpStream::connect(addr).expect("trickler connects");
        trickler.write_all(b"G").expect("first byte");
        let done = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&done);
        let dribble = std::thread::spawn(move || {
            // One byte of a request line that never ends, every 100 ms
            // for up to 10 s; the socket stays open until joined.
            for _ in 0..100 {
                std::thread::sleep(Duration::from_millis(100));
                if stop.load(Ordering::Relaxed) || trickler.write_all(b"x").is_err() {
                    break;
                }
            }
            trickler
        });
        let t0 = Instant::now();
        let answer = http_get(&addr.to_string(), "/healthz", Duration::from_secs(15));
        let took = t0.elapsed();
        done.store(true, Ordering::Relaxed);
        let trickler = dribble.join().expect("trickler panicked");
        assert_eq!(answer.expect("/healthz answers").0, 200);
        assert!(
            took < HEAD_DEADLINE + Duration::from_secs(1),
            "/healthz took {took:?} beside a trickling client"
        );
        drop(trickler);
        admin.shutdown();
    }

    #[test]
    fn a_head_split_across_reads_is_served() {
        let (admin, _rec) = spawn_admin(true);
        let mut stream = TcpStream::connect(admin.addr()).unwrap();
        for part in [&b"GET /healthz HTTP/1.0\r\n\r"[..], b"\n"] {
            stream.write_all(part).unwrap();
            std::thread::sleep(Duration::from_millis(50));
        }
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.0 200"), "{out}");
        admin.shutdown();
    }

    #[test]
    fn non_get_is_rejected() {
        let (admin, _rec) = spawn_admin(true);
        let addr = admin.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.0 405"), "{out}");
    }
}
