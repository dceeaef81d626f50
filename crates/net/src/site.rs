//! A DBDC client site over real TCP.
//!
//! [`run_site`] runs the full client half of the protocol against a
//! server address: the local phase ([`dbdc::local_phase`] — local
//! clustering, model extraction and wire encoding, the very function
//! the in-process runtime calls, so the bytes on the wire are exactly
//! the in-process message sizes), then the network session, then the
//! relabel phase ([`dbdc::relabel_phase`]) against the received global
//! model.
//!
//! The network session is retried as a whole under the site's
//! [`RetryPolicy`]: the local phase is deterministic and the encoded
//! model is reused, so a replay sends byte-identical frames and every
//! server-side effect is idempotent. Only a handshake rejection
//! (version/topology mismatch) aborts without retrying.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dbdc::wire;
use dbdc::{local_phase, relabel_phase, DbdcParams, GlobalModel, LocalTimes};
use dbdc_geom::{Clustering, Dataset};
use dbdc_obs::Recorder;

use crate::error::NetError;
use crate::frame::{Frame, FrameKind, Hello, DEFAULT_MAX_FRAME_BYTES};
use crate::metrics::WireMetrics;
use crate::retry::RetryPolicy;

/// Configuration of a client site.
#[derive(Debug, Clone)]
pub struct SiteOptions {
    /// This site's id, `0 <= site < n_sites`.
    pub site: u32,
    /// The session's total site count (validated by the server).
    pub n_sites: u32,
    /// The protocol parameters (must match the server's).
    pub params: DbdcParams,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Per-read socket timeout.
    pub read_timeout: Duration,
    /// Session retry budget and backoff.
    pub retry: RetryPolicy,
    /// Ceiling on incoming frame bodies.
    pub max_frame_bytes: usize,
}

impl SiteOptions {
    /// Defaults for site `site` of `n_sites`: 2 s connect, 3 s reads
    /// (above the server's 2 s ack-resend pace), standard retries.
    pub fn new(site: u32, n_sites: u32, params: DbdcParams) -> Self {
        SiteOptions {
            site,
            n_sites,
            params,
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(3),
            retry: RetryPolicy::standard(),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// What a completed site run produced.
#[derive(Debug, Clone)]
pub struct SiteOutcome {
    /// The site's final labels (dense ids local to this site's points,
    /// in partition order), after relabeling against the global model.
    pub labels: Clustering,
    /// The received global model.
    pub global: GlobalModel,
    /// Exact encoded size of the uploaded local model.
    pub bytes_up: usize,
    /// Exact encoded size of the received global model.
    pub bytes_down: usize,
    /// Network session attempts used (1 = first try succeeded).
    pub attempts: u32,
    /// Measured wall time of the local phase (cluster+extract+encode).
    pub local_wall: Duration,
    /// The local phase by sub-phase.
    pub local_times: LocalTimes,
    /// Measured wall time of the network session, connect through
    /// GOODBYE, across all attempts including backoff.
    pub session_wall: Duration,
    /// Measured wall time of the relabel phase.
    pub relabel_wall: Duration,
    /// Sub-phase timing of the *successful* session attempt: start
    /// offsets are measured from that attempt's connect call.
    pub session_phases: SessionPhases,
}

/// Start offset and wall time of each sub-phase of one session attempt.
/// Offsets are relative to the attempt's connect call, so a report can
/// place these as explicitly-positioned child spans of the session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionPhases {
    /// Connect + HELLO / HELLO_ACK exchange (offset is always zero).
    pub handshake_start: Duration,
    pub handshake: Duration,
    /// LOCAL_MODEL upload through MODEL_ACK.
    pub upload_start: Duration,
    pub upload: Duration,
    /// GLOBAL_MODEL receive, verify, and GLOBAL_ACK.
    pub download_start: Duration,
    pub download: Duration,
}

/// Runs the full client protocol against `addr`. Counter scopes land in
/// `rec` under `local[site]` and `relabel[site]`, matching the
/// in-process runtime's scope names; wire traffic lands under
/// `net/site[site]` (aggregate + per frame kind) with frame and session
/// latencies in the `net/frame_*_ns` / `net/session_ns` histograms.
pub fn run_site(
    addr: SocketAddr,
    site_data: &Dataset,
    opts: &SiteOptions,
    rec: &dyn Recorder,
) -> Result<SiteOutcome, NetError> {
    // --- Local phase: the in-process runtime's own. ---
    let t0 = Instant::now();
    let local = local_phase(opts.site, site_data, &opts.params, rec);
    let local_wall = t0.elapsed();

    // --- Network session, retried as a whole. ---
    let metrics = WireMetrics::new(rec, &format!("net/site[{}]", opts.site));
    let t1 = Instant::now();
    let (encoded_global, attempts, session_phases) =
        run_session(addr, &local.encoded, opts, &metrics)?;
    let session_wall = t1.elapsed();

    // --- Relabel against the broadcast model. ---
    let t2 = Instant::now();
    let clustering = &local.scp.dbscan.clustering;
    let (global, labels) = relabel_phase(opts.site, site_data, clustering, &encoded_global, rec)?;
    let relabel_wall = t2.elapsed();

    Ok(SiteOutcome {
        labels,
        bytes_up: local.encoded.len(),
        bytes_down: encoded_global.len(),
        attempts,
        local_wall,
        local_times: local.times,
        session_wall,
        relabel_wall,
        session_phases,
        global,
    })
}

/// The session with retries: returns the received global model's wire
/// bytes, the attempt count, and the successful attempt's sub-phase
/// timing. Each attempt's wall time lands in `net/session_ns`; retries
/// and the backoff slept before them land in the site's wire scope.
fn run_session(
    addr: SocketAddr,
    encoded_model: &[u8],
    opts: &SiteOptions,
    metrics: &WireMetrics,
) -> Result<(Vec<u8>, u32, SessionPhases), NetError> {
    let mut last: Option<NetError> = None;
    for attempt in 1..=opts.retry.attempts {
        let backoff = opts.retry.delay_before(attempt - 1);
        std::thread::sleep(backoff);
        if attempt > 1 {
            metrics.add_retry(backoff);
        }
        let t = Instant::now();
        let result = session_once(addr, encoded_model, opts, metrics);
        metrics.record_session(t.elapsed());
        match result {
            Ok((global, phases)) => return Ok((global, attempt, phases)),
            Err(e) if e.is_retryable() => last = Some(e),
            Err(e) => {
                if matches!(e, NetError::Handshake(_)) {
                    metrics.add_handshake_rejection();
                }
                return Err(e);
            }
        }
    }
    Err(NetError::Exhausted {
        attempts: opts.retry.attempts,
        last: last.map(|e| e.to_string()).unwrap_or_default(),
    })
}

/// One full session attempt: connect, handshake, upload, receive the
/// global model, ack, wait for GOODBYE.
fn session_once(
    addr: SocketAddr,
    encoded_model: &[u8],
    opts: &SiteOptions,
    metrics: &WireMetrics,
) -> Result<(Vec<u8>, SessionPhases), NetError> {
    let mut phases = SessionPhases::default();
    let attempt_start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, opts.connect_timeout)?;
    stream.set_read_timeout(Some(opts.read_timeout))?;
    stream.set_nodelay(true).ok();

    // --- Handshake. ---
    metrics.write_frame_observed(
        &mut stream,
        &Frame::new(
            FrameKind::Hello,
            Hello::new(opts.site, opts.n_sites).encode(),
        ),
    )?;
    expect_frame(&mut stream, opts, metrics, FrameKind::HelloAck)?;
    phases.handshake = attempt_start.elapsed();

    // --- Upload. ---
    phases.upload_start = attempt_start.elapsed();
    metrics.write_frame_observed(
        &mut stream,
        &Frame::new(FrameKind::LocalModel, encoded_model.to_vec()),
    )?;
    expect_frame(&mut stream, opts, metrics, FrameKind::ModelAck)?;
    phases.upload = attempt_start.elapsed() - phases.upload_start;

    // --- Receive the global model. ---
    phases.download_start = attempt_start.elapsed();
    let frame = expect_frame(&mut stream, opts, metrics, FrameKind::GlobalModel)?;
    // Verify end-to-end before acking: a corrupted broadcast must read
    // as "not delivered" so the server resends / the session replays.
    wire::decode_global_model(&frame.payload)?;
    let encoded_global = frame.payload;

    // --- Confirm, then linger for the server's confirmation. ---
    metrics.write_frame_observed(&mut stream, &Frame::bare(FrameKind::GlobalAck))?;
    phases.download = attempt_start.elapsed() - phases.download_start;
    // The server resends GLOBAL_MODEL if our ack was lost; re-ack each
    // copy. Only GOODBYE ends the session — anything else replays it.
    for _ in 0..64 {
        let f = metrics.read_frame_observed(&mut stream, opts.max_frame_bytes)?;
        match f.kind {
            FrameKind::Goodbye => return Ok((encoded_global, phases)),
            FrameKind::GlobalModel => {
                metrics.write_frame_observed(&mut stream, &Frame::bare(FrameKind::GlobalAck))?;
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "expected GOODBYE, got {}",
                    other.name()
                )))
            }
        }
    }
    Err(NetError::Protocol("no GOODBYE after 64 frames".into()))
}

/// Reads one frame and checks its kind. An ERROR frame is a fatal
/// handshake rejection carrying the server's reason.
fn expect_frame(
    stream: &mut TcpStream,
    opts: &SiteOptions,
    metrics: &WireMetrics,
    want: FrameKind,
) -> Result<Frame, NetError> {
    let frame = metrics.read_frame_observed(stream, opts.max_frame_bytes)?;
    if frame.kind == want {
        return Ok(frame);
    }
    if frame.kind == FrameKind::Error {
        return Err(NetError::Handshake(
            String::from_utf8_lossy(&frame.payload).into_owned(),
        ));
    }
    Err(NetError::Protocol(format!(
        "expected {}, got {}",
        want.name(),
        frame.kind.name()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use dbdc_obs::RecordingRecorder;
    use std::net::TcpListener;

    fn opts() -> SiteOptions {
        let mut o = SiteOptions::new(0, 1, DbdcParams::new(1.6, 5));
        o.connect_timeout = Duration::from_millis(200);
        o.read_timeout = Duration::from_millis(200);
        o.retry = RetryPolicy {
            attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
        };
        o
    }

    #[test]
    fn connect_refused_exhausts_retries() {
        // Bind-then-drop guarantees a dead port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind throwaway listener");
            l.local_addr().expect("read bound listener address")
        };
        let rec = RecordingRecorder::new();
        let metrics = WireMetrics::new(&rec, "net/site[0]");
        let err = run_session(addr, &[], &opts(), &metrics)
            .expect_err("session against a dead port must fail");
        match err {
            NetError::Exhausted { attempts, .. } => assert_eq!(attempts, 2),
            other => panic!("expected Exhausted, got {other}"),
        }
        // The second attempt was booked as a retry with its backoff.
        let c = rec.counters("net/site[0]");
        assert_eq!(c.retries, 1);
        assert!(c.backoff_wait_ns >= 1_000_000, "1 ms backoff recorded");
    }

    #[test]
    fn error_frame_aborts_without_retrying() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind rejecting server");
        let addr = listener.local_addr().expect("read server address");
        let server = std::thread::spawn(move || {
            // Reject both potential attempts; the test asserts only one
            // connection ever arrives.
            let mut served = 0u32;
            while served < 1 {
                let (mut s, _) = listener.accept().expect("accept site connection");
                let _ = read_frame(&mut s, DEFAULT_MAX_FRAME_BYTES).expect("read HELLO frame");
                write_frame(
                    &mut s,
                    &Frame::new(FrameKind::Error, b"version mismatch".to_vec()),
                )
                .expect("write ERROR frame");
                served += 1;
            }
            served
        });
        let rec = RecordingRecorder::new();
        let metrics = WireMetrics::new(&rec, "net/site[0]");
        let err = run_session(addr, &[], &opts(), &metrics)
            .expect_err("rejected handshake must fail the session");
        assert!(matches!(err, NetError::Handshake(ref m) if m.contains("version")));
        assert_eq!(
            server.join().expect("join rejecting server thread"),
            1,
            "no retry after a fatal rejection"
        );
        let c = rec.counters("net/site[0]");
        assert_eq!(c.handshake_rejections, 1);
        assert_eq!(c.retries, 0);
    }

    #[test]
    fn unexpected_kind_is_a_retryable_protocol_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind nonsense server");
        let addr = listener.local_addr().expect("read server address");
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut s, _) = listener.accept().expect("accept site connection");
                let _ = read_frame(&mut s, DEFAULT_MAX_FRAME_BYTES).expect("read HELLO frame");
                // A GOODBYE during the handshake is nonsense.
                write_frame(&mut s, &Frame::bare(FrameKind::Goodbye)).expect("write GOODBYE");
            }
        });
        let err = run_session(addr, &[], &opts(), &WireMetrics::disabled())
            .expect_err("protocol nonsense must exhaust retries");
        assert!(
            matches!(err, NetError::Exhausted { attempts: 2, ref last } if last.contains("GOODBYE"))
        );
        server.join().expect("join nonsense server thread");
    }
}
