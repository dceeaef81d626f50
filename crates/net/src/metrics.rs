//! Wire-level instrumentation for the serving layer.
//!
//! [`WireMetrics`] is the one handle both protocol ends thread through
//! their frame I/O. It captures, per observed party:
//!
//! * an **aggregate scope** (`net/server`, `net/site[i]`) — frames and
//!   bytes in both directions (full wire size *and* payload size),
//!   rejected-frame classification (checksum / truncated / oversize),
//!   handshake rejections, retries, and total backoff wait;
//! * a **per-kind scope** (`net/server/HELLO`, ...) counting frames
//!   and bytes of each [`FrameKind`] separately, so a report can answer
//!   "how many GLOBAL_MODEL resends crossed the wire?" without a new
//!   counter type;
//! * **latency histograms** `net/frame_write_ns`, `net/frame_read_ns`
//!   (per frame) and `net/session_ns` (per session attempt).
//!
//! Everything flows through the [`Recorder`] trait. When the recorder
//! is disabled ([`dbdc_obs::NoopRecorder`]) every handle is `None` and
//! the observed read/write paths take a branch and call straight into
//! the frame layer — no clock reads, no atomics, zero allocation — so
//! the uninstrumented hot path keeps its full speed.
//!
//! The struct owns only `Arc`s, so the server's per-connection handler
//! threads (`'static`) can each hold a clone.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbdc_obs::{Counter, CounterSheet, HistSheet, Recorder};

use crate::error::{FrameError, NetError};
use crate::frame::{read_frame, write_frame, Frame, FrameKind};

/// Fixed per-frame wire overhead beyond the payload: 4-byte length
/// prefix + kind byte + 8-byte checksum.
pub const WIRE_OVERHEAD: u64 = 4 + crate::frame::FRAME_OVERHEAD as u64;

/// Shared wire-instrumentation handles for one observed party.
#[derive(Clone, Default)]
pub struct WireMetrics {
    /// Aggregate counters for this party (`net/server`, `net/site[i]`).
    agg: Option<Arc<CounterSheet>>,
    /// Per-[`FrameKind`] counters, indexed by `kind as usize - 1`.
    per_kind: [Option<Arc<CounterSheet>>; FrameKind::ALL.len()],
    write_hist: Option<Arc<HistSheet>>,
    read_hist: Option<Arc<HistSheet>>,
    session_hist: Option<Arc<HistSheet>>,
}

impl WireMetrics {
    /// Handles for the party recording under `scope` (e.g.
    /// `net/site[3]`). With a disabled recorder this is free: every
    /// handle stays `None` and no sheet is ever requested.
    pub fn new(rec: &dyn Recorder, scope: &str) -> WireMetrics {
        if !rec.is_enabled() {
            return WireMetrics::default();
        }
        WireMetrics {
            agg: rec.sheet(scope),
            per_kind: FrameKind::ALL.map(|k| rec.sheet(&format!("{scope}/{}", k.name()))),
            write_hist: rec.hist("net/frame_write_ns"),
            read_hist: rec.hist("net/frame_read_ns"),
            session_hist: rec.hist("net/session_ns"),
        }
    }

    /// The never-recording handle (what `new` returns for a
    /// [`dbdc_obs::NoopRecorder`]).
    pub fn disabled() -> WireMetrics {
        WireMetrics::default()
    }

    /// Whether any sheet is attached; the observed I/O paths skip all
    /// timing when this is false.
    fn live(&self) -> bool {
        self.agg.is_some()
    }

    /// Writes one frame, counting it (aggregate + per-kind) and timing
    /// the write.
    pub fn write_frame_observed(&self, w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
        if !self.live() {
            return write_frame(w, frame);
        }
        let t0 = Instant::now();
        let result = write_frame(w, frame);
        let elapsed = t0.elapsed();
        if result.is_ok() {
            let payload = frame.payload.len() as u64;
            let wire = payload + WIRE_OVERHEAD;
            if let Some(s) = &self.agg {
                s.add_frame_sent(wire, payload);
            }
            if let Some(s) = &self.per_kind[frame.kind as usize - 1] {
                s.add_frame_sent(wire, payload);
            }
            if let Some(h) = &self.write_hist {
                h.record_duration(elapsed);
            }
        }
        result
    }

    /// Reads one frame, counting it on success and classifying the
    /// rejection on failure (checksum / truncated / oversize). Timeouts
    /// and connection failures are not counted — they are link events,
    /// not frame rejections, and surface through retry counters.
    pub fn read_frame_observed(
        &self,
        r: &mut impl Read,
        max_frame_bytes: usize,
    ) -> Result<Frame, NetError> {
        if !self.live() {
            return read_frame(r, max_frame_bytes);
        }
        let t0 = Instant::now();
        let result = read_frame(r, max_frame_bytes);
        let elapsed = t0.elapsed();
        match &result {
            Ok(frame) => {
                let payload = frame.payload.len() as u64;
                let wire = payload + WIRE_OVERHEAD;
                if let Some(s) = &self.agg {
                    s.add_frame_received(wire, payload);
                }
                if let Some(s) = &self.per_kind[frame.kind as usize - 1] {
                    s.add_frame_received(wire, payload);
                }
                if let Some(h) = &self.read_hist {
                    h.record_duration(elapsed);
                }
            }
            Err(e) => self.count_read_error(e),
        }
        result
    }

    /// Books a failed read under the matching reject counter.
    fn count_read_error(&self, e: &NetError) {
        let Some(s) = &self.agg else { return };
        match e {
            NetError::Frame(FrameError::BadChecksum) => s.add_to(Counter::checksum_failures, 1),
            NetError::Frame(FrameError::TooLarge { .. }) => s.add_to(Counter::oversize_rejects, 1),
            NetError::Frame(FrameError::TooShort(_)) | NetError::Frame(FrameError::BadKind(_)) => {
                s.add_to(Counter::truncated_rejects, 1)
            }
            // A stream that dies mid-frame is a truncated frame too.
            NetError::Io(io) if io.kind() == std::io::ErrorKind::UnexpectedEof => {
                s.add_to(Counter::truncated_rejects, 1)
            }
            _ => {}
        }
    }

    /// Records one whole-session retry and the backoff slept before it.
    pub fn add_retry(&self, backoff: Duration) {
        if let Some(s) = &self.agg {
            s.add_retry(backoff);
        }
    }

    /// Records a session refused during the HELLO exchange.
    pub fn add_handshake_rejection(&self) {
        if let Some(s) = &self.agg {
            s.add_to(Counter::handshake_rejections, 1);
        }
    }

    /// Records one session attempt's wall time (connect → outcome)
    /// into `net/session_ns`.
    pub fn record_session(&self, wall: Duration) {
        if let Some(h) = &self.session_hist {
            h.record_duration(wall);
        }
    }
}

impl std::fmt::Debug for WireMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireMetrics")
            .field("live", &self.live())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use dbdc_obs::{NoopRecorder, RecordingRecorder};

    #[test]
    fn noop_recorder_attaches_nothing() {
        let m = WireMetrics::new(&NoopRecorder, "net/site[0]");
        assert!(!m.live());
        // Observed I/O still works, straight through.
        let mut out = Vec::new();
        m.write_frame_observed(&mut out, &Frame::bare(FrameKind::ModelAck))
            .expect("write through disabled metrics");
        let back = m
            .read_frame_observed(&mut &out[..], 1024)
            .expect("read through disabled metrics");
        assert_eq!(back.kind, FrameKind::ModelAck);
    }

    #[test]
    fn frames_count_into_aggregate_and_per_kind_scopes() {
        let rec = RecordingRecorder::new();
        let m = WireMetrics::new(&rec, "net/site[0]");
        let mut out = Vec::new();
        let hello = Frame::new(FrameKind::Hello, vec![0u8; 10]);
        m.write_frame_observed(&mut out, &hello).expect("write");
        m.write_frame_observed(&mut out, &Frame::bare(FrameKind::GlobalAck))
            .expect("write");
        let mut r = &out[..];
        m.read_frame_observed(&mut r, 1024).expect("read hello");
        m.read_frame_observed(&mut r, 1024).expect("read ack");

        let agg = rec.counters("net/site[0]");
        assert_eq!(agg.frames_sent, 2);
        assert_eq!(agg.frames_received, 2);
        // HELLO wire = 10 payload + 13 overhead; bare ack = 13.
        assert_eq!(agg.wire_bytes_sent, 23 + 13);
        assert_eq!(agg.wire_bytes_received, 23 + 13);
        assert_eq!(agg.bytes_sent, 10);

        let hello_scope = rec.counters("net/site[0]/HELLO");
        assert_eq!(hello_scope.frames_sent, 1);
        assert_eq!(hello_scope.wire_bytes_sent, 23);
        let ack_scope = rec.counters("net/site[0]/GLOBAL_ACK");
        assert_eq!(ack_scope.frames_sent, 1);
        assert_eq!(ack_scope.wire_bytes_sent, 13);

        // Both per-frame histograms saw both frames.
        assert_eq!(rec.histogram("net/frame_write_ns").count(), 2);
        assert_eq!(rec.histogram("net/frame_read_ns").count(), 2);
    }

    #[test]
    fn read_failures_classify_into_reject_counters() {
        let rec = RecordingRecorder::new();
        let m = WireMetrics::new(&rec, "net/server");

        // Checksum failure: flip a payload bit.
        let mut bytes = encode_frame(&Frame::new(FrameKind::LocalModel, vec![9u8; 20]));
        bytes[8] ^= 1;
        assert!(m.read_frame_observed(&mut &bytes[..], 1 << 20).is_err());

        // Oversize: length prefix above the ceiling.
        let big = encode_frame(&Frame::new(FrameKind::LocalModel, vec![0u8; 64]));
        assert!(m.read_frame_observed(&mut &big[..], 16).is_err());

        // Truncated: stream dies mid-frame.
        let cut = &encode_frame(&Frame::bare(FrameKind::Goodbye))[..6];
        assert!(m.read_frame_observed(&mut &cut[..], 1 << 20).is_err());

        let c = rec.counters("net/server");
        assert_eq!(c.checksum_failures, 1);
        assert_eq!(c.oversize_rejects, 1);
        assert_eq!(c.truncated_rejects, 1);
        assert_eq!(c.frames_received, 0);
    }

    #[test]
    fn retry_and_handshake_and_session_helpers_record() {
        let rec = RecordingRecorder::new();
        let m = WireMetrics::new(&rec, "net/site[1]");
        m.add_retry(Duration::from_millis(2));
        m.add_retry(Duration::from_millis(4));
        m.add_handshake_rejection();
        m.record_session(Duration::from_millis(10));
        let c = rec.counters("net/site[1]");
        assert_eq!(c.retries, 2);
        assert_eq!(c.backoff_wait_ns, 6_000_000);
        assert_eq!(c.handshake_rejections, 1);
        assert_eq!(rec.histogram("net/session_ns").count(), 1);
    }
}
