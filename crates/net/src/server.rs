//! The DBDC server over real TCP.
//!
//! [`serve`] runs the session protocol with `n_sites` client sites,
//! builds the global model exactly once when the last local model
//! arrives, and returns when every site has confirmed receipt of the
//! broadcast.
//!
//! # Handlers
//!
//! No thread polls for a connection or for the global model. [`serve`]
//! starts `n_sites + 1` handler threads before any site connects, one
//! per site and a spare; each blocks in `accept` itself, serves the
//! connection it gets inline, and goes back to `accept`. No thread is
//! started between a connection arriving and its HELLO being read in a
//! clean session. The serving thread sleeps on a condition variable
//! until the deadline or the end of the drain window, and starts
//! another handler whenever none is left idle in `accept`, whatever the
//! busy ones' peers send. So a connection never waits in the backlog
//! for a handler: a site that replays its session finds one while the
//! handlers of its earlier connections still wait, and so does the last
//! honest site beside a peer that holds a handler. At the end the
//! serving thread wakes each handler still in `accept` with one
//! loopback self-connect. A wake is never counted as a connection,
//! never handled, and never left in the listener's backlog for the next
//! session on the same listener. It also shuts down the reading half of
//! every connection a handler still serves, so a silent or trickling
//! peer cannot hold its handler, and with it `serve`'s return, past the
//! end of the run.
//!
//! # Recovery model
//!
//! Every server-side operation is **idempotent**: a site that loses its
//! connection at any point simply reconnects and replays the whole
//! session (handshake → upload → receive global → ack). A re-uploaded
//! model from a site whose model is already stored is acknowledged and
//! discarded — deterministic sites re-encode byte-identical models, so
//! first-wins is safe. The global model is built exactly once.
//!
//! The final exchange is two-generals-shaped, resolved by making the
//! *site* the retrying party: the server sends GOODBYE after recording
//! a GLOBAL_ACK, and a site that never sees the GOODBYE replays the
//! session. The server therefore keeps serving replays for a drain
//! window after all sites have acked, bounded by the overall deadline.

use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dbdc::wire;
use dbdc::{server_phase, DbdcParams, GlobalModel, LocalModel, ServerPhase};
use dbdc_obs::{Counter, CounterSheet, Recorder};

use crate::accept::{accept, wake};
use crate::error::NetError;
use crate::frame::{Frame, FrameKind, Hello, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION};
use crate::metrics::WireMetrics;

/// Configuration of a serving run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// How many sites the session expects; [`serve`] returns once all
    /// of them have confirmed the broadcast.
    pub n_sites: usize,
    /// The protocol parameters (the server only uses the global-phase
    /// fields, but the full set keeps one source of truth).
    pub params: DbdcParams,
    /// Per-read socket timeout; also paces GLOBAL_MODEL resends while
    /// waiting for a site's ack.
    pub read_timeout: Duration,
    /// How many times GLOBAL_MODEL is re-sent on an ack-read timeout
    /// before the connection is abandoned (the site will reconnect).
    pub resend_attempts: u32,
    /// Hard ceiling on the whole run.
    pub deadline: Duration,
    /// How long to keep serving session replays after all sites acked
    /// *and* the last connection activity, so a site whose GOODBYE was
    /// lost can come back mid-backoff and re-confirm. Must exceed the
    /// sites' maximum retry backoff.
    pub drain_window: Duration,
    /// Ceiling on incoming frame bodies.
    pub max_frame_bytes: usize,
}

impl ServeOptions {
    /// Defaults for `n_sites` sites: 2 s reads, 3 resends, 60 s
    /// deadline, 1 s drain (above [`crate::RetryPolicy::standard`]'s
    /// 800 ms backoff ceiling).
    pub fn new(n_sites: usize, params: DbdcParams) -> Self {
        ServeOptions {
            n_sites,
            params,
            read_timeout: Duration::from_secs(2),
            resend_attempts: 3,
            deadline: Duration::from_secs(60),
            drain_window: Duration::from_secs(1),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// What a completed serving run produced.
#[derive(Debug, Clone)]
pub struct ServerOutcome {
    /// The global model built from all local models.
    pub global: GlobalModel,
    /// Every site's decoded local model, in site order.
    pub models: Vec<LocalModel>,
    /// Exact encoded size of each site's local model.
    pub per_site_bytes_up: Vec<usize>,
    /// Exact encoded size of the broadcast global model.
    pub global_model_bytes: usize,
    /// Total representatives across all local models.
    pub n_representatives: usize,
    /// Measured wall time from serve start until the last local model
    /// arrived — the real (concurrent) upload phase.
    pub upload_wall: Duration,
    /// Measured wall time of building + encoding the global model.
    pub global_wall: Duration,
    /// Measured wall time from the global model being ready until the
    /// last site confirmed receipt — the real broadcast phase.
    pub broadcast_wall: Duration,
    /// Connections accepted over the run (> `n_sites` means retries or
    /// peers beyond the sites); the wakes that end the run are not
    /// counted.
    pub connections: u64,
    /// Measured wall time of the whole serve call — bind to return,
    /// drain window included. Unlike the phase walls it bounds every
    /// session a site could have run, so a timeline can use it as the
    /// serve window that all remote spans nest inside.
    pub serve_wall: Duration,
    /// Per-site handshake timing on the server's clock: offset from
    /// serve start and duration of the HELLO → HELLO_ACK exchange of
    /// the *last* connection each site opened (the one that completed
    /// its session). `None` only if the site never completed a
    /// handshake — impossible on a successful run.
    pub handshakes: Vec<Option<(Duration, Duration)>>,
}

struct ServerState {
    /// Each site's first valid upload, as received.
    uploads: Vec<Option<Vec<u8>>>,
    global: Option<ServerPhase>,
    acked: Vec<bool>,
    last_activity: Instant,
    upload_wall: Duration,
    global_wall: Duration,
    all_acked_at: Option<Instant>,
    handshakes: Vec<Option<(Duration, Duration)>>,
    /// Handlers in (or on their way into) `accept`; the serving thread
    /// starts another whenever this reaches 0.
    idle: usize,
    /// A clone of each connection a handler is serving, by connection
    /// number, for the serving thread to shut down when the run stops.
    serving: Vec<(u64, TcpStream)>,
    /// The first error accepting a connection or cloning it; it ends
    /// the run.
    accept_error: Option<std::io::Error>,
}

impl ServerState {
    fn all_models_in(&self) -> bool {
        self.uploads.iter().all(|m| m.is_some())
    }

    fn all_acked(&self) -> bool {
        !self.acked.is_empty() && self.acked.iter().all(|&a| a)
    }
}

struct Shared {
    listener: TcpListener,
    state: Mutex<ServerState>,
    /// Signals the global model, acks, an accept that left no handler
    /// idle, an accept error, and `stop`.
    ready: Condvar,
    /// Set only while `state` is locked, so a handler that checked it
    /// before waiting on `ready` cannot miss the notify that follows.
    stop: AtomicBool,
    connections: AtomicU64,
    started: Instant,
    opts: ServeOptions,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, ServerState> {
        self.state.lock().expect("server state poisoned")
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Runs a full DBDC serving session on `listener` (which should already
/// be bound; pass a `127.0.0.1:0` bind for tests). Blocks until all
/// sites confirm the broadcast or the deadline passes, and joins every
/// handler thread it started before it returns, unless it cannot
/// connect to its own listener to wake them: it then returns that error
/// and each handler still in `accept` exits on the listener's next
/// connection. Counter scopes land in `rec` under `server` (bytes
/// up/down, representatives) and `net/server` (wire traffic, aggregate +
/// per frame kind), with frame and per-connection latencies in the
/// `net/*_ns` histograms.
pub fn serve(
    listener: TcpListener,
    opts: ServeOptions,
    rec: &dyn Recorder,
) -> Result<ServerOutcome, NetError> {
    assert!(
        opts.n_sites > 0,
        "a serving session needs at least one site"
    );
    listener.set_nonblocking(false)?;
    let addr = listener.local_addr()?;
    // One handler per site and a spare, so a clean session starts no
    // thread while its sites connect.
    let n_handlers = opts.n_sites + 1;
    let n_sites = opts.n_sites;
    let shared = Arc::new(Shared {
        listener,
        state: Mutex::new(ServerState {
            uploads: vec![None; n_sites],
            global: None,
            acked: vec![false; n_sites],
            last_activity: Instant::now(),
            upload_wall: Duration::ZERO,
            global_wall: Duration::ZERO,
            all_acked_at: None,
            handshakes: vec![None; n_sites],
            // The first handlers count as idle before they start.
            idle: n_handlers,
            serving: Vec::new(),
            accept_error: None,
        }),
        ready: Condvar::new(),
        stop: AtomicBool::new(false),
        connections: AtomicU64::new(0),
        started: Instant::now(),
        opts,
    });
    let sheet = rec.sheet("server");
    let wire = WireMetrics::new(rec, "net/server");
    let spawn_handler = || {
        let (shared, sheet, wire) = (Arc::clone(&shared), sheet.clone(), wire.clone());
        std::thread::Builder::new()
            .name("dbdc-serve".into())
            .spawn(move || run_handler(&shared, sheet.as_ref(), &wire))
    };

    let mut handlers: Vec<JoinHandle<()>> = Vec::with_capacity(n_handlers);
    let mut outcome = Ok(());
    for spawned in 0..n_handlers {
        match spawn_handler() {
            Ok(handle) => handlers.push(handle),
            Err(e) => {
                shared.lock().idle -= n_handlers - spawned;
                outcome = Err(NetError::Io(e));
                break;
            }
        }
    }
    let opts = &shared.opts;
    let mut st = shared.lock();
    while outcome.is_ok() {
        if let Some(e) = st.accept_error.take() {
            outcome = Err(NetError::Io(e));
            break;
        }
        let Some(mut wait) = opts.deadline.checked_sub(shared.started.elapsed()) else {
            outcome = Err(NetError::Deadline);
            break;
        };
        if st.all_acked_at.is_some() {
            // Stay up through the drain window (measured from the last
            // connection activity) so a site whose GOODBYE was lost can
            // come back mid-backoff and re-confirm.
            match opts.drain_window.checked_sub(st.last_activity.elapsed()) {
                Some(left) if !left.is_zero() => wait = wait.min(left),
                _ => break,
            }
        }
        if st.idle == 0 {
            // Every handler is busy, and any of them may hold its peer
            // until the run stops: the next connection gets a new one.
            match spawn_handler() {
                Ok(handle) => {
                    handlers.push(handle);
                    st.idle += 1;
                }
                Err(e) => outcome = Err(NetError::Io(e)),
            }
            continue;
        }
        st = shared
            .ready
            .wait_timeout(st, wait)
            .expect("server state poisoned")
            .0;
    }
    // From here a handler that finishes its connection exits instead of
    // going back to `accept`, and each one already there takes a wake.
    // A handler still serving a connection stops reading it: the read it
    // waits in, or its next one, ends at once, however slowly the peer
    // sends. Writes go on, so a GOODBYE under way still reaches its site.
    shared.stop.store(true, Ordering::Release);
    for (_, conn) in st.serving.drain(..) {
        let _ = conn.shutdown(Shutdown::Read);
    }
    let wakes = st.idle;
    drop(st);
    shared.ready.notify_all();
    for _ in 0..wakes {
        // `wake` retries a failed connect; one that still fails leaves a
        // handler blocked, so the run reports the error rather than wait.
        wake(addr)?;
    }
    let mut panicked = None;
    for h in handlers {
        if let Err(panic) = h.join() {
            panicked.get_or_insert(panic);
        }
    }
    if let Some(panic) = panicked {
        std::panic::resume_unwind(panic);
    }
    drain_backlog(&shared.listener)?;
    outcome?;

    let mut st = shared.lock();
    let per_site_bytes_up: Vec<usize> = st.uploads.iter().flatten().map(Vec::len).collect();
    let ServerPhase {
        models,
        global,
        encoded,
    } = st.global.take().expect("global built");
    let n_representatives = models.iter().map(LocalModel::len).sum();
    let global_ready = st.upload_wall + st.global_wall;
    let broadcast_wall = st
        .all_acked_at
        .map(|t| (t - shared.started).saturating_sub(global_ready))
        .unwrap_or(Duration::ZERO);
    Ok(ServerOutcome {
        handshakes: st.handshakes.clone(),
        per_site_bytes_up,
        global_model_bytes: encoded.len(),
        n_representatives,
        upload_wall: st.upload_wall,
        global_wall: st.global_wall,
        broadcast_wall,
        connections: shared.connections.load(Ordering::Relaxed),
        serve_wall: shared.started.elapsed(),
        global,
        models,
    })
}

/// Takes whatever the listener's backlog still holds once every handler
/// has exited: a wake whose handler accepted a late connection instead.
/// The next session on a clone of this listener then starts clean.
fn drain_backlog(listener: &TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    while listener.accept().is_ok() {}
    listener.set_nonblocking(false)
}

/// One handler thread: blocks in `accept`, serves the connection inline,
/// and goes back to `accept` until the run stops. It starts counted in
/// `idle`.
fn run_handler(shared: &Shared, sheet: Option<&Arc<CounterSheet>>, wire: &WireMetrics) {
    loop {
        let accepted = accept(&shared.listener);
        let mut st = shared.lock();
        st.idle -= 1;
        if shared.stopped() {
            // A wake, or a connection too late for this run: dropped
            // unread and uncounted.
            return;
        }
        // Registered under the lock after the `stopped` check, so the
        // serving thread shuts down every connection served past the stop.
        let (conn, stream) = match accepted.and_then(|s| Ok((s.try_clone()?, s))) {
            Ok((clone, stream)) => {
                let conn = shared.connections.fetch_add(1, Ordering::Relaxed);
                st.serving.push((conn, clone));
                (conn, stream)
            }
            Err(e) => {
                st.accept_error.get_or_insert(e);
                shared.ready.notify_all();
                return;
            }
        };
        st.last_activity = Instant::now();
        if st.idle == 0 {
            shared.ready.notify_all();
        }
        drop(st);
        let _ = handle_connection(stream, shared, sheet, wire);
        let mut st = shared.lock();
        st.serving.retain(|&(c, _)| c != conn);
        st.last_activity = Instant::now();
        if shared.stopped() {
            return;
        }
        st.idle += 1;
    }
}

/// One connection's session. Any error just abandons the connection —
/// the site owns recovery by replaying.
fn handle_connection(
    mut stream: TcpStream,
    shared: &Shared,
    sheet: Option<&Arc<CounterSheet>>,
    wire: &WireMetrics,
) -> Result<(), NetError> {
    let opts = &shared.opts;
    stream.set_read_timeout(Some(opts.read_timeout))?;
    stream.set_nodelay(true).ok();
    // The handshake window on the server's clock starts when the
    // handler picks up the freshly accepted connection — pairs with the
    // site's connect-to-HELLO_ACK window for clock alignment.
    let hs_start = shared.started.elapsed();
    let conn_start = Instant::now();

    // --- Handshake. ---
    let frame = read_frame_interruptible(&mut stream, shared, wire)?;
    if frame.kind != FrameKind::Hello {
        return Err(NetError::Protocol(format!(
            "expected HELLO, got {}",
            frame.kind.name()
        )));
    }
    let hello = Hello::decode(&frame.payload)
        .ok_or_else(|| NetError::Protocol("malformed HELLO payload".into()))?;
    if let Err(reason) = validate_hello(&hello, opts.n_sites) {
        // Fatal for the site: tell it why so it stops retrying.
        wire.add_handshake_rejection();
        let _ = wire.write_frame_observed(
            &mut stream,
            &Frame::new(FrameKind::Error, reason.clone().into_bytes()),
        );
        return Err(NetError::Handshake(reason));
    }
    let site = hello.site as usize;
    wire.write_frame_observed(&mut stream, &Frame::bare(FrameKind::HelloAck))?;
    {
        // Overwrite-last: the connection that completes the session is
        // the site's final (successful) attempt.
        let mut st = shared.lock();
        st.handshakes[site] = Some((hs_start, conn_start.elapsed()));
    }

    // --- Upload. ---
    let frame = read_frame_interruptible(&mut stream, shared, wire)?;
    if frame.kind != FrameKind::LocalModel {
        return Err(NetError::Protocol(format!(
            "expected LOCAL_MODEL, got {}",
            frame.kind.name()
        )));
    }
    // Decode before acking: a corrupt payload must read as "not
    // delivered" so the site retries.
    wire::decode_local_model(&frame.payload)?;
    {
        let mut st = shared.lock();
        if st.uploads[site].is_none() {
            if let Some(s) = sheet {
                s.add_to(Counter::bytes_received, frame.payload.len() as u64);
            }
            st.uploads[site] = Some(frame.payload);
            if st.all_models_in() && st.global.is_none() {
                // Exactly-once global build, on the thread that
                // delivered the last model.
                st.upload_wall = shared.started.elapsed();
                let t0 = Instant::now();
                let uploads: Vec<&[u8]> = st.uploads.iter().flatten().map(Vec::as_slice).collect();
                let phase = server_phase(&uploads, &opts.params, sheet).expect("uploads decoded");
                st.global_wall = t0.elapsed();
                st.global = Some(phase);
                shared.ready.notify_all();
            }
        }
        // else: replayed upload from a deterministic site — identical
        // bytes, nothing to store.
    }
    wire.write_frame_observed(&mut stream, &Frame::bare(FrameKind::ModelAck))?;

    // --- Wait for the global model (the last uploader builds it; the
    // serving thread's `stop` ends the wait at the deadline). ---
    let encoded_global = {
        let st = shared
            .ready
            .wait_while(shared.lock(), |st| st.global.is_none() && !shared.stopped())
            .expect("server state poisoned");
        match &st.global {
            Some(phase) => phase.encoded.to_vec(),
            None => return Err(NetError::Deadline),
        }
    };

    // --- Broadcast until the site acks. ---
    for _ in 0..=opts.resend_attempts {
        wire.write_frame_observed(
            &mut stream,
            &Frame::new(FrameKind::GlobalModel, encoded_global.clone()),
        )?;
        if let Some(s) = sheet {
            s.add_to(Counter::bytes_sent, encoded_global.len() as u64);
        }
        match wire.read_frame_observed(&mut stream, opts.max_frame_bytes) {
            Ok(f) if f.kind == FrameKind::GlobalAck => {
                {
                    let mut st = shared.lock();
                    st.acked[site] = true;
                    if st.all_acked() && st.all_acked_at.is_none() {
                        st.all_acked_at = Some(Instant::now());
                    }
                }
                shared.ready.notify_all();
                // Best-effort: if this is lost the site replays the
                // session and gets another one.
                let _ = wire.write_frame_observed(&mut stream, &Frame::bare(FrameKind::Goodbye));
                return Ok(());
            }
            Ok(f) => {
                return Err(NetError::Protocol(format!(
                    "expected GLOBAL_ACK, got {}",
                    f.kind.name()
                )));
            }
            Err(e) if e.is_timeout() && !shared.stopped() => {
                // Ack lost or site still reading: resend the broadcast.
                continue;
            }
            Err(e) => return Err(e),
        }
    }
    Err(NetError::Exhausted {
        attempts: opts.resend_attempts + 1,
        last: "no GLOBAL_ACK".into(),
    })
}

fn validate_hello(hello: &Hello, n_sites: usize) -> Result<(), String> {
    if hello.version != PROTOCOL_VERSION {
        return Err(format!(
            "protocol version mismatch: server speaks {PROTOCOL_VERSION}, site sent {}",
            hello.version
        ));
    }
    if hello.n_sites as usize != n_sites {
        return Err(format!(
            "site count mismatch: server expects {n_sites}, site sent {}",
            hello.n_sites
        ));
    }
    if hello.site as usize >= n_sites {
        return Err(format!(
            "site id {} out of range for {n_sites} sites",
            hello.site
        ));
    }
    Ok(())
}

/// A frame read that re-arms on timeout until the server stops, so an
/// idle connection (a site mid-backoff) doesn't get abandoned while the
/// run is still live.
fn read_frame_interruptible(
    stream: &mut TcpStream,
    shared: &Shared,
    wire: &WireMetrics,
) -> Result<Frame, NetError> {
    loop {
        match wire.read_frame_observed(stream, shared.opts.max_frame_bytes) {
            Err(e)
                if e.is_timeout()
                    && !shared.stopped()
                    && shared.started.elapsed() < shared.opts.deadline =>
            {
                continue;
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_validation_covers_all_mismatches() {
        assert!(validate_hello(&Hello::new(0, 4), 4).is_ok());
        assert!(validate_hello(&Hello::new(3, 4), 4).is_ok());
        let bad_version = Hello {
            version: PROTOCOL_VERSION + 1,
            site: 0,
            n_sites: 4,
        };
        assert!(validate_hello(&bad_version, 4)
            .unwrap_err()
            .contains("version"));
        assert!(validate_hello(&Hello::new(0, 5), 4)
            .unwrap_err()
            .contains("site count"));
        assert!(validate_hello(&Hello::new(4, 4), 4)
            .unwrap_err()
            .contains("out of range"));
    }
}
