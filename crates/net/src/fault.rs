//! Deterministic fault injection for loopback testing.
//!
//! [`FaultProxy`] sits between sites and the server as a plain TCP
//! forwarder that understands just enough of the frame layer (the
//! length prefix) to act on whole frames: it can **drop** a frame,
//! **delay** it, **truncate** it mid-body (then kill the connection,
//! as a real mid-transfer failure would), or **flip a bit** in it.
//!
//! Every decision comes from a [`SplitMix64`] stream seeded from
//! `(seed, connection, direction)`, so a failing test reproduces
//! exactly from its seed — no global RNG, no time dependence.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dbdc_obs::{CounterSheet, Recorder};

use crate::accept::AcceptLoop;
use crate::frame::FRAME_OVERHEAD;

/// SplitMix64: tiny, seedable, and plenty for fault scheduling.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform value in `[0, bound)`; `0` when `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// What the proxy does to the traffic, as independent per-frame
/// probabilities. All zero (the default) forwards transparently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// P(frame is silently dropped).
    pub drop: f64,
    /// P(frame is delayed by `delay` before forwarding).
    pub delay_p: f64,
    /// How long a delayed frame waits.
    pub delay: Duration,
    /// P(frame is cut mid-body and the connection killed).
    pub truncate: f64,
    /// P(one bit of the frame body is flipped).
    pub bitflip: f64,
}

impl FaultPlan {
    /// A transparent plan (no faults).
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            delay_p: 0.0,
            delay: Duration::ZERO,
            truncate: 0.0,
            bitflip: 0.0,
        }
    }

    /// A moderately hostile link: occasional drops, delays, truncations
    /// and bitflips. Rates are chosen so a full session (7 frame
    /// traversals) survives untouched with probability ≈ 0.56: a site
    /// with a 20-attempt retry budget then fails with probability
    /// below 1e-7, while every fault kind still fires many times over
    /// a multi-site run.
    pub fn lossy(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.03,
            delay_p: 0.10,
            delay: Duration::from_millis(10),
            truncate: 0.02,
            bitflip: 0.03,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    Drop,
    Delay,
    Truncate,
    Bitflip,
}

fn pick_fault(rng: &mut SplitMix64, plan: &FaultPlan) -> Fault {
    // One uniform draw mapped over stacked probability bands keeps the
    // stream advancing exactly once per frame regardless of outcome.
    let x = rng.next_f64();
    let mut edge = plan.drop;
    if x < edge {
        return Fault::Drop;
    }
    edge += plan.truncate;
    if x < edge {
        return Fault::Truncate;
    }
    edge += plan.bitflip;
    if x < edge {
        return Fault::Bitflip;
    }
    edge += plan.delay_p;
    if x < edge {
        return Fault::Delay;
    }
    Fault::None
}

/// Running statistics of a proxy's mischief.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Frames forwarded untouched (or merely delayed).
    pub forwarded: AtomicU64,
    /// Frames silently dropped.
    pub dropped: AtomicU64,
    /// Frames delayed.
    pub delayed: AtomicU64,
    /// Frames truncated (connection killed).
    pub truncated: AtomicU64,
    /// Frames with a bit flipped.
    pub bitflipped: AtomicU64,
}

impl FaultStats {
    /// Total faults injected (excluding delays, which still deliver).
    pub fn injected(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
            + self.truncated.load(Ordering::Relaxed)
            + self.bitflipped.load(Ordering::Relaxed)
    }
}

/// A frame-aware TCP proxy injecting deterministic faults.
pub struct FaultProxy {
    stats: Arc<FaultStats>,
    acceptor: AcceptLoop,
}

/// Per-direction counter sheets the proxy mirrors its mischief into:
/// `proxy/c2s` (site → server) and `proxy/s2c` (server → site).
type DirectionSheets = [Option<Arc<CounterSheet>>; 2];

impl FaultProxy {
    /// Starts a proxy on an ephemeral loopback port forwarding to
    /// `upstream` with faults from `plan`.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan) -> std::io::Result<Self> {
        Self::spawn_inner(upstream, plan, [None, None])
    }

    /// Like [`FaultProxy::spawn`], but every fault decision is also
    /// mirrored live into `rec` under the `proxy/c2s` and `proxy/s2c`
    /// scopes (forwarded frames as `frames_sent`, faults as
    /// `faults_*`), so a run report can carry the injected-fault ledger
    /// next to the endpoints' retry counters.
    pub fn spawn_observed(
        upstream: SocketAddr,
        plan: FaultPlan,
        rec: &dyn Recorder,
    ) -> std::io::Result<Self> {
        Self::spawn_inner(
            upstream,
            plan,
            [rec.sheet("proxy/c2s"), rec.sheet("proxy/s2c")],
        )
    }

    fn spawn_inner(
        upstream: SocketAddr,
        plan: FaultPlan,
        sheets: DirectionSheets,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(FaultStats::default());
        let (pump_stop, pump_stats) = (Arc::clone(&stop), Arc::clone(&stats));
        let mut conn_id = 0u64;
        let acceptor = AcceptLoop::spawn(listener, "dbdc-proxy", stop, move |client| {
            conn_id += 1;
            let id = conn_id;
            let stats = Arc::clone(&pump_stats);
            let stop = Arc::clone(&pump_stop);
            let sheets = sheets.clone();
            std::thread::spawn(move || {
                // Connection handling is best-effort: a dead upstream or
                // mid-stream kill is exactly the failure mode under test.
                let _ = relay_connection(client, upstream, plan, id, stats, stop, sheets);
            });
        })?;
        Ok(FaultProxy { stats, acceptor })
    }

    /// The address sites should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// The proxy's fault counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Stops accepting new connections; the pumps of open connections
    /// see the same stop flag at their next read timeout. Dropping the
    /// proxy does the same.
    pub fn shutdown(&mut self) {
        self.acceptor.shutdown();
    }
}

fn relay_connection(
    client: TcpStream,
    upstream: SocketAddr,
    plan: FaultPlan,
    conn_id: u64,
    stats: Arc<FaultStats>,
    stop: Arc<AtomicBool>,
    sheets: DirectionSheets,
) -> std::io::Result<()> {
    let server = TcpStream::connect(upstream)?;
    client.set_nodelay(true).ok();
    server.set_nodelay(true).ok();
    let [c2s_sheet, s2c_sheet] = sheets;
    let c2s = {
        let from = client.try_clone()?;
        let to = server.try_clone()?;
        let stats = Arc::clone(&stats);
        let stop = Arc::clone(&stop);
        let mut rng = SplitMix64::new(plan.seed ^ conn_id.wrapping_mul(0x9e37_79b9) ^ 0x5157);
        std::thread::spawn(move || pump(from, to, plan, &mut rng, stats, stop, c2s_sheet))
    };
    let mut rng = SplitMix64::new(plan.seed ^ conn_id.wrapping_mul(0x9e37_79b9) ^ 0xd0b0);
    let _ = pump(server, client, plan, &mut rng, stats, stop, s2c_sheet);
    let _ = c2s.join();
    Ok(())
}

/// Forwards frames `from → to`, one fault decision per frame. Returns
/// when either stream dies or a truncation kills the connection.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    plan: FaultPlan,
    rng: &mut SplitMix64,
    stats: Arc<FaultStats>,
    stop: Arc<AtomicBool>,
    sheet: Option<Arc<CounterSheet>>,
) -> std::io::Result<()> {
    // Bounded reads so a stuck peer can't pin the pump past shutdown.
    from.set_read_timeout(Some(Duration::from_millis(100))).ok();
    loop {
        let mut prefix = [0u8; 4];
        if read_exact_interruptible(&mut from, &mut prefix, &stop).is_err() {
            // Peer closed or proxy stopping: mirror by closing our side.
            let _ = to.shutdown(std::net::Shutdown::Both);
            return Ok(());
        }
        let len = u32::from_le_bytes(prefix) as usize;
        // A nonsense prefix means the stream is already garbage; forward
        // the prefix raw and die, letting the endpoint reject it.
        if !(FRAME_OVERHEAD..=crate::frame::DEFAULT_MAX_FRAME_BYTES).contains(&len) {
            let _ = to.write_all(&prefix);
            let _ = to.shutdown(std::net::Shutdown::Both);
            return Ok(());
        }
        let mut body = vec![0u8; len];
        if read_exact_interruptible(&mut from, &mut body, &stop).is_err() {
            let _ = to.shutdown(std::net::Shutdown::Both);
            return Ok(());
        }
        match pick_fault(rng, &plan) {
            Fault::Drop => {
                stats.dropped.fetch_add(1, Ordering::Relaxed);
                if let Some(s) = &sheet {
                    s.add_faults(1, 0, 0, 0);
                }
                continue;
            }
            Fault::Truncate => {
                stats.truncated.fetch_add(1, Ordering::Relaxed);
                if let Some(s) = &sheet {
                    s.add_faults(0, 0, 1, 0);
                }
                // Forward the prefix plus a strict prefix of the body,
                // then kill the connection: the receiver sees a clean
                // mid-frame EOF, never a spliced stream.
                let cut = rng.below(len as u64) as usize;
                let _ = to.write_all(&prefix);
                let _ = to.write_all(&body[..cut]);
                let _ = to.flush();
                let _ = to.shutdown(std::net::Shutdown::Both);
                let _ = from.shutdown(std::net::Shutdown::Both);
                return Ok(());
            }
            Fault::Bitflip => {
                stats.bitflipped.fetch_add(1, Ordering::Relaxed);
                if let Some(s) = &sheet {
                    s.add_faults(0, 0, 0, 1);
                }
                let bit = rng.below((len * 8) as u64) as usize;
                body[bit / 8] ^= 1 << (bit % 8);
            }
            Fault::Delay => {
                stats.delayed.fetch_add(1, Ordering::Relaxed);
                if let Some(s) = &sheet {
                    s.add_faults(0, 1, 0, 0);
                }
                std::thread::sleep(plan.delay);
            }
            Fault::None => {}
        }
        stats.forwarded.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = &sheet {
            // Forwarded (or merely delayed) frames count as traffic the
            // proxy put on the wire, in full frame-on-the-wire bytes.
            s.add_frame_sent(4 + len as u64, (len - FRAME_OVERHEAD) as u64);
        }
        to.write_all(&prefix)?;
        to.write_all(&body)?;
        to.flush()?;
    }
}

/// `read_exact` that re-polls on timeout until `stop` is set, so pump
/// threads exit promptly on proxy shutdown instead of blocking forever.
fn read_exact_interruptible(
    from: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        if stop.load(Ordering::Relaxed) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "proxy shutting down",
            ));
        }
        match from.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix64::new(43);
        let c: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_ne!(a, c);
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn fault_bands_respect_probabilities() {
        let plan = FaultPlan {
            seed: 9,
            drop: 0.25,
            delay_p: 0.25,
            delay: Duration::ZERO,
            truncate: 0.25,
            bitflip: 0.25,
        };
        let mut rng = SplitMix64::new(plan.seed);
        let mut counts = [0u32; 5];
        for _ in 0..4000 {
            let idx = match pick_fault(&mut rng, &plan) {
                Fault::None => 0,
                Fault::Drop => 1,
                Fault::Delay => 2,
                Fault::Truncate => 3,
                Fault::Bitflip => 4,
            };
            counts[idx] += 1;
        }
        assert_eq!(counts[0], 0, "bands sum to 1.0, nothing passes clean");
        for (i, &c) in counts.iter().enumerate().skip(1) {
            let share = c as f64 / 4000.0;
            assert!(
                (share - 0.25).abs() < 0.05,
                "band {i} got share {share}, expected ~0.25"
            );
        }
    }

    #[test]
    fn shutdown_returns_without_any_client() {
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let mut proxy = FaultProxy::spawn(upstream.local_addr().unwrap(), FaultPlan::clean(1))
            .expect("spawn proxy");
        let (done, finished) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            proxy.shutdown();
            done.send(()).expect("test still waiting");
        });
        finished
            .recv_timeout(Duration::from_secs(30))
            .expect("shutdown of a proxy no client reached returned");
        stopper.join().expect("shutdown thread panicked");
    }

    #[test]
    fn clean_plan_forwards_everything() {
        let plan = FaultPlan::clean(1);
        let mut rng = SplitMix64::new(plan.seed);
        for _ in 0..500 {
            assert_eq!(pick_fault(&mut rng, &plan), Fault::None);
        }
    }
}
