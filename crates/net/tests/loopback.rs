//! In-process loopback: a real TCP server and real TCP sites on
//! 127.0.0.1, asserted label-identical to the single-process runtime —
//! with and without an adversarial link in the middle, beside hostile
//! peers on raw sockets, and over one listener reused across sessions.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dbdc::{run_dbdc, DbdcOutcome, DbdcParams, EpsGlobal, Partitioner};
use dbdc_datagen::dataset_c;
use dbdc_geom::{Clustering, Dataset, Label};
use dbdc_net::{
    read_frame, run_site, serve, write_frame, FaultPlan, FaultProxy, Frame, FrameKind, Hello,
    NetError, RetryPolicy, ServeOptions, ServerOutcome, SiteOptions, SiteOutcome,
    DEFAULT_MAX_FRAME_BYTES,
};
use dbdc_obs::{NoopRecorder, RecordingRecorder};

const N_SITES: usize = 4;

/// Full frame-on-the-wire overhead: length prefix + kind + checksum.
const WIRE: u64 = 13;

fn params() -> DbdcParams {
    DbdcParams::new(1.6, 5).with_eps_global(EpsGlobal::MultipleOfLocal(2.0))
}

fn partitioner() -> Partitioner {
    Partitioner::RandomEqual { seed: 7 }
}

/// Splits the dataset exactly like the in-process runtime does.
fn split(data: &Dataset) -> (Vec<Dataset>, Vec<Vec<u32>>) {
    let assignment = partitioner().assign(data, N_SITES);
    data.partition(N_SITES, &assignment)
}

/// Reassembles per-site labels into the full clustering, mirroring the
/// runtime's assembly step.
fn reassemble(n: usize, back: &[Vec<u32>], sites: &[SiteOutcome]) -> Clustering {
    let mut full = vec![Label::Noise; n];
    for (site, ids) in back.iter().enumerate() {
        for (pos, &orig) in ids.iter().enumerate() {
            full[orig as usize] = sites[site].labels.label(pos as u32);
        }
    }
    Clustering::from_labels(full)
}

/// Runs server + sites over loopback (optionally through a fault
/// proxy), returning everything needed for identity checks.
#[allow(clippy::type_complexity)]
fn networked_run(
    data: &Dataset,
    serve_opts: ServeOptions,
    site_opts: impl Fn(u32) -> SiteOptions,
    plan: Option<FaultPlan>,
) -> (
    Result<ServerOutcome, NetError>,
    Vec<Result<SiteOutcome, NetError>>,
    Option<FaultProxy>,
) {
    let (parts, _) = split(data);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server_addr = listener.local_addr().expect("local addr");
    let proxy = plan.map(|p| FaultProxy::spawn(server_addr, p).expect("spawn proxy"));
    let connect_addr = proxy.as_ref().map(|p| p.addr()).unwrap_or(server_addr);
    let server = std::thread::spawn(move || serve(listener, serve_opts, &NoopRecorder));
    let site_results: Vec<Result<SiteOutcome, NetError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(site, part)| {
                let opts = site_opts(site as u32);
                scope.spawn(move || run_site(connect_addr, part, &opts, &NoopRecorder))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("site thread panicked"))
            .collect()
    });
    let server_result = server.join().expect("server thread panicked");
    (server_result, site_results, proxy)
}

fn expected(data: &Dataset) -> DbdcOutcome {
    run_dbdc(data, &params(), partitioner(), N_SITES)
}

#[test]
fn clean_loopback_matches_in_process_runtime() {
    let g = dataset_c(31);
    let (_, back) = split(&g.data);

    // The fleet runs `run_dbdc`'s own local phase, so every local-phase
    // setting carries over unchanged.
    for p in [
        params(),
        params().with_threads(2).with_partitions(2),
        params().with_threads(2),
    ] {
        let reference = run_dbdc(&g.data, &p, partitioner(), N_SITES);
        let mut serve_opts = ServeOptions::new(N_SITES, p);
        serve_opts.drain_window = Duration::from_millis(150);
        let (server, sites, _) = networked_run(
            &g.data,
            serve_opts,
            |site| SiteOptions::new(site, N_SITES as u32, p),
            None,
        );
        let server = server.expect("server completes");
        let sites: Vec<SiteOutcome> = sites
            .into_iter()
            .map(|s| s.expect("site completes"))
            .collect();

        // The distributed-over-TCP clustering is the in-process clustering.
        let assignment = reassemble(g.data.len(), &back, &sites);
        assert_eq!(assignment, reference.assignment, "{p:?}");

        // The server saw exactly the in-process protocol: same global
        // model, same message sizes, one connection per site.
        assert_eq!(server.global, reference.global, "{p:?}");
        assert_eq!(server.per_site_bytes_up, reference.per_site_bytes_up);
        assert_eq!(server.global_model_bytes, reference.global_model_bytes);
        assert_eq!(server.n_representatives, reference.n_representatives);
        assert_eq!(server.connections, N_SITES as u64);
        for (site, s) in sites.iter().enumerate() {
            assert_eq!(s.attempts, 1, "site {site} needed retries on a clean link");
            assert_eq!(s.bytes_up, reference.per_site_bytes_up[site], "{p:?}");
            assert_eq!(s.bytes_down, reference.global_model_bytes);
            assert_eq!(s.global, reference.global);
            assert_eq!(
                s.local_times.partitions.len(),
                reference.timings.local[site].partitions.len()
            );
        }
        // The measured phases are real walls now, not model outputs.
        assert!(server.upload_wall > Duration::ZERO);
        assert!(server.broadcast_wall > Duration::ZERO);
    }
}

#[test]
fn lossy_loopback_converges_to_identical_labels() {
    let g = dataset_c(32);
    let reference = expected(&g.data);
    let (_, back) = split(&g.data);

    let mut total_events = 0u64;
    for seed in [0xA11CEu64, 0xB0BB1E] {
        let mut serve_opts = ServeOptions::new(N_SITES, params());
        serve_opts.read_timeout = Duration::from_millis(500);
        serve_opts.deadline = Duration::from_secs(45);
        serve_opts.drain_window = Duration::from_millis(1200);
        let site_opts = |site: u32| {
            let mut o = SiteOptions::new(site, N_SITES as u32, params());
            o.connect_timeout = Duration::from_secs(1);
            o.read_timeout = Duration::from_millis(800);
            o.retry = RetryPolicy {
                attempts: 25,
                base_delay: Duration::from_millis(25),
                max_delay: Duration::from_millis(400),
            };
            o
        };
        let (server, sites, proxy) =
            networked_run(&g.data, serve_opts, site_opts, Some(FaultPlan::lossy(seed)));
        let server = server.expect("server converges through faults");
        let sites: Vec<SiteOutcome> = sites
            .into_iter()
            .map(|s| s.expect("site converges through faults"))
            .collect();

        // Drops, delays, truncations and bitflips changed nothing: the
        // result is byte- and label-identical to the clean run.
        let assignment = reassemble(g.data.len(), &back, &sites);
        assert_eq!(assignment, reference.assignment, "plan seed {seed:#x}");
        assert_eq!(server.global, reference.global);
        assert_eq!(server.per_site_bytes_up, reference.per_site_bytes_up);

        let proxy = proxy.expect("proxy ran");
        let stats = proxy.stats();
        total_events += stats.injected() + stats.delayed.load(std::sync::atomic::Ordering::Relaxed);
    }
    // Across both seeds the adversarial link did fire: with an 18%
    // per-frame event rate over ≥56 frames, two silent runs have
    // probability ~1e-5. Convergence above does not depend on this.
    assert!(total_events > 0, "fault proxy never fired across two runs");
}

/// A clean instrumented run: every byte the wire counters claim was
/// sent reconciles with frame-level arithmetic, and both ends agree.
#[test]
fn clean_run_wire_counters_reconcile_with_frame_arithmetic() {
    let g = dataset_c(35);
    let (parts, _) = split(&g.data);

    let rec = RecordingRecorder::new();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let mut serve_opts = ServeOptions::new(N_SITES, params());
    serve_opts.drain_window = Duration::from_millis(150);

    let (server, sites) = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(listener, serve_opts, &rec));
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(site, part)| {
                let opts = SiteOptions::new(site as u32, N_SITES as u32, params());
                let rec = &rec;
                scope.spawn(move || run_site(addr, part, &opts, rec))
            })
            .collect();
        let sites: Vec<SiteOutcome> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("site thread panicked")
                    .expect("site completes")
            })
            .collect();
        (
            server
                .join()
                .expect("server thread panicked")
                .expect("server completes"),
            sites,
        )
    });

    let mut sites_wire_sent = 0u64;
    let mut sites_wire_received = 0u64;
    for (i, s) in sites.iter().enumerate() {
        let agg = rec.counters(&format!("net/site[{i}]"));
        let hello = rec.counters(&format!("net/site[{i}]/HELLO"));
        let model = rec.counters(&format!("net/site[{i}]/LOCAL_MODEL"));
        let ack = rec.counters(&format!("net/site[{i}]/GLOBAL_ACK"));

        // One attempt on a clean link: one HELLO, one LOCAL_MODEL.
        assert_eq!(hello.frames_sent, 1, "site {i}");
        assert_eq!(model.frames_sent, 1, "site {i}");
        assert!(ack.frames_sent >= 1, "site {i}");
        assert_eq!(agg.retries, 0, "no retries on a clean link");
        assert_eq!(agg.checksum_failures + agg.truncated_rejects, 0);

        // The aggregate wire bytes are exactly the frame arithmetic:
        // HELLO carries a 10-byte payload, LOCAL_MODEL the encoded
        // model, GLOBAL_ACK is bare.
        let expected = (10 + WIRE) * hello.frames_sent
            + (s.bytes_up as u64 + WIRE) * model.frames_sent
            + WIRE * ack.frames_sent;
        assert_eq!(agg.wire_bytes_sent, expected, "site {i} wire identity");
        assert_eq!(
            agg.frames_sent,
            hello.frames_sent + model.frames_sent + ack.frames_sent
        );

        // Sub-phase timing of the successful attempt is populated and
        // ordered: handshake, then upload, then download.
        let p = s.session_phases;
        assert!(p.handshake > Duration::ZERO, "site {i}");
        assert!(p.upload_start >= p.handshake, "site {i}");
        assert!(p.download_start >= p.upload_start + p.upload, "site {i}");

        sites_wire_sent += agg.wire_bytes_sent;
        sites_wire_received += agg.wire_bytes_received;
    }

    // No proxy in the middle: the server's receive side is exactly the
    // sites' send side, and vice versa.
    let srv = rec.counters("net/server");
    assert_eq!(srv.wire_bytes_received, sites_wire_sent);
    assert_eq!(srv.wire_bytes_sent, sites_wire_received);
    assert_eq!(
        rec.counters("net/server/HELLO").frames_received,
        N_SITES as u64
    );

    // The server paired a handshake window with every site.
    assert_eq!(server.handshakes.len(), N_SITES);
    assert!(server.handshakes.iter().all(|h| h.is_some()));

    // The latency histograms saw the traffic.
    assert!(rec.histogram("net/frame_write_ns").count() > 0);
    assert!(rec.histogram("net/frame_read_ns").count() > 0);
    assert_eq!(rec.histogram("net/session_ns").count(), N_SITES as u64);
}

/// A drop-only adversarial link with server resends disabled: every
/// dropped frame stalls exactly one session attempt, so the observed
/// retry counters must cover the proxy's injected-drop ledger.
#[test]
fn observed_retries_cover_injected_drops() {
    let g = dataset_c(36);
    let (parts, _) = split(&g.data);

    let rec = RecordingRecorder::new();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server_addr = listener.local_addr().expect("local addr");
    let mut plan = FaultPlan::clean(0xD20D);
    plan.drop = 0.15;
    let proxy = FaultProxy::spawn_observed(server_addr, plan, &rec).expect("spawn proxy");
    let proxy_addr = proxy.addr();

    let mut serve_opts = ServeOptions::new(N_SITES, params());
    serve_opts.read_timeout = Duration::from_millis(300);
    // No server-side resends: recovery is purely whole-session replay,
    // so one drop can never be absorbed silently by a resend.
    serve_opts.resend_attempts = 0;
    serve_opts.deadline = Duration::from_secs(45);
    serve_opts.drain_window = Duration::from_millis(1200);

    let sites: Vec<SiteOutcome> = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(listener, serve_opts, &rec));
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(site, part)| {
                let mut opts = SiteOptions::new(site as u32, N_SITES as u32, params());
                opts.connect_timeout = Duration::from_secs(1);
                opts.read_timeout = Duration::from_millis(500);
                opts.retry = RetryPolicy {
                    attempts: 40,
                    base_delay: Duration::from_millis(10),
                    max_delay: Duration::from_millis(100),
                };
                let rec = &rec;
                scope.spawn(move || run_site(proxy_addr, part, &opts, rec))
            })
            .collect();
        let sites = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("site thread panicked")
                    .expect("site converges")
            })
            .collect();
        server
            .join()
            .expect("server thread panicked")
            .expect("server converges");
        sites
    });

    let dropped = proxy
        .stats()
        .dropped
        .load(std::sync::atomic::Ordering::Relaxed);
    let total_retries: u64 = (0..N_SITES)
        .map(|i| rec.counters(&format!("net/site[{i}]")).retries)
        .sum();
    assert!(
        total_retries >= dropped,
        "observed {total_retries} retries < {dropped} injected drops"
    );
    // The observed counters agree with the outcome-level attempt count.
    let outcome_retries: u64 = sites.iter().map(|s| (s.attempts - 1) as u64).sum();
    assert_eq!(total_retries, outcome_retries);
    // The proxy mirrored its ledger into the report scopes.
    let proxied =
        rec.counters("proxy/c2s").faults_dropped + rec.counters("proxy/s2c").faults_dropped;
    assert_eq!(proxied, dropped);
}

#[test]
fn fully_corrupted_link_is_rejected_by_checksums() {
    let g = dataset_c(33);
    let (parts, _) = split(&g.data);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server_addr = listener.local_addr().expect("local addr");
    // Every frame gets one bit flipped: nothing valid ever arrives.
    let mut plan = FaultPlan::clean(99);
    plan.bitflip = 1.0;
    let proxy = FaultProxy::spawn(server_addr, plan).expect("spawn proxy");
    let proxy_addr = proxy.addr();

    let mut serve_opts = ServeOptions::new(N_SITES, params());
    serve_opts.read_timeout = Duration::from_millis(200);
    serve_opts.deadline = Duration::from_secs(3);
    let server = std::thread::spawn(move || serve(listener, serve_opts, &NoopRecorder));

    let result = {
        let mut o = SiteOptions::new(0, N_SITES as u32, params());
        o.connect_timeout = Duration::from_millis(500);
        o.read_timeout = Duration::from_millis(300);
        o.retry = RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(10),
        };
        run_site(proxy_addr, &parts[0], &o, &NoopRecorder)
    };
    // The site never accepts a corrupt frame: it retries and exhausts.
    match result {
        Err(NetError::Exhausted { attempts, .. }) => assert_eq!(attempts, 3),
        other => panic!("expected Exhausted, got {other:?}"),
    }
    assert!(
        proxy
            .stats()
            .bitflipped
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "corruption was injected"
    );
    // The server never saw a valid model either and times out cleanly.
    match server.join().expect("server thread panicked") {
        Err(NetError::Deadline) => {}
        other => panic!("expected Deadline, got {other:?}"),
    }
}

#[test]
fn topology_mismatch_is_fatal_but_session_recovers() {
    let g = dataset_c(34);
    let (parts, _) = split(&g.data);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let mut serve_opts = ServeOptions::new(1, params());
    serve_opts.drain_window = Duration::from_millis(150);
    serve_opts.deadline = Duration::from_secs(20);
    let server = std::thread::spawn(move || serve(listener, serve_opts, &NoopRecorder));

    // A site claiming the wrong topology is rejected without retries.
    let bad = {
        let mut o = SiteOptions::new(0, 2, params());
        o.retry = RetryPolicy::standard();
        run_site(addr, &parts[0], &o, &NoopRecorder)
    };
    match bad {
        Err(NetError::Handshake(reason)) => {
            assert!(reason.contains("site count"), "reason: {reason}")
        }
        other => panic!("expected Handshake rejection, got {other:?}"),
    }

    // The server survives the rejection and serves a correct site.
    let good = run_site(
        addr,
        &parts[0],
        &SiteOptions::new(0, 1, params()),
        &NoopRecorder,
    )
    .expect("correct site completes");
    assert_eq!(good.attempts, 1);
    let server = server.join().expect("server thread panicked");
    assert!(server.is_ok(), "server failed: {:?}", server.err());
}

/// Serves one session of the honest fleet on `listener`, with `peer`
/// run after `serve` is spawned and before any site starts; whatever
/// `peer` returns (an open socket, say) stays alive until `serve` has
/// returned. Asserts what nothing beside the fleet may change: `serve`
/// returns `Ok`, every site finishes in one attempt, and the labels are
/// `run_dbdc`'s.
fn honest_session<T>(
    data: &Dataset,
    listener: TcpListener,
    serve_opts: ServeOptions,
    rec: &RecordingRecorder,
    peer: impl FnOnce(SocketAddr) -> T,
) -> (ServerOutcome, T) {
    let (parts, back) = split(data);
    let addr = listener.local_addr().expect("local addr");
    let (server, sites, peer) = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(listener, serve_opts, rec));
        let peer = peer(addr);
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(site, part)| {
                let mut opts = SiteOptions::new(site as u32, N_SITES as u32, params());
                opts.read_timeout = Duration::from_secs(2);
                scope.spawn(move || run_site(addr, part, &opts, &NoopRecorder))
            })
            .collect();
        let sites: Vec<SiteOutcome> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("site thread panicked")
                    .expect("honest site completes")
            })
            .collect();
        let server = server.join().expect("server thread panicked");
        (server.expect("server completes"), sites, peer)
    });
    for (site, s) in sites.iter().enumerate() {
        assert_eq!(s.attempts, 1, "site {site} needed retries");
    }
    assert_eq!(
        reassemble(data.len(), &back, &sites),
        expected(data).assignment
    );
    (server, peer)
}

/// Server options for the hostile-peer tests: a handler left reading
/// from a silent peer sees the run's stop within 200 ms, so `serve`
/// returns soon after the sites' session.
fn hostile_serve_opts() -> ServeOptions {
    let mut o = ServeOptions::new(N_SITES, params());
    o.read_timeout = Duration::from_millis(200);
    o.drain_window = Duration::from_millis(150);
    o.deadline = Duration::from_secs(20);
    o
}

fn bind() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind loopback")
}

#[test]
fn silent_peer_before_the_sites_cannot_stall_the_fleet() {
    let g = dataset_c(37);
    let rec = RecordingRecorder::new();
    // Connected first, so a handler takes it before any site.
    let (server, _silent) = honest_session(&g.data, bind(), hostile_serve_opts(), &rec, |addr| {
        TcpStream::connect(addr).expect("silent peer connects")
    });
    assert_eq!(server.connections, N_SITES as u64 + 1);
}

/// A peer that sends a frame one byte at a time, each well inside the
/// server's read timeout, holds its handler without any read of it
/// timing out. The server's reads wait longer than the sites' here, so
/// a spare that waited for some read to time out would come after the
/// last site had given up its first attempt.
#[test]
fn trickling_peer_before_the_sites_cannot_stall_the_fleet() {
    let g = dataset_c(41);
    let rec = RecordingRecorder::new();
    let mut serve_opts = hostile_serve_opts();
    serve_opts.read_timeout = Duration::from_secs(3);
    let (server, trickle) = honest_session(&g.data, bind(), serve_opts, &rec, |addr| {
        // Connected first, so a handler takes it before any site.
        let mut s = TcpStream::connect(addr).expect("trickling peer connects");
        std::thread::spawn(move || {
            // A length prefix for 64 body bytes, then 25 of them 100 ms
            // apart; the close then ends the handler's read.
            s.write_all(&64u32.to_le_bytes()).expect("write prefix");
            for _ in 0..25 {
                std::thread::sleep(Duration::from_millis(100));
                if s.write_all(&[0]).is_err() {
                    break;
                }
            }
        })
    });
    trickle.join().expect("trickling peer panicked");
    assert_eq!(server.connections, N_SITES as u64 + 1);
}

/// Stopping the run shuts down every connection a handler still serves,
/// so with reads that wait 6 s `serve` still returns soon after the last
/// site, beside a silent peer and beside a peer that trickles a frame in
/// for 10 s: the handler neither waits out the read timeout nor waits
/// for the frame to end.
#[test]
fn stopping_the_fleet_closes_silent_and_trickling_connections() {
    let g = dataset_c(42);
    let mut serve_opts = hostile_serve_opts();
    serve_opts.read_timeout = Duration::from_secs(6);
    // From the last site's ack to `serve`'s return.
    let after_last_ack = |s: &ServerOutcome| {
        s.serve_wall
            .saturating_sub(s.upload_wall + s.global_wall + s.broadcast_wall)
    };

    let rec = RecordingRecorder::new();
    let (server, _silent) = honest_session(&g.data, bind(), serve_opts.clone(), &rec, |addr| {
        // Connected first, so a handler takes it before any site.
        TcpStream::connect(addr).expect("silent peer connects")
    });
    assert_eq!(server.connections, N_SITES as u64 + 1);
    let tail = after_last_ack(&server);
    assert!(tail < Duration::from_secs(1), "silent peer: {tail:?}");

    let done = Arc::new(AtomicBool::new(false));
    let rec = RecordingRecorder::new();
    let (server, trickle) = honest_session(&g.data, bind(), serve_opts, &rec, |addr| {
        // Connected first, so a handler takes it before any site.
        let mut s = TcpStream::connect(addr).expect("trickling peer connects");
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            // A length prefix for 1000 body bytes, then 100 of them
            // 100 ms apart, until the test is done with the peer.
            s.write_all(&1000u32.to_le_bytes()).expect("write prefix");
            for _ in 0..100 {
                std::thread::sleep(Duration::from_millis(100));
                if done.load(Ordering::Relaxed) || s.write_all(&[0]).is_err() {
                    break;
                }
            }
        })
    });
    done.store(true, Ordering::Relaxed);
    trickle.join().expect("trickling peer panicked");
    assert_eq!(server.connections, N_SITES as u64 + 1);
    let tail = after_last_ack(&server);
    assert!(tail < Duration::from_secs(1), "trickling peer: {tail:?}");
}

#[test]
fn duplicate_site_hello_cannot_stall_the_fleet() {
    let g = dataset_c(38);
    let rec = RecordingRecorder::new();
    let (server, _impostor) = honest_session(&g.data, bind(), hostile_serve_opts(), &rec, |addr| {
        // Claims site 0 and is let in, then never uploads; the honest
        // site 0 sends the second HELLO for that id.
        let mut s = TcpStream::connect(addr).expect("impostor connects");
        let hello = Hello::new(0, N_SITES as u32).encode();
        write_frame(&mut s, &Frame::new(FrameKind::Hello, hello)).expect("write HELLO");
        let reply = read_frame(&mut s, DEFAULT_MAX_FRAME_BYTES).expect("read reply");
        assert_eq!(reply.kind, FrameKind::HelloAck);
        s
    });
    assert_eq!(server.connections, N_SITES as u64 + 1);
}

#[test]
fn oversized_site_count_is_rejected_and_the_fleet_finishes() {
    let g = dataset_c(39);
    let rec = RecordingRecorder::new();
    honest_session(&g.data, bind(), hostile_serve_opts(), &rec, |addr| {
        let mut s = TcpStream::connect(addr).expect("misconfigured peer connects");
        let hello = Hello::new(0, N_SITES as u32 + 1).encode();
        write_frame(&mut s, &Frame::new(FrameKind::Hello, hello)).expect("write HELLO");
        let reply = read_frame(&mut s, DEFAULT_MAX_FRAME_BYTES).expect("read reply");
        assert_eq!(reply.kind, FrameKind::Error);
        let reason = String::from_utf8_lossy(&reply.payload);
        assert!(reason.contains("site count"), "reason: {reason}");
    });
    assert_eq!(rec.counters("net/server").handshake_rejections, 1);
}

/// Two sessions in a row on clones of one listener, the way a
/// long-lived server port is reused: a wake connection left in the
/// backlog by the first session would show in the second as one
/// connection too many.
#[test]
fn consecutive_sessions_on_one_listener_stay_apart() {
    let g = dataset_c(40);
    let listener = bind();
    for session in 0..2 {
        let mut serve_opts = ServeOptions::new(N_SITES, params());
        serve_opts.drain_window = Duration::from_millis(50);
        let clone = listener.try_clone().expect("clone listener");
        let rec = RecordingRecorder::new();
        let (server, ()) = honest_session(&g.data, clone, serve_opts, &rec, |_| ());
        assert_eq!(server.connections, N_SITES as u64, "session {session}");
    }
}
