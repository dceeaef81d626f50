//! One loopback fleet session: `serve` on one thread and one `run_site`
//! thread per site, over real TCP on 127.0.0.1.
//!
//! The loop that calls this is closed: the next session launches only
//! after the previous server has returned, so exactly one fleet is in
//! flight, with one site thread and one connection per site.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use dbdc::{DbdcOutcome, DbdcParams};
use dbdc_geom::{Clustering, Dataset, Label};
use dbdc_net::{run_site, serve, NetError, ServeOptions, ServerOutcome, SiteOptions, SiteOutcome};
use dbdc_obs::Recorder;

/// How long the server keeps serving replays after the last GOODBYE.
/// No fault is injected, so no site replays; the window only delays the
/// server's return, which lies outside the session wall.
const DRAIN_WINDOW: Duration = Duration::from_millis(5);

/// What one session produced, with the instants its spans are built
/// from.
#[derive(Debug)]
pub struct Session {
    /// When the server and site threads were launched.
    pub launched: Instant,
    /// When each site's `run_site` returned, in site order.
    pub site_done: Vec<Instant>,
    /// When `serve` returned.
    pub serve_done: Instant,
    /// The server's result.
    pub server: Result<ServerOutcome, NetError>,
    /// Each site's result, in site order.
    pub sites: Vec<Result<SiteOutcome, NetError>>,
}

impl Session {
    /// Launch until the last `run_site` returned: the session wall.
    pub fn wall(&self) -> Duration {
        self.last_site_done() - self.launched
    }

    /// Last `run_site` return until `serve` returned: the drain.
    pub fn drain(&self) -> Duration {
        self.serve_done
            .saturating_duration_since(self.last_site_done())
    }

    fn last_site_done(&self) -> Instant {
        self.site_done
            .iter()
            .copied()
            .max()
            .unwrap_or(self.launched)
    }

    /// Session retries beyond each site's first attempt.
    pub fn retries(&self) -> u64 {
        self.sites
            .iter()
            .flatten()
            .map(|s| u64::from(s.attempts.saturating_sub(1)))
            .sum()
    }

    /// `Ok` when the session completed cleanly — every party succeeded,
    /// one connection and one attempt per site — and its labels, models
    /// and byte counts equal the in-process `reference` on the same
    /// partitions.
    pub fn check(&self, back: &[Vec<u32>], reference: &DbdcOutcome) -> Result<(), String> {
        let server = self.server.as_ref().map_err(|e| format!("server: {e}"))?;
        let mut sites = Vec::with_capacity(self.sites.len());
        for (i, s) in self.sites.iter().enumerate() {
            sites.push(s.as_ref().map_err(|e| format!("site {i}: {e}"))?);
        }
        if server.connections != sites.len() as u64 {
            return Err(format!(
                "{} connections for {} sites",
                server.connections,
                sites.len()
            ));
        }
        if self.retries() > 0 {
            return Err(format!(
                "{} session retries on a clean link",
                self.retries()
            ));
        }
        let checks = [
            (
                "labels",
                reassemble(reference.assignment.len(), back, &sites) == reference.assignment,
            ),
            ("global model", server.global == reference.global),
            (
                "per-site upload bytes",
                server.per_site_bytes_up == reference.per_site_bytes_up
                    && sites
                        .iter()
                        .zip(&reference.per_site_bytes_up)
                        .all(|(s, &b)| s.bytes_up == b),
            ),
            (
                "broadcast bytes",
                server.global_model_bytes == reference.global_model_bytes
                    && sites
                        .iter()
                        .all(|s| s.bytes_down == reference.global_model_bytes),
            ),
        ];
        match checks.iter().find(|(_, ok)| !ok) {
            None => Ok(()),
            Some((what, _)) => Err(format!("fleet differs from run_dbdc: {what}")),
        }
    }
}

/// Reassembles per-site labels into dataset order, as the runtime does.
fn reassemble(n: usize, back: &[Vec<u32>], sites: &[&SiteOutcome]) -> Clustering {
    let mut full = vec![Label::Noise; n];
    for (ids, site) in back.iter().zip(sites) {
        for (pos, &orig) in ids.iter().enumerate() {
            full[orig as usize] = site.labels.label(pos as u32);
        }
    }
    Clustering::from_labels(full)
}

/// Runs one session on a clone of `listener` (bound once per process,
/// like a long-lived server port) with `parts[i]` on site `i`.
pub fn run_session(
    listener: &TcpListener,
    parts: &[Dataset],
    params: &DbdcParams,
    rec: &dyn Recorder,
) -> Result<Session, String> {
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let server_listener = listener.try_clone().map_err(|e| e.to_string())?;
    let mut serve_opts = ServeOptions::new(parts.len(), *params);
    serve_opts.drain_window = DRAIN_WINDOW;
    let n_sites = parts.len() as u32;
    let launched = Instant::now();
    Ok(std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            let outcome = serve(server_listener, serve_opts, rec);
            (outcome, Instant::now())
        });
        let site_threads: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(i, part)| {
                let opts = SiteOptions::new(i as u32, n_sites, *params);
                scope.spawn(move || {
                    let outcome = run_site(addr, part, &opts, rec);
                    (outcome, Instant::now())
                })
            })
            .collect();
        let (sites, site_done) = site_threads
            .into_iter()
            .map(|h| h.join().expect("site thread panicked"))
            .unzip();
        let (server, serve_done) = server.join().expect("server thread panicked");
        Session {
            launched,
            site_done,
            serve_done,
            server,
            sites,
        }
    }))
}
