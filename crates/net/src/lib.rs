//! **dbdc-net** — the real TCP serving layer for DBDC.
//!
//! The core runtime ([`dbdc::runtime`]) executes the whole protocol in
//! one process and *models* the network phases from exact message
//! sizes. This crate runs the same protocol over actual sockets,
//! std-only (no async runtime): a [`serve`]r whose handler threads
//! block in `accept` and serve one site connection at a time, and a
//! [`run_site`] client that clusters its partition, uploads its local
//! model, and relabels against the broadcast global model. Both ends
//! call the runtime's own protocol steps ([`dbdc::step`]) and only add
//! the transport, so labels, models and message bytes are identical to
//! the in-process runtime on the same partitions under every
//! local-phase setting — asserted by the loopback tests.
//!
//! Layering, bottom up:
//!
//! - [`frame`] — length-prefixed, checksummed frames with a session
//!   handshake; the payloads of the model frames are exactly the
//!   [`dbdc::wire`] encodings, so message byte counts match the
//!   in-process runtime's reports.
//! - [`retry`] — bounded retries with exponential backoff.
//! - [`metrics`] — wire-level instrumentation ([`WireMetrics`]): frame
//!   and byte counters per direction and per frame kind, rejection
//!   classification, and frame/session latency histograms, all through
//!   the [`dbdc_obs::Recorder`] trait (zero-cost when disabled).
//! - [`server`] / [`site`] — the two protocol ends. All server-side
//!   operations are idempotent; sites own recovery by replaying the
//!   whole session. The server starts one handler per site and a spare
//!   up front, and another whenever none is left idle in `accept`.
//! - [`fault`] — a deterministic fault-injecting TCP proxy (drop,
//!   delay, truncate, bit-flip) for loopback torture tests.
//! - [`admin`] — an optional HTTP/1.0 admin plane on `--admin-addr`
//!   serving live telemetry (`/metrics`, `/healthz`, `/readyz`,
//!   `/report`) from snapshots of the run's recorder.
//!
//! No listener polls: every accept loop blocks in `accept`, and its
//! owner stops it by setting a flag and waking it with one loopback
//! self-connect.

mod accept;
pub mod admin;
pub mod error;
pub mod fault;
pub mod frame;
pub mod metrics;
pub mod retry;
pub mod server;
pub mod site;

pub use admin::{http_get, AdminServer, AdminState};
pub use error::{FrameError, NetError};
pub use fault::{FaultPlan, FaultProxy, FaultStats, SplitMix64};
pub use frame::{
    decode_frame_body, encode_frame, read_frame, write_frame, Frame, FrameKind, Hello,
    DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use metrics::WireMetrics;
pub use retry::RetryPolicy;
pub use server::{serve, ServeOptions, ServerOutcome};
pub use site::{run_site, SiteOptions, SiteOutcome};
