//! Live telemetry snapshots over a running [`RecordingRecorder`].
//!
//! Everything else in this crate is post-mortem: reports are assembled
//! after the run ends. A [`TelemetrySnapshot`] is the live counterpart —
//! one point-in-time reading of every counter scope and histogram a
//! recorder holds, plus process identity and uptime, taken with the same
//! relaxed atomic loads the exit-time report uses. Instrumented code is
//! untouched: the snapshot engine only *reads* the sheets the recorder
//! already hands out, and a process running with [`NoopRecorder`]
//! (no `--trace`/`--metrics-out`/`--admin-addr`) never allocates a sheet
//! at all, so the zero-cost-when-off property is preserved.
//!
//! Two consumers sit on top:
//!
//! * the `/metrics` admin endpoint renders a snapshot in Prometheus
//!   text exposition format ([`TelemetrySnapshot::to_prometheus`]) —
//!   counters as monotonic `_total` series, histograms as cumulative
//!   `le`-buckets plus `_sum`/`_count`;
//! * `dbdc-cli watch` scrapes that text, parses it back
//!   ([`TelemetrySnapshot::from_prometheus`], an exact inverse), and
//!   derives rates via [`delta`].
//!
//! **Monotonicity.** Counter sheets only ever `fetch_add` non-negative
//! amounts with relaxed ordering. Relaxed atomics still guarantee a
//! single-location modification order, and loads from one location never
//! travel backwards along it — so two snapshots of the same live sheet
//! taken in order satisfy `prev[cell] <= cur[cell]` for every cell, and
//! [`delta`] is non-negative per cell without any cross-location
//! synchronization. What relaxed ordering does *not* guarantee is
//! cross-cell consistency: a snapshot may see a frame counted in
//! `frames_sent` before its bytes land in `wire_bytes_sent`. Deltas are
//! therefore exact per cell but only approximately simultaneous across
//! cells — fine for rates, which is all they feed.
//!
//! [`NoopRecorder`]: crate::NoopRecorder

use std::sync::Arc;
use std::time::Instant;

use crate::counters::Counters;
use crate::hist::{bucket_bounds, bucket_of, Histogram};
use crate::recorder::RecordingRecorder;

/// Who the snapshotting process is, mirroring the RunReport identity
/// triple (`role`/`run_id`/`peer`) so a scraped snapshot can be joined
/// with exit-time reports from the same fleet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotIdentity {
    /// `"server"`, `"site"`, or `"proxy"`.
    pub role: Option<String>,
    /// The fleet-shared `--run-id`, if one was given.
    pub run_id: Option<String>,
    /// The per-process peer name (`"server"`, `"site[3]"`, …).
    pub peer: Option<String>,
}

/// One point-in-time reading of a recorder: all counter scopes, all
/// non-empty histograms, identity, and uptime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Process identity, for joining with fleet reports.
    pub identity: SnapshotIdentity,
    /// Microseconds since the engine was created (process start, in
    /// practice). Monotonic across snapshots from one engine.
    pub uptime_us: u64,
    /// Counter scopes with their totals, in first-request order.
    pub counters: Vec<(String, Counters)>,
    /// Histogram scopes with their distributions, in first-request
    /// order, empty scopes skipped.
    pub hists: Vec<(String, Histogram)>,
}

/// Takes [`TelemetrySnapshot`]s of one [`RecordingRecorder`].
///
/// Owns an `Arc` of the recorder so admin-listener threads can hold an
/// engine with a `'static` lifetime while the run continues to record.
#[derive(Debug, Clone)]
pub struct SnapshotEngine {
    rec: Arc<RecordingRecorder>,
    started: Instant,
    identity: SnapshotIdentity,
}

impl SnapshotEngine {
    /// An engine over `rec`, with uptime counted from now.
    pub fn new(rec: Arc<RecordingRecorder>) -> SnapshotEngine {
        SnapshotEngine {
            rec,
            started: Instant::now(),
            identity: SnapshotIdentity::default(),
        }
    }

    /// Stamps the identity triple into every snapshot taken.
    pub fn with_identity(
        mut self,
        role: &str,
        run_id: Option<String>,
        peer: &str,
    ) -> SnapshotEngine {
        self.identity = SnapshotIdentity {
            role: Some(role.to_string()),
            run_id,
            peer: Some(peer.to_string()),
        };
        self
    }

    /// The recorder this engine reads.
    pub fn recorder(&self) -> &Arc<RecordingRecorder> {
        &self.rec
    }

    /// The current totals as a plain value.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            identity: self.identity.clone(),
            uptime_us: u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX),
            counters: self.rec.scopes(),
            hists: self.rec.hist_scopes(),
        }
    }
}

/// What happened between two snapshots of the **same engine**, taken in
/// order: counters subtract per cell (saturating — exact and
/// non-negative by per-location monotonicity, see the module docs),
/// histograms subtract bucket-wise via [`Histogram::diff_from`], and
/// scopes that first appeared in `cur` count in full. `uptime_us`
/// becomes the window length, which is what turns the counter cells
/// into rates.
pub fn delta(prev: &TelemetrySnapshot, cur: &TelemetrySnapshot) -> TelemetrySnapshot {
    let counters = cur
        .counters
        .iter()
        .map(|(scope, c)| {
            let base = prev
                .counters
                .iter()
                .find(|(s, _)| s == scope)
                .map(|(_, p)| *p)
                .unwrap_or_default();
            let mut v = c.values();
            for (cell, old) in v.iter_mut().zip(base.values()) {
                *cell = cell.saturating_sub(old);
            }
            (scope.clone(), Counters::from_values(v))
        })
        .collect();
    let hists = cur
        .hists
        .iter()
        .map(|(scope, h)| {
            let base = prev
                .hists
                .iter()
                .find(|(s, _)| s == scope)
                .map(|(_, p)| p.clone())
                .unwrap_or_default();
            (scope.clone(), h.diff_from(&base))
        })
        .collect();
    TelemetrySnapshot {
        identity: cur.identity.clone(),
        uptime_us: cur.uptime_us.saturating_sub(prev.uptime_us),
        counters,
        hists,
    }
}

/// Escapes a Prometheus label value: backslash, double quote, newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Inverse of [`escape_label`].
fn unescape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(ch) = chars.next() {
        if ch == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(ch);
        }
    }
    out
}

impl TelemetrySnapshot {
    /// The counter totals for one scope, if present.
    pub fn counters_for(&self, scope: &str) -> Option<&Counters> {
        self.counters
            .iter()
            .find(|(s, _)| s == scope)
            .map(|(_, c)| c)
    }

    /// The histogram for one scope, if present (and non-empty).
    pub fn hist_for(&self, scope: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(s, _)| s == scope).map(|(_, h)| h)
    }

    /// Field-wise sum of every counter scope.
    pub fn total(&self) -> Counters {
        Counters::sum(self.counters.iter().map(|(_, c)| c))
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (version 0.0.4). Counter fields become one `_total` family each
    /// (`dbdc_frames_sent_total{scope="net/server"} 42`), with **every**
    /// field emitted for **every** scope — including zeros — so the
    /// scope list survives a round trip. Histograms become one shared
    /// `dbdc_hist` family (`_bucket` samples cumulative over the fixed
    /// bucket scheme's upper bounds, plus `_sum`/`_count`), with the
    /// exact side-tracked extremes in the non-standard `dbdc_hist_min`/
    /// `dbdc_hist_max` gauges so [`from_prometheus`] is an exact
    /// inverse. Identity rides in `dbdc_process_info` labels, uptime in
    /// `dbdc_uptime_us`.
    ///
    /// [`from_prometheus`]: TelemetrySnapshot::from_prometheus
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE dbdc_process_info gauge\n");
        out.push_str(&format!(
            "dbdc_process_info{{role=\"{}\",run_id=\"{}\",peer=\"{}\"}} 1\n",
            escape_label(self.identity.role.as_deref().unwrap_or("")),
            escape_label(self.identity.run_id.as_deref().unwrap_or("")),
            escape_label(self.identity.peer.as_deref().unwrap_or("")),
        ));
        out.push_str("# TYPE dbdc_uptime_us gauge\n");
        out.push_str(&format!("dbdc_uptime_us {}\n", self.uptime_us));

        for (f, field) in Counters::FIELDS.iter().enumerate() {
            out.push_str(&format!("# TYPE dbdc_{field}_total counter\n"));
            for (scope, c) in &self.counters {
                out.push_str(&format!(
                    "dbdc_{field}_total{{scope=\"{}\"}} {}\n",
                    escape_label(scope),
                    c.values()[f]
                ));
            }
        }

        if !self.hists.is_empty() {
            out.push_str("# TYPE dbdc_hist histogram\n");
            for (scope, h) in &self.hists {
                let scope_esc = escape_label(scope);
                let mut cum = 0u64;
                for (i, c) in h.nonzero_buckets() {
                    cum += c;
                    let (_, hi) = bucket_bounds(i);
                    out.push_str(&format!(
                        "dbdc_hist_bucket{{scope=\"{scope_esc}\",le=\"{hi}\"}} {cum}\n"
                    ));
                }
                out.push_str(&format!(
                    "dbdc_hist_bucket{{scope=\"{scope_esc}\",le=\"+Inf\"}} {}\n",
                    h.count()
                ));
                out.push_str(&format!(
                    "dbdc_hist_sum{{scope=\"{scope_esc}\"}} {}\n",
                    h.sum()
                ));
                out.push_str(&format!(
                    "dbdc_hist_count{{scope=\"{scope_esc}\"}} {}\n",
                    h.count()
                ));
            }
            out.push_str("# TYPE dbdc_hist_min gauge\n");
            for (scope, h) in &self.hists {
                out.push_str(&format!(
                    "dbdc_hist_min{{scope=\"{}\"}} {}\n",
                    escape_label(scope),
                    h.min()
                ));
            }
            out.push_str("# TYPE dbdc_hist_max gauge\n");
            for (scope, h) in &self.hists {
                out.push_str(&format!(
                    "dbdc_hist_max{{scope=\"{}\"}} {}\n",
                    escape_label(scope),
                    h.max()
                ));
            }
        }
        out
    }

    /// Parses [`to_prometheus`] output back into a snapshot — the exact
    /// inverse: counters, scope order, histograms (bucket-exact, with
    /// the min/max gauges restoring the exact extremes), identity, and
    /// uptime all round-trip. Unknown families are ignored so the
    /// parser tolerates forward-compatible additions.
    ///
    /// [`to_prometheus`]: TelemetrySnapshot::to_prometheus
    pub fn from_prometheus(text: &str) -> Result<TelemetrySnapshot, String> {
        let mut snap = TelemetrySnapshot::default();
        // Scope → field values, in first-seen order (the encoder emits
        // families field-major with a stable scope order, so first-seen
        // order here reproduces the original scope order).
        let mut counters: Vec<(String, [u64; Counters::N])> = Vec::new();
        struct HistAcc {
            cum: Vec<(u64, u64)>, // (le, cumulative count), +Inf excluded
            sum: u64,
            count: u64,
            min: u64,
            max: u64,
        }
        let mut hists: Vec<(String, HistAcc)> = Vec::new();
        let hist_entry = |hists: &mut Vec<(String, HistAcc)>, scope: &str| -> usize {
            if let Some(i) = hists.iter().position(|(s, _)| s == scope) {
                return i;
            }
            hists.push((
                scope.to_string(),
                HistAcc {
                    cum: Vec::new(),
                    sum: 0,
                    count: 0,
                    min: 0,
                    max: 0,
                },
            ));
            hists.len() - 1
        };

        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {line}", lineno + 1);
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| err("expected `series value`"))?;
            let (name, labels) = match series.split_once('{') {
                Some((name, rest)) => {
                    let rest = rest
                        .strip_suffix('}')
                        .ok_or_else(|| err("unterminated label set"))?;
                    (name, parse_labels(rest).map_err(|e| err(&e))?)
                }
                None => (series, Vec::new()),
            };
            let label = |key: &str| {
                labels
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
            };
            let parse_u64 = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| err("non-integer sample value"))
            };

            if name == "dbdc_process_info" {
                let opt = |key: &str| label(key).filter(|v| !v.is_empty());
                snap.identity = SnapshotIdentity {
                    role: opt("role"),
                    run_id: opt("run_id"),
                    peer: opt("peer"),
                };
            } else if name == "dbdc_uptime_us" {
                snap.uptime_us = parse_u64(value)?;
            } else if let Some(field) = name
                .strip_prefix("dbdc_")
                .and_then(|n| n.strip_suffix("_total"))
            {
                let Some(f) = Counters::FIELDS.iter().position(|&k| k == field) else {
                    continue; // unknown counter family: forward-compat
                };
                let scope = label("scope").ok_or_else(|| err("counter without scope label"))?;
                let i = match counters.iter().position(|(s, _)| *s == scope) {
                    Some(i) => i,
                    None => {
                        counters.push((scope, [0u64; Counters::N]));
                        counters.len() - 1
                    }
                };
                counters[i].1[f] = parse_u64(value)?;
            } else if name == "dbdc_hist_bucket" {
                let scope = label("scope").ok_or_else(|| err("bucket without scope label"))?;
                let le = label("le").ok_or_else(|| err("bucket without le label"))?;
                let i = hist_entry(&mut hists, &scope);
                if le != "+Inf" {
                    let le = le.parse::<u64>().map_err(|_| err("non-integer le"))?;
                    hists[i].1.cum.push((le, parse_u64(value)?));
                }
            } else if let Some(part) = name.strip_prefix("dbdc_hist_") {
                let scope = label("scope").ok_or_else(|| err("hist series without scope"))?;
                let i = hist_entry(&mut hists, &scope);
                let v = parse_u64(value)?;
                match part {
                    "sum" => hists[i].1.sum = v,
                    "count" => hists[i].1.count = v,
                    "min" => hists[i].1.min = v,
                    "max" => hists[i].1.max = v,
                    _ => {}
                }
            }
        }

        snap.counters = counters
            .into_iter()
            .map(|(scope, v)| (scope, Counters::from_values(v)))
            .collect();
        for (scope, acc) in hists {
            let mut prev = 0u64;
            let mut buckets = Vec::with_capacity(acc.cum.len());
            for (le, cum) in acc.cum {
                let c = cum
                    .checked_sub(prev)
                    .ok_or_else(|| format!("hist {scope:?}: non-cumulative bucket at le={le}"))?;
                prev = cum;
                if c > 0 {
                    buckets.push((bucket_of(le), c));
                }
            }
            let h = Histogram::from_parts(acc.count, acc.sum, acc.min, acc.max, buckets)
                .map_err(|e| format!("hist {scope:?}: {e}"))?;
            snap.hists.push((scope, h));
        }
        Ok(snap)
    }
}

/// Parses a Prometheus label body (`k="v",k2="v2"`) with escapes.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without `=`")?;
        let key = rest[..eq].trim().to_string();
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value not quoted")?;
        // Find the closing quote, skipping escaped characters.
        let mut end = None;
        let mut escaped = false;
        for (i, ch) in rest.char_indices() {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                end = Some(i);
                break;
            }
        }
        let end = end.ok_or("unterminated label value")?;
        labels.push((key, unescape_label(&rest[..end])));
        rest = &rest[end + 1..];
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use proptest::prelude::*;

    fn engine_with_traffic() -> SnapshotEngine {
        let rec = Arc::new(RecordingRecorder::new());
        {
            let r: &dyn Recorder = &*rec;
            let s = r.sheet("net/server").unwrap();
            s.add_frame_sent(23, 10);
            s.add_frame_sent(40, 27);
            s.add_retry(std::time::Duration::from_nanos(1500));
            r.sheet("local[0]").unwrap().record_range(100, 7);
            let h = r.hist("net/session_ns").unwrap();
            h.record(900);
            h.record(1_000_000);
            h.record(17);
        }
        SnapshotEngine::new(rec).with_identity("server", Some("r1".into()), "server")
    }

    #[test]
    fn snapshot_reads_scopes_hists_and_identity() {
        let eng = engine_with_traffic();
        let snap = eng.snapshot();
        assert_eq!(snap.identity.role.as_deref(), Some("server"));
        assert_eq!(snap.identity.run_id.as_deref(), Some("r1"));
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.counters_for("net/server").unwrap().frames_sent, 2);
        assert_eq!(snap.counters_for("net/server").unwrap().wire_bytes_sent, 63);
        assert_eq!(snap.counters_for("local[0]").unwrap().range_queries, 1);
        assert_eq!(snap.hist_for("net/session_ns").unwrap().count(), 3);
        assert_eq!(snap.total().frames_sent, 2);
        assert_eq!(snap.total().range_queries, 1);
    }

    #[test]
    fn delta_subtracts_per_cell_and_counts_new_scopes_in_full() {
        let eng = engine_with_traffic();
        let a = eng.snapshot();
        {
            let r: &dyn Recorder = &**eng.recorder();
            r.sheet("net/server").unwrap().add_frame_sent(13, 0);
            r.sheet("relabel[0]").unwrap().record_range(5, 1);
            r.hist("net/session_ns").unwrap().record(40);
        }
        let b = eng.snapshot();
        let d = delta(&a, &b);
        let net = d.counters_for("net/server").unwrap();
        assert_eq!(net.frames_sent, 1);
        assert_eq!(net.wire_bytes_sent, 13);
        assert_eq!(net.retries, 0);
        // Untouched scope deltas to zero; new scope counts in full.
        assert!(d.counters_for("local[0]").unwrap().is_zero());
        assert_eq!(d.counters_for("relabel[0]").unwrap().range_queries, 1);
        // Histogram window: exactly the one new sample.
        let h = d.hist_for("net/session_ns").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 40);
        assert!(d.uptime_us <= b.uptime_us);
    }

    #[test]
    fn delta_of_identical_snapshots_is_zero() {
        let eng = engine_with_traffic();
        let a = eng.snapshot();
        let d = delta(&a, &a);
        assert!(d.total().is_zero());
        assert_eq!(d.uptime_us, 0);
        for (_, h) in &d.hists {
            assert!(h.is_empty());
        }
    }

    #[test]
    fn prometheus_round_trip_is_exact() {
        let eng = engine_with_traffic();
        let snap = eng.snapshot();
        let text = snap.to_prometheus();
        assert!(text.contains("dbdc_frames_sent_total{scope=\"net/server\"} 2"));
        assert!(text.contains("dbdc_hist_bucket{scope=\"net/session_ns\",le=\"+Inf\"} 3"));
        assert!(text.contains("# TYPE dbdc_wire_bytes_sent_total counter"));
        let back = TelemetrySnapshot::from_prometheus(&text).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn prometheus_round_trip_survives_hostile_scope_names() {
        let rec = Arc::new(RecordingRecorder::new());
        let scope = "weird\"scope\\with\nnewline";
        (&*rec as &dyn Recorder)
            .sheet(scope)
            .unwrap()
            .add_to(crate::Counter::bytes_sent, 7);
        let snap = SnapshotEngine::new(rec).snapshot();
        let back = TelemetrySnapshot::from_prometheus(&snap.to_prometheus()).expect("parse");
        assert_eq!(back, snap);
        assert_eq!(back.counters_for(scope).unwrap().bytes_sent, 7);
    }

    #[test]
    fn empty_recorder_round_trips_too() {
        let snap = SnapshotEngine::new(Arc::new(RecordingRecorder::new())).snapshot();
        let back = TelemetrySnapshot::from_prometheus(&snap.to_prometheus()).expect("parse");
        assert_eq!(back, snap);
        assert!(back.counters.is_empty());
        assert!(back.hists.is_empty());
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(TelemetrySnapshot::from_prometheus("dbdc_uptime_us").is_err());
        assert!(TelemetrySnapshot::from_prometheus("dbdc_uptime_us abc").is_err());
        assert!(
            TelemetrySnapshot::from_prometheus("dbdc_frames_sent_total{scope=\"x\"} 1\n").is_ok()
        );
        assert!(TelemetrySnapshot::from_prometheus(
            "dbdc_frames_sent_total{scope=\"unterminated} 1\n"
        )
        .is_err());
        // Non-cumulative buckets are rejected.
        let bad = "dbdc_hist_bucket{scope=\"s\",le=\"5\"} 4\n\
                   dbdc_hist_bucket{scope=\"s\",le=\"9\"} 2\n\
                   dbdc_hist_count{scope=\"s\"} 4\n";
        assert!(TelemetrySnapshot::from_prometheus(bad).is_err());
    }

    #[test]
    fn parser_ignores_unknown_families() {
        let text = "# HELP something else\n\
                    go_goroutines 12\n\
                    dbdc_future_field_total{scope=\"x\"} 3\n\
                    dbdc_uptime_us 55\n";
        let snap = TelemetrySnapshot::from_prometheus(text).expect("parse");
        assert_eq!(snap.uptime_us, 55);
        assert!(snap.counters.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The golden report's counters and histograms as an exposition,
        /// with a few sample values overwritten by arbitrary `u64`s: the
        /// parser succeeds or fails cleanly, and what parses re-renders
        /// and answers p50/p90 without a panic (a torn live scrape can
        /// hold a histogram whose min exceeds its max).
        #[test]
        fn doctored_exposition_parses_and_renders_without_panic(
            subs in prop::collection::vec((any::<usize>(), 0u32..64, any::<u64>()), 1..4),
        ) {
            let golden = crate::RunReport::parse(include_str!("../tests/golden/run_report.json"))
                .unwrap();
            let snap = TelemetrySnapshot {
                counters: golden.scopes,
                hists: golden.hists,
                ..TelemetrySnapshot::default()
            };
            let mut lines: Vec<String> = snap.to_prometheus().lines().map(str::to_string).collect();
            let samples: Vec<usize> =
                (0..lines.len()).filter(|&i| !lines[i].starts_with('#')).collect();
            for (pick, shift, bits) in subs {
                let line = &mut lines[samples[pick % samples.len()]];
                let series = line.rsplit_once(' ').unwrap().0.to_string();
                *line = format!("{series} {}", bits >> shift);
            }
            if let Ok(parsed) = TelemetrySnapshot::from_prometheus(&lines.join("\n")) {
                let _ = parsed.to_prometheus();
                for (_, h) in &parsed.hists {
                    let _ = (h.p50(), h.p90());
                }
            }
        }
    }
}
