//! Chrome-trace (`trace_event`) export of a report's span forest.
//!
//! `chrome://tracing` and Perfetto both read the "JSON Array Format":
//! an object with a `traceEvents` array of `"ph": "X"` complete events
//! (microsecond `ts`/`dur`) plus `"ph": "M"` metadata naming each
//! process. This module renders a [`RunReport`]'s spans in that shape,
//! one pid per process, so a distributed run opens as a causally
//! ordered flame timeline.
//!
//! Spans only carry durations plus (since schema v3) an optional
//! explicit start offset, so absolute times are *derived*: sequential
//! children are laid out one after another from the parent's start,
//! and explicit-start children are placed at `parent_start + start`
//! without advancing the sequential cursor (they ran concurrently —
//! server-side per-connection handshakes, site session sub-phases).
//!
//! For a merged report (root `dbdc_distributed`, see
//! [`crate::merge`]), each process first gets its own local timeline
//! starting at 0, then site timelines are shifted so each site's
//! `handshake` span starts when the server's matching `handshake[i]`
//! span starts. The two windows are not the same physical interval —
//! the site's runs HELLO-write→ACK-read, the server's HELLO-read→ACK-
//! write, so the alignment is off by roughly one network latency and
//! inherits whatever clock skew the measurement had; it is a causal
//! anchor, not NTP. Finally every timestamp is normalized so the
//! earliest event sits at 0 (offsets may be negative before this).

use crate::json::Json;
use crate::report::RunReport;
use crate::span::Span;

/// One flattened `"ph": "X"` event, timestamps in signed µs until the
/// final normalization.
struct Event {
    name: String,
    ts: i64,
    dur: u64,
    pid: u64,
    tid: u64,
    threads: usize,
    modeled: bool,
}

/// Renders the report's span forest as Chrome `trace_event` JSON.
/// Errors only when the report carries no spans at all.
pub fn chrome_trace(report: &RunReport) -> Result<Json, String> {
    if report.spans.is_empty() {
        return Err("report has no spans to export".into());
    }

    // Split the forest into processes. A merged report declares them
    // via the dbdc_distributed root; any other report is one process.
    let mut processes: Vec<(String, Vec<&Span>)> = Vec::new();
    let root = &report.spans[0];
    if root.name == "dbdc_distributed" && report.spans.len() == 1 {
        for child in &root.children {
            if child.name.starts_with("site[") {
                // The wrapper is bookkeeping, not a phase: export its
                // children (the site's real tree) under the site pid.
                processes.push((child.name.clone(), child.children.iter().collect()));
            } else {
                processes.push(("server".into(), vec![child]));
            }
        }
    } else {
        let name = report
            .peer
            .clone()
            .unwrap_or_else(|| report.command.clone());
        processes.push((name, report.spans.iter().collect()));
    }

    // Lay out every process on its own local clock first.
    let mut per_proc: Vec<(String, Vec<Event>)> = Vec::new();
    for (pid0, (name, trees)) in processes.into_iter().enumerate() {
        let pid = pid0 as u64 + 1;
        let mut events = Vec::new();
        let mut cursor = 0i64;
        for tree in trees {
            layout(tree, cursor, pid, 1, &mut events);
            cursor += tree.wall.as_micros() as i64;
        }
        per_proc.push((name, events));
    }

    // Clock alignment: shift each site so its handshake start matches
    // the server's handshake[i] start. Without a matching pair the
    // site stays on the server's zero — still viewable, just unanchored.
    let server_handshakes: Vec<(String, i64)> = per_proc
        .first()
        .map(|(_, events)| {
            events
                .iter()
                .filter(|e| e.name.starts_with("handshake["))
                .map(|e| (e.name.clone(), e.ts))
                .collect()
        })
        .unwrap_or_default();
    for (name, events) in per_proc.iter_mut().skip(1) {
        let idx = name
            .strip_prefix("site[")
            .and_then(|r| r.strip_suffix(']'))
            .unwrap_or("");
        let anchor = server_handshakes
            .iter()
            .find(|(n, _)| n == &format!("handshake[{idx}]"))
            .map(|&(_, ts)| ts);
        let local = events.iter().find(|e| e.name == "handshake").map(|e| e.ts);
        if let (Some(server_ts), Some(site_ts)) = (anchor, local) {
            let offset = server_ts - site_ts;
            for e in events.iter_mut() {
                e.ts += offset;
            }
        }
    }

    // Normalize so the earliest event is t=0 (alignment offsets can
    // push site-local prologues before the server's zero).
    let min_ts = per_proc
        .iter()
        .flat_map(|(_, ev)| ev.iter().map(|e| e.ts))
        .min()
        .unwrap_or(0);

    let mut trace = Vec::new();
    for (pid0, (name, events)) in per_proc.iter().enumerate() {
        let pid = pid0 as u64 + 1;
        trace.push(Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::num_u64(pid)),
            ("tid", Json::num_u64(0)),
            ("args", Json::obj([("name", Json::str(name))])),
        ]));
        for e in events {
            trace.push(Json::obj([
                ("name", Json::str(&e.name)),
                ("cat", Json::str("dbdc")),
                ("ph", Json::str("X")),
                ("ts", Json::num_u64((e.ts - min_ts) as u64)),
                ("dur", Json::num_u64(e.dur)),
                ("pid", Json::num_u64(e.pid)),
                ("tid", Json::num_u64(e.tid)),
                (
                    "args",
                    Json::obj([
                        ("threads", Json::num_u64(e.threads as u64)),
                        ("modeled", Json::Bool(e.modeled)),
                    ]),
                ),
            ]));
        }
    }
    Ok(Json::obj([
        ("traceEvents", Json::Arr(trace)),
        ("displayTimeUnit", Json::str("ms")),
    ]))
}

/// Emits `span` at absolute time `ts` and derives its children's
/// positions: sequential children advance a cursor, explicit-start
/// children sit at `ts + start` on their own track.
fn layout(span: &Span, ts: i64, pid: u64, tid: u64, out: &mut Vec<Event>) {
    out.push(Event {
        name: span.name.clone(),
        ts,
        dur: span.wall.as_micros() as u64,
        pid,
        tid,
        threads: span.threads,
        modeled: span.modeled,
    });
    let mut cursor = ts;
    for child in &span.children {
        match child.start {
            Some(start) => {
                let child_ts = ts + start.as_micros() as i64;
                layout(child, child_ts, pid, track_for(child).unwrap_or(tid), out);
            }
            None => {
                layout(child, cursor, pid, tid, out);
                cursor += child.wall.as_micros() as i64;
            }
        }
    }
}

/// Concurrent spans named `name[k]` (the server's per-connection
/// handshakes) get their own track `2 + k`, mirroring that each open
/// connection runs on its own handler thread and keeping same-track
/// complete events from partially overlapping, which trace viewers
/// render badly.
fn track_for(span: &Span) -> Option<u64> {
    let open = span.name.rfind('[')?;
    let idx: u64 = span.name[open + 1..].strip_suffix(']')?.parse().ok()?;
    Some(2 + idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_reports;
    use std::time::Duration;

    fn event_list(trace: &Json) -> &[Json] {
        trace.get("traceEvents").and_then(Json::as_arr).unwrap()
    }

    fn find<'a>(events: &'a [Json], name: &str) -> &'a Json {
        events
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some(name)
                    && e.get("ph").and_then(Json::as_str) == Some("X")
            })
            .unwrap_or_else(|| panic!("no X event named {name}"))
    }

    fn u(e: &Json, key: &str) -> u64 {
        e.get(key).and_then(Json::as_u64).unwrap()
    }

    fn site_report(i: usize, handshake_at: u64) -> RunReport {
        let mut r =
            RunReport::new("site").with_identity("site", Some("r".into()), format!("site[{i}]"));
        let mut session = Span::new("session", Duration::from_micros(5_000));
        session.push(
            Span::new("handshake", Duration::from_micros(400))
                .with_start(Duration::from_micros(handshake_at)),
        );
        session.push(
            Span::new("upload", Duration::from_micros(1_000))
                .with_start(Duration::from_micros(handshake_at + 400)),
        );
        let mut root = Span::new("dbdc_site", Duration::from_micros(8_000));
        root.push(Span::new(
            format!("local[{i}]"),
            Duration::from_micros(3_000),
        ));
        root.push(session);
        r.spans = vec![root];
        r
    }

    fn server_report(n: usize) -> RunReport {
        let mut r = RunReport::new("serve").with_identity("server", Some("r".into()), "server");
        let mut root = Span::new("dbdc_serve", Duration::from_micros(20_000));
        for i in 0..n {
            root.push(
                Span::new(format!("handshake[{i}]"), Duration::from_micros(300))
                    .with_start(Duration::from_micros(1_000 + 500 * i as u64)),
            );
        }
        root.push(Span::new("upload", Duration::from_micros(9_000)));
        root.push(Span::new("global", Duration::from_micros(2_000)));
        r.spans = vec![root];
        r
    }

    #[test]
    fn sequential_layout_packs_siblings_back_to_back() {
        let mut r = RunReport::new("run");
        let mut root = Span::new("dbdc", Duration::from_micros(1_000));
        root.push(Span::new("a", Duration::from_micros(300)));
        root.push(Span::new("b", Duration::from_micros(200)));
        r.spans = vec![root];
        let trace = chrome_trace(&r).expect("trace");
        let events = event_list(&trace);
        assert_eq!(u(find(events, "a"), "ts"), 0);
        assert_eq!(u(find(events, "b"), "ts"), 300);
        assert_eq!(u(find(events, "b"), "dur"), 200);
        // Single process: every event is pid 1.
        assert!(events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .all(|e| u(e, "pid") == 1));
    }

    #[test]
    fn merged_report_gets_one_pid_per_process_and_aligned_clocks() {
        let server = server_report(2);
        let sites = [site_report(0, 100), site_report(1, 250)];
        let (merged, _) = merge_reports(&server, &[&sites[0], &sites[1]]).expect("merge");
        let trace = chrome_trace(&merged).expect("trace");
        let events = event_list(&trace);

        // One pid per process, named.
        let mut pids: Vec<u64> = events.iter().map(|e| u(e, "pid")).collect();
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids, [1, 2, 3]);
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap()
            })
            .collect();
        assert_eq!(names, ["server", "site[0]", "site[1]"]);

        // The site handshake is pinned to the server's handshake[i].
        assert_eq!(
            u(find(events, "handshake[0]"), "ts"),
            u(
                events
                    .iter()
                    .find(
                        |e| e.get("name").and_then(Json::as_str) == Some("handshake")
                            && u(e, "pid") == 2
                    )
                    .unwrap(),
                "ts"
            ),
        );

        // Site upload spans land inside the server's serve window.
        let serve = find(events, "dbdc_serve");
        let (s0, s1) = (u(serve, "ts"), u(serve, "ts") + u(serve, "dur"));
        for pid in [2u64, 3] {
            let up = events
                .iter()
                .find(|e| {
                    e.get("name").and_then(Json::as_str) == Some("upload") && u(e, "pid") == pid
                })
                .expect("site upload event");
            assert!(u(up, "ts") >= s0 && u(up, "ts") + u(up, "dur") <= s1);
        }

        // Concurrent handshakes sit on their own server tracks.
        assert_eq!(u(find(events, "handshake[0]"), "tid"), 2);
        assert_eq!(u(find(events, "handshake[1]"), "tid"), 3);
    }

    #[test]
    fn negative_offsets_normalize_to_zero_based_time() {
        // Site 0's handshake happens late on its local clock (long
        // local phase), so alignment shifts its prologue before the
        // server's zero; normalization must keep all ts unsigned.
        let server = server_report(1);
        let site = site_report(0, 4_000);
        let (merged, _) = merge_reports(&server, &[&site]).expect("merge");
        let trace = chrome_trace(&merged).expect("trace");
        let events = event_list(&trace);
        let min = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| u(e, "ts"))
            .min()
            .unwrap();
        assert_eq!(min, 0);
        // The server root no longer sits at 0: the site's prologue does.
        assert!(u(find(events, "dbdc_serve"), "ts") > 0);
    }

    #[test]
    fn empty_report_is_an_error() {
        assert!(chrome_trace(&RunReport::new("x")).is_err());
    }
}
