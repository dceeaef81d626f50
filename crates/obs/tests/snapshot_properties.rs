//! Properties of the live telemetry plane: the Prometheus exposition
//! encoder is exactly invertible, snapshot deltas taken in order from
//! one live recorder are non-negative in every cell, and every counter
//! the table declares survives the sheet, JSON and Prometheus in its
//! own field.

use std::sync::Arc;

use dbdc_obs::report::{counters_from_json, counters_to_json};
use dbdc_obs::snapshot::{delta, SnapshotEngine, TelemetrySnapshot};
use dbdc_obs::{Counter, CounterSheet, Counters, Json, Recorder, RecordingRecorder};
use proptest::prelude::*;

/// A small fixed pool of scope names shaped like the real ones,
/// including characters the label escaper must handle.
const SCOPES: [&str; 5] = [
    "net/server",
    "net/site[0]/LOCAL_MODEL",
    "local[3]",
    "shared",
    "odd\"name\\with/escapes",
];

const HIST_SCOPES: [&str; 3] = ["net/frame_write_ns", "net/session_ns", "dsu_batch_ops"];

/// One recorded operation: which scope, and what to add where.
type Op = (usize, usize, u64, u64);

/// Applies `ops` to a live recorder the way instrumented code would:
/// counter adds spread over several accessor kinds — including
/// `add_to` on any counter, so every field takes part — plus histogram
/// samples.
fn apply_ops(rec: &dyn Recorder, ops: &[Op]) {
    for &(scope, kind, a, b) in ops {
        let sheet = rec.sheet(SCOPES[scope % SCOPES.len()]).unwrap();
        match kind % 5 {
            0 => sheet.add_frame_sent(a, b.min(a)),
            1 => sheet.record_range(a, b),
            2 => sheet.add_retry(std::time::Duration::from_nanos(a)),
            3 => sheet.add_faults(a % 3, b % 3, a % 2, b % 2),
            _ => sheet.add_to(Counter::ALL[b as usize % Counters::N], a),
        }
        if kind % 3 == 0 {
            rec.hist(HIST_SCOPES[scope % HIST_SCOPES.len()])
                .unwrap()
                .record(a.wrapping_mul(31) % 1_000_000);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rendering a snapshot to Prometheus text and parsing it back
    /// reproduces the snapshot exactly: every counter cell, the scope
    /// order, every histogram bucket, identity, and uptime.
    #[test]
    fn exposition_round_trip_is_exact(
        ops in prop::collection::vec((0usize..8, 0usize..10, 0u64..100_000, 0u64..1_000), 0..60),
        with_identity in prop::bool::ANY,
    ) {
        let rec = Arc::new(RecordingRecorder::new());
        apply_ops(&*rec, &ops);
        let engine = if with_identity {
            SnapshotEngine::new(rec).with_identity("server", Some("run-7".into()), "server")
        } else {
            SnapshotEngine::new(rec)
        };
        let snap = engine.snapshot();
        let text = snap.to_prometheus();
        let back = TelemetrySnapshot::from_prometheus(&text).expect("parse own output");
        prop_assert_eq!(&back.counters, &snap.counters);
        prop_assert_eq!(&back.hists, &snap.hists);
        prop_assert_eq!(&back.identity, &snap.identity);
        prop_assert_eq!(back.uptime_us, snap.uptime_us);
    }

    /// Snapshots of one live engine taken in order only ever grow:
    /// `delta(a, b)` is non-negative per cell for ANY ordered pair from
    /// the sequence, not just adjacent ones — the per-location
    /// monotonicity guarantee the watch renderer's rates rely on.
    #[test]
    fn delta_is_non_negative_per_cell(
        batches in prop::collection::vec(
            prop::collection::vec((0usize..8, 0usize..10, 0u64..100_000, 0u64..1_000), 0..10),
            1..8,
        ),
        pick in (0usize..64, 0usize..64),
    ) {
        let rec = Arc::new(RecordingRecorder::new());
        let engine = SnapshotEngine::new(Arc::clone(&rec));
        let mut snaps = vec![engine.snapshot()];
        for batch in &batches {
            apply_ops(&*rec, batch);
            snaps.push(engine.snapshot());
        }
        let i = pick.0 % snaps.len();
        let j = pick.1 % snaps.len();
        let (i, j) = (i.min(j), i.max(j));
        let d = delta(&snaps[i], &snaps[j]);
        // Saturating subtraction can only mask a violation by producing
        // zero where the true difference was negative — so check the
        // cells really are cur - prev, per scope and field.
        for (scope, dc) in &d.counters {
            let cur = snaps[j].counters_for(scope).expect("scope in cur");
            let prev = snaps[i].counters_for(scope).copied().unwrap_or_default();
            for ((dv, cv), pv) in dc.values().iter().zip(cur.values()).zip(prev.values()) {
                prop_assert!(cv >= pv, "cell went backwards in {}", scope);
                prop_assert_eq!(*dv, cv - pv);
            }
        }
        prop_assert!(d.uptime_us <= snaps[j].uptime_us);
        // Histogram windows shrink to exactly the samples in between.
        for (scope, dh) in &d.hists {
            let cur = snaps[j].hist_for(scope).expect("hist in cur");
            let prev_count = snaps[i].hist_for(scope).map(|h| h.count()).unwrap_or(0);
            prop_assert_eq!(dh.count(), cur.count() - prev_count);
        }
        // Adjacent deltas telescope: summing the windows reproduces the
        // endpoints' difference in every counter cell.
        if snaps.len() >= 2 {
            let mut acc = vec![0u64; Counters::N];
            for w in snaps.windows(2) {
                let d = delta(&w[0], &w[1]);
                for (cell, v) in acc.iter_mut().zip(d.total().values()) {
                    *cell += v;
                }
            }
            let full = delta(&snaps[0], &snaps[snaps.len() - 1]);
            prop_assert_eq!(acc, full.total().values().to_vec());
        }
    }
}

/// Walks the whole counter table: for each counter a one-hot value
/// lands in its own field through both `add_to` and a whole-snapshot
/// `add`, round-trips through the JSON codec and the Prometheus
/// exposition, and dropping its JSON key fails exactly for the core
/// fields every schema version carries.
#[test]
fn every_counter_round_trips_on_its_own() {
    for (f, (&id, name)) in Counter::ALL.iter().zip(Counters::FIELDS).enumerate() {
        let mut v = [0u64; Counters::N];
        v[f] = 1_000 + f as u64;
        let one_hot = Counters::from_values(v);

        let by_id = CounterSheet::new();
        by_id.add_to(id, v[f]);
        assert_eq!(by_id.snapshot(), one_hot, "add_to({id:?})");

        let rec = Arc::new(RecordingRecorder::new());
        rec.sheet("scope").unwrap().add(&one_hot);
        let snap = SnapshotEngine::new(Arc::clone(&rec)).snapshot();
        assert_eq!(snap.counters_for("scope"), Some(&one_hot), "{name}");

        let json = counters_to_json(&one_hot);
        assert_eq!(counters_from_json(&json), Ok(one_hot), "{name}");
        let back = TelemetrySnapshot::from_prometheus(&snap.to_prometheus()).expect("parse");
        assert_eq!(back.counters_for("scope"), Some(&one_hot), "{name}");

        let Json::Obj(pairs) = json else {
            panic!("counters serialize as an object")
        };
        let without = Json::Obj(pairs.into_iter().filter(|(k, _)| k != name).collect());
        match counters_from_json(&without) {
            Err(e) => {
                assert!(f < Counters::CORE_FIELDS, "{name} is optional: {e}");
                assert_eq!(e, format!("counters missing {name:?}"));
            }
            Ok(c) => {
                assert!(f >= Counters::CORE_FIELDS, "{name} is required");
                assert!(c.is_zero(), "{name} reads as 0 when absent");
            }
        }
    }
}
