//! The capture policy: who gets counter sheets, and where spans go.
//!
//! Instrumented code takes a `&dyn Recorder` and asks it for a
//! [`CounterSheet`] per named scope (`local[0]`, `global`,
//! `relabel[2]`, …). The [`NoopRecorder`] answers `None` for every
//! scope — the hot paths then skip all atomic traffic, which is what
//! keeps uninstrumented runs at full speed. The [`RecordingRecorder`]
//! hands out one shared sheet per scope (the same `Arc` for repeated
//! requests) and collects finished span trees for the report emitters.

use std::sync::{Arc, Mutex};

use crate::counters::{CounterSheet, Counters};
use crate::hist::{HistSheet, Histogram};
use crate::span::Span;

/// Decides whether observability data is captured.
///
/// The default method bodies implement the no-op policy, so a recorder
/// only has to override what it actually captures.
pub trait Recorder: Send + Sync {
    /// Whether this recorder captures anything at all. Callers may use
    /// this to skip report assembly entirely.
    fn is_enabled(&self) -> bool {
        false
    }

    /// The counter sheet for a named scope, or `None` to disable
    /// counting in that scope. Repeated calls with the same scope must
    /// return the same sheet.
    fn sheet(&self, _scope: &str) -> Option<Arc<CounterSheet>> {
        None
    }

    /// The latency/size histogram sheet for a named scope (by
    /// convention suffixed with its unit, e.g. `local[0]/eps_range_ns`),
    /// or `None` to disable distribution capture in that scope.
    /// Repeated calls with the same scope must return the same sheet.
    fn hist(&self, _scope: &str) -> Option<Arc<HistSheet>> {
        None
    }

    /// Accepts a finished span tree.
    fn record_span(&self, _span: Span) {}
}

/// Captures nothing; every instrumented path sees `None` sheets.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Captures counter scopes and span trees for report assembly.
///
/// Scopes are few (a handful per site), so a scanned `Vec` keyed by
/// name — which also preserves first-request order for reports — beats
/// a map here.
#[derive(Debug, Default)]
pub struct RecordingRecorder {
    sheets: Mutex<Vec<(String, Arc<CounterSheet>)>>,
    hists: Mutex<Vec<(String, Arc<HistSheet>)>>,
    spans: Mutex<Vec<Span>>,
}

impl RecordingRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// All scopes with their counter snapshots, in first-request order.
    pub fn scopes(&self) -> Vec<(String, Counters)> {
        self.sheets
            .lock()
            .expect("recorder lock")
            .iter()
            .map(|(name, sheet)| (name.clone(), sheet.snapshot()))
            .collect()
    }

    /// The counter snapshot for one scope; zero if never requested.
    pub fn counters(&self, scope: &str) -> Counters {
        self.sheets
            .lock()
            .expect("recorder lock")
            .iter()
            .find(|(name, _)| name == scope)
            .map(|(_, sheet)| sheet.snapshot())
            .unwrap_or_default()
    }

    /// All histogram scopes with their snapshots, in first-request
    /// order, skipping scopes that never recorded a sample.
    pub fn hist_scopes(&self) -> Vec<(String, Histogram)> {
        self.hists
            .lock()
            .expect("recorder lock")
            .iter()
            .map(|(name, sheet)| (name.clone(), sheet.snapshot()))
            .filter(|(_, h)| !h.is_empty())
            .collect()
    }

    /// The histogram snapshot for one scope; empty if never requested.
    pub fn histogram(&self, scope: &str) -> Histogram {
        self.hists
            .lock()
            .expect("recorder lock")
            .iter()
            .find(|(name, _)| name == scope)
            .map(|(_, sheet)| sheet.snapshot())
            .unwrap_or_default()
    }

    /// The span trees recorded so far, in arrival order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("recorder lock").clone()
    }
}

impl Recorder for RecordingRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn sheet(&self, scope: &str) -> Option<Arc<CounterSheet>> {
        let mut sheets = self.sheets.lock().expect("recorder lock");
        if let Some((_, sheet)) = sheets.iter().find(|(name, _)| name == scope) {
            return Some(Arc::clone(sheet));
        }
        let sheet = Arc::new(CounterSheet::new());
        sheets.push((scope.to_string(), Arc::clone(&sheet)));
        Some(sheet)
    }

    fn hist(&self, scope: &str) -> Option<Arc<HistSheet>> {
        let mut hists = self.hists.lock().expect("recorder lock");
        if let Some((_, sheet)) = hists.iter().find(|(name, _)| name == scope) {
            return Some(Arc::clone(sheet));
        }
        let sheet = Arc::new(HistSheet::new());
        hists.push((scope.to_string(), Arc::clone(&sheet)));
        Some(sheet)
    }

    fn record_span(&self, span: Span) {
        self.spans.lock().expect("recorder lock").push(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn noop_hands_out_nothing() {
        let rec = NoopRecorder;
        assert!(!rec.is_enabled());
        assert!(rec.sheet("local[0]").is_none());
        assert!(rec.hist("local[0]/eps_range_ns").is_none());
        rec.record_span(Span::new("dbdc", Duration::ZERO)); // silently dropped
    }

    #[test]
    fn hist_scopes_share_sheets_and_skip_idle_scopes() {
        let rec = RecordingRecorder::new();
        let a = rec.hist("local[0]/eps_range_ns").unwrap();
        let b = rec.hist("local[0]/eps_range_ns").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        a.record(100);
        b.record(300);
        rec.hist("never_recorded_ns").unwrap(); // requested but idle
        let scopes = rec.hist_scopes();
        assert_eq!(scopes.len(), 1);
        assert_eq!(scopes[0].0, "local[0]/eps_range_ns");
        assert_eq!(scopes[0].1.count(), 2);
        assert_eq!(rec.histogram("local[0]/eps_range_ns").max(), 300);
        assert!(rec.histogram("missing").is_empty());
    }

    #[test]
    fn same_scope_shares_one_sheet() {
        let rec = RecordingRecorder::new();
        let a = rec.sheet("local[0]").unwrap();
        let b = rec.sheet("local[0]").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        a.add_to(crate::Counter::bytes_sent, 10);
        b.add_to(crate::Counter::bytes_sent, 5);
        assert_eq!(rec.counters("local[0]").bytes_sent, 15);
    }

    #[test]
    fn scopes_keep_first_request_order() {
        let rec = RecordingRecorder::new();
        for scope in ["local[0]", "local[1]", "global", "local[0]"] {
            rec.sheet(scope).unwrap().record_range(1, 0);
        }
        let scopes = rec.scopes();
        let names: Vec<&str> = scopes.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["local[0]", "local[1]", "global"]);
        assert_eq!(scopes[0].1.range_queries, 2);
        assert_eq!(rec.counters("missing"), Counters::default());
    }

    #[test]
    fn spans_arrive_in_order() {
        let rec = RecordingRecorder::new();
        assert!(rec.is_enabled());
        rec.record_span(Span::new("a", Duration::from_micros(1)));
        rec.record_span(Span::new("b", Duration::from_micros(2)));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[1].name, "b");
    }

    #[test]
    fn dyn_recorder_dispatch_works_across_threads() {
        let rec = RecordingRecorder::new();
        let r: &dyn Recorder = &rec;
        std::thread::scope(|scope| {
            for i in 0..3 {
                scope.spawn(move || {
                    let sheet = r.sheet(&format!("local[{i}]")).unwrap();
                    sheet.record_range(i as u64, 0);
                });
            }
        });
        assert_eq!(rec.scopes().len(), 3);
    }
}
