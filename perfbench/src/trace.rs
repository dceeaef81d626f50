//! The benchmark's own spans: recorded around calls into each layer,
//! kept in memory, and written once when the run ends.
//!
//! A span's *self time* is its duration minus the part of it that its
//! children cover. Self times of one repetition's spans add up to its
//! root span exactly (integer nanoseconds on one clock).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The repetition it belongs to.
    pub rep: u32,
    /// `layer.step` or `layer.step[i]`.
    pub name: String,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder with an open-span stack for parents.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Sets the repetition id stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Nanoseconds since the origin.
    fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// `at` in nanoseconds since the origin.
    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let start = self.now_ns();
        let id = self.push(name, start, start, self.open.last().copied());
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Closes every open span now (after a step failed part-way).
    pub fn close_all(&mut self) {
        while let Some(&id) = self.open.last() {
            self.close(id);
        }
    }

    /// Records a finished span with explicit bounds (for spans measured
    /// on other threads).
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            rep: self.rep,
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"rep\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.rep, s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

/// Self time of every span in `spans[from..]`, whose parents all lie at
/// or after `from`: its duration minus the union of its children's
/// intervals (clipped to it), so overlapping children on concurrent
/// threads are not subtracted twice.
fn self_times(spans: &[Span], from: usize) -> Vec<u64> {
    let tail = &spans[from..];
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); tail.len()];
    for s in tail {
        if let Some(p) = s.parent {
            children[p - from].push((s.start_ns, s.end_ns));
        }
    }
    tail.iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per span name (with any `[i]` index dropped), in
/// seconds, over `spans[from..]` — one repetition's spans, recorded
/// after every earlier one.
pub fn self_seconds_by_name(spans: &[Span], from: usize) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans[from..].iter().zip(self_times(spans, from)) {
        let name = s.name.split('[').next().unwrap_or(&s.name).to_string();
        *out.entry(name).or_insert(0.0) += t as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            rep: 0,
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = vec![
            span("runtime.run", 0, 100, None),
            span("index.build", 10, 30, Some(0)),
            span("runtime.site[0]", 30, 90, Some(0)),
            span("cluster.dbscan", 35, 80, Some(2)),
        ];
        let t = self_times(&spans, 0);
        assert_eq!(t, vec![20, 20, 15, 45]);
        assert_eq!(t.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("fleet.run", 0, 100, None),
            span("net.site[0]", 10, 60, Some(0)),
            span("net.site[1]", 20, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans, 0)[0], 100 - 70);
    }

    #[test]
    fn names_group_without_indices() {
        let spans = vec![
            span("runtime.run", 0, 10, None),
            span("wire.decode", 0, 2, Some(0)),
            span("runtime.relabel[0]", 2, 5, Some(0)),
            span("runtime.relabel[1]", 5, 9, Some(0)),
        ];
        let by = self_seconds_by_name(&spans, 0);
        assert_eq!(by.len(), 3);
        assert!((by["runtime.relabel"] - 7e-9).abs() < 1e-15);
    }

    #[test]
    fn a_later_repetition_is_read_on_its_own() {
        let spans = vec![
            span("runtime.run", 0, 10, None),
            span("index.build", 0, 4, Some(0)),
            span("runtime.run", 10, 30, None),
            span("index.build", 12, 20, Some(2)),
        ];
        let by = self_seconds_by_name(&spans, 2);
        assert!((by["index.build"] - 8e-9).abs() < 1e-15);
        assert!((by["runtime.run"] - 12e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_links_parents_and_writes_json() {
        let mut t = Tracer::new();
        t.set_rep(3);
        let root = t.open("runtime.run");
        let child = t.open("index.build");
        t.close(child);
        t.close(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].rep, 3);
        let json = dbdc_obs::Json::parse(&t.to_json()).expect("valid json");
        assert_eq!(json.as_arr().map(|a| a.len()), Some(2));
    }
}
