//! Work counters for the DBDC hot paths.
//!
//! Two forms of the same numbers:
//!
//! * [`Counters`] — a plain value: copyable, addable, serializable.
//!   This is what reports store and tests assert against.
//! * [`CounterSheet`] — the shared, lock-free accumulator handed to
//!   instrumented code. Index backends, the DSU merge phase, and the
//!   wire layer add into it from any thread; a snapshot turns it back
//!   into a [`Counters`].
//!
//! Producers are expected to count into plain `u64` locals inside their
//! hot loops and flush **once per operation** (one `range()` call, one
//! merge phase, one encoded message), so the per-element cost of
//! instrumentation is a register increment whether or not a sheet is
//! attached. All atomics use relaxed ordering: the counters carry no
//! synchronization duty — readers snapshot after the producing phase
//! has been joined.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One row per counter: its doc comment, then its name. Row order is
/// the serialization order (JSON keys, Prometheus families, `FIELDS`
/// indices), so rows are only ever appended.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $name:ident,)+) => {
        /// A snapshot of protocol work, in occurrence counts and bytes.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[doc = $doc])+ pub $name: u64,)+
        }

        /// Names one counter; its discriminant indexes [`Counters::FIELDS`].
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[doc = $doc])+ $name,)+
        }

        impl Counter {
            /// Every counter, in [`Counters::FIELDS`] order.
            pub const ALL: [Counter; Counters::N] = [$(Counter::$name),+];
        }

        impl Counters {
            /// How many counters the table declares.
            pub const N: usize = [$(stringify!($name)),+].len();

            /// Stable field names, in serialization order.
            pub const FIELDS: [&'static str; Counters::N] = [$(stringify!($name)),+];

            /// Field values in [`Counters::FIELDS`] order.
            pub fn values(&self) -> [u64; Counters::N] {
                [$(self.$name),+]
            }

            /// Rebuilds a snapshot from values in [`Counters::FIELDS`]
            /// order — the inverse of [`Counters::values`]. Used by the
            /// telemetry snapshot delta and the exposition parser.
            pub fn from_values(v: [u64; Counters::N]) -> Counters {
                let [$($name),+] = v;
                Counters { $($name),+ }
            }
        }
    };
}

counters! {
    /// ε-range queries answered by an index.
    range_queries,
    /// k-nearest-neighbour queries answered by an index.
    knn_queries,
    /// Point-to-point distance evaluations (surrogate or exact) spent
    /// verifying candidates inside index queries.
    distance_evals,
    /// Index nodes inspected: tree nodes whose bounding box was tested
    /// (kd-tree), nodes descended into (R*-tree), or occupied grid
    /// cells probed (grid). Zero for the linear scan.
    node_visits,
    /// Successful DSU merges in the parallel DBSCAN merge phase.
    dsu_unions,
    /// DSU `find` invocations (including the two inside each `union`).
    dsu_finds,
    /// Representatives emitted into a local model.
    representatives,
    /// Wire bytes sent by the observed party.
    bytes_sent,
    /// Wire bytes received by the observed party.
    bytes_received,
    /// Frames written to a TCP stream.
    frames_sent,
    /// Frames successfully read (and checksum-verified) from a stream.
    frames_received,
    /// Bytes put on the wire by frame writes: length prefix + kind +
    /// payload + checksum. Always ≥ the payload bytes in `bytes_sent`.
    wire_bytes_sent,
    /// Bytes consumed off the wire by successful frame reads.
    wire_bytes_received,
    /// Frames rejected because their checksum did not verify.
    checksum_failures,
    /// Frames rejected as truncated: short length prefix, short body,
    /// or an unknown kind byte (corruption indistinguishable from
    /// truncation at this layer).
    truncated_rejects,
    /// Frames rejected for exceeding the configured size limit.
    oversize_rejects,
    /// Sessions refused during the HELLO exchange (version or topology
    /// mismatch), counted by whichever side observed the refusal.
    handshake_rejections,
    /// Whole-session retry attempts beyond the first.
    retries,
    /// Total nanoseconds slept in retry backoff.
    backoff_wait_ns,
    /// Frames deliberately dropped by a fault proxy.
    faults_dropped,
    /// Frames deliberately delayed by a fault proxy.
    faults_delayed,
    /// Frames deliberately truncated by a fault proxy.
    faults_truncated,
    /// Frames deliberately bit-flipped by a fault proxy.
    faults_bitflipped,
    /// MST edges accepted while computing the DBCV validity index.
    mst_edges,
    /// Objects with perfect quality (P = 1) in a Q_DBDC comparison.
    quality_perfect,
    /// Objects with zero quality (P = 0) in a Q_DBDC comparison.
    quality_zero,
    /// Objects flagged noise by both clusterings under comparison.
    quality_noise_both,
    /// Objects flagged noise only by the distributed clustering.
    quality_noise_distr_only,
    /// Objects flagged noise only by the central reference clustering.
    quality_noise_central_only,
    /// Halo points of the partitioned local phase, summed over its
    /// partitions: the points a stripe copies in from within ε of it, or
    /// on the grid kernel the points of other cell ranges' cells that a
    /// range's candidate cells reach, read in place.
    halo_points,
}

impl Counters {
    /// The original nine fields every schema version has carried; the
    /// wire/fault fields after them were added in schema v3 and parse
    /// as zero when absent.
    pub const CORE_FIELDS: usize = 9;

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.values().iter().all(|&v| v == 0)
    }

    /// Adds `other` into `self`, field by field.
    pub fn add(&mut self, other: &Counters) {
        let (a, b) = (self.values(), other.values());
        *self = Counters::from_values(std::array::from_fn(|i| a[i] + b[i]));
    }

    /// Field-wise sum of many snapshots.
    pub fn sum<'a>(iter: impl IntoIterator<Item = &'a Counters>) -> Counters {
        let mut acc = Counters::default();
        for c in iter {
            acc.add(c);
        }
        acc
    }
}

/// A shared, lock-free accumulator for [`Counters`].
///
/// Cheap to share (`Arc<CounterSheet>`), safe to add into from many
/// threads, snapshot once the producing phase is done.
#[derive(Debug)]
pub struct CounterSheet {
    cells: [AtomicU64; Counters::N],
}

impl Default for CounterSheet {
    fn default() -> Self {
        CounterSheet {
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl CounterSheet {
    /// A fresh all-zero sheet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to one counter.
    pub fn add_to(&self, counter: Counter, n: u64) {
        self.cells[counter as usize].fetch_add(n, Relaxed);
    }

    /// Records one completed ε-range query with its per-query work:
    /// `range_queries`, `distance_evals` and `node_visits` move together.
    pub fn record_range(&self, distance_evals: u64, node_visits: u64) {
        self.add_to(Counter::range_queries, 1);
        self.add_to(Counter::distance_evals, distance_evals);
        self.add_to(Counter::node_visits, node_visits);
    }

    /// Records one completed knn query with its per-query work:
    /// `knn_queries`, `distance_evals` and `node_visits` move together.
    pub fn record_knn(&self, distance_evals: u64, node_visits: u64) {
        self.add_to(Counter::knn_queries, 1);
        self.add_to(Counter::distance_evals, distance_evals);
        self.add_to(Counter::node_visits, node_visits);
    }

    /// Records a finished DSU phase: `dsu_unions` and `dsu_finds`.
    pub fn add_dsu(&self, unions: u64, finds: u64) {
        self.add_to(Counter::dsu_unions, unions);
        self.add_to(Counter::dsu_finds, finds);
    }

    /// Records one frame written to the wire: `frames_sent`, then
    /// `wire_bytes_sent` by `wire`, the full on-the-wire size (prefix +
    /// kind + payload + checksum), and `bytes_sent` by `payload` alone.
    pub fn add_frame_sent(&self, wire: u64, payload: u64) {
        self.add_to(Counter::frames_sent, 1);
        self.add_to(Counter::wire_bytes_sent, wire);
        self.add_to(Counter::bytes_sent, payload);
    }

    /// Records one checksum-verified frame read off the wire, in
    /// `frames_received`, `wire_bytes_received` and `bytes_received`.
    pub fn add_frame_received(&self, wire: u64, payload: u64) {
        self.add_to(Counter::frames_received, 1);
        self.add_to(Counter::wire_bytes_received, wire);
        self.add_to(Counter::bytes_received, payload);
    }

    /// Records one retry attempt (`retries`) and the backoff slept
    /// before it (`backoff_wait_ns`).
    pub fn add_retry(&self, backoff: std::time::Duration) {
        self.add_to(Counter::retries, 1);
        let ns = u64::try_from(backoff.as_nanos()).unwrap_or(u64::MAX);
        self.add_to(Counter::backoff_wait_ns, ns);
    }

    /// Records faults injected by an adversarial proxy, one counter per
    /// fault type.
    pub fn add_faults(&self, dropped: u64, delayed: u64, truncated: u64, bitflipped: u64) {
        self.add_to(Counter::faults_dropped, dropped);
        self.add_to(Counter::faults_delayed, delayed);
        self.add_to(Counter::faults_truncated, truncated);
        self.add_to(Counter::faults_bitflipped, bitflipped);
    }

    /// Records the object breakdown of one Q_DBDC comparison, one
    /// `quality_*` counter per class.
    pub fn add_quality_breakdown(
        &self,
        perfect: u64,
        zero: u64,
        noise_both: u64,
        noise_distr_only: u64,
        noise_central_only: u64,
    ) {
        self.add_to(Counter::quality_perfect, perfect);
        self.add_to(Counter::quality_zero, zero);
        self.add_to(Counter::quality_noise_both, noise_both);
        self.add_to(Counter::quality_noise_distr_only, noise_distr_only);
        self.add_to(Counter::quality_noise_central_only, noise_central_only);
    }

    /// Adds a whole snapshot at once.
    pub fn add(&self, c: &Counters) {
        for (cell, v) in self.cells.iter().zip(c.values()) {
            cell.fetch_add(v, Relaxed);
        }
    }

    /// The current totals as a plain value.
    pub fn snapshot(&self) -> Counters {
        Counters::from_values(std::array::from_fn(|i| self.cells[i].load(Relaxed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn snapshot_reflects_recorded_work() {
        let s = CounterSheet::new();
        s.record_range(100, 7);
        s.record_range(50, 3);
        s.record_knn(10, 2);
        s.add_dsu(4, 11);
        s.add_to(Counter::representatives, 6);
        s.add_to(Counter::bytes_sent, 300);
        s.add_to(Counter::bytes_received, 40);
        let c = s.snapshot();
        assert_eq!(c.range_queries, 2);
        assert_eq!(c.knn_queries, 1);
        assert_eq!(c.distance_evals, 160);
        assert_eq!(c.node_visits, 12);
        assert_eq!(c.dsu_unions, 4);
        assert_eq!(c.dsu_finds, 11);
        assert_eq!(c.representatives, 6);
        assert_eq!(c.bytes_sent, 300);
        assert_eq!(c.bytes_received, 40);
        assert!(!c.is_zero());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let s = Arc::new(CounterSheet::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record_range(3, 1);
                    }
                });
            }
        });
        let c = s.snapshot();
        assert_eq!(c.range_queries, 4000);
        assert_eq!(c.distance_evals, 12000);
        assert_eq!(c.node_visits, 4000);
    }

    #[test]
    fn counters_add_and_sum() {
        let mut a = Counters {
            range_queries: 1,
            bytes_sent: 10,
            ..Counters::default()
        };
        let b = Counters {
            range_queries: 2,
            distance_evals: 5,
            ..Counters::default()
        };
        a.add(&b);
        assert_eq!(a.range_queries, 3);
        assert_eq!(a.distance_evals, 5);
        assert_eq!(a.bytes_sent, 10);
        let total = Counters::sum([&a, &b]);
        assert_eq!(total.range_queries, 5);
        assert_eq!(total.distance_evals, 10);
    }

    #[test]
    fn fields_and_values_stay_aligned() {
        let c = Counters {
            range_queries: 1,
            bytes_received: 9,
            ..Default::default()
        };
        let values = c.values();
        assert_eq!(Counters::FIELDS.len(), values.len());
        assert_eq!(values[0], 1);
        assert_eq!(values[8], 9);
        assert!(Counters::default().is_zero());
    }

    #[test]
    fn wire_and_fault_accessors_land_in_their_fields() {
        let s = CounterSheet::new();
        s.add_frame_sent(23, 10);
        s.add_frame_sent(13, 0);
        s.add_frame_received(13, 0);
        s.add_to(Counter::checksum_failures, 1);
        s.add_to(Counter::truncated_rejects, 1);
        s.add_to(Counter::oversize_rejects, 1);
        s.add_to(Counter::handshake_rejections, 1);
        s.add_retry(std::time::Duration::from_nanos(1_500));
        s.add_retry(std::time::Duration::from_nanos(500));
        s.add_faults(3, 2, 1, 4);
        let c = s.snapshot();
        assert_eq!(c.frames_sent, 2);
        assert_eq!(c.wire_bytes_sent, 36);
        assert_eq!(c.bytes_sent, 10);
        assert_eq!(c.frames_received, 1);
        assert_eq!(c.wire_bytes_received, 13);
        assert_eq!(c.bytes_received, 0);
        assert_eq!(c.checksum_failures, 1);
        assert_eq!(c.truncated_rejects, 1);
        assert_eq!(c.oversize_rejects, 1);
        assert_eq!(c.handshake_rejections, 1);
        assert_eq!(c.retries, 2);
        assert_eq!(c.backoff_wait_ns, 2_000);
        assert_eq!(c.faults_dropped, 3);
        assert_eq!(c.faults_delayed, 2);
        assert_eq!(c.faults_truncated, 1);
        assert_eq!(c.faults_bitflipped, 4);

        // add() and sum() carry the new fields too.
        let mut doubled = c;
        doubled.add(&c);
        assert_eq!(doubled.retries, 4);
        assert_eq!(doubled.faults_bitflipped, 8);
        assert_eq!(Counters::sum([&c, &c]).wire_bytes_sent, 72);

        // And a sheet absorbs whole snapshots including them.
        let t = CounterSheet::new();
        t.add(&c);
        assert_eq!(t.snapshot(), c);
    }

    #[test]
    fn quality_accessors_land_in_their_fields() {
        let s = CounterSheet::new();
        s.add_to(Counter::mst_edges, 17);
        s.add_to(Counter::distance_evals, 42);
        s.add_quality_breakdown(100, 3, 5, 2, 1);
        let c = s.snapshot();
        assert_eq!(c.mst_edges, 17);
        assert_eq!(c.distance_evals, 42);
        assert_eq!(c.quality_perfect, 100);
        assert_eq!(c.quality_zero, 3);
        assert_eq!(c.quality_noise_both, 5);
        assert_eq!(c.quality_noise_distr_only, 2);
        assert_eq!(c.quality_noise_central_only, 1);

        // add(), sum() and sheet absorption carry the new fields.
        let mut doubled = c;
        doubled.add(&c);
        assert_eq!(doubled.mst_edges, 34);
        assert_eq!(doubled.quality_perfect, 200);
        assert_eq!(Counters::sum([&c, &c]).quality_noise_both, 10);
        let t = CounterSheet::new();
        t.add(&c);
        assert_eq!(t.snapshot(), c);
    }

    #[test]
    fn whole_snapshot_add() {
        let s = CounterSheet::new();
        let c = Counters {
            range_queries: 2,
            dsu_finds: 3,
            ..Counters::default()
        };
        s.add(&c);
        s.add(&c);
        let got = s.snapshot();
        assert_eq!(got.range_queries, 4);
        assert_eq!(got.dsu_finds, 6);
    }
}
