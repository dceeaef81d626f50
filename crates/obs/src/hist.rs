//! Mergeable log-bucketed latency histograms.
//!
//! Mean timings hide exactly what the paper's efficiency story (and any
//! production latency budget) lives on: the tail. A [`Histogram`] captures
//! a full distribution of `u64` samples — ε-range query nanoseconds,
//! per-site phase walls, DSU batch sizes — in a **fixed bucket scheme**
//! shared by every histogram ever recorded, so two histograms merge by
//! plain bucket-wise addition: merging is exact, associative, and
//! commutative, which is what lets per-site and per-repetition captures
//! combine into one distribution without re-recording.
//!
//! The bucket scheme is HDR-style log-linear: values `0..16` get one
//! exact bucket each; above that, each power-of-two octave is split into
//! 16 linear sub-buckets ([`SUBS`]). A bucket's width is therefore at
//! most 1/16 of its lower bound, bounding the relative quantile error at
//! ~6% while covering the whole `u64` range in [`N_BUCKETS`] = 976
//! buckets. `min`/`max`/`count`/`sum` are tracked exactly on the side,
//! so `max` (and any percentile that lands in the top bucket) is not
//! subject to bucket rounding.
//!
//! Histograms are unit-agnostic: the *scope name* a histogram is
//! recorded under carries the unit suffix (`_ns` for nanoseconds,
//! `_ops` for operation counts), and renderers key their formatting off
//! that suffix.
//!
//! [`HistSheet`] is the shared accumulator form (relaxed atomics, like
//! [`CounterSheet`](crate::CounterSheet)): instrumented code records
//! into it from any thread, a snapshot turns it back into a plain
//! [`Histogram`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::json::Json;

/// Linear sub-buckets per power-of-two octave.
pub const SUBS: u64 = 16;
const SUB_BITS: u32 = 4;

/// Total buckets in the fixed scheme (covers all of `u64`).
pub const N_BUCKETS: usize = ((64 - SUB_BITS as usize) * SUBS as usize) + SUBS as usize;

/// The bucket index a value lands in.
pub fn bucket_of(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let m = v >> (e - SUB_BITS);
    (((e - SUB_BITS) as u64 * SUBS) + m) as usize
}

/// The inclusive `[lo, hi]` value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUBS {
        return (i, i);
    }
    let octave = (i / SUBS - 1) as u32;
    let sub = i % SUBS;
    let lo = (SUBS + sub) << octave;
    let width = 1u64 << octave;
    (lo, lo + (width - 1))
}

/// A plain-value distribution over the fixed bucket scheme.
///
/// `count`/`sum`/`min`/`max` are exact; percentiles are bucket upper
/// bounds clamped to the exact extremes, so `percentile(q)` is always
/// within one bucket width (≤ 1/16 relative) above the true quantile
/// and never outside `[min, max]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A histogram of all the given samples.
    pub fn from_values(values: impl IntoIterator<Item = u64>) -> Histogram {
        let mut h = Histogram::new();
        for v in values {
            h.record(v);
        }
        h
    }

    /// Merges `other` into `self`: bucket-wise addition plus exact
    /// `count`/`sum`/`min`/`max` combination. Exact, associative, and
    /// commutative — the merged histogram equals the one that would
    /// have recorded both sample streams directly.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Exact largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as a bucket upper bound
    /// clamped to `[min, max]`. 0 when empty. Never panics: a torn live
    /// snapshot can hold `min > max`, and then the result is `max`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, hi) = bucket_bounds(i);
                return hi.max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Relative spread of the samples, `(max - min) / p50` — the
    /// noise estimate `report diff` derives its default tolerance from.
    /// 0.0 when empty or when the median is 0.
    pub fn rel_spread(&self) -> f64 {
        let p50 = self.p50();
        if p50 == 0 {
            0.0
        } else {
            self.max.saturating_sub(self.min) as f64 / p50 as f64
        }
    }

    /// The distribution recorded between `prev` and `self`, assuming
    /// both are snapshots of the **same live sheet** taken in that
    /// order: bucket-wise saturating subtraction, with `count`/`sum`
    /// subtracted the same way. Because the sheet's atomics are relaxed
    /// and loaded independently, a concurrent recorder can leave the
    /// difference's bucket total one ahead of (or behind) its `count`;
    /// the result therefore bypasses the `from_parts` invariant check
    /// and is meant for rate display, not for re-merging. `min`/`max`
    /// are not tracked per window — the result carries `self`'s exact
    /// extremes as bounds for the window's.
    pub fn diff_from(&self, prev: &Histogram) -> Histogram {
        let mut d = Histogram::new();
        for ((b, cur), old) in d.buckets.iter_mut().zip(&self.buckets).zip(&prev.buckets) {
            *b = cur.saturating_sub(*old);
        }
        d.count = self.count.saturating_sub(prev.count);
        d.sum = self.sum.saturating_sub(prev.sum);
        d.min = if d.count == 0 { 0 } else { self.min };
        d.max = if d.count == 0 { 0 } else { self.max };
        d
    }

    /// Occupied buckets as `(index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
    }

    /// The histogram as a JSON object. Buckets serialize sparsely as
    /// `[index, count]` pairs; `count`/`sum`/`min`/`max` are explicit so
    /// readers need not re-derive them.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::num_u64(self.count)),
            ("sum", Json::num_u64(self.sum)),
            ("min", Json::num_u64(self.min)),
            ("max", Json::num_u64(self.max)),
            (
                "buckets",
                Json::Arr(
                    self.nonzero_buckets()
                        .map(|(i, c)| Json::Arr(vec![Json::num_u64(i as u64), Json::num_u64(c)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Reassembles a histogram from its exact parts: the side-tracked
    /// `count`/`sum`/`min`/`max` plus sparse `(index, count)` bucket
    /// pairs. Validates that the bucket counts sum to `count` without
    /// overflow — the one internal invariant a deserializer could
    /// otherwise violate. `min > max` is let through: a scrape of a live
    /// [`HistSheet`] can tear that way. Shared by [`Histogram::from_json`]
    /// and the Prometheus exposition parser.
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: impl IntoIterator<Item = (usize, u64)>,
    ) -> Result<Histogram, String> {
        let mut h = Histogram::new();
        h.count = count;
        h.sum = sum;
        h.min = min;
        h.max = max;
        let mut total = 0u64;
        for (i, c) in buckets {
            if i >= N_BUCKETS {
                return Err("histogram bucket index out of range".into());
            }
            total = total
                .checked_add(c)
                .ok_or("histogram bucket counts overflow u64")?;
            h.buckets[i] += c;
        }
        if total != h.count {
            return Err(format!(
                "histogram bucket counts sum to {total}, \"count\" says {}",
                h.count
            ));
        }
        Ok(h)
    }

    /// Rebuilds a histogram from [`Histogram::to_json`] output. Reports
    /// are written after their phases join, so a non-empty histogram
    /// whose `min` exceeds its `max` is corrupt and rejected.
    pub fn from_json(v: &Json) -> Result<Histogram, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histogram missing {name:?}"))
        };
        let buckets = v
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("histogram missing \"buckets\"")?;
        let mut pairs = Vec::with_capacity(buckets.len());
        for pair in buckets {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or("histogram bucket entry is not an [index, count] pair")?;
            let i = pair[0]
                .as_u64()
                .filter(|&i| (i as usize) < N_BUCKETS)
                .ok_or("histogram bucket index out of range")? as usize;
            let c = pair[1]
                .as_u64()
                .ok_or("histogram bucket count not an integer")?;
            pairs.push((i, c));
        }
        let (min, max) = (field("min")?, field("max")?);
        let h = Histogram::from_parts(field("count")?, field("sum")?, min, max, pairs)?;
        if !h.is_empty() && min > max {
            return Err(format!("histogram \"min\" {min} exceeds its \"max\" {max}"));
        }
        Ok(h)
    }
}

/// A shared, lock-free accumulator for one [`Histogram`].
///
/// Like [`CounterSheet`](crate::CounterSheet), all atomics are relaxed:
/// recorders carry no synchronization duty, readers snapshot after the
/// producing phase has been joined.
#[derive(Debug)]
pub struct HistSheet {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistSheet {
    fn default() -> Self {
        HistSheet::new()
    }
}

impl HistSheet {
    /// A fresh empty sheet.
    pub fn new() -> HistSheet {
        HistSheet {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// The current totals as a plain histogram. Its `count` is the sum
    /// of the buckets it read, so a snapshot of a live sheet always
    /// passes the exposition parsers' check that the buckets sum to the
    /// count; its `sum`, `min` and `max` may still tear by a sample.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (b, a) in h.buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        h.count = h.buckets.iter().sum();
        h.sum = self.sum.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        h.min = if h.count == 0 { 0 } else { min };
        h
    }
}

/// Formats a sample value for humans: nanoseconds (scope suffix `_ns`)
/// auto-scale to the largest unit that keeps the value >= 1 (per-query
/// latencies are microseconds, phase walls milliseconds — a fixed unit
/// would flatten one of them to 0.0), anything else prints raw.
pub fn fmt_sample(scope: &str, v: u64) -> String {
    if scope.ends_with("_ns") {
        match v {
            0..=999 => format!("{v} ns"),
            1_000..=999_999 => format!("{:.1} us", v as f64 / 1e3),
            1_000_000..=999_999_999 => format!("{:.1} ms", v as f64 / 1e6),
            _ => format!("{:.2} s", v as f64 / 1e9),
        }
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* stream for the property tests — spans
    /// many orders of magnitude so every bucket regime is exercised.
    fn samples(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed.wrapping_mul(2685821657736338717).max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                // Random magnitude 0..2^k, k in 0..=40.
                let k = (s >> 58) % 41;
                (s.wrapping_mul(2685821657736338717)) >> (63 - k)
            })
            .collect()
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        for seed in 1..=8u64 {
            let a = Histogram::from_values(samples(seed, 97));
            let b = Histogram::from_values(samples(seed + 100, 31));
            let c = Histogram::from_values(samples(seed + 200, 63));

            // (a ∪ b) ∪ c == a ∪ (b ∪ c)
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right, "associativity, seed {seed}");

            // a ∪ b == b ∪ a
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "commutativity, seed {seed}");

            // Both equal recording the concatenated stream.
            let mut all = samples(seed, 97);
            all.extend(samples(seed + 100, 31));
            assert_eq!(ab, Histogram::from_values(all), "merge = concat");
        }
    }

    #[test]
    fn percentile_bounds_vs_sorted_oracle() {
        for seed in 1..=8u64 {
            let mut vals = samples(seed * 7, 201);
            let h = Histogram::from_values(vals.iter().copied());
            vals.sort_unstable();
            for q in [0.01, 0.10, 0.50, 0.90, 0.99, 1.0] {
                let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
                let oracle = vals[rank - 1];
                let got = h.percentile(q);
                // Never below the exact order statistic; above it by at
                // most one bucket width (≤ 1/SUBS relative, +1 for the
                // integer boundary).
                assert!(got >= oracle, "q={q} got={got} oracle={oracle}");
                assert!(
                    got as f64 <= oracle as f64 * (1.0 + 1.0 / SUBS as f64) + 1.0,
                    "q={q} got={got} oracle={oracle}"
                );
                assert!(got <= h.max());
            }
        }
    }

    #[test]
    fn bucket_scheme_is_contiguous_and_monotone() {
        // Every bucket's range starts right after the previous one ends.
        let mut expected_lo = 0u64;
        for i in 0..N_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i}");
            assert!(hi >= lo);
            if hi == u64::MAX {
                assert_eq!(i, N_BUCKETS - 1);
                break;
            }
            expected_lo = hi + 1;
        }
        assert_eq!(bucket_bounds(N_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn values_land_in_their_own_bucket() {
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            1000,
            123_456_789,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_of(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} bucket={i} range=[{lo},{hi}]");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::from_values([0, 3, 3, 7, 15]);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.p50(), 3);
        assert_eq!(h.percentile(1.0), 15);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.sum(), 28);
    }

    #[test]
    fn percentiles_clamp_to_exact_extremes() {
        // 1000 lands in a bucket whose upper bound exceeds 1000, but the
        // exact max clamps the reported quantile.
        let h = Histogram::from_values([1000]);
        assert_eq!(h.p50(), 1000);
        assert_eq!(h.p99(), 1000);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.rel_spread(), 0.0);
    }

    #[test]
    fn merge_equals_recording_both_streams() {
        let a_vals = [5u64, 900, 17, 0, 64_000];
        let b_vals = [3u64, 3, 1_000_000, 80];
        let mut a = Histogram::from_values(a_vals);
        let b = Histogram::from_values(b_vals);
        a.merge(&b);
        let direct = Histogram::from_values(a_vals.into_iter().chain(b_vals));
        assert_eq!(a, direct);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let h = Histogram::from_values([10, 20, 30]);
        let mut lhs = h.clone();
        lhs.merge(&Histogram::new());
        assert_eq!(lhs, h);
        let mut empty = Histogram::new();
        empty.merge(&h);
        assert_eq!(empty, h);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let h = Histogram::from_values([0, 1, 16, 17, 1_000, 123_456_789]);
        let back = Histogram::from_json(&h.to_json()).expect("round trip");
        assert_eq!(back, h);
        let empty = Histogram::new();
        assert_eq!(Histogram::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn json_rejects_inconsistent_counts() {
        let mut v = Histogram::from_values([5, 5]).to_json();
        if let Json::Obj(pairs) = &mut v {
            pairs[0].1 = Json::num_u64(99);
        }
        let err = Histogram::from_json(&v).unwrap_err();
        assert!(err.contains("sum to 2"), "{err}");
    }

    #[test]
    fn sheet_snapshot_matches_plain_recording() {
        let sheet = HistSheet::new();
        let vals = [7u64, 7, 250, 80_000, 3];
        for v in vals {
            sheet.record(v);
        }
        assert_eq!(sheet.snapshot(), Histogram::from_values(vals));
        assert_eq!(HistSheet::new().snapshot(), Histogram::new());
    }

    #[test]
    fn concurrent_sheet_recording_loses_nothing() {
        let sheet = std::sync::Arc::new(HistSheet::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sheet = std::sync::Arc::clone(&sheet);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        sheet.record(t * 1000 + i);
                    }
                });
            }
        });
        let h = sheet.snapshot();
        assert_eq!(h.count(), 4000);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 3999);
    }

    #[test]
    fn fmt_sample_keys_off_the_scope_suffix() {
        assert_eq!(fmt_sample("local[0]/eps_range_ns", 1_500_000), "1.5 ms");
        assert_eq!(fmt_sample("dsu_batch_ops", 42), "42");
    }

    #[test]
    fn fmt_sample_scales_ns_to_the_readable_unit() {
        assert_eq!(fmt_sample("x_ns", 750), "750 ns");
        assert_eq!(fmt_sample("x_ns", 1_200), "1.2 us");
        assert_eq!(fmt_sample("x_ns", 4_500_000_000), "4.50 s");
    }
}
