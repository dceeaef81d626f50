//! Brute-force linear scan.
//!
//! `O(n)` per query with no build cost. It is the correctness oracle every
//! other index is tested against and the baseline in the index ablation
//! benchmark.

use crate::NeighborIndex;
use dbdc_geom::{Dataset, Metric};
use dbdc_obs::CounterSheet;
use std::sync::Arc;

/// A linear-scan "index" over a dataset.
#[derive(Debug, Clone)]
pub struct LinearScan<'a, M> {
    data: &'a Dataset,
    metric: M,
    sheet: Option<Arc<CounterSheet>>,
}

impl<'a, M: Metric> LinearScan<'a, M> {
    /// Wraps `data` for linear-scan queries under metric `m`.
    pub fn new(data: &'a Dataset, metric: M) -> Self {
        Self {
            data,
            metric,
            sheet: None,
        }
    }

    /// Attaches a counter sheet recording per-query work.
    pub fn observed(mut self, sheet: Arc<CounterSheet>) -> Self {
        self.sheet = Some(sheet);
        self
    }
}

impl<M: Metric> NeighborIndex for LinearScan<'_, M> {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn range(&self, q: &[f64], eps: f64, out: &mut Vec<u32>) {
        out.clear();
        // Compare in surrogate space (squared distance for Euclidean) to
        // skip the sqrt in the hot loop.
        let bound = self.metric.to_surrogate(eps);
        for (i, p) in self.data.iter().enumerate() {
            if self.metric.surrogate(q, p) <= bound {
                out.push(i as u32);
            }
        }
        if let Some(s) = &self.sheet {
            // One surrogate evaluation per point, no index nodes.
            s.record_range(self.data.len() as u64, 0);
        }
    }

    fn knn(&self, q: &[f64], k: usize) -> Vec<(u32, f64)> {
        if k == 0 {
            return Vec::new();
        }
        // Max-heap of the k best (surrogate distance, index) seen so far.
        let mut heap: std::collections::BinaryHeap<(ordered::F64, u32)> =
            std::collections::BinaryHeap::with_capacity(k + 1);
        for (i, p) in self.data.iter().enumerate() {
            let d = self.metric.surrogate(q, p);
            if heap.len() < k {
                heap.push((ordered::F64(d), i as u32));
            } else if let Some(&(worst, _)) = heap.peek() {
                if d < worst.0 {
                    heap.pop();
                    heap.push((ordered::F64(d), i as u32));
                }
            }
        }
        let mut out: Vec<(u32, f64)> = heap
            .into_iter()
            .map(|(_, i)| (i, self.metric.dist(q, self.data.point(i))))
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        if let Some(s) = &self.sheet {
            s.record_knn(self.data.len() as u64, 0);
        }
        out
    }
}

/// Minimal totally-ordered f64 wrapper for use in heaps.
///
/// All distances in this crate are finite (datasets reject non-finite
/// coordinates), so `total_cmp` agrees with the usual order.
pub(crate) mod ordered {
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct F64(pub f64);

    impl Eq for F64 {}

    impl PartialOrd for F64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for F64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdc_geom::Euclidean;

    fn dataset() -> Dataset {
        Dataset::from_flat(2, vec![0.0, 0.0, 1.0, 0.0, 3.0, 4.0, 10.0, 10.0, 0.5, 0.5])
    }

    #[test]
    fn range_closed_ball() {
        let d = dataset();
        let idx = LinearScan::new(&d, Euclidean);
        let mut out = Vec::new();
        idx.range(&[0.0, 0.0], 1.0, &mut out);
        out.sort_unstable();
        // (1,0) is at distance exactly 1.0 and must be included.
        assert_eq!(out, vec![0, 1, 4]);
    }

    #[test]
    fn range_empty_result() {
        let d = dataset();
        let idx = LinearScan::new(&d, Euclidean);
        assert!(idx.range_vec(&[-100.0, -100.0], 1.0).is_empty());
    }

    #[test]
    fn knn_sorted_by_distance() {
        let d = dataset();
        let idx = LinearScan::new(&d, Euclidean);
        let nn = idx.knn(&[0.0, 0.0], 3);
        assert_eq!(nn.len(), 3);
        assert_eq!(nn[0].0, 0);
        assert_eq!(nn[0].1, 0.0);
        assert_eq!(nn[1].0, 4); // (0.5, 0.5) at ~0.707
        assert_eq!(nn[2].0, 1); // (1, 0) at 1.0
        assert!(nn[1].1 <= nn[2].1);
    }

    #[test]
    fn knn_k_larger_than_n() {
        let d = dataset();
        let idx = LinearScan::new(&d, Euclidean);
        assert_eq!(idx.knn(&[0.0, 0.0], 100).len(), d.len());
    }

    #[test]
    fn knn_zero_k() {
        let d = dataset();
        let idx = LinearScan::new(&d, Euclidean);
        assert!(idx.knn(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::new(2);
        let idx = LinearScan::new(&d, Euclidean);
        assert!(idx.is_empty());
        assert!(idx.range_vec(&[0.0, 0.0], 10.0).is_empty());
        assert!(idx.knn(&[0.0, 0.0], 3).is_empty());
    }
}
