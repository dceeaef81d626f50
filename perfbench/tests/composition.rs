//! The traced composition is `run_dbdc`, step by step: same labels,
//! models and bytes, the same work counts the runtime records, and layer
//! self times that add up to the traced wall — at threads 1/2 ×
//! partitions 1/2.

use dbdc::{run_dbdc, run_dbdc_recorded};
use dbdc_obs::RecordingRecorder;
use dbdc_perfbench::compose::compose;
use dbdc_perfbench::trace::{self_seconds_by_name, Tracer};
use dbdc_perfbench::workload::find;

#[test]
fn composition_equals_run_dbdc_at_every_thread_and_partition_count() {
    let w = find("dense-par").expect("workload exists");
    let base = w.setup(11, true);
    let mut tracer = Tracer::new();
    for threads in [1, 2] {
        for partitions in [1, 2] {
            let params = base
                .params
                .with_threads(threads)
                .with_partitions(partitions);
            let context = format!("threads={threads} partitions={partitions}");
            let reference = run_dbdc(&base.data, &params, base.partitioner, w.sites);
            let root = tracer.spans().len();
            let composed = compose(&base.data, &params, base.partitioner, w.sites, &mut tracer)
                .expect("composition runs");
            composed
                .matches(&reference)
                .unwrap_or_else(|e| panic!("{context}: {e}"));

            let rec = RecordingRecorder::new();
            run_dbdc_recorded(&base.data, &params, base.partitioner, w.sites, &rec);
            let sum = |f: fn(&dbdc_obs::Counters) -> u64, prefix: &str| -> u64 {
                (0..w.sites)
                    .map(|i| f(&rec.counters(&format!("{prefix}[{i}]"))))
                    .sum()
            };
            let c = composed.counts;
            assert_eq!(
                c.range_queries,
                sum(|c| c.range_queries, "local"),
                "{context}"
            );
            assert_eq!(
                c.dist_evals,
                sum(|c| c.distance_evals, "local"),
                "{context}"
            );
            assert_eq!(c.node_visits, sum(|c| c.node_visits, "local"), "{context}");
            assert_eq!(c.halo_points, sum(|c| c.halo_points, "local"), "{context}");
            assert_eq!(
                c.relabel_dist_evals,
                sum(|c| c.distance_evals, "relabel"),
                "{context}"
            );
            assert_eq!(
                c.global_dist_evals,
                rec.counters("global").distance_evals,
                "{context}"
            );
            assert_eq!(partitions > 1, c.halo_points > 0, "{context}");

            let wall_ns = tracer.spans()[root].duration_ns();
            let self_total: f64 = self_seconds_by_name(tracer.spans(), root).values().sum();
            assert!(
                (self_total - wall_ns as f64 * 1e-9).abs() < 1e-9,
                "{context}: self times {self_total} vs wall {wall_ns} ns"
            );
        }
    }
}
