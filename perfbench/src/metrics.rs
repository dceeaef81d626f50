//! The metric table and the result line.
//!
//! Every metric is printed as `metric <name> <value> <unit>` (plus a
//! `# note` where the number needs context); the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! the gated metrics.

use std::fmt::Write as _;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Printed and JSON name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// The end-to-end metrics of an untraced run (`--trace 0`).
pub const END_TO_END: [Def; 8] = [
    def("wall_s", "s"),
    def("wall_tail_s", "s"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MB"),
    def("q_dbdc_pii", "ratio"),
    def("bytes_up", "bytes"),
    def("bytes_down", "bytes"),
    def("failed_frac", "ratio"),
];

/// End-to-end metrics printed but left out of the JSON metrics, which
/// the gate reads. `wall_tail_s` moves by up to 40% between identical
/// runs on a shared 2-vCPU host, past the largest bound a gate can take;
/// `failed_frac` is 0 on every healthy run, and the result line carries
/// its numerator and denominator as `failed` and `attempted`.
pub const PRINTED_ONLY: [&str; 2] = ["wall_tail_s", "failed_frac"];

/// The per-layer metrics of a traced run (`--trace 1`).
pub const PER_LAYER: [Def; 35] = [
    def("datagen.generate_s", "s"),
    def("partition.assign_s", "s"),
    def("index.build_s", "s"),
    def("index.range_queries", "count"),
    def("index.dist_evals", "count"),
    def("index.node_visits", "count"),
    def("index.evals_per_query", "evals/query"),
    def("cluster.dbscan_s", "s"),
    def("cluster.halo_points", "count"),
    def("cluster.halo_frac", "ratio"),
    def("local_model.extract_s", "s"),
    def("local_model.reps", "count"),
    def("local_model.rep_frac", "ratio"),
    def("wire.encode_s", "s"),
    def("wire.decode_s", "s"),
    def("global_model.build_s", "s"),
    def("global_model.dist_evals", "count"),
    def("relabel.site_s", "s"),
    def("relabel.dist_evals", "count"),
    def("relabel.evals_per_point", "evals/point"),
    def("runtime.unattributed_s", "s"),
    def("runtime.cost_model_s", "s"),
    def("net.handshake_s", "s"),
    def("net.upload_s", "s"),
    def("net.download_s", "s"),
    def("net.site_local_s", "s"),
    def("net.site_relabel_s", "s"),
    def("net.server_global_s", "s"),
    def("net.drain_s", "s"),
    def("net.connections", "count"),
    def("net.retries", "count"),
    def("net.frames", "count"),
    def("net.wire_bytes", "bytes"),
    def("obs.traced_wall_s", "s"),
    def("obs.overhead_frac", "ratio"),
];

/// Measured values, filled in by a pass, keyed by metric name.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    entries: Vec<(&'static str, f64, String)>,
}

impl Ledger {
    /// Records `name` (which must be in a table) with an optional note.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "unknown metric {name}"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.retain(|(n, _, _)| *n != name);
        self.entries.push((name, value, note.into()));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// One `metric` line per entry of `table`, in table order.
    ///
    /// # Panics
    /// Panics if the pass left a metric of `table` unset — a bug in the
    /// benchmark, not in the program under test.
    pub fn lines(&self, table: &[Def]) -> Vec<String> {
        table
            .iter()
            .map(|d| {
                let (_, value, note) = self
                    .entries
                    .iter()
                    .find(|(n, _, _)| *n == d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                let mut line = format!("metric {:<26} {value} {}", d.name, d.unit);
                if !note.is_empty() {
                    let _ = write!(line, "  # {note}");
                }
                line
            })
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric of `table` except [`PRINTED_ONLY`] ones.
    pub fn result_line(&self, table: &[Def], correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let mut first = true;
        for d in table.iter().filter(|d| !PRINTED_ONLY.contains(&d.name)) {
            let value = self.get(d.name).unwrap_or(0.0);
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdc_obs::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<Def> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        for (i, d) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|o| o.name != d.name), "{}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_is_json_with_every_gated_metric() {
        let mut ledger = Ledger::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            ledger.set(d.name, 0.5 + i as f64, "");
        }
        let line = ledger.result_line(&END_TO_END, true, 12, 0);
        let json = Json::parse(&line).expect("valid json");
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(12));
        let metrics = json.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("wall_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.5)
        );
        assert!(metrics.get("failed_frac").is_none());
        assert!(metrics.get("wall_tail_s").is_none());
        assert_eq!(ledger.lines(&END_TO_END).len(), 8);
    }
}
