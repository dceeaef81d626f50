//! Figure 8 — overall runtime and speed-up of DBDC(REP_Scor) as a function
//! of the number of client sites, on a 203 000-point dataset-A-like set.
//!
//! The paper reports a speed-up between `O(n)` and `O(n²)` in the number of
//! sites, because DBSCAN's cost is superlinear in the per-site cardinality
//! (with an index: `n log n` to `n²`), so splitting the data across `k`
//! sites shrinks the dominant local phase superlinearly.

use crate::ms;
use crate::table::{f, Table};
use dbdc::{central_dbscan, run_dbdc, DbdcParams, EpsGlobal, LocalModelKind, Partitioner};
use dbdc_datagen::scaled_a;

use super::{quick, SEED};

/// One row of the site sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Row {
    /// Number of client sites.
    pub sites: usize,
    /// DBDC(REP_Scor) overall runtime (ms).
    pub dbdc_ms: f64,
    /// The server's global-model phase within `dbdc_ms` (ms).
    pub global_ms: f64,
    /// Central DBSCAN runtime on the full set (ms) — constant per sweep.
    pub central_ms: f64,
}

impl Fig8Row {
    /// Speed-up of DBDC over the central run.
    pub fn speedup(&self) -> f64 {
        self.central_ms / self.dbdc_ms
    }
}

/// Runs the sweep.
pub fn sweep() -> Vec<Fig8Row> {
    let n = if quick() { 5_000 } else { 203_000 };
    let site_counts: &[usize] = if quick() {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 6, 8, 10, 12, 16, 20]
    };
    let g = scaled_a(n, SEED);
    let params = DbdcParams::new(g.suggested_eps, g.suggested_min_pts)
        .with_eps_global(EpsGlobal::MultipleOfLocal(2.0))
        .with_model(LocalModelKind::Scor);
    let (_, central) = central_dbscan(&g.data, &params);
    let central_ms = ms(central);
    site_counts
        .iter()
        .map(|&sites| {
            let outcome = run_dbdc(
                &g.data,
                &params,
                Partitioner::RandomEqual { seed: SEED },
                sites,
            );
            Fig8Row {
                sites,
                dbdc_ms: ms(outcome.timings.dbdc_total()),
                global_ms: ms(outcome.timings.global),
                central_ms,
            }
        })
        .collect()
}

/// Figure 8a: runtime vs number of sites.
pub fn run_sites() -> String {
    let rows = sweep();
    let mut t = Table::new([
        "sites",
        "DBDC(REP_Scor) [ms]",
        "of which global [ms]",
        "central [ms]",
    ]);
    for r in &rows {
        t.row([
            r.sites.to_string(),
            f(r.dbdc_ms, 1),
            f(r.global_ms, 1),
            f(r.central_ms, 1),
        ]);
    }
    format!(
        "## fig8a — overall runtime vs number of sites (203 000 points)\n\n{}",
        t.render()
    )
}

/// Figure 8b: speed-up vs number of sites.
pub fn run_speedup() -> String {
    let rows = sweep();
    let mut t = Table::new(["sites", "speedup vs central"]);
    for r in &rows {
        t.row([r.sites.to_string(), f(r.speedup(), 2)]);
    }
    format!(
        "## fig8b — speed-up of DBDC(REP_Scor) vs central DBSCAN (203 000 points)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_grows_with_sites() {
        std::env::set_var("DBDC_QUICK", "1");
        let rows = sweep();
        assert_eq!(rows.len(), 3);
        // More sites -> smaller local phase -> faster DBDC. Allow noise on
        // the tiny quick workload by only requiring the trend end-to-end.
        assert!(
            rows.last().unwrap().dbdc_ms <= rows[0].dbdc_ms * 1.5,
            "rows: {rows:?}"
        );
        for r in &rows {
            assert!(r.speedup() > 0.0);
        }
    }

    #[test]
    fn reports_render() {
        std::env::set_var("DBDC_QUICK", "1");
        assert!(run_sites().contains("fig8a"));
        assert!(run_speedup().contains("speedup"));
    }
}
