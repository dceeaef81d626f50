//! The workloads: what each one generates, how it is split, and which
//! protocol settings it runs with.
//!
//! Every workload uses the generator's Eps/MinPts, `Eps_global =
//! 2·Eps_local`, REP_Scor, the R*-tree, and a random-equal split. The
//! seed draws the points and the split; the program only ever sees the
//! generated points.

use std::time::{Duration, Instant};

use dbdc::{DbdcParams, EpsGlobal, LocalModelKind, Partitioner};
use dbdc_geom::Dataset;
use dbdc_index::IndexKind;

/// The cluster layout of the dataset-A-like workloads. `scaled_a(n, s)`
/// draws both the layout (8–12 ellipses of random size) and the points
/// from `s`, so its cost swings by ±15% from seed to seed. The benchmark
/// pins the layout and lets the seed draw only the points, so a seed
/// changes the sample, not the workload.
pub const LAYOUT_SEED: u64 = 42;

/// `scaled_a`'s suggested `Eps_local` (pinned by a test).
pub const SCALED_A_EPS: f64 = 1.0;

/// `scaled_a`'s suggested `MinPts_local` (pinned by a test).
pub const SCALED_A_MIN_PTS: usize = 5;

/// The seed kept out of all tuning, for held-out confirmation of a
/// claimed gain.
pub const HELD_OUT_SEED: u64 = 20_041;

/// How the points are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// `spec_a(LAYOUT_SEED, points).generate(seed)`.
    ScaledA {
        /// Full-size cardinality.
        points: usize,
        /// Cardinality in `--tiny` mode.
        tiny_points: usize,
    },
    /// The paper's dataset C (1 021 points), `dataset_c(seed)`.
    C,
}

/// Where the protocol runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One `run_dbdc` call per repetition.
    InProcess,
    /// `serve` plus one `run_site` thread per site over loopback TCP,
    /// one fleet in flight at a time (a closed loop).
    Fleet,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// Why it exists, in one line (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// The points.
    pub data: Data,
    /// Client sites.
    pub sites: usize,
    /// `DbdcParams::threads`.
    pub threads: usize,
    /// `DbdcParams::partitions`.
    pub partitions: usize,
    /// In-process or loopback fleet.
    pub mode: Mode,
}

/// All workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dense-par",
        why: "Fig 8 cardinality (203k points, 4 sites) at threads 2, partitions 2: index and local DBSCAN via stripes, eps-halos, union-find",
        data: Data::ScaledA {
            points: 203_000,
            tiny_points: 6_000,
        },
        sites: 4,
        threads: 2,
        partitions: 2,
        mode: Mode::InProcess,
    },
    Workload {
        name: "many-sites",
        why: "Fig 10's 20 sites on 50k points: thin shards, many reps, relabel and global model dominate",
        data: Data::ScaledA {
            points: 50_000,
            tiny_points: 4_000,
        },
        sites: 20,
        threads: 1,
        partitions: 1,
        mode: Mode::InProcess,
    },
    Workload {
        name: "fleet",
        why: "dataset C over 2 sites on real loopback TCP: handshake, frames and the net site step",
        data: Data::C,
        sites: 2,
        threads: 1,
        partitions: 1,
        mode: Mode::Fleet,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One set-up's product: the points, the protocol settings, and the
/// split onto sites.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// All points, in generation order.
    pub data: Dataset,
    /// The protocol parameters.
    pub params: DbdcParams,
    /// The split the protocol (and every check) uses.
    pub partitioner: Partitioner,
    /// Each site's points.
    pub parts: Vec<Dataset>,
    /// `back[site][pos]` — the original index of each site point.
    pub back: Vec<Vec<u32>>,
    /// Wall time of generating the points.
    pub generate: Duration,
    /// Wall time of `assign` + `partition`.
    pub split: Duration,
}

impl Workload {
    /// Generates the inputs for `seed` and splits them onto sites,
    /// timing both steps.
    pub fn setup(&self, seed: u64, tiny: bool) -> Inputs {
        let t0 = Instant::now();
        let (data, eps, min_pts) = match self.data {
            Data::ScaledA {
                points,
                tiny_points,
            } => {
                let n = if tiny { tiny_points } else { points };
                let g = dbdc_datagen::spec_a(LAYOUT_SEED, n).generate(seed);
                (g.data, SCALED_A_EPS, SCALED_A_MIN_PTS)
            }
            Data::C => {
                let g = dbdc_datagen::dataset_c(seed);
                (g.data, g.suggested_eps, g.suggested_min_pts)
            }
        };
        let generate = t0.elapsed();
        let params = DbdcParams::new(eps, min_pts)
            .with_eps_global(EpsGlobal::MultipleOfLocal(2.0))
            .with_model(LocalModelKind::Scor)
            .with_index(IndexKind::RStar)
            .with_threads(self.threads)
            .with_partitions(self.partitions);
        let partitioner = Partitioner::RandomEqual {
            seed: split_seed(seed),
        };
        let t1 = Instant::now();
        let assignment = partitioner.assign(&data, self.sites);
        let (parts, back) = data.partition(self.sites, &assignment);
        let split = t1.elapsed();
        Inputs {
            data,
            params,
            partitioner,
            parts,
            back,
            generate,
            split,
        }
    }
}

/// The split's shuffle seed, decorrelated from the point generator's
/// stream (both seed a `StdRng`).
fn split_seed(seed: u64) -> u64 {
    seed ^ 0x5EED_5EED_5EED_5EED
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_parameters_are_scaled_a_s() {
        let g = dbdc_datagen::scaled_a(500, 3);
        assert_eq!(g.suggested_eps, SCALED_A_EPS);
        assert_eq!(g.suggested_min_pts, SCALED_A_MIN_PTS);
    }

    #[test]
    fn the_seed_draws_the_points_and_repeats_them() {
        let w = find("many-sites").expect("workload exists");
        let a = w.setup(1, true);
        let b = w.setup(1, true);
        let c = w.setup(2, true);
        assert_eq!(a.data, b.data);
        assert_eq!(a.back, b.back);
        assert_ne!(a.data, c.data);
        assert_eq!(a.parts.len(), 20);
    }

    #[test]
    fn names_are_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200);
        }
    }
}
