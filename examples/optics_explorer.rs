//! OPTICS as the global-model explorer — Section 6's road not taken.
//!
//! The paper considers building the global model with OPTICS so that the
//! user can "visually analyze the hierarchical clustering structure for
//! several Eps_global parameters without running the clustering algorithm
//! again and again". This example does exactly that: it runs the local
//! phase of DBDC, computes the OPTICS ordering of the transmitted
//! representatives, prints the reachability plot, and shows how different
//! cuts of the same ordering re-shape the global clustering.
//!
//! ```sh
//! cargo run --release --example optics_explorer
//! ```

use dbdc::{local_phase, wire, DbdcParams, Partitioner};
use dbdc_cluster::{extract_dbscan, optics, DbscanParams};
use dbdc_geom::{Dataset, Euclidean};
use dbdc_index::LinearScan;
use dbdc_obs::NoopRecorder;

fn main() {
    let g = dbdc_datagen::dataset_a(2004);
    let params = DbdcParams::new(g.suggested_eps, g.suggested_min_pts);
    let sites = 4;
    println!(
        "data set A: {} points over {sites} sites (eps_local = {})",
        g.data.len(),
        params.eps_local
    );

    // Local phase: gather every site's representatives.
    let assignment = Partitioner::RandomEqual { seed: 2004 }.assign(&g.data, sites);
    let (parts, _) = g.data.partition(sites, &assignment);
    let mut reps = Dataset::new(2);
    for (site, part) in parts.iter().enumerate() {
        let local = local_phase(site as u32, part, &params, &NoopRecorder);
        let model = wire::decode_local_model(&local.encoded).expect("own local model decodes");
        for r in &model.reps {
            reps.push(r.point.coords());
        }
    }
    println!("{} representatives collected\n", reps.len());

    // One OPTICS run over the representatives answers every Eps_global.
    let max_eps = 6.0 * params.eps_local;
    let idx = LinearScan::new(&reps, Euclidean);
    let ordering = optics(&reps, &idx, &DbscanParams::new(max_eps, 2));
    println!("reachability plot of the representatives (cap = {max_eps:.1}):");
    print!("{}", ordering.reachability_plot(96, 12));
    println!("{}", "▔".repeat(96));
    println!("valleys = global clusters, peaks = separations\n");

    println!("{:>22} {:>16}", "Eps_global cut", "global clusters");
    for mult in [1.0, 1.5, 2.0, 3.0, 4.0, 6.0] {
        let cut = mult * params.eps_local;
        let flat = extract_dbscan(&ordering, cut);
        println!("{:>14.1} (x{:.1}) {:>16}", cut, mult, flat.n_clusters());
    }
    println!(
        "\nThe paper's recommended 2x cut sits on the plateau where the\n\
         cluster count stabilizes; one ordering gave us the whole sweep."
    );
}
