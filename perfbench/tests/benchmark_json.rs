//! `BENCHMARK.json` at the repository root names exactly the workloads
//! and metrics this benchmark runs and prints.

use dbdc_obs::Json;
use dbdc_perfbench::metrics::{Def, END_TO_END, PER_LAYER, PRINTED_ONLY};
use dbdc_perfbench::workload::WORKLOADS;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn expected(table: &[Def]) -> Vec<(String, String)> {
    table
        .iter()
        .filter(|d| !PRINTED_ONLY.contains(&d.name))
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_tables() {
    let m = manifest();
    let workloads: Vec<(String, String)> = m
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            let s = |k: &str| w.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("why"))
        })
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(workloads, ours);
    let e2e = m.get("end_to_end").expect("end_to_end");
    assert_eq!(names_and_units(e2e), expected(&END_TO_END));
    for metric in e2e.as_arr().expect("list") {
        let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let per_layer = m.get("per_layer").expect("per_layer");
    assert_eq!(names_and_units(per_layer), expected(&PER_LAYER));
}
