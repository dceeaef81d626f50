//! A tiny-size run of every workload, untraced and traced: the command
//! exits 0, prints every metric of its table exactly once with its unit,
//! and ends with a JSON result line holding every gated metric.

use std::process::Command;

use dbdc_obs::Json;
use dbdc_perfbench::metrics::{Def, END_TO_END, PER_LAYER, PRINTED_ONLY};
use dbdc_perfbench::workload::WORKLOADS;

fn run(workload: &str, trace: &str) -> String {
    let spans = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-spans-{workload}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_dbdc-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", trace, "--tiny", "--spans"])
        .arg(&spans)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn assert_prints(stdout: &str, table: &[Def], context: &str) {
    for d in table {
        let lines: Vec<&str> = stdout
            .lines()
            .filter(|l| l.split_whitespace().nth(1) == Some(d.name))
            .collect();
        assert_eq!(
            lines.len(),
            1,
            "{context}: {} printed {} times",
            d.name,
            lines.len()
        );
        let fields: Vec<&str> = lines[0].split_whitespace().collect();
        assert_eq!(fields[0], "metric", "{context}: {}", lines[0]);
        assert!(fields[2].parse::<f64>().is_ok(), "{context}: {}", lines[0]);
        assert_eq!(fields[3], d.unit, "{context}: {}", lines[0]);
    }
    let last = stdout.lines().last().expect("output");
    let result = Json::parse(last).expect("last line is JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
    let metrics = result.get("metrics").expect("metrics");
    for d in table.iter().filter(|d| !PRINTED_ONLY.contains(&d.name)) {
        let m = metrics
            .get(d.name)
            .unwrap_or_else(|| panic!("{context}: {} missing", d.name));
        assert!(m.get("value").and_then(Json::as_f64).is_some());
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
    }
    let Some(Json::Obj(pairs)) = result.get("metrics") else {
        panic!("metrics is not an object");
    };
    assert_eq!(
        pairs.len(),
        table.len()
            - table
                .iter()
                .filter(|d| PRINTED_ONLY.contains(&d.name))
                .count()
    );
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in &WORKLOADS {
        let stdout = run(w.name, "0");
        assert_prints(&stdout, &END_TO_END, w.name);
        assert!(stdout.contains(&format!("workload {} points=", w.name)));
        assert!(stdout.contains("env nproc="));
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in &WORKLOADS {
        let stdout = run(w.name, "1");
        assert_prints(&stdout, &PER_LAYER, w.name);
    }
}

#[test]
fn a_bad_flag_exits_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_dbdc-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
