//! `dbdc-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the environment, the workload's inputs, one `metric` line per
//! metric, any failed check, and as its last line the JSON result.
//! Exits 0 only when every check passed.

use std::path::PathBuf;
use std::process::ExitCode;

use dbdc_perfbench::run::{run, Args};
use dbdc_perfbench::workload::{find, WORKLOADS};

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: dbdc-perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--tiny] [--spans FILE]",
        names.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut spans) = (false, None);
    while let Some(flag) = argv.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(find(&value).ok_or_else(|| bad(&"no such workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        spans: spans.unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-seed{seed}.json", workload.name))
        }),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    for line in outcome.ledger.lines(outcome.table) {
        println!("{line}");
    }
    for problem in &outcome.checks.problems {
        println!("check failed: {problem}");
    }
    let passed = outcome.checks.passed();
    println!(
        "{}",
        outcome.ledger.result_line(
            outcome.table,
            passed,
            outcome.checks.attempted,
            outcome.checks.failed
        )
    );
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
