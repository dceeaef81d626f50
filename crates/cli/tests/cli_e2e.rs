//! End-to-end tests of the `dbdc-cli` binary: real process, real files.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dbdc-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dbdc_cli_e2e_{}_{name}", std::process::id()));
    p
}

#[test]
fn generate_compare_run_round_trip() {
    let csv = tmp("pts.csv");
    let labels = tmp("labels.csv");

    let out = bin()
        .args(["generate", "--set", "c", "--seed", "5", "--out"])
        .arg(&csv)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "generate failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1021 points"), "{stdout}");

    let out = bin()
        .args(["compare", "--input"])
        .arg(&csv)
        .args(["--eps", "1.2", "--min-pts", "5", "--sites", "4"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "compare failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("P^II"), "{stdout}");

    let out = bin()
        .args(["run", "--input"])
        .arg(&csv)
        .args(["--eps", "1.2", "--min-pts", "5", "--sites", "3", "--out"])
        .arg(&labels)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "run failed: {out:?}");
    let text = std::fs::read_to_string(&labels).expect("labels written");
    assert_eq!(text.lines().count(), 1021);
    // Every line ends in a cluster id or "noise".
    assert!(text.lines().all(|l| l
        .rsplit(',')
        .next()
        .map(|f| f == "noise" || f.parse::<u32>().is_ok())
        == Some(true)));

    let _ = std::fs::remove_file(&csv);
    let _ = std::fs::remove_file(&labels);
}

#[test]
fn suggest_reports_knee() {
    let csv = tmp("suggest.csv");
    assert!(bin()
        .args(["generate", "--set", "c", "--seed", "9", "--out"])
        .arg(&csv)
        .status()
        .expect("binary runs")
        .success());
    let out = bin()
        .args(["suggest", "--input"])
        .arg(&csv)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("suggested: --eps"), "{stdout}");
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn plot_writes_svg() {
    let csv = tmp("plot.csv");
    let svg = tmp("plot.svg");
    assert!(bin()
        .args(["generate", "--set", "c", "--seed", "2", "--out"])
        .arg(&csv)
        .status()
        .expect("binary runs")
        .success());
    let out = bin()
        .args(["plot", "--input"])
        .arg(&csv)
        .args(["--eps", "1.2", "--min-pts", "5", "--out"])
        .arg(&svg)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "plot failed: {out:?}");
    let text = std::fs::read_to_string(&svg).expect("svg written");
    assert!(text.starts_with("<svg"));
    assert!(text.contains("<circle"));
    let _ = std::fs::remove_file(&csv);
    let _ = std::fs::remove_file(&svg);
}

#[test]
fn bad_usage_exits_nonzero_with_message() {
    // Unknown command.
    let out = bin().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required flag.
    let out = bin()
        .args(["central", "--eps", "1.0", "--min-pts", "3"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));

    // Unknown flag.
    let out = bin()
        .args(["generate", "--set", "c", "--bogus", "1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    // The server rejects the local-phase flags it never reads.
    let serve = ["--sites", "1", "--eps", "1.0", "--min-pts", "3"];
    for (flag, value) in [("--threads", "2"), ("--model", "kmeans")] {
        let out = Command::new(env!("CARGO_BIN_EXE_dbdc-server"))
            .args(serve)
            .args([flag, value])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "dbdc-server accepted {flag}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
    }

    // Nonexistent input file.
    let out = bin()
        .args([
            "central",
            "--input",
            "/nonexistent/nope.csv",
            "--eps",
            "1.0",
            "--min-pts",
            "3",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));

    // Out-of-range protocol values exit 1 with a message naming the
    // flag, never with a panic.
    let csv = tmp("bad_values.csv");
    assert!(bin()
        .args(["generate", "--set", "c", "--seed", "3", "--out"])
        .arg(&csv)
        .status()
        .expect("binary runs")
        .success());
    let mut bad = vec![("--min-pts", "0"), ("--sites", "0")];
    bad.extend(["0", "-1", "NaN", "inf"].map(|v| ("--eps", v)));
    bad.extend(["-1", "0", "NaN"].map(|v| ("--eps-global", v)));
    for cmd in ["run", "compare", "tune", "central"] {
        for &(flag, value) in &bad {
            if cmd == "central" && !matches!(flag, "--eps" | "--min-pts") {
                continue;
            }
            let mut flags = vec![("--eps", "1.2"), ("--min-pts", "5")];
            if cmd != "central" {
                flags.push(("--sites", "2"));
            }
            match flags.iter_mut().find(|(f, _)| *f == flag) {
                Some(slot) => slot.1 = value,
                None => flags.push((flag, value)),
            }
            let mut c = bin();
            c.args([cmd, "--input"]).arg(&csv);
            for (f, v) in flags {
                c.args([f, v]);
            }
            let out = c.output().expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {flag} {value}: {stderr}");
            assert!(stderr.contains(flag), "{cmd} {flag} {value}: {stderr}");
        }
    }
    let _ = std::fs::remove_file(&csv);

    // The server rejects a bad multiplier before it binds, not after
    // taking the sites' uploads.
    let out = Command::new(env!("CARGO_BIN_EXE_dbdc-server"))
        .args(serve)
        .args(["--eps-global", "-3"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--eps-global"), "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("listening"));

    // Strict parsing: a flag is honoured or rejected, never dropped or
    // overridden. Each line exits 1 naming the flag, or the stray word.
    let csv = tmp("strict.csv");
    let svg = tmp("strict.svg");
    assert!(bin()
        .args(["generate", "--set", "c", "--seed", "3", "--out"])
        .arg(&csv)
        .status()
        .expect("binary runs")
        .success());
    let input = csv.to_str().unwrap();
    let protocol = [
        "--input",
        input,
        "--eps",
        "1.6",
        "--min-pts",
        "5",
        "--sites",
        "2",
    ];
    let run = |extra: &[&'static str]| {
        let mut argv = vec!["run"];
        argv.extend(protocol);
        argv.extend(extra);
        argv
    };
    let compare = [&["compare"][..], &protocol[..]].concat();
    let site = [
        "--input",
        input,
        "--site",
        "0",
        "--sites",
        "2",
        "--eps",
        "1.6",
        "--min-pts",
        "5",
        "--connect",
        "127.0.0.1:9",
    ];
    let precision = ["--precision", "f32"];
    let mut stream = vec!["stream"];
    stream.extend(protocol);
    let mut stream_batch = stream.clone();
    stream_batch.extend(["--batch", "0"]);
    stream.extend(["--seed", "5"]);
    let strict: Vec<(Vec<&str>, &str)> = vec![
        (run(&["--threads", "--partitions", "2"]), "--threads"),
        (run(&precision), "--precision"),
        ([&compare[..], &precision[..]].concat(), "--precision"),
        (
            [&["site"][..], &site[..], &precision[..]].concat(),
            "--precision",
        ),
        (run(&["--seed"]), "--seed"),
        (run(&["--eps", "99"]), "--eps"),
        (run(&["--trace", "yes"]), "\"yes\""),
        (run(&["--partitioner", "stripes", "--seed", "3"]), "--seed"),
        (stream, "--seed"),
        (vec!["suggest", "--input", input, "--k", "0"], "--k"),
        (stream_batch, "--batch"),
        (vec!["generate", "--set", "b", "--n", "50"], "--n"),
        (vec!["generate", "--set", "c", "--n", "50"], "--n"),
        (
            vec![
                "plot",
                "--input",
                input,
                "--out",
                svg.to_str().unwrap(),
                "--index",
                "grid",
            ],
            "--index",
        ),
        (vec!["report", "--input", "R", "--out", "F"], "--out"),
        (
            vec!["report", "--input", "R", "--threshold", "0.5"],
            "--threshold",
        ),
        (
            vec!["report", "diff", "A", "B", "--require", "X"],
            "--require",
        ),
        (vec!["report", "merge", "S", "--hist"], "--hist"),
        (vec!["report", "diff", "A"], "OLD NEW"),
        (
            vec!["watch", "127.0.0.1:9", "--once", "--interval", "5"],
            "--interval",
        ),
        (
            vec!["proxy", "--connect", "127.0.0.1:9", "--addr-file", "x"],
            "--addr-file",
        ),
    ];
    for (argv, needle) in strict {
        let out = bin().args(&argv).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        assert!(stderr.contains(needle), "{argv:?}: {stderr}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_dbdc-site"))
        .args(site)
        .args(precision)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--precision"), "{stderr}");
    assert!(!svg.exists(), "a rejected plot wrote its SVG");
    let _ = std::fs::remove_file(&csv);

    // Values the command cannot honour exit 1 with a message naming the
    // flag or the field, never with a panic: fault probabilities outside
    // [0, 1] or summing past 1 (the proxy stacks them into the bands of
    // one draw), and a report histogram whose min exceeds its max.
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../obs/tests/golden/run_report.json"
    );
    let doctored = tmp("doctored_report.json");
    let text = std::fs::read_to_string(golden).expect("golden report");
    assert_eq!(text.matches("\"min\": 850,").count(), 1);
    std::fs::write(&doctored, text.replace("\"min\": 850,", "\"min\": 39000,"))
        .expect("doctored report written");
    let doctored_in = doctored.to_str().unwrap();
    let proxy = ["proxy", "--connect", "127.0.0.1:9"];
    let unusable: Vec<(Vec<&str>, &str)> = vec![
        ([&proxy[..], &["--drop", "1.5"]].concat(), "--drop"),
        ([&proxy[..], &["--truncate", "-0.1"]].concat(), "--truncate"),
        ([&proxy[..], &["--bitflip", "NaN"]].concat(), "--bitflip"),
        ([&proxy[..], &["--delay-p", "inf"]].concat(), "--delay-p"),
        (
            [&proxy[..], &["--drop", "0.6", "--truncate", "0.6"]].concat(),
            "--drop + --truncate",
        ),
        (
            vec!["report", "--input", doctored_in],
            "local[0]/eps_range_ns",
        ),
        (vec!["report", "diff", golden, doctored_in], "exceeds"),
    ];
    for (argv, needle) in unusable {
        let out = bin().args(&argv).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        assert!(stderr.contains(needle), "{argv:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&doctored);

    // A CSV wider than the wire format's dim field fails before any
    // clustering on every command whose local models cross the wire,
    // while the central commands still take it.
    let wide = tmp("wide.csv");
    let row = vec!["1"; 70_000].join(",");
    std::fs::write(&wide, format!("{row}\n{row}\n")).expect("wide csv written");
    let wide_in = wide.to_str().unwrap();
    let local = ["--input", wide_in, "--eps", "1", "--min-pts", "1"];
    let protocol = ["--sites", "1", "--index", "linear"];
    let site = ["--site", "0", "--connect", "127.0.0.1:9"];
    for (exe, cmd) in [
        (env!("CARGO_BIN_EXE_dbdc-cli"), "run"),
        (env!("CARGO_BIN_EXE_dbdc-cli"), "compare"),
        (env!("CARGO_BIN_EXE_dbdc-cli"), "tune"),
        (env!("CARGO_BIN_EXE_dbdc-site"), ""),
    ] {
        let mut c = Command::new(exe);
        if !cmd.is_empty() {
            c.arg(cmd);
        }
        c.args(local).args(protocol);
        if cmd.is_empty() {
            c.args(site);
        }
        let out = c.output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe} {cmd}: {stderr}");
        assert!(
            stderr.contains("70000") && stderr.contains("65535"),
            "{exe} {cmd}: {stderr}"
        );
    }
    let out = bin()
        .arg("central")
        .args(local)
        .args(["--index", "linear"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "central on wide input: {out:?}");
    let _ = std::fs::remove_file(&wide);
}

#[test]
fn every_form_answers_help_from_its_table() {
    use dbdc_cli::flags::*;
    let forms = [
        &GENERATE,
        &CENTRAL,
        &RUN,
        &COMPARE,
        &TUNE,
        &PLOT,
        &SUGGEST,
        &STREAM,
        &SERVE,
        &SITE,
        &PROXY,
        &WATCH,
        &REPORT,
        &REPORT_DIFF,
        &REPORT_MERGE,
        &REPORT_TIMELINE,
    ];
    let out = bin().arg("--help").output().expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let overview = String::from_utf8_lossy(&out.stdout).into_owned();
    // The overview lists these forms and no other: one synopsis line each,
    // in this order.
    let listed: Vec<&str> = overview
        .lines()
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
        .collect();
    let synopses: Vec<String> = forms
        .iter()
        .map(|f| format!("  {} {}", f.command, f.synopsis()))
        .collect();
    assert_eq!(listed, synopses, "{overview}");
    for form in forms {
        let words: Vec<&str> = form.command.split(' ').collect();
        for help in ["--help", "-h"] {
            let out = bin().args(&words).arg(help).output().expect("binary runs");
            assert!(out.status.success(), "{} {help}: {out:?}", form.command);
            let usage = String::from_utf8_lossy(&out.stdout);
            assert_eq!(usage, form.usage(), "{} {help}", form.command);
            for flag in form.flags {
                let spelled = match flag.value {
                    Some(v) => format!("--{} {v}", flag.name),
                    None => format!("--{}", flag.name),
                };
                assert!(usage.contains(&spelled), "{spelled}: {usage}");
            }
        }
    }
    for (exe, form) in [
        (env!("CARGO_BIN_EXE_dbdc-server"), &SERVE),
        (env!("CARGO_BIN_EXE_dbdc-site"), &SITE),
    ] {
        let out = Command::new(exe)
            .arg("--help")
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{exe}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), form.usage());
    }
    // Without a command the overview goes to stderr and the exit is 2.
    let out = bin().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(String::from_utf8_lossy(&out.stderr), overview);
}

#[test]
fn generate_to_stdout_writes_only_csv_rows() {
    let metrics = tmp("generate_metrics.json");
    let metrics_out = ["--metrics-out", metrics.to_str().unwrap()];
    for (extra, width) in [
        (&[][..], 2),
        (&["--truth"][..], 3),
        (&["--trace"][..], 2),
        (&metrics_out[..], 2),
    ] {
        let out = bin()
            .args(["generate", "--set", "c", "--seed", "3"])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.lines().count(), 1021, "{extra:?}");
        for line in stdout.lines() {
            // Coordinates, then with `--truth` a cluster id or "noise".
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), width, "{extra:?}: {line}");
            assert!(
                fields[..2].iter().all(|f| f.parse::<f64>().is_ok())
                    && fields[2..]
                        .iter()
                        .all(|f| f.parse::<u32>().is_ok() || *f == "noise"),
                "{extra:?}: {line}"
            );
        }
        // The status line, the trace and the `wrote` note go to stderr.
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("generated 1021 points"), "{stderr}");
        if extra == ["--trace"] {
            assert!(stderr.contains("generate report"), "{stderr}");
        }
        if extra == metrics_out {
            assert!(stderr.contains("wrote"), "{stderr}");
        }
    }
    assert!(metrics.exists());
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn metrics_out_report_round_trip() {
    let csv = tmp("metrics.csv");
    let json = tmp("metrics.json");
    assert!(bin()
        .args(["generate", "--set", "c", "--seed", "6", "--out"])
        .arg(&csv)
        .status()
        .expect("binary runs")
        .success());

    // A recorded run writes JSON and prints the trace.
    let out = bin()
        .args(["run", "--input"])
        .arg(&csv)
        .args(["--eps", "1.2", "--min-pts", "5", "--sites", "3", "--trace"])
        .args(["--metrics-out"])
        .arg(&json)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "run failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== run report"), "{stdout}");
    assert!(stdout.contains("per-site upload bytes"), "{stdout}");
    assert!(stdout.contains("(modeled)"), "{stdout}");

    // The JSON is a valid RunReport carrying all protocol phases.
    let text = std::fs::read_to_string(&json).expect("json written");
    assert!(text.starts_with('{'));
    for key in ["\"schema_version\"", "\"counters\"", "\"local[0]\""] {
        assert!(text.contains(key), "missing {key} in {text}");
    }

    // `report` validates the phase set and renders it; a missing span
    // name fails with a nonzero exit.
    let out = bin()
        .args(["report", "--input"])
        .arg(&json)
        .args([
            "--require",
            "local[0],cluster,extract,encode,upload,global,broadcast,relabel[0]",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "report failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("== run report"));

    let out = bin()
        .args(["report", "--input"])
        .arg(&json)
        .args(["--require", "relabel[99]"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("relabel[99]"));
    // The error names what IS in the report, so a typo'd gate is
    // fixable from the message alone.
    assert!(
        stderr.contains("present spans/histograms:"),
        "error must list present scopes: {stderr}"
    );
    assert!(stderr.contains("local[0]"), "{stderr}");

    let _ = std::fs::remove_file(&csv);
    let _ = std::fs::remove_file(&json);
}

/// A minimal v2 report with one histogram cell built from `values`.
fn hist_report(values: &[u64]) -> dbdc_obs::RunReport {
    let mut r = dbdc_obs::RunReport::new("bench");
    r.hists = vec![(
        "c/kdtree/t1/total_ns".to_string(),
        dbdc_obs::Histogram::from_values(values.iter().copied()),
    )];
    r
}

fn write_report(name: &str, r: &dbdc_obs::RunReport) -> PathBuf {
    let path = tmp(name);
    std::fs::write(&path, r.to_json_string()).expect("report written");
    path
}

#[test]
fn report_diff_passes_within_tolerance_and_fails_on_regression() {
    let baseline = write_report(
        "diff_base.json",
        &hist_report(&[1_000_000, 1_050_000, 1_100_000, 1_150_000]),
    );
    // Same distribution, slightly shifted: inside the 25% floor.
    let steady = write_report(
        "diff_steady.json",
        &hist_report(&[1_020_000, 1_070_000, 1_110_000, 1_160_000]),
    );
    let out = bin()
        .arg("report")
        .arg("diff")
        .args([&baseline, &steady])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "clean diff failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok"), "{stdout}");
    assert!(stdout.contains("within tolerance"), "{stdout}");

    // Everything 10x slower (the doctored-report shape): nonzero exit.
    let doctored = write_report(
        "diff_doctored.json",
        &hist_report(&[10_000_000, 10_500_000, 11_000_000, 11_500_000]),
    );
    let out = bin()
        .arg("report")
        .arg("diff")
        .args([&baseline, &doctored])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "doctored diff must fail");
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESS"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("regression"));

    // A wider --threshold waves the same report through.
    let out = bin()
        .arg("report")
        .arg("diff")
        .args([&baseline, &doctored])
        .args(["--threshold", "9.5"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "wide threshold should pass: {out:?}");

    for p in [&baseline, &steady, &doctored] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn report_diff_warns_when_the_environment_moved() {
    let env = |nproc: usize, rustc: &str| dbdc_obs::EnvFingerprint {
        nproc,
        rustc: rustc.to_string(),
        git_rev: "abc1234".to_string(),
        dataset_checksum: "0".to_string(),
    };
    let mut base = hist_report(&[1_000_000, 1_050_000, 1_100_000, 1_150_000]);
    base.env = Some(env(1, "rustc 1.75.0"));
    let base_path = write_report("diff_env_base.json", &base);
    // The new report's nproc and rustc, what stderr must name, and what
    // it must not.
    let cases: [(usize, &str, &[&str], &[&str]); 3] = [
        (1, "rustc 1.75.0", &[], &["warning"]),
        (
            2,
            "rustc 1.80.0",
            &[
                "warning: not a like-for-like comparison",
                "nproc 1 vs 2",
                "rustc 1.75.0 vs rustc 1.80.0",
            ],
            &[],
        ),
        (2, "rustc 1.75.0", &["nproc 1 vs 2"], &["rustc"]),
    ];
    for (k, (nproc, rustc, named, unnamed)) in cases.into_iter().enumerate() {
        let mut new = base.clone();
        new.env = Some(env(nproc, rustc));
        let new_path = write_report(&format!("diff_env_{k}.json"), &new);
        let out = bin()
            .args(["report", "diff"])
            .args([&base_path, &new_path])
            .output()
            .expect("binary runs");
        // A warning never changes the verdict: the cells decide it.
        assert!(out.status.success(), "case {k}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for s in named {
            assert!(stderr.contains(s), "case {k}: {stderr}");
        }
        for s in unnamed {
            assert!(!stderr.contains(s), "case {k}: {stderr}");
        }
        let _ = std::fs::remove_file(&new_path);
    }
    let _ = std::fs::remove_file(&base_path);
}

#[test]
fn report_diff_only_narrows_the_gate() {
    // Baseline with two cells; only one regresses in the new report.
    let mut base = dbdc_obs::RunReport::new("bench");
    base.hists = vec![
        (
            "c/kdtree/t1/eps_range_ns".to_string(),
            dbdc_obs::Histogram::from_values([1_000_000, 1_050_000, 1_100_000]),
        ),
        (
            "c/kdtree/t1/total_ns".to_string(),
            dbdc_obs::Histogram::from_values([1_000_000, 1_050_000, 1_100_000]),
        ),
    ];
    let mut new = base.clone();
    new.hists[1].1 = dbdc_obs::Histogram::from_values([9_000_000, 9_500_000, 9_900_000]);
    let base_path = write_report("diff_only_base.json", &base);
    let new_path = write_report("diff_only_new.json", &new);

    // Ungated: the total_ns regression fails the diff.
    let out = bin()
        .arg("report")
        .arg("diff")
        .args([&base_path, &new_path])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "full diff must fail: {out:?}");

    // --only eps_range_ns: the regressed cell is filtered out.
    let out = bin()
        .arg("report")
        .arg("diff")
        .args([&base_path, &new_path])
        .args(["--only", "eps_range_ns"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "gated diff should pass: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("total_ns"), "{stdout}");

    // A substring matching nothing is an error, not a silent pass.
    let out = bin()
        .arg("report")
        .arg("diff")
        .args([&base_path, &new_path])
        .args(["--only", "no_such_cell"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "empty --only match must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no_such_cell"));

    for p in [&base_path, &new_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn report_diff_rejects_missing_cells() {
    let baseline = write_report("diff_cells_base.json", &hist_report(&[1_000, 2_000]));
    let mut empty = dbdc_obs::RunReport::new("bench");
    empty.hists = vec![(
        "other/cell_ns".to_string(),
        dbdc_obs::Histogram::from_values([5]),
    )];
    let shrunk = write_report("diff_cells_new.json", &empty);
    let out = bin()
        .arg("report")
        .arg("diff")
        .args([&baseline, &shrunk])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "missing cell must fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MISSING"), "{stdout}");
    assert!(stdout.contains("informational"), "{stdout}");
    let _ = std::fs::remove_file(&baseline);
    let _ = std::fs::remove_file(&shrunk);
}

#[test]
fn report_require_counter_and_hist_rendering() {
    let csv = tmp("reqctr.csv");
    let json = tmp("reqctr.json");
    assert!(bin()
        .args(["generate", "--set", "c", "--seed", "4", "--out"])
        .arg(&csv)
        .status()
        .expect("binary runs")
        .success());
    assert!(bin()
        .args(["run", "--input"])
        .arg(&csv)
        .args([
            "--eps",
            "1.2",
            "--min-pts",
            "5",
            "--sites",
            "3",
            "--metrics-out"
        ])
        .arg(&json)
        .status()
        .expect("binary runs")
        .success());

    // The instrumentation fired: range queries were counted.
    let out = bin()
        .args(["report", "--input"])
        .arg(&json)
        .args(["--require-counter", "range_queries,bytes_sent"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "require-counter failed: {out:?}");

    // A sequential run performs no DSU unions; the guard trips.
    let out = bin()
        .args(["report", "--input"])
        .arg(&json)
        .args(["--require-counter", "dsu_unions"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("dsu_unions"));

    // Unknown counter names also trip rather than silently passing.
    let out = bin()
        .args(["report", "--input"])
        .arg(&json)
        .args(["--require-counter", "no_such_counter"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());

    // --hist prints the distribution rows and only them.
    let out = bin()
        .args(["report", "--input"])
        .arg(&json)
        .arg("--hist")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "--hist failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("eps_range_ns"), "{stdout}");
    assert!(stdout.contains("p99="), "{stdout}");
    assert!(!stdout.contains("== run report"), "{stdout}");

    let _ = std::fs::remove_file(&csv);
    let _ = std::fs::remove_file(&json);
}

#[test]
fn central_trace_prints_counters() {
    let csv = tmp("central_trace.csv");
    assert!(bin()
        .args(["generate", "--set", "c", "--seed", "8", "--out"])
        .arg(&csv)
        .status()
        .expect("binary runs")
        .success());
    let out = bin()
        .args(["central", "--input"])
        .arg(&csv)
        .args(["--eps", "1.2", "--min-pts", "5", "--trace"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "central failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== central report"), "{stdout}");
    assert!(stdout.contains("range_queries="), "{stdout}");
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn stream_command_reports_transmissions() {
    let csv = tmp("stream.csv");
    assert!(bin()
        .args(["generate", "--set", "c", "--seed", "3", "--out"])
        .arg(&csv)
        .status()
        .expect("binary runs")
        .success());
    let out = bin()
        .args(["stream", "--input"])
        .arg(&csv)
        .args([
            "--eps",
            "1.2",
            "--min-pts",
            "5",
            "--sites",
            "2",
            "--batch",
            "150",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stream failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("global clusters"), "{stdout}");
    assert!(stdout.contains("drift gating sent"), "{stdout}");
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn quality_block_gates_end_to_end() {
    let csv = tmp("quality.csv");
    let json = tmp("quality.json");
    assert!(bin()
        .args(["generate", "--set", "c", "--seed", "8", "--out"])
        .arg(&csv)
        .status()
        .expect("binary runs")
        .success());

    // `run --metrics-out` emits a schema-v5 report with a finite DBCV.
    let out = bin()
        .args(["run", "--input"])
        .arg(&csv)
        .args(["--eps", "1.2", "--min-pts", "5", "--sites", "3"])
        .args(["--metrics-out"])
        .arg(&json)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "run failed: {out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("quality: DBCV"),
        "run must print its DBCV"
    );
    let report = dbdc_obs::RunReport::parse(&std::fs::read_to_string(&json).expect("json written"))
        .expect("report parses");
    assert_eq!(report.schema_version, 5);
    let quality = report.quality.clone().expect("run report carries quality");
    assert!(
        quality.dbcv.is_finite() && (-1.0..=1.0).contains(&quality.dbcv),
        "DBCV out of range: {}",
        quality.dbcv
    );

    // `--require-quality global` passes; an absent per-site scope fails.
    assert!(bin()
        .args(["report", "--input"])
        .arg(&json)
        .args(["--require-quality", "global"])
        .status()
        .expect("binary runs")
        .success());
    let out = bin()
        .args(["report", "--input"])
        .arg(&json)
        .args(["--require-quality", "site[9]"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("site[9]"));

    // A doctored DBCV drop beyond tolerance fails the directional diff;
    // the identical report passes it.
    let mut doctored = report.clone();
    doctored.quality.as_mut().unwrap().dbcv -= 0.2;
    let bad = write_report("quality_bad.json", &doctored);
    let out = bin()
        .args(["report", "diff"])
        .arg(&json)
        .arg(&bad)
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "0.2 DBCV drop must fail the diff");
    assert!(String::from_utf8_lossy(&out.stdout).contains("quality/dbcv"));
    assert!(bin()
        .args(["report", "diff"])
        .arg(&json)
        .arg(&json)
        .status()
        .expect("binary runs")
        .success());
    // A rise never fails, however large.
    let mut improved = report.clone();
    improved.quality.as_mut().unwrap().dbcv += 0.5;
    let good = write_report("quality_good.json", &improved);
    assert!(bin()
        .args(["report", "diff"])
        .arg(&json)
        .arg(&good)
        .status()
        .expect("binary runs")
        .success());

    let _ = std::fs::remove_file(&csv);
    let _ = std::fs::remove_file(&json);
    let _ = std::fs::remove_file(&bad);
    let _ = std::fs::remove_file(&good);
}

#[test]
fn tune_selects_at_least_the_default_eps_global() {
    let csv = tmp("tune.csv");
    assert!(bin()
        .args(["generate", "--set", "c", "--seed", "4", "--out"])
        .arg(&csv)
        .status()
        .expect("binary runs")
        .success());
    let out = bin()
        .args(["tune", "--input"])
        .arg(&csv)
        .args(["--eps", "1.2", "--min-pts", "5", "--sites", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "tune failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("selected --eps-global"), "{stdout}");

    // The default grid contains the CLI default (x2.0), so the argmax's
    // DBCV can never fall below the default setting's score.
    let row_dbcv = |name: &str| -> f64 {
        stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .and_then(|l| l.split_whitespace().last())
            .unwrap_or_else(|| panic!("no sweep row for {name} in {stdout}"))
            .parse()
            .expect("DBCV column parses")
    };
    let selected = stdout
        .lines()
        .find(|l| l.contains("selected --eps-global"))
        .and_then(|l| l.split_whitespace().nth(2))
        .expect("selection line names a candidate")
        .to_string();
    assert!(row_dbcv(&selected) >= row_dbcv("2.0"));

    let _ = std::fs::remove_file(&csv);
}
