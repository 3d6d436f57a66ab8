//! End-to-end tests of the `fume-cli` and `fume-serve` binaries: real
//! processes, real CSV.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// This test process's scratch directory. Tests run on parallel threads,
/// so each one writes files under its own name in it.
fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fume_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the loans CSV to `<test>.csv`, a file no other test touches.
fn write_loans_csv(test: &str) -> PathBuf {
    let path = tmp_dir().join(format!("{test}.csv"));
    let mut out = String::from("age,job,sex,approved\n");
    for i in 0..1500usize {
        let age = 20 + (i * 7) % 50;
        let job = ["manual", "office", "none"][i % 3];
        let sex = if i % 2 == 0 { "f" } else { "m" };
        let approved = match (job, sex) {
            ("manual", "f") => false,
            ("manual", "m") => true,
            _ => (i / 2) % 2 == 0,
        };
        out.push_str(&format!("{age},{job},{sex},{}\n", u8::from(approved)));
    }
    std::fs::write(&path, out).unwrap();
    path
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fume-cli"))
}

fn serve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fume-serve"))
}

fn common_args(cmd: &mut Command, csv: &std::path::Path) {
    cmd.args([
        "--data",
        csv.to_str().unwrap(),
        "--label",
        "approved",
        "--positive",
        "1",
        "--sensitive",
        "sex",
        "--privileged",
        "m",
        "--trees",
        "10",
        "--support",
        "0.05:0.4",
        "--seed",
        "3",
    ]);
}

#[test]
fn explain_prints_a_topk_table() {
    let csv = write_loans_csv("explain_prints_a_topk_table");
    let mut cmd = cli();
    cmd.arg("explain");
    common_args(&mut cmd, &csv);
    let out = cmd.output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| # | Patterns | Support | Parity Reduction |"), "{stdout}");
    assert!(stdout.contains("manual") || stdout.contains("sex"), "{stdout}");
}

#[test]
fn slices_and_baseline_subcommands_work() {
    let csv = write_loans_csv("slices_and_baseline_subcommands_work");
    for sub in ["slices", "baseline"] {
        let mut cmd = cli();
        cmd.arg(sub);
        common_args(&mut cmd, &csv);
        let out = cmd.output().expect("binary runs");
        assert!(
            out.status.success(),
            "{sub}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn explain_with_trace_writes_jsonl_and_profile() {
    let csv = write_loans_csv("explain_with_trace_writes_jsonl_and_profile");
    let trace = tmp_dir().join("trace.jsonl");
    let _ = std::fs::remove_file(&trace);
    let mut cmd = cli();
    cmd.arg("explain");
    common_args(&mut cmd, &csv);
    cmd.args(["--trace", trace.to_str().unwrap()]);
    let out = cmd.output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("wrote"), "{stderr}");
    // The per-phase profile table lands on stderr, keeping stdout clean.
    assert!(stderr.contains("fume.explain"), "{stderr}");
    assert!(stderr.contains("lattice.pruned.rule1"), "{stderr}");

    let jsonl = std::fs::read_to_string(&trace).expect("trace written");
    assert!(jsonl.lines().count() > 10);
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    assert!(jsonl.contains("\"name\":\"fume.phase.unlearn_eval\""));
    assert!(jsonl.contains("\"name\":\"forest.nodes_retrained\""));

    // FUME_TRACE is the env-var spelling of the same switch.
    let trace2 = tmp_dir().join("trace2.jsonl");
    let _ = std::fs::remove_file(&trace2);
    let mut cmd = cli();
    cmd.arg("explain");
    common_args(&mut cmd, &csv);
    cmd.env("FUME_TRACE", trace2.to_str().unwrap());
    let out = cmd.output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(trace2.exists(), "FUME_TRACE must write a trace");
}

#[test]
fn bad_invocations_exit_nonzero_with_usage() {
    // No arguments.
    let out = cli().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    // Unknown metric.
    let csv = write_loans_csv("bad_invocations_exit_nonzero_with_usage");
    let mut cmd = cli();
    cmd.arg("explain");
    common_args(&mut cmd, &csv);
    cmd.args(["--metric", "nope"]);
    let out = cmd.output().unwrap();
    assert!(!out.status.success());

    // Missing file.
    let out = cli()
        .args([
            "explain", "--data", "/nonexistent.csv", "--label", "l", "--positive", "1",
            "--sensitive", "s", "--privileged", "x",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Privileged value not present in the column.
    let mut cmd = cli();
    cmd.arg("explain");
    cmd.args([
        "--data",
        csv.to_str().unwrap(),
        "--label",
        "approved",
        "--positive",
        "1",
        "--sensitive",
        "sex",
        "--privileged",
        "martian",
    ]);
    let out = cmd.output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("martian"));
}

#[test]
fn served_report_is_byte_identical_to_the_cli_json() {
    let csv = write_loans_csv("served_report_is_byte_identical_to_the_cli_json");
    let mut cmd = cli();
    cmd.arg("explain");
    common_args(&mut cmd, &csv);
    cmd.arg("--json");
    let out = cmd.output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let cli_report = String::from_utf8(out.stdout).unwrap();

    let mut cmd = serve();
    common_args(&mut cmd, &csv);
    cmd.args(["--workers", "1"]);
    cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("binary runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"op\":\"explain\",\"id\":\"r1\"}\n{\"op\":\"shutdown\",\"id\":\"r2\"}\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let session = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = session.lines().collect();
    assert_eq!(lines.len(), 2, "{session}");
    assert!(lines[1].contains("\"shutdown\":true"), "{}", lines[1]);
    let served = lines[0]
        .split_once(",\"report\":")
        .and_then(|(_, rest)| rest.strip_suffix('}'))
        .unwrap_or_else(|| panic!("no report in {}", lines[0]));
    assert_eq!(served, cli_report.trim_end());
}

#[test]
fn serve_rejects_an_unknown_metric_like_the_cli() {
    let csv = write_loans_csv("serve_rejects_an_unknown_metric_like_the_cli");
    let mut cmd = serve();
    common_args(&mut cmd, &csv);
    cmd.args(["--metric", "nope"]).stdin(Stdio::null());
    let out = cmd.output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown metric `nope`"));

    // No arguments: usage on stderr.
    let out = serve().stdin(Stdio::null()).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
