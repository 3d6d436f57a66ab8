//! `explain_e2e`: the end-to-end FUME benchmark.
//!
//! Four workloads send traffic through the entry points users call —
//! `Fume::run` with a prebuilt forest, and `fume_serve::Engine::serve` —
//! and report end-to-end metrics from untraced runs and per-layer
//! metrics from traced runs, measured from outside the library. See
//! README.md for the workloads, the metrics and how to read the ledger.
//!
//! ```text
//! explain_e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!             [--out PATH]
//! explain_e2e --compare A.jsonl B.jsonl
//! ```

mod batch;
mod ledger;
mod os;
mod probe;
mod serve;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use fume_obs::json::{self, Json};

use ledger::{Report, RunInfo};
use workload::{SetupTimes, Shape, NAMES};

/// The default run seed (EDBT 2025's opening day).
const DEFAULT_SEED: u64 = 20_250_325;
/// The default measurement window.
const DEFAULT_SECONDS: f64 = 25.0;
/// Members explained per run at least, however short the window.
const MIN_MEMBERS: usize = 3;
/// Members of the window a traced run sets up again, explains through
/// the timing wrapper and replays.
pub const TRACED_MEMBERS: usize = 6;
/// The default ledger path.
const DEFAULT_OUT: &str = "target/bench/explain_e2e.jsonl";

/// How one workload run is measured.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Run seed: drives every generated input.
    pub seed: u64,
    /// Measurement window (s); members are explained until it is spent.
    pub seconds: f64,
    /// At least this many members are explained.
    pub min_members: usize,
    /// Traced mode: add the outside-in probes.
    pub traced: bool,
    /// Scratch directory for checkpoints, removed after the run.
    pub work_dir: PathBuf,
}

impl RunOpts {
    /// Whether another member fits in the window after `done` members
    /// took `elapsed` seconds; the first `min_members` always run.
    pub fn another(&self, done: usize, elapsed: f64) -> bool {
        done < self.min_members.max(1) || elapsed * (done + 1) as f64 / done as f64 <= self.seconds
    }
}

/// Records `setup_s` and its generate/fit parts as medians over the
/// members of the window. Each member is set up right before it is used,
/// so the set-up samples are spread over the whole window like the
/// explain samples, instead of catching one moment's machine speed.
pub fn setup_metrics(rep: &mut Report, members: &[SetupTimes]) {
    let med = |f: fn(&SetupTimes) -> f64| stats::median(&members.iter().map(f).collect::<Vec<_>>());
    let n = members.len();
    rep.set("setup_s", med(|t| t.total_s), "s", n);
    rep.set("tabular.generate_ms", med(|t| t.generate_s * 1e3), "ms", n);
    rep.set("forest.fit_ms", med(|t| t.fit_s * 1e3), "ms", n);
}

/// Runs workload `name` in this process.
pub fn run_workload(name: &str, smoke: bool, opts: &RunOpts) -> Option<Report> {
    let w = workload::find(name, smoke)?;
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let report = match w.shape {
        Shape::Batch { support } => batch::run(&w, support, opts),
        Shape::Serve { requests } => serve::run(&w, requests, opts),
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    Some(report)
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: explain_e2e [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out PATH]\n       explain_e2e --compare A.jsonl B.jsonl";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        smoke: false,
        out: PathBuf::from(DEFAULT_OUT),
        compare: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(value()?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (one of {})",
            args.workload,
            NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("explain_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    if args.workload == "all" {
        return run_all(&raw);
    }
    run_one(&args)
}

fn compare(a: &Path, b: &Path) -> ExitCode {
    let cwd = std::env::current_dir().unwrap_or_default();
    let Some(path) = ledger::find_benchmark(&cwd) else {
        eprintln!(
            "explain_e2e: no BENCHMARK.json in {} or above",
            cwd.display()
        );
        return ExitCode::from(2);
    };
    match ledger::load_benchmark(&path).and_then(|bench| ledger::compare(a, b, &bench)) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(e) => {
            eprintln!("explain_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_one(args: &Args) -> ExitCode {
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.0 } else { DEFAULT_SECONDS });
    let ledger_dir = args
        .out
        .parent()
        .map_or_else(PathBuf::new, Path::to_path_buf);
    let opts = RunOpts {
        seed: args.seed,
        seconds,
        min_members: if args.smoke { 1 } else { MIN_MEMBERS },
        traced: args.traced,
        work_dir: ledger_dir.join(format!("tmp-{}-{}", args.workload, std::process::id())),
    };
    let report = run_workload(&args.workload, args.smoke, &opts).expect("workload name validated");
    for (name, unit) in ledger::selected(args.traced) {
        let v = report.metrics.get(name).map_or(f64::NAN, |v| v.value);
        println!("{} {name} {v} {unit}", args.workload);
    }
    println!(
        "{} error_rate {} fraction",
        args.workload,
        report.error_rate()
    );
    let info = RunInfo {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds,
        traced: args.traced,
        smoke: args.smoke,
    };
    if let Err(e) = ledger::append(&args.out, &info, &report) {
        eprintln!("explain_e2e: {e}");
        return ExitCode::from(2);
    }
    println!("{}", ledger::result_line(&report, args.traced));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload in its own child process, one at a time, so each
/// reports its own peak memory. Prints the children's lines and one
/// combined result line whose metric names are `<workload>.<metric>`.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("explain_e2e: cannot locate this program: {e}");
            return ExitCode::from(2);
        }
    };
    let mut passthrough: Vec<String> = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == "--workload" {
            i += 2;
            continue;
        }
        passthrough.push(raw[i].clone());
        i += 1;
    }
    let (mut ok, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = String::new();
    for name in NAMES {
        let child = Command::new(&exe)
            .args(["--workload", name])
            .args(&passthrough)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let out = match child {
            Ok(o) => o,
            Err(e) => {
                eprintln!("explain_e2e: cannot run the {name} child: {e}");
                return ExitCode::from(2);
            }
        };
        ok &= out.status.success();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let Ok(result) = json::parse(last) else {
            eprintln!("explain_e2e: the {name} child printed no result");
            ok = false;
            continue;
        };
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(1);
        if let Some(Json::Obj(members)) = result.get("metrics") {
            for (metric, v) in members {
                let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                let mut first = metrics.is_empty();
                ledger::write_metric(
                    &mut metrics,
                    &mut first,
                    &format!("{name}.{metric}"),
                    value,
                    unit,
                    &[],
                );
            }
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        ok && failed == 0
    );
    if ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_and_reject_what_they_should() {
        let a = args(&[
            "--workload",
            "acs_narrow",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("acs_narrow", 7, Some(3.0), true)
        );
        assert_eq!(args(&[]).unwrap().seed, DEFAULT_SEED);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "-1"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    /// Runs all four workloads at smoke size, untraced and traced, and
    /// checks that what they emit is exactly the vocabulary
    /// `BENCHMARK.json` declares — the drift gate between the two.
    #[test]
    fn smoke_runs_emit_exactly_the_declared_vocabulary() {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let path = ledger::find_benchmark(manifest).expect("BENCHMARK.json above the package");
        let bench = ledger::load_benchmark(&path).unwrap();
        assert_eq!(bench.workloads, NAMES);
        let pairs = |d: &[ledger::Declared]| {
            d.iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect::<Vec<_>>()
        };
        let ours = |l: &[(&str, &str)]| {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(pairs(&bench.end_to_end), ours(&ledger::END_TO_END));
        assert_eq!(pairs(&bench.per_layer), ours(&ledger::PER_LAYER));

        let work = std::env::temp_dir().join(format!("explain_e2e-smoke-{}", std::process::id()));
        for name in NAMES {
            for traced in [false, true] {
                let opts = RunOpts {
                    seed: DEFAULT_SEED,
                    seconds: 0.0,
                    min_members: 1,
                    traced,
                    work_dir: work.join(name),
                };
                let report = run_workload(name, true, &opts).unwrap();
                assert_eq!(report.failed, 0, "{name} traced={traced}");
                assert!(report.attempted > 0);
                for (metric, unit) in ledger::selected(traced) {
                    let v = report
                        .metrics
                        .get(metric)
                        .unwrap_or_else(|| panic!("{name}: no {metric}"));
                    assert!(v.value.is_finite(), "{name}: {metric} = {}", v.value);
                    assert_eq!(v.unit, *unit, "{name}: {metric}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&work);
    }
}
