//! Metric records, the JSON Lines ledger every run appends to, and the
//! `--compare` verdicts computed from two ledgers.
//!
//! The metric vocabulary is fixed here. `BENCHMARK.json` at the
//! repository root lists the same names; the smoke test fails if the two
//! drift apart.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use fume_obs::json::{self, Json};

use crate::stats;

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("explain_s", "s"),
    ("explain_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("tabular.generate_ms", "ms"),
    ("forest.fit_ms", "ms"),
    ("forest.clone_ms", "ms"),
    ("forest.delete_ms.p50", "ms"),
    ("forest.delete_ms.tail", "ms"),
    ("forest.rollback_ms.p50", "ms"),
    ("forest.subtrees_retrained.mean", "count"),
    ("forest.journal_kb.p50", "KB"),
    ("forest.plan_compile_ms", "ms"),
    ("forest.routing_build_ms", "ms"),
    ("forest.dirty_rows_ms.p50", "ms"),
    ("fairness.bias_full_ms.p50", "ms"),
    ("core.eval_ms.p50", "ms"),
    ("core.eval_ms.tail", "ms"),
    ("core.evals", "count"),
    ("core.dedup_pct", "%"),
    ("core.incr_reuse_pct", "%"),
    ("core.worker_busy_pct", "%"),
    ("core.prepare_ms", "ms"),
    ("core.explain_ms.tail", "ms"),
    ("core.checkpoint.save_ms", "ms"),
    ("core.checkpoint.load_ms", "ms"),
    ("core.checkpoint.state_kb", "KB"),
    ("lattice.self_ms", "ms"),
    ("lattice.candidates", "count"),
    ("lattice.pruned_pct", "%"),
    ("serve.cache_hit_pct", "%"),
    ("serve.jobs_failed", "count"),
    ("serve.busy_rejections", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.replayed", "count"),
];

/// One measured value with its unit and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes.
    pub n: usize,
    /// For a tail, the percentile reported.
    pub pct: Option<u32>,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Explains (or served requests) attempted.
    pub attempted: u64,
    /// Attempts that failed or produced an incorrect result.
    pub failed: u64,
    /// Measured values by name.
    pub metrics: BTreeMap<&'static str, Value>,
}

impl Report {
    /// Records one attempt; a failure is reported on stderr (the first
    /// few only) and counted.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Counts an incorrect result of an attempt already recorded.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("explain_e2e: check failed: {}", what());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.metrics.insert(
            name,
            Value {
                value,
                unit,
                n,
                pct: None,
            },
        );
    }

    /// Sets a count-valued metric.
    pub fn count(&mut self, name: &'static str, value: f64, n: usize) {
        self.set(name, value, "count", n);
    }

    /// Sets `100 * part / whole` (0 when `whole` is 0).
    pub fn pct(&mut self, name: &'static str, part: f64, whole: f64, n: usize) {
        let v = if whole > 0.0 {
            100.0 * part / whole
        } else {
            0.0
        };
        self.set(name, v, "%", n);
    }

    /// Sets the tail (ms) of timing samples.
    pub fn tail(&mut self, name: &'static str, samples_ms: &[f64]) {
        let (v, p) = stats::tail(samples_ms);
        self.metrics.insert(
            name,
            Value {
                value: v,
                unit: "ms",
                n: samples_ms.len(),
                pct: Some(p),
            },
        );
    }

    /// Sets a median and a tail (ms) from the same samples.
    pub fn timing(&mut self, p50: &'static str, tail: &'static str, samples_ms: &[f64]) {
        self.set(p50, stats::median(samples_ms), "ms", samples_ms.len());
        self.tail(tail, samples_ms);
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The metrics a run prints in its result line: the end-to-end set when
/// untraced, the per-layer set when traced.
pub fn selected(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(report: &Report, traced: bool) -> String {
    let mut out = String::from("{");
    let mut first = true;
    json::write_key(&mut out, &mut first, "correct");
    out.push_str(if report.failed == 0 { "true" } else { "false" });
    json::write_key(&mut out, &mut first, "attempted");
    let _ = write!(out, "{}", report.attempted);
    json::write_key(&mut out, &mut first, "failed");
    let _ = write!(out, "{}", report.failed);
    json::write_key(&mut out, &mut first, "metrics");
    out.push('{');
    let mut first_metric = true;
    for (name, unit) in selected(traced) {
        let v = report.metrics.get(name).map_or(f64::NAN, |v| v.value);
        write_metric(&mut out, &mut first_metric, name, v, unit, &[]);
    }
    out.push_str("}}");
    out
}

/// Writes one member of a metrics object, `"name":{"value":…,"unit":…}`,
/// with `extra` whole-number fields after the unit.
pub fn write_metric(
    out: &mut String,
    first: &mut bool,
    name: &str,
    value: f64,
    unit: &str,
    extra: &[(&str, u64)],
) {
    json::write_key(out, first, name);
    out.push_str("{\"value\":");
    json::write_f64(out, value);
    out.push_str(",\"unit\":");
    json::write_str(out, unit);
    for (key, v) in extra {
        let _ = write!(out, ",\"{key}\":{v}");
    }
    out.push('}');
}

/// How one run is identified in the ledger.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// Measurement window (s).
    pub seconds: f64,
    /// Traced mode.
    pub traced: bool,
    /// Smoke sizes.
    pub smoke: bool,
}

fn run_json(info: &RunInfo, report: &Report) -> String {
    let mut out = String::from("{");
    let mut first = true;
    json::write_key(&mut out, &mut first, "workload");
    json::write_str(&mut out, &info.workload);
    json::write_key(&mut out, &mut first, "seed");
    let _ = write!(out, "{}", info.seed);
    json::write_key(&mut out, &mut first, "seconds");
    json::write_f64(&mut out, info.seconds);
    json::write_key(&mut out, &mut first, "traced");
    out.push_str(if info.traced { "true" } else { "false" });
    json::write_key(&mut out, &mut first, "smoke");
    out.push_str(if info.smoke { "true" } else { "false" });
    json::write_key(&mut out, &mut first, "threads");
    let _ = write!(out, "{}", fume_tabular::workers::available_parallelism());
    json::write_key(&mut out, &mut first, "attempted");
    let _ = write!(out, "{}", report.attempted);
    json::write_key(&mut out, &mut first, "failed");
    let _ = write!(out, "{}", report.failed);
    json::write_key(&mut out, &mut first, "error_rate");
    json::write_f64(&mut out, report.error_rate());
    json::write_key(&mut out, &mut first, "metrics");
    out.push('{');
    let mut first_metric = true;
    for (name, v) in &report.metrics {
        let percentile = v.pct.map(|p| ("percentile", u64::from(p)));
        let extra: Vec<_> = std::iter::once(("n", v.n as u64))
            .chain(percentile)
            .collect();
        write_metric(&mut out, &mut first_metric, name, v.value, v.unit, &extra);
    }
    out.push_str("}}");
    out
}

/// Reads a ledger's runs, one JSON object per line; a missing file is an
/// empty ledger.
fn read_runs(path: &Path) -> Result<Vec<Json>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read ledger {}: {e}", path.display())),
    };
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            json::parse(line).map_err(|e| format!("ledger {} line {}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// Appends this run to the ledger at `path` as one line, creating the
/// file and its directory if missing.
pub fn append(path: &Path, info: &RunInfo, report: &Report) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let line = run_json(info, report) + "\n";
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Allowed worsening of the median, as a share of the parent's.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` this program reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
}

/// Finds `BENCHMARK.json` in `start` or the nearest ancestor holding one.
pub fn find_benchmark(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .map(|d| d.join("BENCHMARK.json"))
        .find(|p| p.is_file())
}

/// Parses `BENCHMARK.json`.
pub fn load_benchmark(path: &Path) -> Result<Benchmark, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items.clone()),
        _ => Err(format!("{} has no \"{key}\" list", path.display())),
    };
    let str_of = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).map(str::to_owned);
    let metrics = |key: &str| -> Result<Vec<Declared>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: str_of(m, "name").ok_or("metric without a name")?,
                    unit: str_of(m, "unit").ok_or("metric without a unit")?,
                    higher_is_better: str_of(m, "better").as_deref() == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Benchmark {
        workloads: list("workloads")?
            .iter()
            .map(|w| str_of(w, "name").ok_or_else(|| "workload without a name".to_string()))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The least `setup_s` may worsen by before it counts, in seconds: its
/// bound is the declared share or this much, whichever is larger, since
/// a set-up of a few milliseconds moves by more than any share of itself
/// between runs.
pub const SETUP_FLOOR_S: f64 = 0.020;

/// The bound `--compare` applies to `metric` when A's median is
/// `median_a`: the declared share, widened for `setup_s` to
/// [`SETUP_FLOOR_S`].
pub fn effective_bound(metric: &Declared, median_a: f64) -> f64 {
    let bound = metric.bound.unwrap_or(0.0);
    if metric.name == "setup_s" {
        bound.max(SETUP_FLOOR_S / median_a.abs())
    } else {
        bound
    }
}

/// A `--compare` verdict for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median improves on A's by more than A's own spread, and B
    /// wins at least nine tenths of all (A, B) run pairs.
    Better,
    /// Neither better nor worse by the rules.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's run-to-run spread exceeds the bound, so no claim holds
    /// (unless every B run beats every A run).
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Self::Better => "better",
            Self::Same => "same",
            Self::Worse => "WORSE",
            Self::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric whose runs read `a` before and `b` after.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    // Express everything as "lower is better".
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let a: Vec<f64> = a.iter().map(|x| sign * x).collect();
    let b: Vec<f64> = b.iter().map(|x| sign * x).collect();
    let (ma, mb) = (stats::median(&a), stats::median(&b));
    let worse_by = (mb - ma) / ma.abs();
    let pairs = (a.len() * b.len()) as f64;
    let b_wins = a
        .iter()
        .flat_map(|x| b.iter().map(move |y| y < x))
        .filter(|w| *w)
        .count();
    if stats::relative_spread(&a) > bound || stats::relative_spread(&b) > bound {
        let all_better = b.iter().all(|y| a.iter().all(|x| y < x));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let (q1, q3) = stats::quartiles(&a);
    if worse_by > bound {
        Verdict::Worse
    } else if ma - mb > q3 - q1 && b_wins as f64 >= 0.9 * pairs {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn untraced_values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// `x` with four significant digits.
fn sig4(x: f64) -> String {
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{:.*}", (3 - magnitude).max(0) as usize, x)
}

/// Compares two ledgers' untraced runs on every end-to-end metric of
/// every workload, printing one row per pair. Returns whether any pair
/// is worse.
pub fn compare(a_path: &Path, b_path: &Path, bench: &Benchmark) -> Result<bool, String> {
    let (a_runs, b_runs) = (read_runs(a_path)?, read_runs(b_path)?);
    println!(
        "{:<14} {:<15} {:>5} {:>36} {:>36}  verdict",
        "workload", "metric", "bound", "A median [q1, q3] (n)", "B median [q1, q3] (n)"
    );
    let mut any_worse = false;
    for workload in &bench.workloads {
        for m in &bench.end_to_end {
            let a = untraced_values(&a_runs, workload, &m.name);
            let b = untraced_values(&b_runs, workload, &m.name);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let side = |v: &[f64]| {
                let (q1, q3) = stats::quartiles(v);
                let med = stats::median(v);
                format!("{} [{}, {}] ({})", sig4(med), sig4(q1), sig4(q3), v.len())
            };
            let bound = effective_bound(m, stats::median(&a));
            let v = verdict(&a, &b, bound, m.higher_is_better);
            any_worse |= v == Verdict::Worse;
            println!(
                "{:<14} {:<15} {:>5.2} {:>36} {:>36}  {}",
                workload,
                m.name,
                bound,
                side(&a),
                side(&b),
                v.label()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            verdict(&a, &[1.00, 1.01, 1.00, 0.99, 1.01], 0.1, false),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &[1.20, 1.21, 1.19, 1.22, 1.20], 0.1, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[0.80, 0.81, 0.79, 0.80, 0.82], 0.1, false),
            Verdict::Better
        );
        // Higher is better flips the direction.
        assert_eq!(
            verdict(&a, &[0.80, 0.81, 0.79, 0.80, 0.82], 0.1, true),
            Verdict::Worse
        );
        // A spread wider than the bound cannot be resolved...
        let noisy = [0.5, 1.5, 0.7, 1.3, 1.0];
        assert_eq!(
            verdict(&noisy, &[1.0, 1.1, 0.9, 1.0, 1.05], 0.1, false),
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(
            verdict(&noisy, &[0.1, 0.2, 0.15, 0.1, 0.12], 0.1, false),
            Verdict::Better
        );
    }

    #[test]
    fn setup_bound_has_an_absolute_floor() {
        let declared = |name: &str| Declared {
            name: name.into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(0.1),
        };
        // 20 ms on a 40 ms set-up is 50%; on a 1 s set-up the share rules.
        assert_eq!(effective_bound(&declared("setup_s"), 0.04), 0.5);
        assert_eq!(effective_bound(&declared("setup_s"), 1.0), 0.1);
        assert_eq!(effective_bound(&declared("explain_s"), 0.04), 0.1);
    }

    #[test]
    fn compare_prints_four_significant_digits() {
        assert_eq!(sig4(0.00162348), "0.001623");
        assert_eq!(sig4(200.2548), "200.3");
        assert_eq!(sig4(21.6719), "21.67");
        assert_eq!(sig4(12345.6), "12346");
    }

    #[test]
    fn ledger_appends_runs_and_round_trips() {
        let dir = std::env::temp_dir().join(format!("explain_e2e-ledger-{}", std::process::id()));
        let path = dir.join("l.jsonl");
        let mut report = Report::default();
        report.attempt(true, String::new);
        report.set("explain_s", 0.5, "s", 3);
        report.timing("core.eval_ms.p50", "core.eval_ms.tail", &[1.0, 2.0, 3.0]);
        for seed in [1, 2] {
            let info = RunInfo {
                workload: "w".into(),
                seed,
                seconds: 1.0,
                traced: false,
                smoke: true,
            };
            append(&path, &info, &report).unwrap();
        }
        let runs = read_runs(&path).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(untraced_values(&runs, "w", "explain_s"), vec![0.5, 0.5]);
        assert_eq!(runs[1].get("seed").and_then(Json::as_u64), Some(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report::default();
        report.attempt(true, String::new);
        for (name, unit) in END_TO_END {
            report.set(name, 1.25, unit, 1);
        }
        let doc = json::parse(&result_line(&report, false)).unwrap();
        let Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = doc.get("metrics").unwrap().get("explain_s").unwrap();
        assert_eq!(metric.get("value").and_then(Json::as_f64), Some(1.25));
    }
}
