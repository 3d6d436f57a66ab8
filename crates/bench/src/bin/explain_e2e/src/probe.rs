//! The traced mode's outside-in probes. Nothing here reaches into the
//! library: the timing wrapper is lent to `Fume::run` through the public
//! `RemovalSpec::Shared` seam, the replay drives the public forest API on
//! a scratch clone, and the checkpoint probe reads the state file a
//! checkpointed run leaves behind through `load_state`/`save_state`.

use std::collections::HashSet;
use std::path::Path;

use fume_core::checkpoint::{self, STATE_FILE};
use fume_core::{
    parity_reduction, BiasEval, DareRemoval, ExplainRequest, Fume, FumeConfig, FumeReport,
    RemovalMethod,
};
use fume_fairness::FairnessMetric;
use fume_forest::{DareForest, PredictPlan, RoutingIndex};
use fume_obs::clock::Stopwatch;
use fume_obs::sync::TrackedMutex;
use fume_tabular::{Classifier, Dataset, GroupSpec};

use crate::ledger::Report;
use crate::stats;

fn ms(sw: &Stopwatch) -> f64 {
    sw.elapsed().as_secs_f64() * 1e3
}

/// Per-eval wall times (ms) collected by every [`Timed`] wrapper of a run.
pub type EvalSamples = TrackedMutex<Vec<f64>>;

/// A new, empty sample sink.
pub fn eval_samples() -> EvalSamples {
    TrackedMutex::new("bench.eval_samples", Vec::new())
}

/// Times each unlearn-eval of the wrapped [`DareRemoval`]. It forwards
/// every trait method, including the incremental `bias_removed` path and
/// the scratch-pool `warm`, so a run through it computes exactly what the
/// unwrapped default path computes.
pub struct Timed<'a> {
    inner: DareRemoval<'a>,
    samples: &'a EvalSamples,
}

impl<'a> Timed<'a> {
    /// Wraps the pooled DaRE removal of `forest`.
    pub fn new(forest: &'a DareForest, train: &'a Dataset, samples: &'a EvalSamples) -> Self {
        Self {
            inner: DareRemoval::new(forest, train),
            samples,
        }
    }
}

impl RemovalMethod for Timed<'_> {
    fn with_removed<T>(&self, subset: &[u32], f: impl FnOnce(&dyn Classifier) -> T) -> T {
        self.inner.with_removed(subset, f)
    }

    fn bias_removed(&self, subset: &[u32], eval: &BiasEval<'_>) -> f64 {
        let sw = Stopwatch::start();
        let bias = self.inner.bias_removed(subset, eval);
        let elapsed = ms(&sw);
        self.samples.lock().push(elapsed);
        bias
    }

    fn warm(&self, workers: usize) {
        self.inner.warm(workers);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// What one traced explain reported about itself.
#[derive(Debug, Clone, Default)]
pub struct TracedExplain {
    /// Wall time of the whole `Fume::run` call (ms).
    pub wall_ms: f64,
    /// `FumeReport::search_time` (ms).
    pub search_ms: f64,
    /// `FumeReport::unlearn_time` (ms).
    pub unlearn_ms: f64,
    /// Lattice items evaluated (`FumeReport::unlearning_operations`).
    pub items: usize,
    /// Unlearn-evals actually executed (calls through [`Timed`]).
    pub executed: usize,
    /// Candidates generated after Rule 1, summed over levels.
    pub candidates: usize,
    /// Merge pairs considered, summed over levels.
    pub possible: usize,
    /// Nodes evaluated, summed over levels.
    pub explored: usize,
    /// Eval-parallelism of the run.
    pub jobs: usize,
}

impl TracedExplain {
    /// Reads the timings and lattice statistics off a traced report.
    pub fn new(report: &FumeReport, wall_ms: f64, executed: usize, jobs: usize) -> Self {
        Self {
            wall_ms,
            search_ms: report.search_time.as_secs_f64() * 1e3,
            unlearn_ms: report.unlearn_time.as_secs_f64() * 1e3,
            items: report.unlearning_operations,
            executed,
            candidates: report.levels.iter().map(|l| l.generated).sum(),
            possible: report.levels.iter().map(|l| l.possible).sum(),
            explored: report.levels.iter().map(|l| l.explored).sum(),
            jobs,
        }
    }
}

/// Core and lattice layer metrics from the traced explains and the
/// per-eval samples their wrappers collected.
pub fn explain_layers(rep: &mut Report, traced: &[TracedExplain], eval_ms: &[f64]) {
    let n = traced.len();
    let sum = |f: fn(&TracedExplain) -> f64| traced.iter().map(f).sum::<f64>();
    rep.timing("core.eval_ms.p50", "core.eval_ms.tail", eval_ms);
    rep.count("core.evals", sum(|t| t.executed as f64) / n as f64, n);
    let items = sum(|t| t.items as f64);
    rep.pct(
        "core.dedup_pct",
        items - sum(|t| t.executed as f64),
        items,
        n,
    );
    let capacity = sum(|t| t.unlearn_ms * t.jobs as f64);
    rep.pct(
        "core.worker_busy_pct",
        eval_ms.iter().sum(),
        capacity,
        eval_ms.len(),
    );
    let prepare: Vec<f64> = traced.iter().map(|t| t.wall_ms - t.search_ms).collect();
    rep.set("core.prepare_ms", stats::median(&prepare), "ms", n);
    let own: Vec<f64> = traced.iter().map(|t| t.search_ms - t.unlearn_ms).collect();
    rep.set("lattice.self_ms", stats::median(&own), "ms", n);
    rep.count(
        "lattice.candidates",
        sum(|t| t.candidates as f64) / n as f64,
        n,
    );
    let possible = sum(|t| t.possible as f64);
    rep.pct(
        "lattice.pruned_pct",
        possible - sum(|t| t.explored as f64),
        possible,
        n,
    );
}

/// Per-operation samples from replaying evaluated subsets.
#[derive(Debug, Default)]
pub struct Replay {
    clone_ms: Vec<f64>,
    plan_ms: Vec<f64>,
    routing_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    rollback_ms: Vec<f64>,
    dirty_ms: Vec<f64>,
    bias_ms: Vec<f64>,
    retrained: Vec<f64>,
    journal_kb: Vec<f64>,
    reused_rows: f64,
    scanned_rows: f64,
    /// Subsets whose replayed ρ differed from the reported one.
    mismatches: usize,
}

/// The inputs one replay needs about a deployed model.
pub struct Deployed<'a> {
    /// The deployed forest.
    pub forest: &'a DareForest,
    /// Its training data.
    pub train: &'a Dataset,
    /// The held-out rows the metric is measured on.
    pub test: &'a Dataset,
    /// The protected group.
    pub group: GroupSpec,
}

impl Replay {
    /// Replays every distinct evaluated subset of `reports` (all of one
    /// metric) through `delete_journaled`, a full `FairnessMetric::bias`,
    /// `RoutingIndex::dirty_rows` and `rollback`, on one scratch clone.
    /// Each replayed ρ must equal the reported one bit for bit: the run
    /// took the incremental bias path, the replay takes the full one.
    pub fn run(&mut self, at: &Deployed<'_>, metric: FairnessMetric, reports: &[&FumeReport]) {
        let sw = Stopwatch::start();
        let mut scratch = at.forest.clone();
        self.clone_ms.push(ms(&sw));
        let sw = Stopwatch::start();
        let plan = PredictPlan::compile(at.forest);
        self.plan_ms.push(ms(&sw));
        let sw = Stopwatch::start();
        let index = RoutingIndex::build_with_plan(&plan, at.test);
        self.routing_ms.push(ms(&sw));

        let mut seen: HashSet<&[u32]> = HashSet::new();
        for report in reports {
            for subset in &report.evaluated {
                if !seen.insert(&subset.rows) {
                    continue;
                }
                let sw = Stopwatch::start();
                let journal = scratch.delete_journaled(&subset.rows, at.train);
                self.delete_ms.push(ms(&sw));
                self.retrained
                    .push(journal.report.subtrees_retrained as f64);
                self.journal_kb.push(journal.approx_bytes() as f64 / 1024.0);

                let sw = Stopwatch::start();
                let bias = metric.bias(&scratch, at.test, at.group);
                self.bias_ms.push(ms(&sw));
                let rho = parity_reduction(report.original_bias, bias);
                if rho.to_bits() != subset.rho.to_bits() {
                    self.mismatches += 1;
                }

                let sw = Stopwatch::start();
                let dirty = index.dirty_rows(&journal, &scratch, at.test);
                self.dirty_ms.push(ms(&sw));
                self.scanned_rows += at.test.num_rows() as f64;
                self.reused_rows += (at.test.num_rows() - dirty.rows.len()) as f64;

                let sw = Stopwatch::start();
                scratch.rollback(journal);
                self.rollback_ms.push(ms(&sw));
            }
        }
    }

    /// Records the forest, fairness and incremental-reuse layer metrics,
    /// fails the run if any replayed ρ differed from the reported one,
    /// and prints how one replayed eval's median time splits between
    /// delete, full bias, dirty rows and rollback.
    pub fn report(&self, rep: &mut Report, who: &str) {
        if self.mismatches > 0 {
            rep.fail(|| {
                format!(
                    "{who}: {} replayed ρ differ from the reported",
                    self.mismatches
                )
            });
        }
        let med = |v: &[f64]| stats::median(v);
        rep.set(
            "forest.clone_ms",
            med(&self.clone_ms),
            "ms",
            self.clone_ms.len(),
        );
        rep.timing(
            "forest.delete_ms.p50",
            "forest.delete_ms.tail",
            &self.delete_ms,
        );
        rep.set(
            "forest.rollback_ms.p50",
            med(&self.rollback_ms),
            "ms",
            self.rollback_ms.len(),
        );
        let n = self.retrained.len();
        rep.count(
            "forest.subtrees_retrained.mean",
            stats::mean(&self.retrained),
            n,
        );
        rep.set("forest.journal_kb.p50", med(&self.journal_kb), "KB", n);
        rep.set(
            "forest.plan_compile_ms",
            med(&self.plan_ms),
            "ms",
            self.plan_ms.len(),
        );
        rep.set(
            "forest.routing_build_ms",
            med(&self.routing_ms),
            "ms",
            self.routing_ms.len(),
        );
        rep.set(
            "forest.dirty_rows_ms.p50",
            med(&self.dirty_ms),
            "ms",
            self.dirty_ms.len(),
        );
        rep.set(
            "fairness.bias_full_ms.p50",
            med(&self.bias_ms),
            "ms",
            self.bias_ms.len(),
        );
        rep.pct(
            "core.incr_reuse_pct",
            self.reused_rows,
            self.scanned_rows,
            n,
        );
        rep.count("trace.replayed", n as f64, n);

        let parts = [
            &self.delete_ms,
            &self.bias_ms,
            &self.dirty_ms,
            &self.rollback_ms,
        ]
        .map(|v| med(v));
        let total: f64 = parts.iter().sum();
        let [delete, bias, dirty, rollback] = parts.map(|p| 100.0 * p / total);
        println!(
            "{who} eval_split_pct delete {delete:.1} bias_full {bias:.1} dirty_rows {dirty:.1} \
             rollback {rollback:.1}"
        );
    }
}

/// Runs one explain with checkpointing into `work_dir`, then loads its
/// state file through `load_state` and saves it again through
/// `save_state`, three times each, reporting the median times and the
/// state size. A failed explain or probe counts against the run.
pub fn checkpointed(
    rep: &mut Report,
    who: &str,
    config: FumeConfig,
    request: &ExplainRequest<'_>,
    work_dir: &Path,
) {
    let dir = work_dir.join("ckpt");
    let resave = work_dir.join("ckpt-resave");
    let ran = Fume::new(config.with_checkpoint_dir(&dir)).run(request);
    rep.attempt(ran.is_ok(), || {
        format!("{who}: checkpointed explain failed")
    });
    let (mut load, mut save) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let sw = Stopwatch::start();
        let Ok(ckpt) = checkpoint::load_state(&dir) else {
            return rep.fail(|| format!("{who}: checkpoint state does not load"));
        };
        load.push(ms(&sw));
        let sw = Stopwatch::start();
        if checkpoint::save_state(&resave, &ckpt.config, ckpt.fingerprint, &ckpt.state).is_err() {
            return rep.fail(|| format!("{who}: checkpoint state does not save"));
        }
        save.push(ms(&sw));
    }
    let kb = std::fs::metadata(dir.join(STATE_FILE)).map_or(0.0, |m| m.len() as f64 / 1024.0);
    rep.set(
        "core.checkpoint.load_ms",
        stats::median(&load),
        "ms",
        load.len(),
    );
    rep.set(
        "core.checkpoint.save_ms",
        stats::median(&save),
        "ms",
        save.len(),
    );
    rep.set("core.checkpoint.state_kb", kb, "KB", 1);
}
