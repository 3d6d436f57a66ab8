//! FUME's Algorithm 1: top-k training-data subsets attributable to a
//! group-fairness violation.

use std::path::{Path, PathBuf};

use fume_obs::clock::{Duration, Stopwatch};

use fume_fairness::{fairness_report, FairnessMetric};
use fume_forest::{DareForest, DeleteReport};
use fume_lattice::{
    BatchEvaluator, EvaluatedSubset, LevelStats, Predicate, SearchDriver, SearchOutcome,
    SearchParams, SearchState,
};
use fume_tabular::{Dataset, GroupSpec};

use crate::attribution::AttributionEstimator;
use crate::checkpoint::{self, Checkpoint, CheckpointError};
use crate::config::FumeConfig;
use crate::prepared::{self, Prepared};
use crate::removal::{DareRemoval, SharedAdapter};
use crate::request::{ExplainRequest, ModelSpec, RemovalSpec};

/// Errors from a FUME run.
///
/// Marked `#[non_exhaustive]`: every layer above the core — the CLI,
/// `fume-serve` responses, downstream callers — matches this one enum
/// (checkpoint and lattice failures arrive pre-wrapped through the
/// `From` impls below), and new failure modes must not break them.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FumeError {
    /// The deployed model shows no violation of the configured metric on
    /// the test data — there is nothing to explain.
    NoViolation {
        /// Which metric was checked.
        metric: FairnessMetric,
    },
    /// Invalid search parameters, or a non-finite attribution from the
    /// evaluator.
    Lattice(fume_lattice::LatticeError),
    /// The training or test set is empty.
    EmptyData,
    /// Saving or loading a run checkpoint failed.
    Checkpoint(CheckpointError),
    /// The [`ExplainRequest`] combines options that cannot be executed
    /// (e.g. exact DaRE unlearning of an opaque classifier).
    InvalidRequest(String),
    /// Encoding or decoding a serialized [`FumeReport`] failed.
    Codec(String),
}

impl std::fmt::Display for FumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoViolation { metric } => {
                write!(f, "the model does not violate {} on the test data", metric.name())
            }
            Self::Lattice(e) => write!(f, "lattice search failed: {e}"),
            Self::EmptyData => write!(f, "training and test data must be non-empty"),
            Self::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            Self::InvalidRequest(why) => write!(f, "invalid explain request: {why}"),
            Self::Codec(why) => write!(f, "report codec failure: {why}"),
        }
    }
}

impl std::error::Error for FumeError {}

impl From<fume_lattice::LatticeError> for FumeError {
    fn from(e: fume_lattice::LatticeError) -> Self {
        Self::Lattice(e)
    }
}

impl From<CheckpointError> for FumeError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

/// One explained subset of the final ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainedSubset {
    /// The predicate, rendered human-readably against the schema
    /// (e.g. `Housing = Rent AND Status and sex = Female divorced/separated/married`).
    pub pattern: String,
    /// The underlying predicate.
    pub predicate: Predicate,
    /// Support in the training data.
    pub support: f64,
    /// Parity reduction `ρ` (fraction of the violation removed; Tables
    /// 3–7 print this as a percentage).
    pub parity_reduction: f64,
    /// The paper's signed attribution `φ = −ρ`.
    pub phi: f64,
    /// The training rows the subset selects.
    pub rows: Vec<u32>,
}

/// The result of a FUME run.
#[derive(Debug, Clone, PartialEq)]
pub struct FumeReport {
    /// The top-k subsets, highest parity reduction first.
    pub top_k: Vec<ExplainedSubset>,
    /// Every evaluated subset (for analysis; `top_k` is derived from it).
    pub evaluated: Vec<EvaluatedSubset>,
    /// Per-level lattice statistics (the paper's Table 9).
    pub levels: Vec<LevelStats>,
    /// The metric that was explained.
    pub metric: FairnessMetric,
    /// `|F(h, D_test)|` of the deployed model.
    pub original_bias: f64,
    /// Signed `F(h, D_test)` of the deployed model.
    pub original_fairness: f64,
    /// Test accuracy of the deployed model.
    pub original_accuracy: f64,
    /// Number of unlearning operations performed.
    pub unlearning_operations: usize,
    /// Wall-clock time of the subset search (excludes forest training).
    pub search_time: Duration,
    /// Wall-clock time of training the deployed forest (zero when a
    /// pre-trained forest was supplied).
    pub training_time: Duration,
    /// Wall-clock time spent inside unlearn-and-re-evaluate batches (a
    /// subset of `search_time`; the remainder is lattice bookkeeping).
    pub unlearn_time: Duration,
}

impl FumeReport {
    /// Renders the top-k table in the paper's Tables 3–7 format.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| # | Patterns | Support | Parity Reduction |\n|---|---|---|---|"
        );
        for (i, s) in self.top_k.iter().enumerate() {
            let _ = writeln!(
                out,
                "| {} | {} | {:.2}% | {:.2}% |",
                i + 1,
                s.pattern,
                s.support * 100.0,
                s.parity_reduction * 100.0
            );
        }
        out
    }

    /// Renders the per-phase wall-clock breakdown of this run.
    pub fn timing_table(&self) -> String {
        use std::fmt::Write as _;
        let row = |d: Duration| format!("{:>10.3} ms", d.as_secs_f64() * 1e3);
        let mut out = String::new();
        let _ = writeln!(out, "phase                 wall");
        let _ = writeln!(out, "forest training {}", row(self.training_time));
        let _ = writeln!(out, "subset search   {}", row(self.search_time));
        let _ = writeln!(out, "  unlearn evals {}", row(self.unlearn_time));
        let _ = writeln!(
            out,
            "unlearning ops  {:>10}",
            self.unlearning_operations
        );
        out
    }
}

/// The FUME system: explains fairness violations of a DaRE forest by
/// identifying the top-k predicate subsets of its training data whose
/// removal (estimated via exact machine unlearning) most reduces the
/// violation.
///
/// ```
/// use fume_core::{ExplainRequest, Fume, FumeConfig};
/// use fume_forest::DareConfig;
/// use fume_lattice::SupportRange;
/// use fume_tabular::datasets::planted_toy;
/// use fume_tabular::split::train_test_split;
///
/// let (data, group) = planted_toy().generate_scaled(0.5, 3).unwrap();
/// let (train, test) = train_test_split(&data, 0.3, 3).unwrap();
/// let config = FumeConfig::default()
///     .with_forest(DareConfig::small(3))
///     .with_support(SupportRange::new(0.02, 0.25).unwrap());
/// let request = ExplainRequest::new(&train, &test, group);
/// let report = Fume::new(config).run(&request).unwrap();
/// assert!(!report.top_k.is_empty());
/// assert!(report.top_k[0].parity_reduction > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Fume {
    config: FumeConfig,
    /// The checkpoint [`Fume::resume`] read, which [`Fume::run`] checks
    /// against its inputs and continues.
    resumed: Option<Checkpoint>,
}

impl Fume {
    /// Builds a FUME instance.
    pub fn new(config: FumeConfig) -> Self {
        Self { config, resumed: None }
    }

    /// Resumes a checkpointed run from `dir`: the configuration is
    /// restored from the checkpoint, and the next [`run`](Self::run)
    /// continues from the last completed lattice level. The caller
    /// supplies the same train/test/group inputs as the original run, and
    /// the same model if it supplied one (without one, the forest is
    /// refitted from the restored configuration) — a fingerprint check
    /// rejects anything else before the model predicts anything.
    pub fn resume(dir: impl Into<PathBuf>) -> Result<Self, FumeError> {
        let dir = dir.into();
        let ckpt = checkpoint::load_state(&dir)?;
        if fume_forest::deepcheck::enabled() {
            checkpoint::deepcheck_state(&ckpt.state)?;
        }
        let config = ckpt.config.clone().with_checkpoint_dir(dir);
        Ok(Self { config, resumed: Some(ckpt) })
    }

    /// The configuration.
    pub fn config(&self) -> &FumeConfig {
        &self.config
    }

    /// Executes an [`ExplainRequest`] — the single code path every FUME
    /// run (library, CLI, `fume-serve`) funnels through.
    ///
    /// What happens depends on the request:
    /// * no model → a DaRE forest is trained from this configuration
    ///   (a resumed run refits it from the checkpointed configuration);
    /// * with a `checkpoint_dir` configured, the search state is saved at
    ///   every level boundary, under a fingerprint of the data and the
    ///   model (see [`checkpoint::fingerprint_model`]); checkpointing
    ///   needs a DaRE forest model and never changes the report;
    /// * the removal override selects how counterfactual models are
    ///   obtained; [`RemovalSpec::Shared`] lends a caller-owned warm
    ///   method and therefore requires a prebuilt model;
    /// * an attached [`EvalMemo`](crate::EvalMemo) is consulted before
    ///   every unlearn-eval;
    /// * an attached [`Prepared`] value supplies the model's fairness
    ///   snapshot, the level-1 frontier, its pair table and the
    ///   checkpoint fingerprint instead of a prediction pass, a column
    ///   scan, the level-1 join and a hash of the forest.
    ///
    /// Incompatible combinations (e.g. exact DaRE unlearning of an
    /// opaque classifier) fail with [`FumeError::InvalidRequest`].
    pub fn run(&self, request: &ExplainRequest<'_>) -> Result<FumeReport, FumeError> {
        if request.train.is_empty() || request.test.is_empty() {
            return Err(FumeError::EmptyData);
        }
        if let Some(prepared) = request.prepared {
            prepared.check(&self.config, request)?;
        }
        match (&request.removal, request.model) {
            (RemovalSpec::Shared(shared), Some(model)) => {
                self.run_inner(SharedAdapter(*shared), model, request)
            }
            (RemovalSpec::Shared(_), None) => Err(FumeError::InvalidRequest(
                "a shared removal method requires a prebuilt model in the request".into(),
            )),
            (RemovalSpec::Dare, Some(ModelSpec::Classifier(_))) => {
                Err(FumeError::InvalidRequest(
                    "exact DaRE unlearning needs a DaRE forest model; supply \
                     ModelSpec::Forest, or override the removal with Shared"
                        .into(),
                ))
            }
            (RemovalSpec::Dare, Some(ModelSpec::Forest(forest))) => self.run_dare(forest, request),
            (RemovalSpec::Dare, None) => {
                let t0 = Stopwatch::start();
                let forest = {
                    let _span =
                        fume_obs::span!("fume.phase.train", rows = request.train.num_rows());
                    DareForest::fit(request.train, self.config.forest.clone())
                };
                let training_time = t0.elapsed();
                let mut report = self.run_dare(&forest, request)?;
                report.training_time = training_time;
                Ok(report)
            }
        }
    }

    /// Explains `forest` through the pooled [`DareRemoval`], rerouting
    /// each eval's prediction pass over the request's test set.
    fn run_dare(
        &self,
        forest: &DareForest,
        request: &ExplainRequest<'_>,
    ) -> Result<FumeReport, FumeError> {
        let removal = DareRemoval::new(forest, request.train).with_test(request.test);
        self.run_inner(removal, ModelSpec::Forest(forest), request)
    }

    /// The run body shared by every entrypoint: checkpoint check,
    /// violation check, lattice search over the attribution estimator,
    /// ranking.
    fn run_inner<R: crate::removal::RemovalMethod>(
        &self,
        removal: R,
        model: ModelSpec<'_>,
        request: &ExplainRequest<'_>,
    ) -> Result<FumeReport, FumeError> {
        let (train, test, group) = (request.train, request.test, request.group);
        let _span = fume_obs::span!(
            "fume.explain",
            train_rows = train.num_rows(),
            test_rows = test.num_rows()
        );
        let params = self.config.search_params()?;
        let target = self.checkpoint_target(request, model)?;
        let model = model.as_classifier();
        let (original_accuracy, original_fairness) = {
            let _span = fume_obs::span!("fume.phase.violation_check");
            let fresh;
            let snapshot = match request.prepared {
                Some(prepared) => prepared.snapshot(model, test, group),
                None => {
                    fresh = fairness_report(model, test, group);
                    &fresh
                }
            };
            (snapshot.accuracy, self.config.metric.from_confusion(&snapshot.confusion))
        };
        let original_bias = original_fairness.abs();
        if original_bias <= f64::EPSILON {
            return Err(FumeError::NoViolation { metric: self.config.metric });
        }

        let mut estimator = AttributionEstimator::new(
            removal,
            self.config.metric,
            test,
            group,
            original_bias,
            self.config.n_jobs,
        );
        if let Some(memo) = request.memo {
            estimator = estimator.with_memo(memo);
        }

        let t0 = Stopwatch::start();
        let outcome = {
            let _span = fume_obs::span!("fume.phase.search");
            self.search(train, &params, &estimator, target, request.prepared)?
        };
        let search_time = t0.elapsed();
        let unlearn_time = estimator.eval_time();

        let _rank_span = fume_obs::span!("fume.phase.rank", evaluated = outcome.evaluated.len());
        let top_k = outcome
            .top_k(self.config.top_k)
            .into_iter()
            .map(|s| ExplainedSubset {
                pattern: s.predicate.render(train.schema()),
                predicate: s.predicate.clone(),
                support: s.support,
                parity_reduction: s.rho,
                phi: -s.rho,
                rows: s.rows.to_vec(),
            })
            .collect();
        drop(_rank_span);

        Ok(FumeReport {
            top_k,
            evaluated: outcome.evaluated,
            levels: outcome.levels,
            metric: self.config.metric,
            original_bias,
            original_fairness,
            original_accuracy,
            unlearning_operations: outcome.evaluations,
            search_time,
            training_time: Duration::ZERO,
            unlearn_time,
        })
    }

    /// Where a checkpointed run saves its search state, and the
    /// fingerprint of its data and model it saves under; `None` for a run
    /// without a checkpoint directory. A resumed checkpoint is checked
    /// against that fingerprint here, before the model predicts anything:
    /// a forest fitted on another schema reads columns this data does not
    /// have.
    fn checkpoint_target(
        &self,
        request: &ExplainRequest<'_>,
        model: ModelSpec<'_>,
    ) -> Result<Option<(&Path, u64)>, FumeError> {
        let Some(dir) = &self.config.checkpoint_dir else {
            return Ok(None);
        };
        let forest = prepared::checkpointed_forest(model)?;
        let fp = request
            .prepared
            .and_then(|p| p.fingerprint(request, forest))
            .unwrap_or_else(|| prepared::checkpoint_fingerprint(request, forest));
        if let Some(ckpt) = &self.resumed {
            checkpoint::validate(ckpt, &self.config, fp)?;
            fume_obs::counter!("ckpt.resumes", 1);
        }
        Ok(Some((dir, fp)))
    }

    /// The level-wise search: a fresh one (from the `prepared` level 1
    /// and pair table when there is one), or the resumed checkpoint's
    /// continued. With a checkpoint `target`, the [`SearchState`] is
    /// saved (atomically) at every level boundary. The search is deterministic per level (the
    /// scratch pool restores the deployed forest exactly after every
    /// unlearn-eval), so re-running the level a crash interrupted yields
    /// the same ρ values the uninterrupted run computed.
    fn search<E: BatchEvaluator>(
        &self,
        train: &Dataset,
        params: &SearchParams,
        evaluator: &E,
        target: Option<(&Path, u64)>,
        prepared: Option<&Prepared>,
    ) -> Result<SearchOutcome, FumeError> {
        // The span `lattice::search` emits, so traces name the loop alike.
        let _span = fume_obs::span!(
            "lattice.search",
            eta = params.max_literals,
            rows = train.num_rows()
        );
        // A resumed search joins level 1 through a table over its own
        // decoded frontier; a prepared one borrows the prepared table.
        let mut driver = match (&self.resumed, prepared) {
            (Some(ckpt), _) => SearchDriver::with_state(train, params, ckpt.state.clone()),
            (None, Some(prepared)) => {
                SearchDriver::with_state(train, params, prepared.level1(train, params))
                    .with_pairs(prepared.pairs())
            }
            (None, None) => SearchDriver::new(train, params),
        };
        let save = |state: &SearchState| match target {
            Some((dir, fp)) => checkpoint::save_state(dir, &self.config, fp, state),
            None => Ok(()),
        };
        // The starting boundary is saved up front, so even a crash inside
        // the first level leaves a checkpoint to resume.
        save(driver.state())?;
        while driver.step(evaluator)? {
            save(driver.state())?;
            fume_obs::fault::fault_point("post-level");
        }
        // The terminal state (done = true) is saved too: resuming a
        // finished run replays its report with zero new evaluations.
        save(driver.state())?;
        Ok(driver.into_outcome())
    }

    /// Verifies a reported subset by *actually* removing it and retraining
    /// from scratch, returning `(retrained bias, unlearning-estimated ρ,
    /// retrain-true ρ)` — the paper's RQ1 check for a single subset.
    pub fn verify_subset(
        &self,
        forest: &DareForest,
        train: &Dataset,
        test: &Dataset,
        group: GroupSpec,
        subset_rows: &[u32],
    ) -> Result<(f64, f64, f64), FumeError> {
        let original_bias = self.config.metric.bias(forest, test, group);
        if original_bias <= f64::EPSILON {
            return Err(FumeError::NoViolation { metric: self.config.metric });
        }
        let dare = AttributionEstimator::new(
            DareRemoval::new(forest, train),
            self.config.metric,
            test,
            group,
            original_bias,
            self.config.n_jobs,
        );
        let rho_unlearn = dare.rho(subset_rows);
        let retrain = AttributionEstimator::new(
            crate::removal::RetrainRemoval::new(train, self.config.forest.clone()),
            self.config.metric,
            test,
            group,
            original_bias,
            self.config.n_jobs,
        );
        let rho_retrain = retrain.rho(subset_rows);
        let retrained_bias = original_bias * (1.0 - rho_retrain);
        Ok((retrained_bias, rho_unlearn, rho_retrain))
    }
}

/// Convenience: what actually happens to the forest when the top subset is
/// unlearned for good (not just hypothetically) — returns the unlearned
/// forest plus the deletion report.
pub fn apply_removal(
    forest: &DareForest,
    train: &Dataset,
    rows: &[u32],
) -> (DareForest, DeleteReport) {
    let mut unlearned = forest.clone();
    let report = unlearned
        .delete(rows, train)
        // fume-lint: allow(F001) -- selection provenance: lattice subsets are drawn from the training universe the forest was fitted on, so every id is present
        .expect("rows come from the training universe");
    (unlearned, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fume_forest::DareConfig;
    use fume_lattice::SupportRange;
    use fume_tabular::datasets::{planted_toy, PLANTED_TOY_COHORT};
    use fume_tabular::split::train_test_split;

    // Fixture seed chosen so the planted cohort survives the 70/30 split
    // with a clear violation; many seeds bury it under correlated
    // attributes (the e2e suite covers that robustness more loosely).
    const SEED: u64 = 85;

    fn setup() -> (Dataset, Dataset, GroupSpec) {
        let (data, group) = planted_toy().generate_full(SEED).unwrap();
        let (train, test) = train_test_split(&data, 0.3, SEED).unwrap();
        (train, test, group)
    }

    fn config() -> FumeConfig {
        FumeConfig::default()
            .with_forest(DareConfig::small(SEED))
            .with_support(SupportRange::new(0.02, 0.30).unwrap())
    }

    #[test]
    fn finds_the_planted_cohort() {
        let (train, test, group) = setup();
        let report = Fume::new(config()).run(&ExplainRequest::new(&train, &test, group)).unwrap();
        assert!(report.original_bias > 0.02, "bias {}", report.original_bias);
        assert!(!report.top_k.is_empty());
        // The planted cohort (city = urban AND job = manual) must rank in
        // the top-k, and the top subset must remove a meaningful share of
        // the violation.
        let planted_found = report.top_k.iter().any(|s| {
            PLANTED_TOY_COHORT.iter().all(|&(attr, code)| {
                s.predicate
                    .literals()
                    .iter()
                    .any(|l| l.attr as usize == attr && l.value == code)
            }) || s.predicate.literals().iter().all(|l| {
                PLANTED_TOY_COHORT
                    .iter()
                    .any(|&(attr, code)| l.attr as usize == attr && l.value == code)
            })
        });
        assert!(
            planted_found,
            "top-k should contain the planted cohort: {:#?}",
            report.top_k.iter().map(|s| &s.pattern).collect::<Vec<_>>()
        );
        assert!(
            report.top_k[0].parity_reduction > 0.3,
            "top subset removes {} of the bias",
            report.top_k[0].parity_reduction
        );
    }

    #[test]
    fn report_is_internally_consistent() {
        let (train, test, group) = setup();
        let report = Fume::new(config()).run(&ExplainRequest::new(&train, &test, group)).unwrap();
        assert_eq!(report.original_fairness.abs(), report.original_bias);
        for s in &report.top_k {
            assert!((s.phi + s.parity_reduction).abs() < 1e-12);
            assert!(s.support >= 0.02 && s.support <= 0.30);
            assert!(!s.rows.is_empty());
            assert!(s.pattern.contains('='));
        }
        // top_k is sorted descending.
        assert!(report
            .top_k
            .windows(2)
            .all(|w| w[0].parity_reduction >= w[1].parity_reduction));
        let explored: usize = report.levels.iter().map(|l| l.explored).sum();
        assert_eq!(report.unlearning_operations, explored);
    }

    #[test]
    fn markdown_rendering() {
        let (train, test, group) = setup();
        let report = Fume::new(config()).run(&ExplainRequest::new(&train, &test, group)).unwrap();
        let md = report.to_markdown();
        assert!(md.starts_with("| # | Patterns"));
        assert!(md.lines().count() >= 3);
        assert!(md.contains('%'));
    }

    #[test]
    fn deterministic_given_seeds() {
        let (train, test, group) = setup();
        let a = Fume::new(config()).run(&ExplainRequest::new(&train, &test, group)).unwrap();
        let b = Fume::new(config()).run(&ExplainRequest::new(&train, &test, group)).unwrap();
        assert_eq!(a.top_k, b.top_k);
        assert_eq!(a.evaluated, b.evaluated);
    }

    #[test]
    fn no_violation_is_an_error() {
        let (train, _test, group) = setup();
        // Evaluating on the training data with a fair-by-construction
        // symmetric dataset is not guaranteed to be unbiased, so force the
        // condition with a test set where both groups get identical rows.
        let rows: Vec<u32> = (0..10).collect();
        let tiny = train.select_rows(&rows).unwrap();
        let fume = Fume::new(config());
        let forest = DareForest::fit(&train, DareConfig::small(1).with_trees(1));
        // Build a test set by duplicating one row across groups is complex;
        // instead check the error path via a metric with zero bias:
        // a forest evaluated against itself may still be biased, so accept
        // either a successful run or the NoViolation error here — what we
        // assert is that empty data errors deterministically.
        let _ = fume.run(&ExplainRequest::new(&train, &tiny, group).with_model(&forest));
        let empty = train.select_rows(&[]).unwrap();
        assert_eq!(
            fume.run(&ExplainRequest::new(&train, &empty, group).with_model(&forest)).unwrap_err(),
            FumeError::EmptyData
        );
    }

    #[test]
    fn checkpointing_an_opaque_classifier_is_an_invalid_request() {
        let (train, test, group) = setup();
        let forest = DareForest::fit(&train, DareConfig::small(1).with_trees(2));
        let removal = crate::DareCloneRemoval::new(&forest, &train);
        let request = ExplainRequest::new(&train, &test, group)
            .with_classifier(&forest)
            .with_removal(RemovalSpec::Shared(&removal));
        let dir = std::env::temp_dir().join("fume_opaque_checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
        let fume = Fume::new(config().with_checkpoint_dir(&dir));
        assert!(matches!(fume.run(&request), Err(FumeError::InvalidRequest(_))));
        assert!(!dir.exists(), "nothing is written for a refused run");
    }

    #[test]
    fn verify_subset_compares_unlearning_with_retraining() {
        let (train, test, group) = setup();
        let fume = Fume::new(config());
        let forest = DareForest::fit(&train, fume.config().forest.clone());
        let subset: Vec<u32> = (0..50).collect();
        let (retrained_bias, rho_u, rho_r) = fume
            .verify_subset(&forest, &train, &test, group, &subset)
            .unwrap();
        assert!(retrained_bias >= 0.0);
        assert!(
            (rho_u - rho_r).abs() < 0.6,
            "unlearned ρ {rho_u} vs retrained ρ {rho_r} should be in the same ballpark"
        );
    }

    #[test]
    fn extended_metric_equal_opportunity_is_explainable() {
        let (train, test, group) = setup();
        let fume = Fume::new(config().with_metric(FairnessMetric::EqualOpportunity));
        match fume.run(&ExplainRequest::new(&train, &test, group)) {
            Ok(report) => {
                assert_eq!(report.metric, FairnessMetric::EqualOpportunity);
                assert!(report.original_bias > 0.0);
                for s in &report.top_k {
                    assert!(s.parity_reduction > 0.0);
                }
            }
            Err(FumeError::NoViolation { .. }) => {}
            Err(e) => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn apply_removal_returns_unlearned_forest() {
        let (train, _test, _group) = setup();
        let forest = DareForest::fit(&train, DareConfig::small(9).with_trees(5));
        let (unlearned, report) = apply_removal(&forest, &train, &[0, 1, 2]);
        assert_eq!(unlearned.num_instances() + 3, forest.num_instances());
        assert!(report.leaves_updated > 0 || report.subtrees_retrained > 0);
    }
}
