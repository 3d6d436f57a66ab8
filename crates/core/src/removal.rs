//! Removal methods `R(A(D), D, T)`: ways to obtain "the model had it been
//! trained without subset T" (paper §3).
//!
//! The trait is *scoped*: [`RemovalMethod::with_removed`] hands the
//! counterfactual model to a closure instead of returning it, so
//! implementations can reuse long-lived scratch state (lease → delete →
//! measure → roll back) without callers being able to retain or mutate
//! the leased model.
//!
//! Implementations:
//! * [`DareRemoval`] — FUME's fast path: each worker leases a scratch
//!   forest from a pool (cloned once, not once per subset), journals the
//!   deletion, measures, then rolls the scratch back byte-identically.
//!   Built [`with_test`](DareRemoval::with_test), it measures the bias
//!   over that test set with the rerouted pass, which walks only the
//!   test rows under the subtrees the deletion rebuilt;
//! * [`DareCloneRemoval`] — the pre-pool shape: clone the deployed
//!   forest per call and batch-delete (kept as the bench baseline);
//! * [`RetrainRemoval`] — the naive gold standard: fit a fresh forest on
//!   `D \ T` from scratch (ground truth in the paper's Figure 3 and the
//!   efficiency baseline);
//! * [`GbdtRetrainRemoval`] — model-agnostic retraining for GBDTs.

use std::sync::OnceLock;

use fume_obs::sync::{TrackedGuard, TrackedMutex};

use fume_fairness::FairnessMetric;
use fume_forest::{DareConfig, DareForest, Gbdt, GbdtConfig, LeafRoutes, UndoJournal};
use fume_tabular::{Classifier, Dataset, GroupSpec};

/// One bias measurement, fully specified: which metric, over which
/// held-out rows, against which sensitive-group split. FUME's hot loop
/// only ever asks removal methods this one question, through
/// [`RemovalMethod::bias_removed`]; the closure-based
/// [`RemovalMethod::with_removed`] stays fully general.
#[derive(Clone, Copy)]
pub struct BiasEval<'a> {
    /// The fairness metric to measure.
    pub metric: FairnessMetric,
    /// The held-out evaluation rows.
    pub test: &'a Dataset,
    /// The sensitive-group split.
    pub group: GroupSpec,
}

impl BiasEval<'_> {
    /// `|F(h, test)|` computed the reference way: a full prediction pass
    /// over every test row and a fresh confusion tally.
    pub fn full(&self, model: &dyn Classifier) -> f64 {
        self.metric.bias(model, self.test, self.group)
    }

    /// `|F(h, test)|` of a model whose `predict_proba(test)` is `proba`:
    /// bitwise [`Self::full`] of that model.
    pub fn of_proba(&self, proba: &[f64]) -> f64 {
        self.metric.evaluate_proba(proba, self.test, self.group).abs()
    }
}

/// Produces a model equivalent to training on `D \ subset` and lends it
/// to a closure.
pub trait RemovalMethod: Sync {
    /// Runs `f` against the model with `subset` (training-row ids)
    /// removed, returning whatever `f` computes. The deployed model must
    /// be observably unchanged when this returns; the counterfactual
    /// model only lives for the duration of `f`, which lets
    /// implementations lease reusable scratch state instead of
    /// materialising a fresh model per call.
    fn with_removed<T>(&self, subset: &[u32], f: impl FnOnce(&dyn Classifier) -> T) -> T;

    /// The bias of the model with `subset` removed: one full prediction
    /// pass over the test rows, `self.with_removed(subset, |m|
    /// eval.full(m))`. A wrapper may override it (to time or count the
    /// evals it forwards, say) **only if** its answer stays bitwise
    /// identical to that default on every input.
    fn bias_removed(&self, subset: &[u32], eval: &BiasEval<'_>) -> f64 {
        self.with_removed(subset, |model| eval.full(model))
    }

    /// One-time warm-up before a batch evaluation fans out over
    /// `workers` threads — e.g. pre-populating a scratch pool so no
    /// worker pays a cold clone mid-loop. Takes `&self` (interior
    /// mutability) so a long-lived removal method can be warmed once and
    /// then shared across concurrent runs. The default does nothing.
    fn warm(&self, workers: usize) {
        let _ = workers;
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Object-safe mirror of [`RemovalMethod`], for callers that hold a
/// removal method behind `&dyn` — e.g. a long-lived serving engine that
/// shares one warm [`DareRemoval`] pool across concurrent requests, or
/// an [`ExplainRequest`](crate::ExplainRequest) carrying a custom
/// method. `with_removed` is generic over the closure's return type and
/// therefore not dyn-compatible; this trait narrows the closure to
/// `&mut dyn FnMut` with no return value, and a blanket impl bridges
/// every `RemovalMethod` automatically — implement only the generic
/// trait, never this one.
pub trait RemovalDyn: Sync {
    /// Type-erased [`RemovalMethod::with_removed`]: runs `f` against the
    /// model with `subset` removed. `f` is invoked exactly once.
    fn with_removed_dyn(&self, subset: &[u32], f: &mut dyn FnMut(&dyn Classifier));

    /// Type-erased [`RemovalMethod::bias_removed`] — already first-order,
    /// mirrored so a shared method's own override survives the `&dyn`
    /// boundary.
    fn bias_removed_dyn(&self, subset: &[u32], eval: &BiasEval<'_>) -> f64;

    /// Type-erased [`RemovalMethod::warm`].
    fn warm_dyn(&self, workers: usize);

    /// Type-erased [`RemovalMethod::name`].
    fn name_dyn(&self) -> &'static str;
}

impl<R: RemovalMethod> RemovalDyn for R {
    fn with_removed_dyn(&self, subset: &[u32], f: &mut dyn FnMut(&dyn Classifier)) {
        self.with_removed(subset, |model| f(model));
    }

    fn bias_removed_dyn(&self, subset: &[u32], eval: &BiasEval<'_>) -> f64 {
        self.bias_removed(subset, eval)
    }

    fn warm_dyn(&self, workers: usize) {
        self.warm(workers);
    }

    fn name_dyn(&self) -> &'static str {
        self.name()
    }
}

/// Adapts a shared `&dyn RemovalDyn` back into a [`RemovalMethod`], so
/// one long-lived removal method (e.g. a serving engine's warm
/// [`DareRemoval`] pool) can be lent to many concurrent runs. The
/// generic closure is threaded through the dyn boundary by stashing its
/// result in an `Option`.
#[derive(Clone, Copy)]
pub struct SharedAdapter<'a>(pub &'a dyn RemovalDyn);

impl RemovalMethod for SharedAdapter<'_> {
    fn with_removed<T>(&self, subset: &[u32], f: impl FnOnce(&dyn Classifier) -> T) -> T {
        let mut f = Some(f);
        let mut out = None;
        self.0.with_removed_dyn(subset, &mut |model| {
            if let Some(f) = f.take() {
                out = Some(f(model));
            }
        });
        // fume-lint: allow(F001) -- RemovalDyn's contract is that the closure runs exactly once, and the blanket impl (the only intended implementor) guarantees it
        out.expect("RemovalDyn::with_removed_dyn must invoke the closure exactly once")
    }

    fn bias_removed(&self, subset: &[u32], eval: &BiasEval<'_>) -> f64 {
        // Forward instead of taking the generic default, so the shared
        // method's own override (e.g. a timing wrapper) is what runs.
        self.0.bias_removed_dyn(subset, eval)
    }

    fn warm(&self, workers: usize) {
        self.0.warm_dyn(workers);
    }

    fn name(&self) -> &'static str {
        self.0.name_dyn()
    }
}

/// Machine unlearning via DaRE with a scratch-forest pool: workers lease
/// a long-lived scratch forest, journal-delete the subset into it,
/// measure, and roll back — zero forest clones in steady state.
#[derive(Debug)]
pub struct DareRemoval<'a> {
    forest: &'a DareForest,
    train: &'a Dataset,
    /// The test set [`RemovalMethod::bias_removed`] reroutes for, and the
    /// forest's routes over it once built.
    test: Option<&'a Dataset>,
    routes: OnceLock<LeafRoutes<'a>>,
    pool: TrackedMutex<Vec<DareForest>>,
}

/// Poison recovery for the scratch pool — see [`DareRemoval::pool_guard`].
fn reset_pool(pool: &mut Vec<DareForest>) {
    fume_obs::counter!("fume.scratch.poison_recoveries", 1);
    pool.clear();
}

impl<'a> DareRemoval<'a> {
    /// Wraps a trained forest and its training data. The scratch pool
    /// starts empty and fills on first use (or via
    /// [`RemovalMethod::warm`]).
    pub fn new(forest: &'a DareForest, train: &'a Dataset) -> Self {
        Self {
            forest,
            train,
            test: None,
            routes: OnceLock::new(),
            pool: TrackedMutex::with_recovery("core.scratch_pool", Vec::new(), reset_pool),
        }
    }

    /// Measures bias over `test` with the rerouted pass: a
    /// [`RemovalMethod::bias_removed`] whose [`BiasEval`] is over this
    /// very dataset (the same address) walks only the test rows under the
    /// subtrees the delete rebuilt, and answers bitwise what the full pass
    /// answers. An eval over any other dataset takes the full pass. The
    /// forest's [`LeafRoutes`] over `test` are built once, by
    /// [`RemovalMethod::warm`] or by the first such eval; they borrow
    /// `test` for `'a`, so no other dataset can sit at its address while
    /// they live.
    pub fn with_test(mut self, test: &'a Dataset) -> Self {
        self.test = Some(test);
        self
    }

    /// The routes over `test`, if it is the dataset of [`Self::with_test`].
    fn routes_for(&self, test: &Dataset) -> Option<&LeafRoutes<'a>> {
        let own = self.test.filter(|&own| std::ptr::eq(own, test))?;
        Some(self.routes.get_or_init(|| LeafRoutes::build(self.forest, own)))
    }

    /// Number of scratch forests currently resting in the pool.
    pub fn pooled_scratch(&self) -> usize {
        self.pool_guard().len()
    }

    /// Locks the pool, recovering explicitly from poisoning.
    ///
    /// The lock is only held for a push/pop, but a worker can still die
    /// between leasing and releasing — its scratch forest is then lost
    /// mid-journal and never returned. The forests *resting* in the pool
    /// were each released clean (rollback verified by the debug
    /// assertion in [`RemovalMethod::with_removed`]), yet distinguishing
    /// "poisoned while resting" from "poisoned mid-push" is not worth
    /// reasoning about: on poison [`reset_pool`] clears the pool and
    /// lets subsequent leases re-clone cold, trading a few clones for
    /// certainty.
    fn pool_guard(&self) -> TrackedGuard<'_, Vec<DareForest>> {
        self.pool.lock()
    }

    fn lease(&self) -> DareForest {
        fume_obs::counter!("fume.scratch.leases", 1);
        match self.pool_guard().pop() {
            Some(scratch) => scratch,
            None => {
                fume_obs::counter!("fume.scratch.cold_clones", 1);
                self.forest.clone()
            }
        }
    }

    fn release(&self, scratch: DareForest) {
        let mut pool = self.pool_guard();
        // Crash site *while the pool lock is held*: lets the resumability
        // suite prove the poison-recovery policy (reset_pool) works.
        fume_obs::fault::fault_point("scratch-pool-release");
        pool.push(scratch);
    }

    /// Leases a scratch forest, journal-deletes `subset` from it, runs `f`
    /// on the unlearned scratch and its journal, then rolls the scratch
    /// back and returns it to the pool.
    fn with_journal<T>(&self, subset: &[u32], f: impl FnOnce(&DareForest, &UndoJournal) -> T) -> T {
        let mut scratch = self.lease();
        // Lattice selections come from the training universe the forest
        // was fitted on, so the per-call presence scan is skipped.
        let journal = scratch.delete_journaled(subset, self.train);
        fume_obs::counter!("fume.journal.bytes", journal.approx_bytes());
        let out = f(&scratch, &journal);
        let restored = scratch.rollback(journal);
        fume_obs::counter!("fume.rollback.nodes_restored", restored);
        debug_assert_eq!(&scratch, self.forest, "rollback must restore the snapshot");
        fume_forest::deepcheck::check_forest(&scratch, self.train, "rollback");
        self.release(scratch);
        out
    }
}

impl RemovalMethod for DareRemoval<'_> {
    fn with_removed<T>(&self, subset: &[u32], f: impl FnOnce(&dyn Classifier) -> T) -> T {
        self.with_journal(subset, |scratch, _| f(scratch))
    }

    /// The rerouted pass when `eval` is over the dataset of
    /// [`DareRemoval::with_test`], the full pass otherwise; bitwise the
    /// same answer either way.
    fn bias_removed(&self, subset: &[u32], eval: &BiasEval<'_>) -> f64 {
        match self.routes_for(eval.test) {
            Some(routes) => self.with_journal(subset, |scratch, journal| {
                eval.of_proba(&routes.predict_proba(scratch, journal))
            }),
            None => self.with_removed(subset, |model| eval.full(model)),
        }
    }

    /// Builds the routes of [`DareRemoval::with_test`], then fills the
    /// scratch pool.
    fn warm(&self, workers: usize) {
        if let Some(test) = self.test {
            self.routes_for(test);
        }
        let mut pool = self.pool_guard();
        while pool.len() < workers.max(1) {
            pool.push(self.forest.clone());
        }
    }

    fn name(&self) -> &'static str {
        "DaRE unlearning"
    }
}

/// The pre-pool DaRE path: clone the deployed forest per call and
/// batch-delete the subset. Kept as the baseline the pooled path is
/// benchmarked (and byte-identity-tested) against.
#[derive(Debug, Clone, Copy)]
pub struct DareCloneRemoval<'a> {
    forest: &'a DareForest,
    train: &'a Dataset,
}

impl<'a> DareCloneRemoval<'a> {
    /// Wraps a trained forest and its training data.
    pub fn new(forest: &'a DareForest, train: &'a Dataset) -> Self {
        Self { forest, train }
    }
}

impl RemovalMethod for DareCloneRemoval<'_> {
    fn with_removed<T>(&self, subset: &[u32], f: impl FnOnce(&dyn Classifier) -> T) -> T {
        let mut clone = self.forest.clone();
        clone.delete_unchecked(subset, self.train);
        f(&clone)
    }

    fn name(&self) -> &'static str {
        "DaRE unlearning (clone per eval)"
    }
}

/// The naive approach: retrain from scratch on the surviving rows with the
/// same hyperparameters and seed.
#[derive(Debug, Clone)]
pub struct RetrainRemoval<'a> {
    train: &'a Dataset,
    config: DareConfig,
}

impl<'a> RetrainRemoval<'a> {
    /// Wraps the training data and forest hyperparameters.
    pub fn new(train: &'a Dataset, config: DareConfig) -> Self {
        Self { train, config }
    }
}

fn complement(subset: &[u32], num_rows: usize) -> Vec<u32> {
    let mut keep = vec![true; num_rows];
    for &id in subset {
        keep[id as usize] = false;
    }
    (0..num_rows as u32).filter(|&r| keep[r as usize]).collect()
}

impl RemovalMethod for RetrainRemoval<'_> {
    fn with_removed<T>(&self, subset: &[u32], f: impl FnOnce(&dyn Classifier) -> T) -> T {
        let surviving = complement(subset, self.train.num_rows());
        // Retrains serially: the caller parallelizes across subsets.
        let cfg = DareConfig { n_jobs: Some(1), ..self.config.clone() };
        let model = DareForest::fit_on(self.train, surviving, cfg);
        f(&model)
    }

    fn name(&self) -> &'static str {
        "retraining from scratch"
    }
}

/// Model-agnostic removal for gradient-boosted trees: retrain on the
/// complement. GBDT trees are sequential (each fits the previous
/// ensemble's gradients), so a deletion invalidates every later tree and
/// retraining *is* the exact removal method — which is precisely why the
/// paper's fast path needs a model like DaRE, and why this impl exists:
/// it demonstrates §5.1's claim that FUME runs unchanged on any model by
/// swapping `EstimateAttribution`'s removal method.
#[derive(Debug, Clone)]
pub struct GbdtRetrainRemoval<'a> {
    train: &'a Dataset,
    config: GbdtConfig,
}

impl<'a> GbdtRetrainRemoval<'a> {
    /// Wraps the training data and GBDT hyperparameters.
    pub fn new(train: &'a Dataset, config: GbdtConfig) -> Self {
        Self { train, config }
    }
}

impl RemovalMethod for GbdtRetrainRemoval<'_> {
    fn with_removed<T>(&self, subset: &[u32], f: impl FnOnce(&dyn Classifier) -> T) -> T {
        let surviving = complement(subset, self.train.num_rows());
        let model = Gbdt::fit_on(self.train, surviving, self.config.clone());
        f(&model)
    }

    fn name(&self) -> &'static str {
        "GBDT retraining"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fume_tabular::datasets::planted_toy;

    #[test]
    fn dare_removal_does_not_mutate_deployed_model() {
        let (train, _) = planted_toy().generate_scaled(0.15, 61).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(61));
        let snapshot = forest.clone();
        let removal = DareRemoval::new(&forest, &train);
        let n = removal.with_removed(&[0, 1, 2, 3, 4], |model| {
            let _ = model.predict(&train);
            5u32
        });
        assert_eq!(forest, snapshot, "deployed model must be untouched");
        assert_eq!(n, 5);
        // The scratch forest was rolled back and returned to the pool.
        assert_eq!(removal.pooled_scratch(), 1);
    }

    #[test]
    fn scratch_pool_reuses_forests_across_calls() {
        let (train, _) = planted_toy().generate_scaled(0.15, 65).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(65).with_trees(5));
        let removal = DareRemoval::new(&forest, &train);
        removal.warm(2);
        assert_eq!(removal.pooled_scratch(), 2);
        for round in 0..4 {
            removal.with_removed(&[round, round + 10], |_| ());
            assert_eq!(removal.pooled_scratch(), 2, "pool must not grow or shrink");
        }
    }

    #[test]
    fn pooled_and_clone_paths_agree_exactly() {
        use fume_fairness::FairnessMetric;
        let (data, group) = planted_toy().generate_scaled(0.3, 66).unwrap();
        let (train, test) = fume_tabular::split::train_test_split(&data, 0.3, 66).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(66));
        let pooled = DareRemoval::new(&forest, &train);
        let cloning = DareCloneRemoval::new(&forest, &train);
        let metric = FairnessMetric::StatisticalParity;
        for subset in [vec![0u32, 3, 9], (0..30).collect::<Vec<u32>>()] {
            let a = pooled.with_removed(&subset, |m| metric.bias(m, &test, group));
            let b = cloning.with_removed(&subset, |m| metric.bias(m, &test, group));
            assert_eq!(a.to_bits(), b.to_bits(), "pool and clone paths must agree");
        }
    }

    #[test]
    fn rerouted_evals_match_the_clone_path_on_every_metric() {
        let (data, group) = planted_toy().generate_scaled(0.4, 68).unwrap();
        let (train, test) = fume_tabular::split::train_test_split(&data, 0.3, 68).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(68));
        let rerouted = DareRemoval::new(&forest, &train).with_test(&test);
        rerouted.warm(1);
        assert!(rerouted.routes.get().is_some(), "warm builds the routes");
        let cloning = DareCloneRemoval::new(&forest, &train);
        let n = train.num_rows() as u32;
        let subsets: [Vec<u32>; 4] = [vec![], vec![0, 3, 9], (0..n / 4).collect(), (0..n).collect()];
        for metric in FairnessMetric::EXTENDED {
            let eval = BiasEval { metric, test: &test, group };
            for subset in &subsets {
                let a = rerouted.bias_removed(subset, &eval);
                let b = cloning.bias_removed(subset, &eval);
                let what = format!("{} over {} rows", metric.name(), subset.len());
                assert_eq!(a.to_bits(), b.to_bits(), "{what}");
            }
        }
        assert_eq!(forest, DareForest::fit(&train, DareConfig::small(68)), "deployed untouched");
    }

    #[test]
    fn an_eval_over_another_dataset_takes_the_full_pass() {
        let (data, group) = planted_toy().generate_scaled(0.3, 69).unwrap();
        let (train, test) = fume_tabular::split::train_test_split(&data, 0.3, 69).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(69));
        let removal = DareRemoval::new(&forest, &train).with_test(&test);
        let copy = test.clone();
        let metric = FairnessMetric::StatisticalParity;
        let subset: Vec<u32> = (0..40).collect();
        let on_copy = removal.bias_removed(&subset, &BiasEval { metric, test: &copy, group });
        assert!(removal.routes.get().is_none(), "a copy of the test set is not rerouted");
        let on_test = removal.bias_removed(&subset, &BiasEval { metric, test: &test, group });
        assert!(removal.routes.get().is_some(), "the test set itself is");
        assert_eq!(on_copy.to_bits(), on_test.to_bits());
        let full = removal.with_removed(&subset, |m| metric.bias(m, &test, group));
        assert_eq!(on_test.to_bits(), full.to_bits());
    }

    #[test]
    fn retrain_removal_trains_on_complement() {
        let (train, _) = planted_toy().generate_scaled(0.15, 62).unwrap();
        let removal = RetrainRemoval::new(&train, DareConfig::small(62).with_trees(5));
        let n = removal.with_removed(&[0, 10, 20], |model| {
            model.predict(&train).len()
        });
        assert_eq!(n, train.num_rows());
    }

    #[test]
    fn both_methods_agree_closely_on_small_deletions() {
        use fume_fairness::FairnessMetric;
        let (data, group) = planted_toy().generate_scaled(0.5, 63).unwrap();
        let (train, test) =
            fume_tabular::split::train_test_split(&data, 0.3, 63).unwrap();
        let cfg = DareConfig::small(63);
        let forest = DareForest::fit(&train, cfg.clone());
        let dare = DareRemoval::new(&forest, &train);
        let retrain = RetrainRemoval::new(&train, cfg);
        let subset: Vec<u32> = (0..40).collect();
        let metric = FairnessMetric::StatisticalParity;
        let b_dare = dare.with_removed(&subset, |m| metric.bias(m, &test, group));
        let b_retrain = retrain.with_removed(&subset, |m| metric.bias(m, &test, group));
        assert!(
            (b_dare - b_retrain).abs() < 0.08,
            "unlearned bias {b_dare} vs retrained {b_retrain}"
        );
    }

    #[test]
    fn dyn_bridge_matches_generic_path() {
        use fume_fairness::FairnessMetric;
        let (data, group) = planted_toy().generate_scaled(0.3, 67).unwrap();
        let (train, test) = fume_tabular::split::train_test_split(&data, 0.3, 67).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(67));
        let removal = DareRemoval::new(&forest, &train);
        let erased: &dyn RemovalDyn = &removal;
        let metric = FairnessMetric::StatisticalParity;
        let subset = [0u32, 3, 9];
        let direct = removal.with_removed(&subset, |m| metric.bias(m, &test, group));
        let mut via_dyn = f64::NAN;
        erased.with_removed_dyn(&subset, &mut |m| via_dyn = metric.bias(m, &test, group));
        assert_eq!(direct.to_bits(), via_dyn.to_bits());
        erased.warm_dyn(3);
        assert_eq!(removal.pooled_scratch(), 3);
        assert_eq!(erased.name_dyn(), "DaRE unlearning");

        // Back across the bridge, `SharedAdapter` must route
        // `bias_removed` to the wrapped method's own override rather
        // than the generic default.
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting<'a> {
            inner: DareRemoval<'a>,
            calls: AtomicUsize,
        }
        impl RemovalMethod for Counting<'_> {
            fn with_removed<T>(&self, subset: &[u32], f: impl FnOnce(&dyn Classifier) -> T) -> T {
                self.inner.with_removed(subset, f)
            }
            fn bias_removed(&self, subset: &[u32], eval: &BiasEval<'_>) -> f64 {
                self.calls.fetch_add(1, Ordering::Relaxed);
                self.inner.bias_removed(subset, eval)
            }
            fn name(&self) -> &'static str {
                "counting"
            }
        }
        let counting =
            Counting { inner: DareRemoval::new(&forest, &train), calls: AtomicUsize::new(0) };
        let eval = BiasEval { metric, test: &test, group };
        let via_shared = SharedAdapter(&counting).bias_removed(&subset, &eval);
        assert_eq!(counting.calls.load(Ordering::Relaxed), 1, "override bypassed");
        assert_eq!(via_shared.to_bits(), direct.to_bits());
    }

    #[test]
    fn names() {
        let (train, _) = planted_toy().generate_scaled(0.1, 64).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(64).with_trees(2));
        assert_eq!(DareRemoval::new(&forest, &train).name(), "DaRE unlearning");
        assert_eq!(
            DareCloneRemoval::new(&forest, &train).name(),
            "DaRE unlearning (clone per eval)"
        );
        assert_eq!(
            RetrainRemoval::new(&train, DareConfig::small(64)).name(),
            "retraining from scratch"
        );
    }
}
