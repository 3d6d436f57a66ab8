//! Subset attribution toward bias (paper Definitions 2.2/2.3 and Eq. 2),
//! with parallel batch evaluation.

use std::collections::HashMap;

use fume_obs::clock::{Duration, Stopwatch};
use fume_obs::hash::WordHashBuilder;
use fume_obs::sync::Counter;
use fume_tabular::workers;

use fume_fairness::FairnessMetric;
use fume_lattice::{BatchEvaluator, EvalItem};
use fume_tabular::{Dataset, GroupSpec};

use crate::removal::{BiasEval, RemovalMethod};

/// The paper's subset attribution
/// `φ_T = (|F(h_T)| − |F(h)|) / |F(h)|` (Definition 2.3): negative when
/// removing the subset reduces bias.
#[inline]
pub fn phi(original_bias: f64, bias_without: f64) -> f64 {
    debug_assert!(original_bias > 0.0, "caller checks for an actual violation");
    (bias_without - original_bias) / original_bias
}

/// Parity reduction `ρ_T = −φ_T`: the fraction of the violation removed
/// (what Tables 3–7 report as "Parity Reduction" percentages).
#[inline]
pub fn parity_reduction(original_bias: f64, bias_without: f64) -> f64 {
    -phi(original_bias, bias_without)
}

/// A memo of already-computed `ρ` values keyed by canonical row
/// selection, consulted by [`AttributionEstimator`] before paying for an
/// unlearn-eval. Implementations decide scope and eviction — the
/// estimator only promises that `store(rows, rho)` is called with the
/// exact `rho` an eval produced and that `lookup` results are used
/// verbatim (so a memo shared across runs must key on everything `ρ`
/// depends on beyond the rows: dataset, metric, and model identity).
/// `fume-serve` implements this as its bounded cross-request LRU.
pub trait EvalMemo: Sync {
    /// The cached `ρ` for this row selection, if present.
    fn lookup(&self, rows: &[u32]) -> Option<f64>;

    /// Records a freshly computed `ρ` for this row selection.
    fn store(&self, rows: &[u32], rho: f64);
}

/// Estimates subset attributions through a [`RemovalMethod`]: FUME's
/// Equation 2 with `R` = DaRE unlearning, or the ground truth with `R` =
/// retraining.
pub struct AttributionEstimator<'a, R: RemovalMethod> {
    removal: R,
    metric: FairnessMetric,
    test: &'a Dataset,
    group: GroupSpec,
    original_bias: f64,
    n_jobs: usize,
    memo: Option<&'a dyn EvalMemo>,
    /// Wall-clock nanoseconds spent inside [`BatchEvaluator::evaluate`].
    eval_nanos: Counter,
}

impl<'a, R: RemovalMethod> AttributionEstimator<'a, R> {
    /// Builds an estimator around the deployed model's observed bias.
    /// `original_bias` must be positive (there must *be* a violation).
    ///
    /// Calls [`RemovalMethod::warm`] with the resolved worker count, so
    /// pool-backed methods clone their scratch state once here rather
    /// than per evaluated subset.
    pub fn new(
        removal: R,
        metric: FairnessMetric,
        test: &'a Dataset,
        group: GroupSpec,
        original_bias: f64,
        n_jobs: Option<usize>,
    ) -> Self {
        assert!(original_bias > 0.0, "no fairness violation to attribute");
        let n_jobs = n_jobs.unwrap_or_else(workers::available_parallelism).max(1);
        removal.warm(n_jobs);
        Self {
            removal,
            metric,
            test,
            group,
            original_bias,
            n_jobs,
            memo: None,
            eval_nanos: Counter::new(0),
        }
    }

    /// Attaches an [`EvalMemo`] consulted before every unlearn-eval.
    /// Memo hits surface as `fume.unlearn_evals.memoized` while
    /// `fume.unlearn_evals` keeps counting only the evals actually
    /// performed, which is what lets a trace prove a fully warm request
    /// cost zero unlearning.
    pub fn with_memo(mut self, memo: &'a dyn EvalMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// `ρ` for a single subset, measured through
    /// [`RemovalMethod::bias_removed`].
    pub fn rho(&self, subset: &[u32]) -> f64 {
        let eval = BiasEval { metric: self.metric, test: self.test, group: self.group };
        let new_bias = self.removal.bias_removed(subset, &eval);
        parity_reduction(self.original_bias, new_bias)
    }

    /// `φ` for a single subset.
    pub fn phi(&self, subset: &[u32]) -> f64 {
        -self.rho(subset)
    }

    /// The observed bias of the deployed model.
    pub fn original_bias(&self) -> f64 {
        self.original_bias
    }

    /// Cumulative wall-clock time spent inside batch evaluations so far.
    pub fn eval_time(&self) -> Duration {
        Duration::from_nanos(self.eval_nanos.get())
    }
}

impl<R: RemovalMethod> BatchEvaluator for AttributionEstimator<'_, R> {
    /// Evaluates a level's subsets in parallel. Items selecting identical
    /// row sets (syntactically different but semantically redundant
    /// predicates) are deduplicated first, so each distinct subset is
    /// unlearned exactly once; workers then share pooled scratch models
    /// through the removal method, so items are fully independent.
    fn evaluate(&self, items: &[EvalItem<'_>]) -> Vec<f64> {
        if items.is_empty() {
            return Vec::new();
        }
        let _span = fume_obs::span!("fume.phase.unlearn_eval", batch = items.len());
        let t0 = Stopwatch::start();

        // Dedupe identical row selections: `slot_of[i]` maps item `i` to
        // its evaluation in `unique`.
        let mut first_of: HashMap<&[u32], usize, WordHashBuilder> =
            HashMap::with_capacity_and_hasher(items.len(), WordHashBuilder::default());
        let mut unique: Vec<&[u32]> = Vec::with_capacity(items.len());
        let mut slot_of: Vec<usize> = Vec::with_capacity(items.len());
        for item in items {
            let next = unique.len();
            let idx = *first_of.entry(item.rows).or_insert(next);
            if idx == next {
                unique.push(item.rows);
            }
            slot_of.push(idx);
        }
        let deduped = items.len() - unique.len();
        if deduped > 0 {
            fume_obs::counter!("fume.unlearn_evals.deduped", deduped);
            fume_obs::progress::tick_deduped(deduped as u64);
        }

        // Consult the memo (if any) before paying for an unlearn-eval:
        // hits reuse the cached ρ verbatim, only misses go to the pool.
        let mut rho_unique: Vec<Option<f64>> = vec![None; unique.len()];
        let miss_idx: Vec<usize> = match self.memo {
            Some(memo) => {
                let mut misses = Vec::with_capacity(unique.len());
                for (i, rows) in unique.iter().enumerate() {
                    match memo.lookup(rows) {
                        Some(rho) => rho_unique[i] = Some(rho),
                        None => misses.push(i),
                    }
                }
                misses
            }
            None => (0..unique.len()).collect(),
        };
        // One accounting identity, memo or not:
        //   fume.unlearn_evals (+ .deduped + .memoized) == items submitted.
        // `fume.unlearn_evals` counts evals actually *executed* — a fully
        // warm request shows zero here in the trace — and every satisfied
        // item ticks progress exactly once (computed, deduped, or
        // memoized), so `done` always reaches `planned`.
        if !miss_idx.is_empty() {
            fume_obs::counter!("fume.unlearn_evals", miss_idx.len());
        }
        let memoized = unique.len() - miss_idx.len();
        if memoized > 0 {
            fume_obs::counter!("fume.unlearn_evals.memoized", memoized);
            fume_obs::progress::tick_memoized(memoized as u64);
        }

        let miss_rows: Vec<&[u32]> = miss_idx.iter().map(|&i| unique[i]).collect();
        let jobs = self.n_jobs.min(miss_rows.len());
        let computed: Vec<f64> = workers::parallel_map(&miss_rows, jobs, |rows| {
            let rho = self.rho(rows);
            fume_obs::progress::tick_eval(1);
            rho
        });
        if let Some(memo) = self.memo {
            for (&i, &rho) in miss_idx.iter().zip(&computed) {
                memo.store(unique[i], rho);
            }
            // Correctness mode: re-derive every memo hit from scratch and
            // demand bitwise agreement — a scope-confused memo (wrong
            // dataset/metric/model in the key) fails loudly here. The
            // recomputation is an audit: it adds no counts of work.
            if fume_forest::deepcheck::enabled() {
                for (i, rows) in unique.iter().enumerate() {
                    if let Some(cached) = rho_unique[i] {
                        let fresh = fume_obs::audit(|| self.rho(rows));
                        assert!(
                            cached.to_bits() == fresh.to_bits(),
                            "FUME_DEEPCHECK: memoised ρ {cached} != recomputed ρ {fresh} \
                             for a {}-row selection — eval memo scope is wrong",
                            rows.len()
                        );
                    }
                }
            }
        }
        for (&i, &rho) in miss_idx.iter().zip(&computed) {
            rho_unique[i] = Some(rho);
        }
        let out = slot_of
            .into_iter()
            // fume-lint: allow(F001) -- every index is either a memo hit (filled at lookup) or a miss (filled from `computed` just above); the partition is exhaustive by construction
            .map(|i| rho_unique[i].expect("every unique selection resolved"))
            .collect();
        self.eval_nanos.add(t0.elapsed_nanos());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    use crate::removal::DareRemoval;
    use fume_forest::{DareConfig, DareForest};
    use fume_lattice::{Literal, Op, Predicate};
    use fume_tabular::datasets::planted_toy;
    use fume_tabular::split::train_test_split;

    #[test]
    fn phi_and_rho_are_negations() {
        assert!((phi(0.2, 0.1) + 0.5).abs() < 1e-12);
        assert!((parity_reduction(0.2, 0.1) - 0.5).abs() < 1e-12);
        // Removing a subset that *increases* bias: ρ negative.
        assert!(parity_reduction(0.2, 0.3) < 0.0);
        // Complete bias removal: ρ = 1.
        assert!((parity_reduction(0.2, 0.0) - 1.0).abs() < 1e-12);
    }

    fn setup() -> (Dataset, Dataset, GroupSpec, DareForest, f64) {
        let (data, group) = planted_toy().generate_scaled(0.5, 71).unwrap();
        let (train, test) = train_test_split(&data, 0.3, 71).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(71));
        let bias = FairnessMetric::StatisticalParity.bias(&forest, &test, group);
        (train, test, group, forest, bias)
    }

    #[test]
    fn parallel_and_serial_evaluation_agree() {
        let (train, test, group, forest, bias) = setup();
        assert!(bias > 0.0, "toy model must show a violation (bias {bias})");
        let preds: Vec<Predicate> = (0..3u16)
            .map(|v| Predicate::single(Literal::eq(1, v)))
            .collect();
        let selections: Vec<Vec<u32>> = preds.iter().map(|p| p.select(&train)).collect();
        let items: Vec<EvalItem<'_>> = preds
            .iter()
            .zip(&selections)
            .map(|(p, s)| EvalItem { predicate: p, rows: s })
            .collect();

        let serial = AttributionEstimator::new(
            DareRemoval::new(&forest, &train),
            FairnessMetric::StatisticalParity,
            &test,
            group,
            bias,
            Some(1),
        );
        let parallel = AttributionEstimator::new(
            DareRemoval::new(&forest, &train),
            FairnessMetric::StatisticalParity,
            &test,
            group,
            bias,
            Some(4),
        );
        let a = serial.evaluate(&items);
        let b = parallel.evaluate(&items);
        assert_eq!(a, b, "parallelism must not change results");
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn identical_row_selections_cost_one_evaluation() {
        use crate::removal::DareCloneRemoval;
        use std::sync::atomic::AtomicUsize;

        /// Counts how many removals actually run underneath dedup.
        struct CountingRemoval<'a> {
            inner: DareCloneRemoval<'a>,
            calls: &'a AtomicUsize,
        }
        impl RemovalMethod for CountingRemoval<'_> {
            fn with_removed<T>(
                &self,
                subset: &[u32],
                f: impl FnOnce(&dyn fume_tabular::Classifier) -> T,
            ) -> T {
                self.calls.fetch_add(1, Ordering::Relaxed);
                self.inner.with_removed(subset, f)
            }
            fn name(&self) -> &'static str {
                "counting"
            }
        }

        let (train, test, group, forest, bias) = setup();
        // Two syntactically different predicates with the same selection,
        // plus one genuinely distinct item.
        let p_a = Predicate::single(Literal::eq(1, 0));
        // `code <= 0` selects exactly the rows with `code == 0`.
        let p_b = Predicate::single(Literal { attr: 1, op: Op::Le, value: 0 });
        let p_c = Predicate::single(Literal::eq(1, 1));
        let rows_a = p_a.select(&train);
        let rows_b = p_b.select(&train);
        let rows_c = p_c.select(&train);
        assert_eq!(rows_a, rows_b, "setup: selections must coincide");
        let items = [
            EvalItem { predicate: &p_a, rows: &rows_a },
            EvalItem { predicate: &p_b, rows: &rows_b },
            EvalItem { predicate: &p_c, rows: &rows_c },
        ];
        let calls = AtomicUsize::new(0);
        let est = AttributionEstimator::new(
            CountingRemoval { inner: DareCloneRemoval::new(&forest, &train), calls: &calls },
            FairnessMetric::StatisticalParity,
            &test,
            group,
            bias,
            Some(1),
        );
        let out = est.evaluate(&items);
        assert_eq!(out.len(), 3, "every item still gets its ρ");
        assert_eq!(out[0], out[1], "duplicates share the evaluation result");
        assert_eq!(calls.load(Ordering::Relaxed), 2, "two distinct subsets → two removals");
    }

    #[test]
    fn memo_hits_skip_removals_and_match_cold_results() {
        use std::collections::HashMap as Map;
        use std::sync::atomic::AtomicUsize;
        use std::sync::Mutex;

        /// Counts removals actually executed underneath memo + dedup.
        struct CountingRemoval<'a> {
            inner: DareRemoval<'a>,
            calls: &'a AtomicUsize,
        }
        impl RemovalMethod for CountingRemoval<'_> {
            fn with_removed<T>(
                &self,
                subset: &[u32],
                f: impl FnOnce(&dyn fume_tabular::Classifier) -> T,
            ) -> T {
                self.calls.fetch_add(1, Ordering::Relaxed);
                self.inner.with_removed(subset, f)
            }
            fn name(&self) -> &'static str {
                "counting"
            }
        }

        #[derive(Default)]
        struct MapMemo(Mutex<Map<Vec<u32>, f64>>);
        impl EvalMemo for MapMemo {
            fn lookup(&self, rows: &[u32]) -> Option<f64> {
                self.0
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .get(rows)
                    .copied()
            }
            fn store(&self, rows: &[u32], rho: f64) {
                self.0
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .insert(rows.to_vec(), rho);
            }
        }

        let (train, test, group, forest, bias) = setup();
        let preds: Vec<Predicate> =
            (0..3u16).map(|v| Predicate::single(Literal::eq(1, v))).collect();
        let selections: Vec<Vec<u32>> = preds.iter().map(|p| p.select(&train)).collect();
        let items: Vec<EvalItem<'_>> = preds
            .iter()
            .zip(&selections)
            .map(|(p, s)| EvalItem { predicate: p, rows: s })
            .collect();

        let cold = AttributionEstimator::new(
            DareRemoval::new(&forest, &train),
            FairnessMetric::StatisticalParity,
            &test,
            group,
            bias,
            Some(1),
        );
        let expect = cold.evaluate(&items);

        let memo = MapMemo::default();
        let calls = AtomicUsize::new(0);
        for (pass, expected_calls) in [("cold", 3usize), ("warm", 3)] {
            let est = AttributionEstimator::new(
                CountingRemoval { inner: DareRemoval::new(&forest, &train), calls: &calls },
                FairnessMetric::StatisticalParity,
                &test,
                group,
                bias,
                Some(1),
            )
            .with_memo(&memo);
            let got = est.evaluate(&items);
            assert_eq!(got, expect, "{pass} pass must match memo-less results");
            assert_eq!(
                calls.load(Ordering::Relaxed),
                expected_calls,
                "{pass}: cold pays every eval, warm pays zero"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (train, test, group, forest, bias) = setup();
        let est = AttributionEstimator::new(
            DareRemoval::new(&forest, &train),
            FairnessMetric::StatisticalParity,
            &test,
            group,
            bias,
            None,
        );
        assert!(est.evaluate(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "no fairness violation")]
    fn zero_bias_rejected() {
        let (train, test, group, forest, _) = setup();
        AttributionEstimator::new(
            DareRemoval::new(&forest, &train),
            FairnessMetric::StatisticalParity,
            &test,
            group,
            0.0,
            None,
        );
    }
}
