//! What a run derives from its data and deployed model alone, built once
//! for many runs.
//!
//! Before it searches, [`Fume::run`](crate::Fume::run) measures the
//! deployed model's violation (one prediction pass over the test set),
//! generates level 1 of the lattice (one scan of the training columns)
//! and, when it checkpoints, fingerprints the data and the forest; its
//! search then joins the expandable level-1 literals pairwise. None of
//! that depends on the metric, the support range, `η` or `k`. A caller
//! that explains one model many times builds a [`Prepared`] once and
//! attaches it to every request with
//! [`ExplainRequest::with_prepared`]; `fume-serve`'s engine builds one
//! per serve session.

use fume_fairness::{fairness_report, FairnessReport};
use fume_forest::DareForest;
use fume_lattice::{LiteralGen, PairTable, SearchParams, SearchState};
use fume_tabular::{Classifier, Dataset, GroupSpec};

use crate::algorithm::FumeError;
use crate::checkpoint;
use crate::config::FumeConfig;
use crate::request::{ExplainRequest, ModelSpec};

/// The deployed model's fairness snapshot, level 1 of the lattice with
/// its [`PairTable`] and (for checkpointed runs) the checkpoint
/// fingerprint, computed once.
///
/// A run that carries one skips the violation check's prediction pass
/// and the level-1 scan, joins each pair of level-1 literals only if no
/// earlier run over this value has (the table fills as runs ask for its
/// cells, from any number of threads), and reports exactly what a run
/// without it reports. It is built for one request's train, test, group
/// and model, and the caller attaches it only to requests with those
/// inputs, the way an [`EvalMemo`](crate::EvalMemo) is scoped. A run
/// whose `exclude_attrs` or `literal_gen` differ from the ones it was
/// built with, or whose train or test set has another number of rows or
/// attributes, is refused with [`FumeError::InvalidRequest`]. Data of
/// the same shape but other values stays the caller's contract: under
/// `FUME_DEEPCHECK=1` every run recomputes each part it takes, as an
/// [`fume_obs::audit`] that adds no counts of work, and asserts that
/// they are equal, which catches it.
///
/// ```
/// use fume_core::{ExplainRequest, Fume, FumeConfig, Prepared};
/// use fume_fairness::FairnessMetric;
/// use fume_forest::{DareConfig, DareForest};
/// use fume_lattice::SupportRange;
/// use fume_tabular::datasets::planted_toy;
/// use fume_tabular::split::train_test_split;
///
/// let (data, group) = planted_toy().generate_scaled(0.5, 3).unwrap();
/// let (train, test) = train_test_split(&data, 0.3, 3).unwrap();
/// let config = FumeConfig::default()
///     .with_forest(DareConfig::small(3))
///     .with_support(SupportRange::new(0.02, 0.25).unwrap());
/// let forest = DareForest::fit(&train, config.forest.clone());
/// let request = ExplainRequest::new(&train, &test, group).with_model(&forest);
/// let prepared = Prepared::new(&request, &config).unwrap();
/// for metric in [FairnessMetric::StatisticalParity, FairnessMetric::EqualizedOdds] {
///     let fume = Fume::new(config.clone().with_metric(metric));
///     let once = fume.run(&request.clone().with_prepared(&prepared)).unwrap();
///     assert_eq!(once.to_json(), fume.run(&request).unwrap().to_json());
/// }
/// ```
#[derive(Debug)]
pub struct Prepared {
    snapshot: FairnessReport,
    level1: SearchState,
    pairs: PairTable,
    exclude_attrs: Vec<u16>,
    literal_gen: LiteralGen,
    fingerprint: Option<u64>,
    /// Rows and attributes of the train and test sets it was built on.
    shape: [usize; 4],
}

/// The rows and attributes of a request's train and test sets.
fn shape(request: &ExplainRequest<'_>) -> [usize; 4] {
    let (train, test) = (request.train, request.test);
    [train.num_rows(), train.num_attributes(), test.num_rows(), test.num_attributes()]
}

impl Prepared {
    /// Prepares runs of `request`'s model under `config`'s literal
    /// configuration: predicts the test set, generates level 1 and sets
    /// up its empty pair table. When `config` has a checkpoint
    /// directory, it also computes the fingerprint a checkpointed run
    /// saves under (which does not depend on the directory).
    ///
    /// The request must carry its model, and a checkpointed preparation
    /// a DaRE forest; otherwise this is
    /// [`FumeError::InvalidRequest`].
    pub fn new(request: &ExplainRequest<'_>, config: &FumeConfig) -> Result<Self, FumeError> {
        let Some(model) = request.model else {
            return Err(FumeError::InvalidRequest(
                "preparing runs needs the deployed model in the request".into(),
            ));
        };
        let fingerprint = match &config.checkpoint_dir {
            Some(_) => Some(checkpoint_fingerprint(request, checkpointed_forest(model)?)),
            None => None,
        };
        let level1 =
            SearchState::initial_with(request.train, &config.exclude_attrs, config.literal_gen);
        Ok(Self {
            snapshot: fairness_report(model.as_classifier(), request.test, request.group),
            pairs: PairTable::new(request.train, &level1.frontier),
            level1,
            exclude_attrs: config.exclude_attrs.clone(),
            literal_gen: config.literal_gen,
            fingerprint,
            shape: shape(request),
        })
    }

    /// Refuses a run this value was not built for: one without a model,
    /// with train or test data of another shape (its level 1 would
    /// select rows the model does not hold), or with another literal
    /// configuration.
    pub(crate) fn check(
        &self,
        config: &FumeConfig,
        request: &ExplainRequest<'_>,
    ) -> Result<(), FumeError> {
        if request.model.is_none() {
            return Err(FumeError::InvalidRequest(
                "a prepared request needs the model it was prepared for".into(),
            ));
        }
        if self.shape != shape(request) {
            let [rows, attrs, test_rows, test_attrs] = self.shape;
            return Err(FumeError::InvalidRequest(format!(
                "the prepared value was built on {rows} training rows × {attrs} attributes \
                 and {test_rows} test rows × {test_attrs} attributes; this request's data \
                 has another shape"
            )));
        }
        if self.exclude_attrs != config.exclude_attrs || self.literal_gen != config.literal_gen {
            return Err(FumeError::InvalidRequest(
                "the prepared level-1 frontier was built for another literal \
                 configuration (exclude_attrs, literal_gen)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// The deployed model's snapshot on `test`.
    pub(crate) fn snapshot(
        &self,
        model: &dyn Classifier,
        test: &Dataset,
        group: GroupSpec,
    ) -> &FairnessReport {
        if fume_forest::deepcheck::enabled() {
            assert_eq!(
                fume_obs::audit(|| fairness_report(model, test, group)),
                self.snapshot,
                "FUME_DEEPCHECK: the prepared fairness snapshot differs from the model's"
            );
        }
        &self.snapshot
    }

    /// The pair table of [`level1`](Self::level1)'s frontier, shared by
    /// every run this value is attached to. Under `FUME_DEEPCHECK=1` the
    /// search compares each expansion it answers with the reference join.
    pub(crate) fn pairs(&self) -> &PairTable {
        &self.pairs
    }

    /// A fresh search's starting state over `train`.
    pub(crate) fn level1(&self, train: &Dataset, params: &SearchParams) -> SearchState {
        if fume_forest::deepcheck::enabled() {
            assert!(
                fume_obs::audit(|| SearchState::initial(train, params)) == self.level1,
                "FUME_DEEPCHECK: the prepared level-1 frontier differs from a fresh scan"
            );
        }
        self.level1.clone()
    }

    /// The checkpoint fingerprint of `request` and `forest`, if this
    /// value was prepared for checkpointed runs.
    pub(crate) fn fingerprint(
        &self,
        request: &ExplainRequest<'_>,
        forest: &DareForest,
    ) -> Option<u64> {
        let fp = self.fingerprint?;
        if fume_forest::deepcheck::enabled() {
            assert_eq!(
                fume_obs::audit(|| checkpoint_fingerprint(request, forest)),
                fp,
                "FUME_DEEPCHECK: the prepared checkpoint fingerprint differs from the run's"
            );
        }
        Some(fp)
    }
}

/// The forest a checkpointed run fingerprints: an opaque classifier has
/// no bytes to fingerprint, so it cannot be checked on resume.
pub(crate) fn checkpointed_forest(model: ModelSpec<'_>) -> Result<&DareForest, FumeError> {
    match model {
        ModelSpec::Forest(forest) => Ok(forest),
        ModelSpec::Classifier(_) => Err(FumeError::InvalidRequest(
            "a checkpointed run needs a DaRE forest model: the checkpoint \
             fingerprints the forest, and an opaque classifier cannot be checked \
             on resume"
                .into(),
        )),
    }
}

/// What a checkpointed run of `forest` on `request`'s data saves under
/// (see [`checkpoint::fingerprint_model`]).
pub(crate) fn checkpoint_fingerprint(request: &ExplainRequest<'_>, forest: &DareForest) -> u64 {
    let data = checkpoint::fingerprint(request.train, request.test, request.group);
    checkpoint::fingerprint_model(data, forest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Fume;
    use fume_forest::DareConfig;
    use fume_lattice::SupportRange;
    use fume_tabular::datasets::planted_toy;
    use fume_tabular::split::train_test_split;

    fn setup() -> (Dataset, Dataset, GroupSpec, DareForest, FumeConfig) {
        let (data, group) = planted_toy().generate_scaled(0.5, 3).unwrap();
        let (train, test) = train_test_split(&data, 0.3, 3).unwrap();
        let config = FumeConfig::default()
            .with_forest(DareConfig::small(3))
            .with_support(SupportRange::new(0.02, 0.25).unwrap());
        let forest = DareForest::fit(&train, config.forest.clone());
        (train, test, group, forest, config)
    }

    #[test]
    fn another_literal_configuration_is_refused() {
        let (train, test, group, forest, config) = setup();
        let request = ExplainRequest::new(&train, &test, group).with_model(&forest);
        let prepared = Prepared::new(&request, &config).unwrap();
        let prepared_request = request.clone().with_prepared(&prepared);
        for other in [
            config.clone().with_literal_gen(LiteralGen::WithRanges),
            FumeConfig { exclude_attrs: vec![0], ..config.clone() },
        ] {
            let err = Fume::new(other).run(&prepared_request).unwrap_err();
            assert!(matches!(err, FumeError::InvalidRequest(_)), "{err}");
        }
        assert!(Fume::new(config).run(&prepared_request).is_ok());
    }

    #[test]
    fn a_request_without_its_model_is_refused() {
        let (train, test, group, forest, config) = setup();
        let with_model = ExplainRequest::new(&train, &test, group).with_model(&forest);
        let prepared = Prepared::new(&with_model, &config).unwrap();
        let bare = ExplainRequest::new(&train, &test, group);
        assert!(matches!(Prepared::new(&bare, &config), Err(FumeError::InvalidRequest(_))));
        let err = Fume::new(config).run(&bare.with_prepared(&prepared)).unwrap_err();
        assert!(matches!(err, FumeError::InvalidRequest(_)), "{err}");
    }

    #[test]
    fn a_request_over_other_data_is_refused() {
        let (train, test, group, forest, config) = setup();
        let request = ExplainRequest::new(&train, &test, group).with_model(&forest);
        let prepared = Prepared::new(&request, &config).unwrap();
        // Fewer training rows than the prepared level 1 selects from (a
        // run would delete rows the model does not hold), then a test set
        // of another size.
        let (data, _) = planted_toy().generate_scaled(0.2, 3).unwrap();
        let (small_train, small_test) = train_test_split(&data, 0.3, 3).unwrap();
        let small_forest = DareForest::fit(&small_train, config.forest.clone());
        let fume = Fume::new(config.clone());
        for other in [
            ExplainRequest::new(&small_train, &small_test, group).with_model(&small_forest),
            ExplainRequest::new(&train, &small_test, group).with_model(&forest),
        ] {
            let err = fume.run(&other.with_prepared(&prepared)).unwrap_err();
            assert!(matches!(err, FumeError::InvalidRequest(_)), "{err}");
        }
        assert!(fume.run(&request.with_prepared(&prepared)).is_ok());
    }

    #[test]
    fn the_fingerprint_is_computed_only_for_checkpointed_runs() {
        let (train, test, group, forest, config) = setup();
        let request = ExplainRequest::new(&train, &test, group).with_model(&forest);
        let plain = Prepared::new(&request, &config).unwrap();
        assert_eq!(plain.fingerprint, None);
        let dir = std::env::temp_dir().join("fume_prepared_fingerprint");
        let checkpointed = Prepared::new(&request, &config.with_checkpoint_dir(&dir)).unwrap();
        assert_eq!(checkpointed.fingerprint, Some(checkpoint_fingerprint(&request, &forest)));
        assert!(!dir.exists(), "preparing writes nothing");
    }
}
