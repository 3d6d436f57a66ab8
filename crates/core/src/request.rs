//! The unified request type every FUME run funnels through.
//!
//! Historically the public surface scattered a run across three
//! overlapping entrypoints (`explain`, `explain_model`, `explain_with`),
//! which meant the CLI, the library examples, and any long-lived serving
//! process each wired the same inputs differently. An
//! [`ExplainRequest`] bundles everything one run needs — the data split,
//! the protected group, an optional prebuilt model, an optional removal
//! override, an optional cross-request eval memo, and optionally the
//! model's per-engine [`Prepared`] value — and
//! [`Fume::run`](crate::Fume::run) is the single code path that executes
//! it.

use fume_forest::DareForest;
use fume_tabular::{Classifier, Dataset, GroupSpec};

use crate::attribution::EvalMemo;
use crate::prepared::Prepared;
use crate::removal::RemovalDyn;

/// The deployed model a request explains, when the caller already has
/// one (otherwise [`Fume::run`](crate::Fume::run) trains a DaRE forest
/// from its configuration).
#[derive(Clone, Copy)]
pub enum ModelSpec<'a> {
    /// A trained DaRE forest — the fast path: compatible with every
    /// removal override, including exact unlearning.
    Forest(&'a DareForest),
    /// Any classifier. Exact DaRE unlearning cannot be applied to an
    /// opaque model, so this requires a shared removal override, such
    /// as a retraining method (the paper's §5.1 extensibility route).
    /// A checkpointed run refuses it: a checkpoint fingerprints the model
    /// it explains, and an opaque model has no bytes to fingerprint.
    Classifier(&'a dyn Classifier),
}

impl<'a> ModelSpec<'a> {
    /// The model as a plain classifier (what the violation check and the
    /// attribution loop consume).
    pub fn as_classifier(&self) -> &'a dyn Classifier {
        match self {
            Self::Forest(f) => *f,
            Self::Classifier(c) => *c,
        }
    }
}

impl std::fmt::Debug for ModelSpec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Forest(_) => f.write_str("ModelSpec::Forest"),
            Self::Classifier(_) => f.write_str("ModelSpec::Classifier"),
        }
    }
}

/// How a request answers "what would the model be without subset T" —
/// the removal method `R(A(D), D, T)` of paper §3.
#[derive(Clone, Copy, Default)]
pub enum RemovalSpec<'a> {
    /// Exact DaRE unlearning through the pooled scratch-forest path
    /// ([`DareRemoval`](crate::DareRemoval)) — FUME's default.
    #[default]
    Dare,
    /// A caller-owned removal method shared across requests — e.g.
    /// `fume-serve`'s long-lived warm pool, the clone-per-eval
    /// [`DareCloneRemoval`](crate::DareCloneRemoval) baseline, retraining
    /// from scratch with [`RetrainRemoval`](crate::RetrainRemoval), or a
    /// custom [`RemovalMethod`](crate::RemovalMethod) impl reached through
    /// the [`RemovalDyn`] bridge. Requires a prebuilt model in the request.
    Shared(&'a dyn RemovalDyn),
}

impl std::fmt::Debug for RemovalSpec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Dare => f.write_str("RemovalSpec::Dare"),
            Self::Shared(r) => write!(f, "RemovalSpec::Shared({})", r.name_dyn()),
        }
    }
}

/// Everything one FUME run needs, in one place: pass it to
/// [`Fume::run`](crate::Fume::run).
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
/// let fume = Fume::new(
///     FumeConfig::default()
///         .with_forest(DareConfig::small(3))
///         .with_support(SupportRange::new(0.02, 0.25).unwrap()),
/// );
/// let report = fume.run(&ExplainRequest::new(&train, &test, group)).unwrap();
/// assert!(!report.top_k.is_empty());
/// ```
#[derive(Clone)]
pub struct ExplainRequest<'a> {
    /// The training data the deployed model was (or will be) fitted on.
    pub train: &'a Dataset,
    /// The held-out data the violation is measured on.
    pub test: &'a Dataset,
    /// The protected group whose treatment is explained.
    pub group: GroupSpec,
    /// The deployed model, if already built; `None` trains a DaRE forest
    /// from the [`FumeConfig`](crate::FumeConfig).
    pub model: Option<ModelSpec<'a>>,
    /// The removal override; defaults to exact DaRE unlearning.
    pub removal: RemovalSpec<'a>,
    /// An optional memo of previously computed `ρ` values, consulted
    /// before every unlearn-eval (see
    /// [`EvalMemo`]). The caller owns scoping: a memo shared
    /// across requests must only be attached to requests whose data,
    /// metric, and model identity match its keys.
    pub memo: Option<&'a dyn EvalMemo>,
    /// The model's fairness snapshot and level-1 frontier (and, for a
    /// checkpointed run, its fingerprint), computed once for many runs
    /// (see [`Prepared`]). Like the memo, the caller owns scoping: it
    /// must have been built from this request's data and model.
    pub prepared: Option<&'a Prepared>,
}

impl std::fmt::Debug for ExplainRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExplainRequest")
            .field("train_rows", &self.train.num_rows())
            .field("test_rows", &self.test.num_rows())
            .field("group", &self.group)
            .field("model", &self.model)
            .field("removal", &self.removal)
            .field("memo", &self.memo.is_some())
            .field("prepared", &self.prepared.is_some())
            .finish()
    }
}

impl<'a> ExplainRequest<'a> {
    /// A request with FUME's defaults: train a forest, explain with
    /// exact DaRE unlearning, no memo.
    pub fn new(train: &'a Dataset, test: &'a Dataset, group: GroupSpec) -> Self {
        Self {
            train,
            test,
            group,
            model: None,
            removal: RemovalSpec::Dare,
            memo: None,
            prepared: None,
        }
    }

    /// Explains an already-trained DaRE forest instead of training one.
    /// The forest must have been fitted on exactly the rows of `train`.
    #[must_use]
    pub fn with_model(mut self, forest: &'a DareForest) -> Self {
        self.model = Some(ModelSpec::Forest(forest));
        self
    }

    /// Explains an arbitrary deployed classifier; requires a
    /// [`RemovalSpec::Shared`] override, since exact DaRE unlearning
    /// needs a DaRE forest.
    #[must_use]
    pub fn with_classifier(mut self, model: &'a dyn Classifier) -> Self {
        self.model = Some(ModelSpec::Classifier(model));
        self
    }

    /// Overrides the removal method.
    #[must_use]
    pub fn with_removal(mut self, removal: RemovalSpec<'a>) -> Self {
        self.removal = removal;
        self
    }

    /// Attaches an eval memo (see [`ExplainRequest::memo`]).
    #[must_use]
    pub fn with_memo(mut self, memo: &'a dyn EvalMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Attaches a [`Prepared`] value (see [`ExplainRequest::prepared`]).
    #[must_use]
    pub fn with_prepared(mut self, prepared: &'a Prepared) -> Self {
        self.prepared = Some(prepared);
        self
    }
}
