//! # fume-core
//!
//! **FUME** — *Explaining Fairness Violations using Machine Unlearning*
//! (Surve & Pradhan, EDBT 2025) — identifies the top-k predicate-based
//! training-data subsets attributable to a group-fairness violation of a
//! random-forest classifier.
//!
//! The expensive primitive — *what would the model's fairness be had it
//! been trained without subset T?* — is answered by **exact machine
//! unlearning** on a [DaRE forest](fume_forest::DareForest)
//! ([`DareRemoval`]) instead of retraining, and the
//! exponential predicate space is navigated by the apriori-style
//! [lattice search](fume_lattice) with the paper's five pruning rules.
//!
//! Entry point: build a [`Fume`](algorithm::Fume) with [`Fume::new`]
//! from a [`FumeConfig`] (its `with_*` setters start from the paper's
//! defaults) and execute an [`ExplainRequest`] with
//! [`Fume::run`](algorithm::Fume::run). Most users want
//! `use fume_core::prelude::*;`.

#![warn(missing_docs)]

pub mod algorithm;
pub mod attribution;
pub mod baseline;
pub mod checkpoint;
pub mod config;
pub mod instance_attribution;
pub mod path_mining;
pub mod prepared;
pub mod removal;
pub mod report;
pub mod report_json;
pub mod request;
pub mod slice_finder;

pub use algorithm::{apply_removal, ExplainedSubset, Fume, FumeError, FumeReport};
pub use attribution::{parity_reduction, phi, AttributionEstimator, EvalMemo};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use baseline::{drop_unpriv_unfavor, BaselineResult};
pub use config::FumeConfig;
pub use instance_attribution::{overlap_with_subset, rank_instances, InstanceAttribution};
pub use path_mining::{mine_unfair_paths, MinedPattern};
pub use prepared::Prepared;
pub use removal::{
    BiasEval, DareCloneRemoval, DareRemoval, GbdtRetrainRemoval, RemovalDyn, RemovalMethod,
    RetrainRemoval, SharedAdapter,
};
pub use request::{ExplainRequest, ModelSpec, RemovalSpec};
pub use slice_finder::{find_slices, Slice};

/// One-stop imports for a typical FUME run: the engine, its
/// configuration surface, removal methods, and the upstream types
/// (forest config, fairness metric, lattice bounds, dataset/group
/// handles) they are parameterized by.
///
/// ```
/// use fume_core::prelude::*;
/// let fume = Fume::new(FumeConfig::default().with_forest(DareConfig::small(1)));
/// assert_eq!(fume.config().top_k, 5);
/// ```
pub mod prelude {
    pub use crate::algorithm::{Fume, FumeError, FumeReport};
    pub use crate::attribution::{AttributionEstimator, EvalMemo};
    pub use crate::config::FumeConfig;
    pub use crate::removal::{
        BiasEval, DareCloneRemoval, DareRemoval, GbdtRetrainRemoval, RemovalDyn,
        RemovalMethod, RetrainRemoval,
    };
    pub use crate::request::{ExplainRequest, ModelSpec, RemovalSpec};
    pub use fume_fairness::FairnessMetric;
    pub use fume_forest::{DareConfig, DareForest, MaxFeatures};
    pub use fume_lattice::{LiteralGen, SupportRange};
    pub use fume_tabular::{Classifier, Dataset, GroupSpec};
}
