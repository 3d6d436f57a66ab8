//! # fume-tabular
//!
//! The tabular-data substrate of the FUME workspace (*Explaining Fairness
//! Violations using Machine Unlearning*, EDBT 2025).
//!
//! Provides:
//! * a fully discretized, columnar [`Dataset`] with a
//!   human-readable [`Schema`];
//! * numeric [discretization](discretize) (equal-width / quantile binning);
//! * deterministic [train/test splitting](split);
//! * a minimal [`Classifier`] trait shared by the
//!   whole workspace;
//! * [summary statistics](stats) matching the paper's Table 2;
//! * a [CSV reader/writer](csv);
//! * a bias-controllable [synthetic data generator](generator) and
//!   [stand-ins](datasets) for the paper's five evaluation datasets;
//! * the sanctioned modules `fume-lint`'s determinism rules funnel into:
//!   scoped [workers], audited narrowing [cast]s, seeded [rng] streams,
//!   and epsilon [float] comparison.
//!
//! ```
//! use fume_tabular::datasets::german_credit;
//! use fume_tabular::split::train_test_split;
//!
//! let (data, group) = german_credit().generate_full(42).unwrap();
//! let (train, test) = train_test_split(&data, 0.2, 42).unwrap();
//! assert_eq!(train.num_rows() + test.num_rows(), 1_000);
//! assert_eq!(data.schema().attribute(group.attr).unwrap().name(), "Age");
//! ```

#![warn(missing_docs)]

pub mod bytes;
pub mod cast;
pub mod classifier;
pub mod csv;
pub mod dataset;
pub mod datasets;
pub mod discretize;
pub mod error;
pub mod float;
pub mod generator;
pub mod intersect;
pub mod rng;
pub mod schema;
pub mod split;
pub mod stats;
pub mod workers;

pub use classifier::Classifier;
pub use dataset::{Dataset, GroupSpec};
pub use error::{Result, TabularError};
pub use schema::{AttrKind, Attribute, Schema};
