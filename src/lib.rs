//! # FUME — Explaining Fairness Violations using Machine Unlearning
//!
//! Facade crate re-exporting the whole workspace. See the individual
//! crates for details:
//! * [`tabular`] — data substrate, discretization, dataset generators;
//! * [`forest`] — DaRE random forests with exact unlearning;
//! * [`fairness`] — group-fairness metrics and feature importance;
//! * [`lattice`] — predicate search space with pruning;
//! * [`core`] — the FUME top-k attribution algorithm itself;
//! * [`serve`] — the persistent multi-request explain engine;
//! * [`cli`] — the command-line front end of the `fume-cli` and
//!   `fume-serve` binaries.

pub mod cli;

pub use fume_core as core;
pub use fume_fairness as fairness;
pub use fume_forest as forest;
pub use fume_lattice as lattice;
pub use fume_obs as obs;
pub use fume_serve as serve;
pub use fume_tabular as tabular;
