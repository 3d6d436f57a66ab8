//! # fume-forest
//!
//! **DaRE random forests** — Data Removal-Enabled random forests with
//! *exact* machine unlearning (Brophy & Lowd, ICML 2021) — built from
//! scratch as the model substrate for FUME (EDBT 2025).
//!
//! A [`DareForest`] is a binary random-forest classifier whose trees cache
//! sufficient statistics at every node:
//! * the top `random_depth` layers split on uniformly random
//!   attribute/threshold pairs, so they almost never depend on any single
//!   training instance;
//! * deeper *greedy* nodes cache `k'` candidate thresholds per sampled
//!   attribute together with their label counts;
//! * leaves store their training-instance ids.
//!
//! [`DareForest::delete`] removes training instances by updating those
//! statistics top-down and rebuilding exactly the subtrees whose cached
//! split decision is no longer one the builder could have made — yielding
//! a model from the same distribution as a full retrain on the surviving
//! data, at a fraction of the cost.
//!
//! The [`validate`] module exposes the invariant checker used to test
//! exactness, and [`extra_trees`] provides a HedgeCut-style extremely
//! randomized variant for comparison.
//!
//! For evaluation loops that unlearn a subset only to measure the
//! resulting model, [`DareForest::delete_journaled`] records every
//! mutation into an [`UndoJournal`] and [`DareForest::rollback`] restores
//! the forest byte-identically — the substrate for FUME's zero-clone
//! scratch-forest pool (see the [`journal`] module).
//!
//! Every tree keeps its nodes in one [`NodeStore`]: a hot array the
//! prediction kernel walks and a cold array unlearning updates, both
//! indexed by slot (see the [`node`] module). A fit writes the store in
//! preorder; a delete overwrites counts in place and appends rebuilt
//! subtrees; a rollback replays a flat undo log and truncates; a clone is
//! a few array copies. Full prediction passes run a blocked, 8-lane
//! kernel over the live hot arrays, bitwise identical to the reference
//! walk (see the [`plan`] module). After a journaled delete,
//! [`LeafRoutes`] gives the same answer walking only the test rows under
//! the subtrees the delete rebuilt (see the [`routes`] module).

#![warn(missing_docs)]

mod builder;
pub mod config;
pub mod deepcheck;
pub mod delete;
pub mod extra_trees;
pub mod forest;
pub mod gbdt;
pub mod gini;
pub mod insert;
pub mod journal;
pub mod node;
pub mod persist;
pub mod plan;
pub mod routes;
pub mod routing;
pub mod tree;
pub mod validate;

pub use builder::BuildWork;
pub use config::{DareConfig, MaxFeatures};
pub use delete::DeleteReport;
pub use forest::{DareForest, ForestError};
pub use gbdt::{Gbdt, GbdtConfig};
pub use insert::InsertReport;
pub use journal::{TreeUndo, UndoJournal};
pub use node::{Candidate, NodeRef, NodeStore};
pub use plan::{PredictPlan, BLOCK_ROWS};
pub use routes::LeafRoutes;
pub use routing::{DirtyRows, RoutingIndex};
pub use tree::DareTree;
