//! # fume-lattice
//!
//! The predicate search space of FUME (EDBT 2025): conjunctive
//! [predicates](predicate::Predicate) over discretized attributes,
//! organized as a hierarchically ordered lattice in the style of the
//! apriori frequent-itemset algorithm, with the paper's five pruning
//! rules (§4):
//!
//! 1. contradictory predicates are never generated
//!    ([`Predicate::is_satisfiable`](predicate::Predicate::is_satisfiable));
//! 2. a support range `[τ_min, τ_max]` gates evaluation — undersized
//!    subtrees are abandoned, oversized nodes expand but aren't reported
//!    ([`SupportRange`]);
//! 3. an interpretability cap `η` bounds the number of literals;
//! 4. a node is only expanded if its parity reduction reaches both
//!    parents';
//! 5. only bias-*reducing* nodes are expanded.
//!
//! The [`search`](search::search) driver is generic over a
//! [`BatchEvaluator`], so the same Algorithm-1
//! skeleton runs with machine-unlearning attribution (FUME core), naive
//! retraining, or toy closures in tests:
//!
//! ```
//! use fume_lattice::{search, Predicate, SearchParams, SupportRange};
//! use fume_tabular::datasets::planted_toy;
//!
//! let (data, _) = planted_toy().generate_scaled(0.1, 1).unwrap();
//! let params = SearchParams::new(SupportRange::new(0.05, 0.5).unwrap(), 2).unwrap();
//! // Toy attribution: reward small subsets. `search` errs only if the
//! // evaluator produces a non-finite ρ.
//! let outcome = search(&data, &params, &|_: &Predicate, rows: &[u32]| {
//!     1.0 - rows.len() as f64 / data.num_rows() as f64
//! })
//! .unwrap();
//! assert!(!outcome.top_k(5).is_empty());
//! assert!(outcome.levels.iter().all(|l| l.explored <= l.possible));
//! ```
//!
//! For checkpointable, step-at-a-time searches, [`SearchDriver`] exposes
//! the same loop one level per call with its [`SearchState`] inspectable
//! (and reinjectable) at every level boundary.
//!
//! The level-1 → 2 join goes through a [`PairTable`]: each child of two
//! level-1 literals is joined once per training set and shared. A driver
//! builds one over its level-1 frontier, or borrows a long-lived one
//! ([`SearchDriver::with_pairs`]) so that many searches over the same
//! data join each pair once between them.

#![warn(missing_docs)]

pub mod expand;
pub mod literal;
pub mod pairs;
pub mod params;
pub mod predicate;
pub mod search;

pub use expand::{
    expand_level, expand_level_with, expand_singleton_with, level1_nodes, level1_nodes_with,
    LatticeNode, LiteralGen,
};
pub use literal::{Literal, Op};
pub use pairs::PairTable;
pub use params::{LatticeError, RuleToggles, SearchParams, SupportRange};
pub use predicate::{intersect_sorted, Predicate};
pub use search::{
    search, BatchEvaluator, EvalItem, EvaluatedSubset, LevelStats, SearchDriver, SearchOutcome,
    SearchState,
};
