//! The level-wise lattice search driving FUME's Algorithm 1.
//!
//! The driver is generic over *how* a subset's attribution is computed: it
//! hands each level's in-range nodes to a [`BatchEvaluator`] (FUME's core
//! plugs in machine unlearning; tests plug in toy closures) and applies
//! the pruning rules of §4 between levels.
//!
//! Two entry points:
//!
//! - [`search`] runs the whole thing and returns a [`SearchOutcome`];
//! - [`SearchDriver`] advances one level per [`step`](SearchDriver::step)
//!   and exposes its [`SearchState`] between steps — the resumable core
//!   `fume-core` checkpoints at every level boundary.

use std::sync::Arc;

use fume_tabular::{float, Dataset};

use crate::expand::{
    expand_level_with, expand_singleton_with, level1_nodes_with, Expansion, LatticeNode,
    LiteralGen,
};
use crate::pairs::PairTable;
use crate::params::{LatticeError, SearchParams};
use crate::predicate::Predicate;

/// One subset to evaluate: its predicate and selected training rows.
#[derive(Debug, Clone, Copy)]
pub struct EvalItem<'a> {
    /// The predicate.
    pub predicate: &'a Predicate,
    /// Sorted training-row ids it selects.
    pub rows: &'a [u32],
}

/// Computes parity reductions `ρ` for a batch of subsets. Implementations
/// may evaluate the batch in parallel; results must be index-aligned with
/// the input and finite — a NaN/infinite ρ aborts the search with
/// [`LatticeError::NonFiniteAttribution`].
pub trait BatchEvaluator {
    /// Returns `ρ` for each item (positive = removing the subset reduces
    /// the fairness violation).
    fn evaluate(&self, items: &[EvalItem<'_>]) -> Vec<f64>;
}

/// Any `Sync` closure is a sequential evaluator.
impl<F> BatchEvaluator for F
where
    F: Fn(&Predicate, &[u32]) -> f64 + Sync,
{
    fn evaluate(&self, items: &[EvalItem<'_>]) -> Vec<f64> {
        items.iter().map(|it| self(it.predicate, it.rows)).collect()
    }
}

/// An evaluated subset emitted by the search.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedSubset {
    /// The predicate.
    pub predicate: Predicate,
    /// Sorted training-row ids it selects, shared with the lattice node
    /// it was evaluated as.
    pub rows: Arc<[u32]>,
    /// Its support in the training set.
    pub support: f64,
    /// Its parity reduction `ρ = −φ` (positive = attributable).
    pub rho: f64,
    /// The lattice level (number of literals).
    pub level: usize,
}

/// Per-level exploration statistics (the paper's Table 9).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelStats {
    /// Lattice level (1-based).
    pub level: usize,
    /// Merge pairs considered (level 1: all attribute/value pairs).
    pub possible: usize,
    /// Nodes generated after Rule 1.
    pub generated: usize,
    /// Candidates discarded as contradictory (Rule 1).
    pub pruned_rule1: usize,
    /// Candidates discarded as redundant (extension toggle).
    pub pruned_redundant: usize,
    /// Nodes dropped for support below `τ_min` (Rule 2).
    pub pruned_support_low: usize,
    /// Nodes above `τ_max`: expanded but not evaluated/reported (Rule 2).
    pub oversized: usize,
    /// Evaluated nodes never expanded because the interpretability cap
    /// `η` was reached (Rule 3). Only non-zero at the final level, and
    /// disjoint from `oversized` — Rule-2 pass-through nodes stay in
    /// Rule 2's bucket.
    pub pruned_rule3: usize,
    /// Nodes whose attribution was estimated.
    pub explored: usize,
    /// Evaluated nodes not expanded because a parent had higher `ρ`
    /// (Rule 4).
    pub pruned_rule4: usize,
    /// Evaluated nodes not expanded because `ρ ≤ 0` (Rule 5).
    pub pruned_rule5: usize,
}

impl LevelStats {
    /// Fraction of possible subsets pruned before evaluation, in percent
    /// (the paper's "Subsets pruned (%)" row).
    pub fn pruned_percent(&self) -> f64 {
        if self.possible == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.explored as f64 / self.possible as f64)
    }
}

/// Result of a lattice search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Every subset whose attribution was estimated, with its `ρ`.
    pub evaluated: Vec<EvaluatedSubset>,
    /// Per-level statistics.
    pub levels: Vec<LevelStats>,
    /// Total number of evaluator calls (= unlearning operations in FUME).
    pub evaluations: usize,
}

impl SearchOutcome {
    /// The top-`k` attributable subsets: `ρ > 0`, sorted by decreasing
    /// `ρ` (ties broken toward fewer literals, then smaller support —
    /// the more interpretable subset first).
    pub fn top_k(&self, k: usize) -> Vec<&EvaluatedSubset> {
        let mut attributable: Vec<&EvaluatedSubset> =
            self.evaluated.iter().filter(|s| s.rho > 0.0).collect();
        attributable.sort_by(|a, b| {
            b.rho
                .total_cmp(&a.rho)
                .then(a.level.cmp(&b.level))
                .then(a.support.total_cmp(&b.support))
        });
        attributable.truncate(k);
        attributable
    }
}

/// The complete state of a search at a level boundary.
///
/// After level `l` is absorbed the state holds everything needed to
/// continue with level `l + 1`: the next frontier (predicates, row
/// selections, Rule-4 parent floors), every evaluated subset so far,
/// per-level statistics, and the expansion counters feeding the next
/// level's [`LevelStats`]. `fume-core` serializes this into its
/// checkpoint sidecar; [`SearchDriver::with_state`] reinjects it.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchState {
    /// 1-based level the current `frontier` belongs to (the next level
    /// to process).
    pub next_level: usize,
    /// Nodes awaiting Rule-2 gating and evaluation at `next_level`.
    pub frontier: Vec<LatticeNode>,
    /// Merge pairs considered while generating `frontier`.
    pub possible: usize,
    /// Rule-1 prunes incurred while generating `frontier`.
    pub pruned_rule1: usize,
    /// Redundancy prunes incurred while generating `frontier`.
    pub pruned_redundant: usize,
    /// Every subset evaluated so far.
    pub evaluated: Vec<EvaluatedSubset>,
    /// Statistics of completed levels.
    pub levels: Vec<LevelStats>,
    /// Evaluator calls so far.
    pub evaluations: usize,
    /// Whether the search has terminated.
    pub done: bool,
}

impl SearchState {
    /// The state before any level has run: level 1's frontier generated,
    /// nothing evaluated.
    pub fn initial(data: &Dataset, params: &SearchParams) -> Self {
        Self::initial_with(data, &params.exclude_attrs, params.literal_gen)
    }

    /// [`initial`](Self::initial) from the only two parameters level 1
    /// depends on, so one state can start searches that differ in
    /// support range, `η` or toggles.
    pub fn initial_with(data: &Dataset, exclude_attrs: &[u16], gen: LiteralGen) -> Self {
        let frontier = level1_nodes_with(data, exclude_attrs, gen);
        Self {
            next_level: 1,
            possible: frontier.len(),
            frontier,
            pruned_rule1: 0,
            pruned_redundant: 0,
            evaluated: Vec::new(),
            levels: Vec::new(),
            evaluations: 0,
            done: false,
        }
    }
}

/// Step-at-a-time driver for the level-wise search.
///
/// [`search`] is a thin loop over this; callers that need to act at
/// level boundaries (checkpointing, progress reporting, budget caps)
/// drive it manually:
///
/// ```
/// use fume_lattice::{Predicate, SearchDriver, SearchParams, SupportRange};
/// use fume_tabular::datasets::planted_toy;
///
/// let (data, _) = planted_toy().generate_scaled(0.1, 1).unwrap();
/// let params = SearchParams::new(SupportRange::new(0.05, 0.5).unwrap(), 2).unwrap();
/// let eval = |_: &Predicate, rows: &[u32]| 1.0 / (1.0 + rows.len() as f64);
/// let mut driver = SearchDriver::new(&data, &params);
/// while driver.step(&eval).unwrap() {
///     // a level boundary: driver.state() is snapshot-able here
///     assert!(!driver.state().done);
/// }
/// let outcome = driver.into_outcome();
/// assert!(!outcome.top_k(3).is_empty());
/// ```
#[derive(Debug)]
pub struct SearchDriver<'a> {
    data: &'a Dataset,
    params: &'a SearchParams,
    state: SearchState,
    pairs: Option<&'a PairTable>,
}

impl<'a> SearchDriver<'a> {
    /// Starts a fresh search over `data`.
    pub fn new(data: &'a Dataset, params: &'a SearchParams) -> Self {
        Self::with_state(data, params, SearchState::initial(data, params))
    }

    /// Continues a search from a previously captured [`SearchState`]
    /// (e.g. one decoded from a checkpoint). The caller must supply the
    /// same `data` and `params` the state was captured under.
    pub fn with_state(
        data: &'a Dataset,
        params: &'a SearchParams,
        state: SearchState,
    ) -> Self {
        Self { data, params, state, pairs: None }
    }

    /// Expands level 1 through `pairs`, a table that outlives this
    /// search, instead of one built over the level-1 frontier when level
    /// 1 is stepped. The table must have been built over this search's
    /// level-1 frontier (the nodes of its starting state share their
    /// selections with it); a node it does not hold makes the level-1
    /// expansion join the frontier itself, with the same answer.
    ///
    /// ```
    /// use fume_lattice::{
    ///     PairTable, Predicate, SearchDriver, SearchParams, SearchState, SupportRange,
    /// };
    /// use fume_tabular::datasets::planted_toy;
    ///
    /// let (data, _) = planted_toy().generate_scaled(0.1, 1).unwrap();
    /// let level1 = SearchState::initial(&data, &SearchParams::paper_defaults());
    /// let pairs = PairTable::new(&data, &level1.frontier);
    /// let eval = |_: &Predicate, rows: &[u32]| 1.0 / (1.0 + rows.len() as f64);
    /// for (min, max) in [(0.02, 0.3), (0.05, 0.5)] {
    ///     let params = SearchParams::new(SupportRange::new(min, max).unwrap(), 2).unwrap();
    ///     let mut driver =
    ///         SearchDriver::with_state(&data, &params, level1.clone()).with_pairs(&pairs);
    ///     while driver.step(&eval).unwrap() {}
    ///     let mut fresh = SearchDriver::new(&data, &params);
    ///     while fresh.step(&eval).unwrap() {}
    ///     assert_eq!(driver.into_outcome(), fresh.into_outcome());
    /// }
    /// ```
    #[must_use]
    pub fn with_pairs(mut self, pairs: &'a PairTable) -> Self {
        self.pairs = Some(pairs);
        self
    }

    /// The current level-boundary state.
    pub fn state(&self) -> &SearchState {
        &self.state
    }

    /// Whether the search has terminated.
    pub fn is_done(&self) -> bool {
        self.state.done
    }

    /// Consumes the driver, yielding the accumulated outcome.
    pub fn into_outcome(self) -> SearchOutcome {
        SearchOutcome {
            evaluated: self.state.evaluated,
            levels: self.state.levels,
            evaluations: self.state.evaluations,
        }
    }

    /// Processes one level: Rule-2 support gating, batch attribution
    /// estimation, Rules 4/5 expansion gating, and the merge to the next
    /// level. Returns `Ok(true)` while more levels remain.
    pub fn step<E: BatchEvaluator>(
        &mut self,
        evaluator: &E,
    ) -> Result<bool, LatticeError> {
        if self.state.done {
            return Ok(false);
        }
        let params = self.params;
        let n = self.data.num_rows();
        let st = &mut self.state;
        let level = st.next_level;
        let _level_span = fume_obs::span!("lattice.level", level = level);

        let mut stats = LevelStats {
            level,
            possible: st.possible,
            pruned_rule1: st.pruned_rule1,
            pruned_redundant: st.pruned_redundant,
            ..LevelStats::default()
        };
        let frontier = std::mem::take(&mut st.frontier);
        stats.generated = frontier.len();
        // Level 1 expands through a pair table: the one lent by
        // `with_pairs`, or one over this frontier, built before Rule 2
        // splits it.
        let built;
        let pairs = match self.pairs {
            _ if level != 1 || level == params.max_literals => None,
            Some(pairs) => Some(pairs),
            None => {
                built = PairTable::new(self.data, &frontier);
                Some(&built)
            }
        };

        // --- Rule 2: support filtering. Tolerant at the τ bounds: a
        //     support landing within float::EPSILON of τ_min/τ_max counts
        //     as *at* the bound, so boundary values don't flake with the
        //     rounding of `rows / n` or of the configured τ itself. ---
        let mut in_range: Vec<LatticeNode> = Vec::new();
        let mut oversized: Vec<LatticeNode> = Vec::new();
        for node in frontier {
            let support = node.support(n);
            if float::approx_lt(support, params.support.min) {
                stats.pruned_support_low += 1;
            } else if float::approx_gt(support, params.support.max) {
                stats.oversized += 1;
                oversized.push(node); // expanded, never evaluated/reported
            } else {
                in_range.push(node);
            }
        }

        // --- estimate attribution of in-range nodes (the expensive step) ---
        let items: Vec<EvalItem<'_>> = in_range
            .iter()
            .map(|nd| EvalItem { predicate: &nd.predicate, rows: &nd.rows })
            .collect();
        fume_obs::progress::level_started(
            level as u64,
            stats.generated as u64,
            items.len() as u64,
        );
        let rhos = if items.is_empty() {
            Vec::new()
        } else {
            let _eval_span = fume_obs::span!("lattice.evaluate", batch = items.len());
            evaluator.evaluate(&items)
        };
        assert_eq!(rhos.len(), items.len(), "evaluator must align with its input");
        fume_obs::fault::fault_point("post-eval");

        // --- evaluator boundary: reject non-finite ρ before it can
        //     poison Rule 4/5 comparisons or the top-k ordering ---
        for (item, rho) in items.iter().zip(&rhos) {
            if !rho.is_finite() {
                return Err(LatticeError::NonFiniteAttribution {
                    predicate: item.predicate.render(self.data.schema()),
                    value: rho.to_string(),
                });
            }
        }
        drop(items);
        stats.explored = in_range.len();
        st.evaluations += in_range.len();

        // --- Rules 4 & 5: expansion gating (evaluated nodes are always
        //     reported; the rules only decide who gets children) ---
        let mut survivors: Vec<LatticeNode> = Vec::new();
        for (mut node, rho) in in_range.into_iter().zip(rhos) {
            node.rho = Some(rho);
            st.evaluated.push(EvaluatedSubset {
                predicate: node.predicate.clone(),
                rows: node.rows.clone(),
                support: node.support(n),
                rho,
                level,
            });
            if params.toggles.rule5_positive_only && rho <= 0.0 {
                stats.pruned_rule5 += 1;
                continue;
            }
            if params.toggles.rule4_parent_dominance && rho < node.parent_floor {
                stats.pruned_rule4 += 1;
                continue;
            }
            survivors.push(node);
        }

        // Rule 3 is the interpretability cap η: evaluated nodes that
        // survived rules 4/5 but are never expanded because the level
        // limit was reached. Oversized nodes are *not* re-counted here —
        // Rule 2 already claimed them.
        if level == params.max_literals {
            stats.pruned_rule3 = survivors.len();
        }

        // Counters are emitted unconditionally (zero deltas included) so a
        // trace always carries one data point per rule per level.
        fume_obs::counter!("lattice.generated", stats.generated);
        fume_obs::counter!("lattice.explored", stats.explored);
        fume_obs::counter!("lattice.pruned.rule1", stats.pruned_rule1);
        fume_obs::counter!(
            "lattice.pruned.rule2",
            stats.pruned_support_low + stats.oversized
        );
        fume_obs::counter!("lattice.pruned.rule3", stats.pruned_rule3);
        fume_obs::counter!("lattice.pruned.rule4", stats.pruned_rule4);
        fume_obs::counter!("lattice.pruned.rule5", stats.pruned_rule5);
        fume_obs::counter!("lattice.pruned.redundant", stats.pruned_redundant);
        st.levels.push(stats);

        if level == params.max_literals {
            st.done = true;
            return Ok(false);
        }

        // --- merge to the next level (Rule 1 inside). A lone survivor
        //     still expands: it has no apriori join partner, but
        //     conjoining fresh level-1 literals grows its sub-lattice. ---
        let mut expandable = survivors;
        expandable.extend(oversized);
        if expandable.is_empty() {
            st.done = true;
            return Ok(false);
        }
        let mut expand_span = fume_obs::span!("lattice.expand");
        let (rule1, redundant) =
            (params.toggles.rule1_satisfiability, params.toggles.prune_redundant);
        let reference = || match expandable.as_slice() {
            [node] => expand_singleton_with(
                self.data,
                node,
                &params.exclude_attrs,
                params.literal_gen,
                rule1,
                redundant,
            ),
            nodes => expand_level_with(self.data, nodes, rule1, redundant),
        };
        let from_table = pairs.and_then(|pairs| match expandable.as_slice() {
            [node] => pairs.expand_singleton(node, rule1, redundant),
            nodes => pairs.expand(nodes, rule1, redundant),
        });
        let expansion = match from_table {
            Some(expansion) => {
                if fume_obs::deepcheck_enabled() {
                    assert_same_outcome(&expansion, &fume_obs::audit(reference));
                }
                expansion
            }
            None => reference(),
        };
        expand_span.record("pairs", expansion.possible);
        expand_span.record("children", expansion.children.len());
        expand_span.record("joined", expansion.joined);
        drop(expand_span);
        fume_obs::counter!("lattice.pairs_joined", expansion.joined);
        st.possible = expansion.possible;
        st.pruned_rule1 = expansion.pruned_rule1;
        st.pruned_redundant = expansion.pruned_redundant;
        st.frontier = expansion.children;
        st.next_level = level + 1;
        if st.frontier.is_empty() {
            st.done = true;
        }
        Ok(!st.done)
    }
}

/// The `FUME_DEEPCHECK` comparison of a pair table's expansion with the
/// reference join: every field but the work count.
fn assert_same_outcome(got: &Expansion, want: &Expansion) {
    assert!(
        got.children == want.children
            && (got.possible, got.pruned_rule1, got.pruned_redundant)
                == (want.possible, want.pruned_rule1, want.pruned_redundant),
        "FUME_DEEPCHECK: the pair table's level-1 expansion differs from the reference join"
    );
}

/// Runs the level-wise search over `data`'s training rows.
///
/// This is the search skeleton of the paper's Algorithm 1: generate level
/// 1, then per level — Rule 2 support filtering, attribution estimation
/// for in-range nodes, Rules 4/5 expansion gating — until the
/// interpretability cap `η` (Rule 3) or an empty frontier ends the run.
/// Fails only if the evaluator emits a non-finite attribution.
pub fn search<E: BatchEvaluator>(
    data: &Dataset,
    params: &SearchParams,
    evaluator: &E,
) -> Result<SearchOutcome, LatticeError> {
    let _span = fume_obs::span!(
        "lattice.search",
        eta = params.max_literals,
        rows = data.num_rows()
    );
    let mut driver = SearchDriver::new(data, params);
    while driver.step(evaluator)? {}
    Ok(driver.into_outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::{Literal, Op};
    use crate::params::{RuleToggles, SupportRange};
    use fume_tabular::{Attribute, Schema};
    use std::sync::Arc;

    /// 3 binary attributes, 64 rows, uniform marginals.
    fn data() -> Dataset {
        let schema = Arc::new(
            Schema::with_default_label(vec![
                Attribute::categorical("a", vec!["0".into(), "1".into()]),
                Attribute::categorical("b", vec!["0".into(), "1".into()]),
                Attribute::categorical("c", vec!["0".into(), "1".into()]),
            ])
            .unwrap(),
        );
        let mut cols = vec![Vec::new(), Vec::new(), Vec::new()];
        let mut labels = Vec::new();
        for i in 0..64usize {
            cols[0].push((i % 2) as u16);
            cols[1].push(((i / 2) % 2) as u16);
            cols[2].push(((i / 4) % 2) as u16);
            labels.push(i % 3 == 0);
        }
        Dataset::new(schema, cols, labels).unwrap()
    }

    fn params(min: f64, max: f64, eta: usize) -> SearchParams {
        SearchParams::new(SupportRange::new(min, max).unwrap(), eta).unwrap()
    }

    /// ρ = best contained literal weight minus a per-literal complexity
    /// penalty; predicates without a rewarding literal score −1. With
    /// weights (a=1 → 0.5, b=1 → 0.4, c=1 → 0.3) every level-2 node scores
    /// strictly below both parents, so Rule 4 stops expansion at level 2.
    fn toy_eval(pred: &Predicate, _rows: &[u32]) -> f64 {
        let w = |l: &Literal| match (l.attr, l.value) {
            (0, 1) => 0.5,
            (1, 1) => 0.4,
            (2, 1) => 0.3,
            _ => f64::NEG_INFINITY,
        };
        let best = pred.literals().iter().map(w).fold(f64::NEG_INFINITY, f64::max);
        if best.is_finite() {
            best - 0.1 * (pred.len() as f64 - 1.0)
        } else {
            -1.0
        }
    }

    #[test]
    fn level1_only_when_eta_is_one() {
        let d = data();
        let out = search(&d, &params(0.0, 1.0, 1), &toy_eval).unwrap();
        assert_eq!(out.levels.len(), 1);
        assert!(out.evaluated.iter().all(|s| s.level == 1));
        // 3 binary attrs → 6 level-1 nodes, all in [0,1] support.
        assert_eq!(out.levels[0].explored, 6);
        assert_eq!(out.evaluations, 6);
    }

    #[test]
    fn top_k_ranks_by_rho() {
        let d = data();
        let out = search(&d, &params(0.0, 1.0, 2), &toy_eval).unwrap();
        let top = out.top_k(3);
        assert!(!top.is_empty());
        // Best is the level-1 node `a = 1` with ρ = 1.0.
        assert_eq!(top[0].predicate.literals(), &[Literal::eq(0, 1)]);
        assert!(top.windows(2).all(|w| w[0].rho >= w[1].rho));
        // All reported are attributable.
        assert!(top.iter().all(|s| s.rho > 0.0));
    }

    #[test]
    fn rule5_blocks_expansion_of_nonattributable_nodes() {
        let d = data();
        let out = search(&d, &params(0.0, 1.0, 2), &toy_eval).unwrap();
        // Level-1: the three `x = 0` nodes score −1 → pruned by rule 5.
        assert_eq!(out.levels[0].pruned_rule5, 3);
        // Level-2 children exist and descend only from rewarding literals.
        let level2: Vec<_> = out.evaluated.iter().filter(|s| s.level == 2).collect();
        assert_eq!(level2.len(), 3);
        for s in &level2 {
            assert!(
                s.predicate.literals().iter().all(|l| l.value == 1),
                "{:?}",
                s.predicate
            );
        }
    }

    #[test]
    fn rule4_prunes_children_below_parent_rho() {
        let d = data();
        // Every level-2 node scores below both parents: with η=3 no
        // level-3 node may exist when rule 4 is on.
        let out = search(&d, &params(0.0, 1.0, 3), &toy_eval).unwrap();
        assert!(out.evaluated.iter().all(|s| s.level <= 2));
        assert_eq!(out.levels[1].pruned_rule4, 3);

        // With rule 4 off, level 3 is reached.
        let mut p = params(0.0, 1.0, 3);
        p.toggles = RuleToggles { rule4_parent_dominance: false, ..RuleToggles::default() };
        let out = search(&d, &p, &toy_eval).unwrap();
        assert!(out.evaluated.iter().any(|s| s.level == 3));
    }

    #[test]
    fn support_range_gates_evaluation_but_not_expansion() {
        let d = data();
        // Level-1 nodes all have support 0.5 (> max 0.3): oversized,
        // expanded but unevaluated. Level-2 nodes have support 0.25.
        let out = search(&d, &params(0.1, 0.3, 2), &toy_eval).unwrap();
        assert_eq!(out.levels[0].explored, 0);
        assert_eq!(out.levels[0].oversized, 6);
        assert!(out.levels[1].explored > 0);
        assert!(out.evaluated.iter().all(|s| s.level == 2));
    }

    #[test]
    fn below_min_support_kills_subtree() {
        let d = data();
        // min 0.6: every level-1 node (support .5) is dropped; search ends.
        let out = search(&d, &params(0.6, 1.0, 3), &toy_eval).unwrap();
        assert!(out.evaluated.is_empty());
        assert_eq!(out.levels[0].pruned_support_low, 6);
        assert_eq!(out.levels.len(), 1);
    }

    #[test]
    fn excluded_attributes_never_appear() {
        let d = data();
        let mut p = params(0.0, 1.0, 2);
        p.exclude_attrs = vec![0];
        let out = search(&d, &p, &|_: &Predicate, _: &[u32]| 1.0).unwrap();
        assert!(out
            .evaluated
            .iter()
            .all(|s| s.predicate.literals().iter().all(|l| l.attr != 0)));
    }

    #[test]
    fn evaluations_counter_matches_explored_sum() {
        let d = data();
        let out = search(&d, &params(0.0, 1.0, 3), &|_: &Predicate, _: &[u32]| 1.0).unwrap();
        let explored: usize = out.levels.iter().map(|l| l.explored).sum();
        assert_eq!(out.evaluations, explored);
    }

    #[test]
    fn search_with_range_literals_evaluates_interval_subsets() {
        use crate::expand::LiteralGen;
        use fume_tabular::AttrKind;
        // Dataset with an ordinal attribute of 4 bins.
        let schema = Arc::new(
            Schema::with_default_label(vec![
                Attribute::ordinal(
                    "age",
                    vec!["a".into(), "b".into(), "c".into(), "d".into()],
                ),
                Attribute::categorical("x", vec!["0".into(), "1".into()]),
            ])
            .unwrap(),
        );
        assert_eq!(schema.attribute(0).unwrap().kind(), AttrKind::Ordinal);
        let n = 80usize;
        let cols = vec![
            (0..n).map(|i| (i % 4) as u16).collect(),
            (0..n).map(|i| ((i / 4) % 2) as u16).collect(),
        ];
        let labels = (0..n).map(|i| i % 2 == 0).collect();
        let d = Dataset::new(schema, cols, labels).unwrap();

        let mut p = params(0.0, 1.0, 2);
        p.literal_gen = LiteralGen::WithRanges;
        p.toggles.prune_redundant = true;
        let out = search(&d, &p, &|_: &Predicate, _: &[u32]| 1.0).unwrap();
        let has_range = out.evaluated.iter().any(|s| {
            s.predicate
                .literals()
                .iter()
                .any(|l| matches!(l.op, Op::Le | Op::Ge))
        });
        assert!(has_range, "range literals must be searched");
        // Redundant range conjunctions never surface.
        for s in &out.evaluated {
            let lits = s.predicate.literals();
            if lits.len() == 2 && lits[0].attr == lits[1].attr {
                // Same-attribute pairs must genuinely narrow the selection
                // relative to each constituent literal.
                let a = Predicate::single(lits[0]).select(&d).len();
                let b = Predicate::single(lits[1]).select(&d).len();
                assert!(s.rows.len() < a && s.rows.len() < b, "{:?}", s.predicate);
            }
        }
    }

    #[test]
    fn pruned_percent_formula() {
        let s = LevelStats { possible: 200, explored: 50, ..Default::default() };
        assert!((s.pruned_percent() - 75.0).abs() < 1e-12);
        assert_eq!(LevelStats::default().pruned_percent(), 0.0);
    }

    /// ρ rewards exactly one level-1 literal (`a = 1`) and one deeper
    /// conjunction on top of it — the shape the old `expandable.len() < 2`
    /// termination could never find.
    fn lone_survivor_eval(pred: &Predicate, _rows: &[u32]) -> f64 {
        let has = |a: u16, v: u16| {
            pred.literals()
                .iter()
                .any(|l| l.attr == a && l.value == v && l.op == Op::Eq)
        };
        match (has(0, 1), has(1, 1)) {
            (true, true) => 0.8,
            (true, false) if pred.len() == 1 => 0.5,
            _ => -1.0,
        }
    }

    #[test]
    fn lone_surviving_node_is_still_expanded() {
        let d = data();
        // Level 1: only `a = 1` survives Rule 5 (ρ 0.5, everything else
        // −1). The search must not stop there — conjoining fresh level-1
        // literals finds the deeper, stronger `a = 1 ∧ b = 1` (ρ 0.8).
        let out = search(&d, &params(0.0, 1.0, 2), &lone_survivor_eval).unwrap();
        assert_eq!(out.levels.len(), 2, "the singleton frontier must expand");
        let deeper = Predicate::new(vec![Literal::eq(0, 1), Literal::eq(1, 1)]);
        assert!(
            out.evaluated.iter().any(|s| s.predicate == deeper),
            "deeper predicate not evaluated: {:?}",
            out.evaluated.iter().map(|s| &s.predicate).collect::<Vec<_>>()
        );
        let top = out.top_k(1);
        assert_eq!(top[0].predicate, deeper);
        assert!((top[0].rho - 0.8).abs() < 1e-12);
        // Level-2 accounting of the singleton expansion: the 6 level-1
        // literals minus `a = 1` itself are candidates; `a = 0` is
        // contradictory under Rule 1.
        assert_eq!(out.levels[1].possible, 5);
        assert_eq!(out.levels[1].pruned_rule1, 1);
        assert_eq!(out.levels[1].generated, 4);
    }

    #[test]
    fn lone_oversized_node_is_still_expanded() {
        let d = data();
        // τ_max 0.3 with exclusions leaving one attribute: the two `a = *`
        // nodes have support 0.5 → both oversized... use exclusions to
        // shrink the frontier to a single oversized node instead.
        let mut p = params(0.35, 0.6, 2);
        p.exclude_attrs = vec![1, 2];
        // Frontier: `a = 0`, `a = 1`, both support 0.5 → in range, both
        // rewarded → not a singleton. Force one out via the evaluator.
        let eval = |pred: &Predicate, _rows: &[u32]| {
            if pred.literals().iter().any(|l| l.attr == 0 && l.value == 1 && l.op == Op::Eq) {
                1.0
            } else {
                -1.0
            }
        };
        let out = search(&d, &p, &eval).unwrap();
        // `a = 1` is the lone survivor; its children conjoin b/c literals
        // but those attrs are excluded → expansion yields nothing and the
        // search ends cleanly after level 1.
        assert_eq!(out.levels.len(), 1);

        // Without exclusions the lone survivor grows children.
        let p = params(0.0, 1.0, 2);
        let out = search(&d, &p, &eval).unwrap();
        assert!(out.evaluated.iter().any(|s| s.level == 2));
    }

    #[test]
    fn non_finite_rho_is_rejected_with_a_clear_error() {
        let d = data();
        let nan_for_b1 = |pred: &Predicate, _rows: &[u32]| {
            if pred.literals().iter().any(|l| l.attr == 1 && l.value == 1) {
                f64::NAN
            } else {
                1.0
            }
        };
        let err = search(&d, &params(0.0, 1.0, 2), &nan_for_b1).unwrap_err();
        match &err {
            LatticeError::NonFiniteAttribution { predicate, value } => {
                assert!(predicate.contains("b = 1"), "{predicate}");
                assert_eq!(value, "NaN");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert!(err.to_string().contains("non-finite"));

        // Infinities are equally rejected.
        let inf = |_: &Predicate, _: &[u32]| f64::INFINITY;
        assert!(matches!(
            search(&d, &params(0.0, 1.0, 1), &inf),
            Err(LatticeError::NonFiniteAttribution { .. })
        ));
    }

    #[test]
    fn rule3_counts_only_evaluated_survivors_not_oversized() {
        // Skewed marginals so the final level holds both in-range and
        // oversized nodes: attr a is 48/16, attrs b/c are 32/32.
        let schema = Arc::new(
            Schema::with_default_label(vec![
                Attribute::categorical("a", vec!["0".into(), "1".into()]),
                Attribute::categorical("b", vec!["0".into(), "1".into()]),
                Attribute::categorical("c", vec!["0".into(), "1".into()]),
            ])
            .unwrap(),
        );
        let mut cols = vec![Vec::new(), Vec::new(), Vec::new()];
        let mut labels = Vec::new();
        for i in 0..64usize {
            cols[0].push(u16::from(i % 4 == 0));
            cols[1].push(((i / 2) % 2) as u16);
            cols[2].push(((i / 4) % 2) as u16);
            labels.push(i % 3 == 0);
        }
        let d = Dataset::new(schema, cols, labels).unwrap();

        // Range [0.2, 0.3]: level 1 has `a = 1` (0.25) in range; `a = 0`
        // (0.75), b/c (0.5 each) oversized. All five expand to level 2,
        // where supports straddle the range again.
        let out = search(&d, &params(0.2, 0.3, 2), &|_: &Predicate, _: &[u32]| 1.0).unwrap();
        let last = out.levels[1];
        assert!(last.oversized > 0, "need oversized nodes at the final level");
        assert!(last.explored > 0, "need evaluated nodes at the final level");
        // Every evaluated node survives (ρ = 1): Rule 3 claims exactly
        // those, while the oversized stay in Rule 2's bucket.
        assert_eq!(last.pruned_rule3, last.explored);
        assert!(
            last.pruned_rule3 + last.oversized <= last.generated,
            "buckets must not double-count: {last:?}"
        );
        // Non-final levels never charge Rule 3.
        assert_eq!(out.levels[0].pruned_rule3, 0);
        // And the Table-9 headline number follows from explored alone.
        let expect = 100.0 * (1.0 - last.explored as f64 / last.possible as f64);
        assert!((last.pruned_percent() - expect).abs() < 1e-12);
    }

    #[test]
    fn support_boundaries_are_epsilon_tolerant() {
        let d = data(); // level-1 supports 0.5, level-2 supports 0.25
        // τ_min arrived through arithmetic: 0.1 + 0.2 overshoots 0.3, yet
        // a support of exactly 0.3 must not be pruned low. Build a 60-row
        // set where one literal selects 18 rows (support 18/60 = 0.3).
        let schema = Arc::new(
            Schema::with_default_label(vec![Attribute::categorical(
                "g",
                vec!["0".into(), "1".into()],
            )])
            .unwrap(),
        );
        let col: Vec<u16> = (0..60).map(|i| u16::from(i < 18)).collect();
        let labels = (0..60).map(|i| i % 2 == 0).collect();
        let d60 = Dataset::new(schema, vec![col], labels).unwrap();
        let p = SearchParams::new(SupportRange::new(0.1 + 0.2, 0.9).unwrap(), 1).unwrap();
        let out = search(&d60, &p, &|_: &Predicate, _: &[u32]| 1.0).unwrap();
        assert_eq!(
            out.levels[0].pruned_support_low, 0,
            "support exactly at τ_min must stay in range: {:?}",
            out.levels[0]
        );
        assert_eq!(out.levels[0].explored, 2); // 0.3 and 0.7 both within [0.3, 0.9]

        // τ_max a hair below the support: within epsilon counts as at the
        // bound, not above it.
        let p = SearchParams::new(SupportRange::new(0.0, 0.5 - 1e-12).unwrap(), 1).unwrap();
        let out = search(&d, &p, &|_: &Predicate, _: &[u32]| 1.0).unwrap();
        assert_eq!(out.levels[0].oversized, 0, "{:?}", out.levels[0]);
        assert_eq!(out.levels[0].explored, 6);

        // Genuinely out-of-range supports are still gated.
        let p = SearchParams::new(SupportRange::new(0.0, 0.49).unwrap(), 1).unwrap();
        let out = search(&d, &p, &|_: &Predicate, _: &[u32]| 1.0).unwrap();
        assert_eq!(out.levels[0].oversized, 6);
    }

    #[test]
    fn driver_steps_match_whole_search_and_resume_midway() {
        let d = data();
        let p = params(0.0, 1.0, 3);
        let eval = |_: &Predicate, rows: &[u32]| 1.0 / (1.0 + rows.len() as f64);
        let whole = search(&d, &p, &eval).unwrap();

        // Stepping manually yields the identical outcome.
        let mut driver = SearchDriver::new(&d, &p);
        let mut boundaries = 0;
        while driver.step(&eval).unwrap() {
            boundaries += 1;
        }
        assert!(boundaries > 0);
        assert_eq!(driver.into_outcome(), whole);

        // Snapshot after the first level, continue from the clone: the
        // rest of the search is byte-identical.
        let mut driver = SearchDriver::new(&d, &p);
        assert!(driver.step(&eval).unwrap());
        let snapshot = driver.state().clone();
        let mut resumed = SearchDriver::with_state(&d, &p, snapshot);
        while resumed.step(&eval).unwrap() {}
        assert_eq!(resumed.into_outcome(), whole);

        // A finished state refuses further work.
        let mut driver = SearchDriver::new(&d, &p);
        while driver.step(&eval).unwrap() {}
        assert!(driver.is_done());
        assert!(!driver.step(&eval).unwrap());
    }
}
