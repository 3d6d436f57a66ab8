//! Per-tree routing index: which leaf does each evaluation row land in?
//!
//! A diagnostic, not part of any explain path: FUME measures every
//! counterfactual model's bias with one full prediction pass (see
//! `docs/unlearn-eval.md`). The index answers how much of that pass a
//! journaled deletion leaves untouched, i.e. how many test rows an
//! incremental evaluator could reuse; the `explain_e2e` benchmark's
//! traced probe builds one per deployed model to report that reuse and
//! its cost.
//!
//! FUME's unlearn-eval loop measures a fairness metric on the *same*
//! held-out rows after every journaled deletion. A deletion only changes
//! the prediction of a row whose root-to-leaf walk passes through a node
//! the deletion actually mutated *structurally*:
//!
//! * a `Leaf` [record](crate::journal) means that leaf's instance list
//!   (and therefore its probability) was edited in place — rows cached at
//!   exactly that leaf are dirty;
//! * a `Relink` record means a whole subtree was rebuilt — rows cached at
//!   any leaf *under* the displaced root are dirty (routing above it is
//!   untouched, so the set of rows entering it is unchanged);
//! * `Stats` and `Pool` records touch only cached sufficient statistics,
//!   never the `(attr, threshold)` pair a walk consults — they invalidate
//!   nothing. A delete pass that *does* need to change a split decision
//!   always goes through a subtree rebuild.
//!
//! Records address nodes by slot, and a rebuild leaves the displaced
//! subtree intact in the [node store](crate::node) until the rollback, so
//! the index keys leaves by slot and decides "under the displaced root"
//! by preorder intervals computed once at build time.
//!
//! So the exact dirty set of an [`UndoJournal`] falls straight out of a
//! prebuilt map from each leaf to the rows cached under it, *per tree*:
//! the journal names edited leaves and rebuilt subtree roots, the index
//! answers with the affected rows directly — no per-row scan. Rows clean
//! in a tree provably keep that tree's cached probability, and rows at
//! an edited leaf all share its one new probability, so dirty detection
//! refreshes each edited leaf with a single lookup, re-walks only the
//! rows under rebuilt subtrees, and filters any contribution that comes
//! out bit-identical (a pure leaf stays pure when rows are deleted from
//! it — the common case). Re-summing just the votes that moved against
//! the cached per-tree contributions would reproduce a full prediction
//! pass bitwise.

use std::collections::{HashMap, HashSet};

use fume_tabular::Dataset;

use crate::forest::DareForest;
use crate::journal::{Record, UndoJournal};
use crate::plan::{PredictPlan, TreePlan};

/// Maps each leaf of a fixed forest to the rows of a fixed evaluation
/// dataset cached under it (and each `(tree, row)` pair to its leaf
/// probability), so [`Self::dirty_rows`] can name exactly which cached
/// predictions a journaled deletion invalidated — a diagnostic of how
/// much of a full pass could be reused (see the [module docs](self)).
///
/// The index describes the forest *as it was at build time*; it stays
/// valid across `delete_journaled` → `rollback` cycles (the forest is
/// restored byte-identically) but not across destructive deletes or
/// inserts — rebuild it after those.
#[derive(Debug, Clone)]
pub struct RoutingIndex {
    /// `rows_by_leaf[tree]`: leaf slot → rows cached there, ascending.
    rows_by_leaf: Vec<HashMap<u32, Vec<u32>>>,
    /// `spans[tree][slot]`: the first and last preorder position of the
    /// subtree at `slot`, for the slots reachable from the root at build
    /// time (`(u32::MAX, 0)` for the rest).
    spans: Vec<Vec<(u32, u32)>>,
    /// `probas[tree * n_rows + row]`: the leaf probability `row` reaches
    /// in `tree` — the tree's exact contribution to the ensemble vote.
    /// Tree-major, so one tree's contributions are a contiguous slice.
    probas: Vec<f64>,
    n_trees: usize,
    n_rows: usize,
}

/// The output of [`RoutingIndex::dirty_rows`]: exactly which cached
/// per-tree contributions a journaled deletion *changed*, with their
/// replacement values. Contributions that come out bit-identical — a
/// pure leaf staying pure after an edit, a rebuilt subtree routing a row
/// to an equal-probability leaf — are filtered at the source, so
/// consumers re-sum only votes that genuinely moved.
#[derive(Debug, Clone, Default)]
pub struct DirtyRows {
    /// `fresh[tree]`: `(row, new contribution)` pairs ascending by row —
    /// only pairs whose contribution differs bitwise from the cached
    /// one. Rows of an edited leaf share its one freshly-looked-up
    /// probability; rows under a rebuilt subtree carry a fresh walk.
    pub fresh: Vec<Vec<(u32, f64)>>,
    /// Union across trees, ascending and duplicate-free: the rows with
    /// at least one changed contribution — the only rows whose ensemble
    /// vote needs re-summing. Rows absent here keep every cached
    /// contribution (and therefore their prediction) bit-for-bit.
    pub rows: Vec<u32>,
}

impl RoutingIndex {
    /// Routes every row of `data` through every tree of `forest`, via a
    /// throwaway [`PredictPlan`] compile. Callers that already hold a
    /// compiled plan should use [`Self::build_with_plan`] directly and
    /// share the plan with their prediction passes.
    pub fn build(forest: &DareForest, data: &Dataset) -> Self {
        Self::build_with_plan(&PredictPlan::compile(forest), data)
    }

    /// Routes every row of `data` through every tree of `plan`'s copied
    /// hot arrays. One kernel walk per `(tree, row)` yields both the leaf
    /// slot and the cached contribution — the same leaf and bits the
    /// reference [`route_row`](crate::node::NodeRef::route_row) walk
    /// produces.
    pub fn build_with_plan(plan: &PredictPlan, data: &Dataset) -> Self {
        let n_rows = data.num_rows();
        let n_trees = plan.num_trees();
        let mut rows_by_leaf = Vec::with_capacity(n_trees);
        let mut probas = Vec::with_capacity(n_rows * n_trees);
        for tree in plan.tree_plans() {
            let hot = tree.hot();
            let mut by_leaf: HashMap<u32, Vec<u32>> = HashMap::new();
            for row in 0..n_rows {
                let slot = hot.route_row(data, row);
                by_leaf
                    .entry(crate::node::slot_u32(slot))
                    .or_default()
                    .push(fume_tabular::cast::row_u32(row));
                probas.push(tree.nodes[slot].proba);
            }
            rows_by_leaf.push(by_leaf);
        }
        let spans = plan.tree_plans().iter().map(preorder_spans).collect();
        Self { rows_by_leaf, spans, probas, n_trees, n_rows }
    }

    /// Number of indexed rows.
    pub fn num_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of indexed trees.
    pub fn num_trees(&self) -> usize {
        self.n_trees
    }

    /// The build-time probability contribution of `tree` for `row` —
    /// exactly the value a fresh walk of the unmutated tree produces.
    #[inline]
    pub fn tree_proba(&self, tree: usize, row: usize) -> f64 {
        self.probas[tree * self.n_rows + row]
    }

    /// The contributions the journaled deletion changed, with their
    /// replacement values, against `mutated` — the forest *after* the
    /// deletion the journal records (e.g. the scratch forest between
    /// `delete_journaled` and `rollback`). `data` must be the dataset
    /// this index was built on. Every row *not* in [`DirtyRows::rows`]
    /// is guaranteed to keep its pre-delete probability in every tree
    /// (see the module docs for why), so a caller may reuse cached
    /// predictions for the complement verbatim — and within a dirty row,
    /// every tree without a [`DirtyRows::fresh`] entry keeps its cached
    /// contribution.
    pub fn dirty_rows(
        &self,
        journal: &UndoJournal,
        mutated: &DareForest,
        data: &Dataset,
    ) -> DirtyRows {
        assert!(
            journal.trees.is_empty() || journal.trees.len() == self.rows_by_leaf.len(),
            "journal covers {} trees but the index covers {}",
            journal.trees.len(),
            self.rows_by_leaf.len()
        );
        debug_assert_eq!(mutated.trees().len(), self.n_trees, "mutated forest shape");
        let mut union = vec![false; self.n_rows];
        let mut fresh_out = vec![Vec::new(); self.n_trees];
        let mut edited: HashSet<u32> = HashSet::new();
        let mut rebuilt: Vec<u32> = Vec::new();
        for (t, (undo, by_leaf)) in
            journal.trees.iter().zip(&self.rows_by_leaf).enumerate()
        {
            edited.clear();
            rebuilt.clear();
            for record in &undo.log.records {
                match *record {
                    Record::Leaf { slot, .. } => {
                        edited.insert(slot);
                    }
                    Record::Relink { old, .. } => rebuilt.push(old),
                    Record::Stats { .. } | Record::Pool { .. } => {}
                }
            }
            let spans = &self.spans[t];
            let under = |leaf: u32, root: u32| {
                let (lo, hi) = spans[root as usize];
                (lo..=hi).contains(&spans[leaf as usize].0)
            };
            if edited.is_empty() && rebuilt.is_empty() {
                continue;
            }
            let tree = &mutated.trees()[t];
            let cached = &self.probas[t * self.n_rows..(t + 1) * self.n_rows];
            let mut fresh: Vec<(u32, f64)> = Vec::new();
            for &leaf in &edited {
                // A leaf inside a rebuilt cone is no longer reachable; its
                // rows are picked up by the cone scan below instead.
                if rebuilt.iter().any(|&root| under(leaf, root)) {
                    continue;
                }
                if let Some(rows) = by_leaf.get(&leaf) {
                    // One lookup refreshes the whole group: an in-place
                    // edit leaves routing untouched, so every row cached
                    // here still lands on this leaf and votes its new
                    // probability — which is often bit-identical (a pure
                    // leaf stays pure when rows are deleted from it), in
                    // which case nothing is dirty.
                    let p = tree.store().node(leaf).proba();
                    if p.to_bits() == cached[rows[0] as usize].to_bits() {
                        continue;
                    }
                    fresh.extend(rows.iter().map(|&row| (row, p)));
                }
            }
            if !rebuilt.is_empty() {
                // Rebuilds are rare; one scan of the tree's leaf table
                // resolves every root's cone at once. Rows the rebuilt
                // subtree routes to an equal-probability leaf are
                // filtered like unchanged edits.
                for (&leaf, rows) in by_leaf {
                    if rebuilt.iter().any(|&root| under(leaf, root)) {
                        for &row in rows {
                            let p = tree.predict_row(data, row as usize);
                            if p.to_bits() != cached[row as usize].to_bits() {
                                fresh.push((row, p));
                            }
                        }
                    }
                }
            }
            fresh.sort_unstable_by_key(|&(row, _)| row);
            for &(row, _) in &fresh {
                union[row as usize] = true;
            }
            fresh_out[t] = fresh;
        }
        let rows = (0..self.n_rows)
            .filter(|&r| union[r])
            .map(fume_tabular::cast::row_u32)
            .collect();
        DirtyRows { fresh: fresh_out, rows }
    }
}

/// The first and last preorder position of every subtree reachable from
/// `tree`'s root: a leaf lies under a root exactly when its first
/// position falls within the root's span.
fn preorder_spans(tree: &TreePlan) -> Vec<(u32, u32)> {
    let mut spans = vec![(u32::MAX, 0); tree.nodes.len()];
    let mut next = 0u32;
    // (slot, whether its children are done)
    let mut stack = vec![(tree.root, false)];
    while let Some((slot, done)) = stack.pop() {
        let [left, right] = tree.nodes[slot as usize].kids;
        if done {
            spans[slot as usize].1 = next - 1;
            continue;
        }
        spans[slot as usize].0 = next;
        next += 1;
        stack.push((slot, true));
        if left != slot {
            stack.push((right, false));
            stack.push((left, false));
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DareConfig;
    use fume_tabular::datasets::planted_toy;
    use fume_tabular::split::train_test_split;
    use fume_tabular::Classifier;

    fn setup(seed: u64) -> (Dataset, Dataset, DareForest) {
        let (data, _) = planted_toy().generate_scaled(0.2, seed).unwrap();
        let (train, test) = train_test_split(&data, 0.3, seed).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(seed));
        (train, test, forest)
    }

    #[test]
    fn index_addresses_match_prediction_walks() {
        let (_, test, forest) = setup(41);
        let idx = RoutingIndex::build(&forest, &test);
        assert_eq!(idx.num_rows(), test.num_rows());
        assert_eq!(idx.num_trees(), forest.trees().len());
        for (t, tree) in forest.trees().iter().enumerate() {
            let mut seen = 0;
            for row in 0..test.num_rows() {
                let walked = tree.root().route_row(&test, row);
                let proba = walked.proba();
                // The cached contribution is the walk's, to the bit, and
                // the leaf table files the row under the walked slot.
                assert_eq!(idx.tree_proba(t, row).to_bits(), proba.to_bits());
                assert_eq!(proba.to_bits(), tree.predict_row(&test, row).to_bits());
                let rows = idx.rows_by_leaf[t].get(&walked.slot()).expect("leaf indexed");
                assert!(rows.binary_search(&(row as u32)).is_ok());
                seen += 1;
            }
            let filed: usize = idx.rows_by_leaf[t].values().map(Vec::len).sum();
            assert_eq!(filed, seen, "every row filed under exactly one leaf");
        }
    }

    #[test]
    fn clean_rows_keep_their_predictions_dirty_rows_cover_all_changes() {
        let (train, test, forest) = setup(42);
        let idx = RoutingIndex::build(&forest, &test);
        let before = forest.predict_proba(&test);
        let mut scratch = forest.clone();
        for subset in [vec![0u32, 1, 2], (0..40).step_by(3).collect::<Vec<u32>>()] {
            let journal = scratch.delete_journaled(&subset, &train);
            let after = scratch.predict_proba(&test);
            let dirty = idx.dirty_rows(&journal, &scratch, &test);
            assert!(dirty.rows.windows(2).all(|w| w[0] < w[1]), "sorted unique");
            // Soundness: every row whose ensemble proba changed is in the
            // dirty union.
            for (row, (a, b)) in before.iter().zip(&after).enumerate() {
                if a.to_bits() != b.to_bits() {
                    assert!(
                        dirty.rows.binary_search(&(row as u32)).is_ok(),
                        "row {row} changed ({a} -> {b}) but was not flagged dirty"
                    );
                }
            }
            // Per-tree exactness, both directions: every contribution
            // that changed has a fresh entry carrying the walk's bits,
            // and every fresh entry is a genuine change.
            for (t, tree) in scratch.trees().iter().enumerate() {
                let fresh = &dirty.fresh[t];
                assert!(fresh.windows(2).all(|w| w[0].0 < w[1].0), "sorted unique");
                for row in 0..test.num_rows() {
                    let walked = tree.predict_row(&test, row);
                    let cached = idx.tree_proba(t, row);
                    let entry = fresh
                        .binary_search_by_key(&(row as u32), |&(r, _)| r)
                        .ok()
                        .map(|i| fresh[i].1);
                    match entry {
                        Some(p) => {
                            assert_eq!(
                                p.to_bits(),
                                walked.to_bits(),
                                "tree {t} row {row}: fresh entry is not the walk's value"
                            );
                            assert_ne!(
                                p.to_bits(),
                                cached.to_bits(),
                                "tree {t} row {row}: unchanged contribution not filtered"
                            );
                        }
                        None => assert_eq!(
                            walked.to_bits(),
                            cached.to_bits(),
                            "tree {t} row {row}: contribution changed but not flagged"
                        ),
                    }
                }
            }
            scratch.rollback(journal);
            assert_eq!(scratch, forest);
        }
    }

    #[test]
    fn empty_journal_flags_nothing() {
        let (train, test, forest) = setup(43);
        let idx = RoutingIndex::build(&forest, &test);
        let mut scratch = forest.clone();
        let journal = scratch.delete_journaled(&[], &train);
        let dirty = idx.dirty_rows(&journal, &scratch, &test);
        assert!(dirty.rows.is_empty());
        assert!(dirty.fresh.iter().all(Vec::is_empty));
    }

    #[test]
    #[should_panic(expected = "journal covers")]
    fn journal_from_a_different_forest_shape_is_rejected() {
        let (train, test, forest) = setup(44);
        let idx = RoutingIndex::build(&forest, &test);
        let other_cfg = DareConfig { n_trees: 3, ..DareConfig::small(44) };
        let mut other = DareForest::fit(&train, other_cfg);
        let journal = other.delete_journaled(&[0, 1], &train);
        idx.dirty_rows(&journal, &other, &test);
    }
}
