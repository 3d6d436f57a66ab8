//! Leaf routes and the rerouted prediction pass: after a journaled
//! delete, walk only the test rows under the subtrees it rebuilt.
//!
//! FUME measures every counterfactual model on the same test rows, and
//! every counterfactual is the deployed forest with one journaled delete
//! applied (see [`journal`](crate::journal)). A delete changes a tree in
//! two ways only:
//! * it rewrites counts in place: a leaf's vote (`Leaf` records) and a
//!   decision node's cached statistics (`Stats` and `Pool` records),
//!   never the split a walk reads;
//! * it rebuilds whole subtrees, each hung where the old one hung
//!   (`Relink` records), and leaves every split above them as it was.
//!
//! So a row whose deployed path does not enter a rebuilt subtree still
//! lands on the leaf it landed on in the deployed forest, and that leaf's
//! vote is whatever its slot reads now. A row that does enter one arrives
//! at the new subtree's root, at the depth of the old one.
//!
//! [`LeafRoutes`] records, once per deployed forest and test set, which
//! leaf each row reaches: per tree, the rows sorted by the preorder rank
//! of their leaf, and for every slot the `[lo, hi)` range of that order
//! under it. The rows under any subtree are then one range.
//! [`LeafRoutes::predict_proba`] reads each tree's `Relink` records in the
//! order the delete wrote them (preorder, so their ranges ascend), walks
//! each range's rows from the new subtree's root with the
//! [kernel](crate::plan)'s 8-lane descent for the steps left below its
//! depth, and gives every other row its leaf's current vote, one leaf at a
//! time. Each row still gets one addend per tree, in tree order, and the
//! sums are divided once: the float sequence of the full pass, so the
//! answer is bitwise [`Classifier::predict_proba`]'s. `FUME_DEEPCHECK=1`
//! asserts that on every rerouted pass.

use fume_tabular::cast::row_u32;
use fume_tabular::{Classifier, Dataset};

use crate::forest::DareForest;
use crate::journal::{Record, UndoJournal};
use crate::node::{slot_u32, Hot, NodeStore};
use crate::plan::LANES;
use crate::tree::DareTree;

/// Which leaf each row of a test set reaches in each tree of a deployed
/// forest, kept so that a prediction pass after a journaled delete walks
/// only the rows the delete moved (see the [module docs](self)).
///
/// ```
/// use fume_forest::{DareConfig, DareForest, LeafRoutes};
/// use fume_tabular::datasets::planted_toy;
/// use fume_tabular::split::train_test_split;
/// use fume_tabular::Classifier;
///
/// let (data, _) = planted_toy().generate_scaled(0.2, 7).unwrap();
/// let (train, test) = train_test_split(&data, 0.3, 7).unwrap();
/// let deployed = DareForest::fit(&train, DareConfig::small(7));
/// let routes = LeafRoutes::build(&deployed, &test);
/// let mut scratch = deployed.clone();
/// let journal = scratch.delete_journaled(&[0, 5, 9], &train);
/// let rerouted = routes.predict_proba(&scratch, &journal);
/// let full = scratch.predict_proba(&test);
/// assert!(rerouted.iter().zip(&full).all(|(a, b)| a.to_bits() == b.to_bits()));
/// scratch.rollback(journal);
/// ```
///
/// The routes describe the forest as it was when they were built. They
/// hold across `delete_journaled` → `rollback` cycles of any clone of it,
/// which restore it byte for byte, and not across a destructive delete
/// or an insert.
#[derive(Debug)]
pub struct LeafRoutes<'a> {
    test: &'a Dataset,
    trees: Vec<TreeRoutes>,
}

/// One tree's routes.
#[derive(Debug)]
struct TreeRoutes {
    /// The routed tree's root slot, which a journal's header repeats.
    root: u32,
    /// The routed tree's slot count, which a journal's header repeats.
    slots: u32,
    /// The test rows, by the preorder rank of the leaf each reaches;
    /// ascending within a leaf.
    rows: Vec<u32>,
    /// `ranges[slot]`: where the rows under `slot` sit in `rows`; empty
    /// for the slots the root does not reach.
    ranges: Vec<[u32; 2]>,
    /// The leaves at least one row reaches, in preorder.
    leaves: Vec<u32>,
}

impl<'a> LeafRoutes<'a> {
    /// Routes every row of `test` through every tree of `forest` with the
    /// kernel's 8-lane descent. Emits a `plan.routes_build` span and
    /// `forest.tree_row_walks` (trees × rows).
    pub fn build(forest: &DareForest, test: &'a Dataset) -> Self {
        let n_trees = forest.trees().len();
        let _span = fume_obs::span!("plan.routes_build", rows = test.num_rows(), trees = n_trees);
        let mut leaf_of = vec![0u32; test.num_rows()];
        let trees =
            forest.trees().iter().map(|t| TreeRoutes::build(t, test, &mut leaf_of)).collect();
        fume_obs::counter!("forest.tree_row_walks", n_trees * test.num_rows());
        Self { test, trees }
    }

    /// Rough footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let per_tree = |t: &TreeRoutes| {
            size_of::<TreeRoutes>()
                + (t.rows.len() + t.leaves.len()) * size_of::<u32>()
                + t.ranges.len() * size_of::<[u32; 2]>()
        };
        size_of::<Self>() + self.trees.iter().map(per_tree).sum::<usize>()
    }

    /// The ensemble probability of every test row under `forest`, a copy
    /// of the routed forest with the journaled delete `journal` applied and
    /// not yet rolled back: bitwise `forest.predict_proba(test)`, walking
    /// only the rows under rebuilt subtrees. Emits a
    /// `plan.predict_rerouted` span and `forest.tree_row_walks` (the rows
    /// walked, summed over trees).
    ///
    /// # Panics
    /// If `forest` (before the delete) does not have the routed trees'
    /// roots and slot counts.
    pub fn predict_proba(&self, forest: &DareForest, journal: &UndoJournal) -> Vec<f64> {
        let mut out = vec![0.0f64; self.test.num_rows()];
        let trees = forest.trees();
        assert_eq!(trees.len(), self.trees.len(), "the routes were built for another forest");
        assert!(
            journal.trees.is_empty() || journal.trees.len() == trees.len(),
            "the journal belongs to another forest"
        );
        if trees.is_empty() {
            // The empty ensemble's answer, as in the full pass.
            out.fill(0.5);
            return out;
        }
        let _span =
            fume_obs::span!("plan.predict_rerouted", rows = out.len(), trees = trees.len());
        let mut walks = 0usize;
        for (t, (tree, routes)) in trees.iter().zip(&self.trees).enumerate() {
            // An empty delete journals no tree; each is then as routed.
            let (root, slots, records) = match journal.trees.get(t) {
                Some(undo) => (undo.header.root, undo.header.lens.slots, &undo.log.records[..]),
                None => (tree.root, slot_u32(tree.store.len()), &[][..]),
            };
            assert!(
                (root, slots) == (routes.root, routes.slots),
                "tree {t} is not the tree the routes were built for"
            );
            walks += routes.add_votes(tree, records, self.test, &mut out);
        }
        let k = trees.len() as f64;
        for p in out.iter_mut() {
            *p /= k;
        }
        fume_obs::counter!("forest.tree_row_walks", walks);
        if crate::deepcheck::enabled() {
            let full = fume_obs::audit(|| forest.predict_proba(self.test));
            for (row, (a, b)) in out.iter().zip(&full).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "FUME_DEEPCHECK: the rerouted pass diverged from the full pass at row {row}"
                );
            }
        }
        out
    }
}

impl TreeRoutes {
    /// Routes `test` through `tree`; `leaf_of` is a buffer of one slot
    /// per row.
    fn build(tree: &DareTree, test: &Dataset, leaf_of: &mut [u32]) -> Self {
        let hot = tree.hot_tree();
        let mut groups = leaf_of.chunks_exact_mut(LANES);
        let mut first = 0;
        for group in &mut groups {
            let rows = std::array::from_fn(|lane| first + lane);
            let slots = hot.route_lanes(test, rows, hot.root, hot.steps);
            for (leaf, slot) in group.iter_mut().zip(slots) {
                *leaf = slot_u32(slot);
            }
            first += LANES;
        }
        for (rest, leaf) in groups.into_remainder().iter_mut().enumerate() {
            *leaf = slot_u32(hot.route_row(test, first + rest));
        }

        // Count each leaf's rows into its range's end, then lay the
        // ranges out in preorder.
        let mut ranges = vec![[0u32; 2]; tree.store.len()];
        for &leaf in leaf_of.iter() {
            ranges[leaf as usize][1] += 1;
        }
        let mut leaves = Vec::new();
        lay_out(&tree.store, tree.root, 0, &mut ranges, &mut leaves);

        let mut cursor: Vec<u32> = ranges.iter().map(|&[lo, _]| lo).collect();
        let mut rows = vec![0u32; leaf_of.len()];
        for (row, &leaf) in leaf_of.iter().enumerate() {
            let at = &mut cursor[leaf as usize];
            rows[*at as usize] = row_u32(row);
            *at += 1;
        }
        Self { root: tree.root, slots: slot_u32(tree.store.len()), rows, ranges, leaves }
    }

    /// Adds this tree's vote to `out[row]` for every row, the tree being
    /// the routed one with the delete that wrote `records` applied, and
    /// returns how many rows were walked.
    fn add_votes(
        &self,
        tree: &DareTree,
        records: &[Record],
        test: &Dataset,
        out: &mut [f64],
    ) -> usize {
        let hot = tree.hot_tree();
        let (mut next, mut walked) = (0usize, 0usize);
        for record in records {
            let Record::Relink { link, old, depth } = *record else { continue };
            let [lo, hi] = self.ranges[old as usize];
            debug_assert!(
                self.leaves.get(next).is_none_or(|&l| self.ranges[l as usize][0] <= lo),
                "relinks come in preorder"
            );
            next = self.add_leaf_votes(hot.nodes, next, lo, out);
            next += self.leaves[next..].partition_point(|&l| self.ranges[l as usize][0] < hi);
            let rows = &self.rows[lo as usize..hi as usize];
            hot.add_walks(test, rows, tree.link_target(link), tree.steps - depth, out);
            walked += rows.len();
        }
        self.add_leaf_votes(hot.nodes, next, u32::MAX, out);
        walked
    }

    /// Adds the votes of the leaves from `next` on whose rows start before
    /// `end`, and returns the first leaf left.
    fn add_leaf_votes(&self, nodes: &[Hot], mut next: usize, end: u32, out: &mut [f64]) -> usize {
        while let Some(&leaf) = self.leaves.get(next) {
            let [lo, hi] = self.ranges[leaf as usize];
            if lo >= end {
                break;
            }
            let p = nodes[leaf as usize].proba;
            for &row in &self.rows[lo as usize..hi as usize] {
                out[row as usize] += p;
            }
            next += 1;
        }
        next
    }
}

/// Turns the row counts at the leaves under `slot` into preorder ranges
/// starting at `lo`, appends the leaves that hold rows to `leaves`, and
/// returns the end of `slot`'s range.
fn lay_out(
    store: &NodeStore,
    slot: u32,
    lo: u32,
    ranges: &mut [[u32; 2]],
    leaves: &mut Vec<u32>,
) -> u32 {
    let hi = if store.is_leaf(slot) {
        let count = ranges[slot as usize][1];
        if count > 0 {
            leaves.push(slot);
        }
        lo + count
    } else {
        let [left, right] = store.hot[slot as usize].kids;
        let mid = lay_out(store, left, lo, ranges, leaves);
        lay_out(store, right, mid, ranges, leaves)
    };
    ranges[slot as usize] = [lo, hi];
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DareConfig;
    use fume_tabular::datasets::planted_toy;
    use fume_tabular::split::train_test_split;

    /// Every subtree's rows are one range, its leaves' ranges tile it in
    /// preorder, and each row sits in the range of the leaf it reaches.
    #[test]
    fn ranges_nest_in_preorder_and_hold_each_row_at_its_leaf() {
        let (data, _) = planted_toy().generate_scaled(0.3, 81).unwrap();
        let (train, test) = train_test_split(&data, 0.3, 81).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(81));
        let routes = LeafRoutes::build(&forest, &test);
        for (tree, r) in forest.trees().iter().zip(&routes.trees) {
            assert_eq!(r.ranges[tree.root as usize], [0, row_u32(test.num_rows())]);
            let mut sorted = r.rows.clone();
            sorted.sort_unstable();
            assert!(sorted.iter().enumerate().all(|(i, &row)| i == row as usize), "a permutation");
            let mut end = 0;
            for &leaf in &r.leaves {
                let [lo, hi] = r.ranges[leaf as usize];
                assert!(lo == end && lo < hi, "leaf ranges tile the rows in preorder");
                for &row in &r.rows[lo as usize..hi as usize] {
                    assert_eq!(tree.root().route_row(&test, row as usize).slot(), leaf);
                }
                end = hi;
            }
            assert_eq!(end as usize, test.num_rows());
            for slot in 0..tree.store.len() as u32 {
                if let Some([left, right]) = tree.store.node(slot).children() {
                    let [lo, hi] = r.ranges[slot as usize];
                    let ([l_lo, l_hi], [r_lo, r_hi]) =
                        (r.ranges[left.slot() as usize], r.ranges[right.slot() as usize]);
                    assert_eq!((l_lo, l_hi, r_lo, r_hi), (lo, r_lo, l_hi, hi), "slot {slot}");
                }
            }
        }
        assert!(routes.approx_bytes() > forest.trees().len() * test.num_rows() * 4);
    }
}
