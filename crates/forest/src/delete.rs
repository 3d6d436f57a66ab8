//! Exact unlearning: batch deletion of training instances from a tree.
//!
//! The saved statistics decide, top-down, whether each node can absorb the
//! deletion by updating counts (cheap) or whether its subtree must be
//! rebuilt from the surviving instances (rare). Decision rules mirror the
//! build rules exactly, so an unlearned tree is always a tree the builder
//! *could* have produced on the surviving data — DaRE's exactness
//! guarantee.

use fume_tabular::cast::row_u32;
use fume_tabular::rng::StdRng;
use fume_tabular::Dataset;

use crate::builder::{best_candidate, candidate_valid, TreeBuilder, GAIN_EPS};
use crate::config::DareConfig;
use crate::gini::gini_gain;
use crate::journal::{JournalSink, NodePath, UndoRecord};
use crate::node::{Internal, Node};

/// Counters describing what one deletion did to a tree (aggregated over the
/// forest by the caller). Useful for the paper's complexity discussion and
/// the ablation benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeleteReport {
    /// Decision nodes whose statistics were updated in place.
    pub nodes_updated: usize,
    /// Subtrees that had to be rebuilt.
    pub subtrees_retrained: usize,
    /// Leaves whose instance lists were edited.
    pub leaves_updated: usize,
    /// Greedy nodes that replenished invalidated candidate thresholds.
    pub candidates_replenished: usize,
}

impl DeleteReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: &DeleteReport) {
        self.nodes_updated += other.nodes_updated;
        self.subtrees_retrained += other.subtrees_retrained;
        self.leaves_updated += other.leaves_updated;
        self.candidates_replenished += other.candidates_replenished;
    }
}

/// Membership bitset over a dataset's rows.
struct RowSet {
    words: Vec<u64>,
}

impl RowSet {
    /// The set of `ids`, each below `n_rows`.
    fn new(n_rows: usize, ids: &[u32]) -> Self {
        let mut words = vec![0u64; n_rows.div_ceil(64)];
        for &id in ids {
            words[id as usize / 64] |= 1 << (id % 64);
        }
        Self { words }
    }

    /// Whether `id` is in the set.
    #[inline]
    fn contains(&self, id: u32) -> bool {
        self.words[id as usize / 64] >> (id % 64) & 1 == 1
    }
}

/// Appends the ids under `node` that `deleted` does not hold, in tree
/// order.
fn collect_survivors(node: &Node, deleted: &RowSet, out: &mut Vec<u32>) {
    match node {
        Node::Leaf(leaf) => out.extend(leaf.ids.iter().filter(|&&id| !deleted.contains(id))),
        Node::Internal(i) => {
            collect_survivors(&i.left, deleted, out);
            collect_survivors(&i.right, deleted, out);
        }
    }
}

/// Deletes `del` (sorted, deduplicated, all present in the tree) from the
/// tree rooted at `root`. Returns what the deletion did and, when
/// `journal` is on, the undo records that reverse it.
pub(crate) fn delete_from_tree(
    root: &mut Node,
    del: &[u32],
    data: &Dataset,
    rng: &mut StdRng,
    cfg: &DareConfig,
    journal: JournalSink,
) -> (DeleteReport, Vec<UndoRecord>) {
    let mut pass = DeletePass {
        builder: TreeBuilder::new(data, cfg),
        cfg,
        rng,
        report: DeleteReport::default(),
        journal,
        deleted: RowSet::new(data.num_rows(), del),
        survivors: Vec::new(),
        lost: Vec::new(),
    };
    pass.delete(root, &mut del.to_vec(), 0, NodePath::ROOT);
    (pass.report, pass.journal.into_records())
}

/// One top-down deletion pass over a tree: the shared traversal behind
/// both the destructive delete and the journaled delete+rollback path.
struct DeletePass<'a> {
    /// Rebuilds subtrees and samples replenished candidates; its scratch
    /// also partitions `del` and histograms it per candidate run.
    builder: TreeBuilder<'a>,
    cfg: &'a DareConfig,
    rng: &'a mut StdRng,
    report: DeleteReport,
    journal: JournalSink,
    /// Every row this pass deletes.
    deleted: RowSet,
    /// Surviving ids of the subtree being rebuilt or replenished.
    survivors: Vec<u32>,
    /// `(attribute, candidates lost)` of the node being replenished.
    lost: Vec<(u16, usize)>,
}

impl DeletePass<'_> {
    /// Deletes `del` (deduplicated, all present under `node`) from the
    /// subtree rooted at `node` which sits at `depth`/`path`. Reorders
    /// `del` (stable partitions).
    fn delete(&mut self, node: &mut Node, del: &mut [u32], depth: usize, path: NodePath) {
        if del.is_empty() {
            return;
        }
        let cfg = self.cfg;
        let labels = self.builder.data().labels();
        let del_pos = row_u32(del.iter().filter(|&&id| labels[id as usize]).count());

        match node {
            Node::Leaf(leaf) => {
                self.journal.record_leaf(path, leaf);
                let deleted = &self.deleted;
                leaf.ids.retain(|&id| !deleted.contains(id));
                leaf.n_pos -= del_pos;
                self.report.leaves_updated += 1;
            }
            Node::Internal(internal) => {
                let new_n = internal.n - row_u32(del.len());
                let new_n_pos = internal.n_pos - del_pos;

                // The builder would now make this node a leaf: rebuild.
                if new_n < cfg.min_samples_split || new_n_pos == 0 || new_n_pos == new_n {
                    self.rebuild(node, depth, path);
                    return;
                }

                self.journal.record_internal_stats(path, internal);
                internal.n = new_n;
                internal.n_pos = new_n_pos;
                self.report.nodes_updated += 1;

                let n_left = self.builder.partition(del, internal.attr, internal.threshold);

                let retrain = if internal.is_random {
                    random_split_invalid(internal, n_left, del.len() - n_left, cfg)
                } else {
                    self.builder.count_delta(&mut internal.candidates, del, |c, [n, p]| {
                        c.n_left -= n;
                        c.n_left_pos -= p;
                    });
                    // The chosen split must stay valid and improving; if so,
                    // resample any invalidated candidate thresholds *before*
                    // re-checking optimality (a fresh candidate may win).
                    chosen_split_dead(internal, cfg) || {
                        self.replenish_candidates(internal, path);
                        greedy_split_beaten(internal, cfg)
                    }
                };

                if retrain {
                    self.rebuild(node, depth, path);
                    return;
                }

                let (del_left, del_right) = del.split_at_mut(n_left);
                self.delete(&mut internal.left, del_left, depth + 1, path.child(false));
                self.delete(&mut internal.right, del_right, depth + 1, path.child(true));
            }
        }
    }

    /// Replaces the subtree at `node` with one built from its surviving
    /// instances, in their order within the old subtree.
    fn rebuild(&mut self, node: &mut Node, depth: usize, path: NodePath) {
        self.survivors.clear();
        collect_survivors(node, &self.deleted, &mut self.survivors);
        let rebuilt = self.builder.build(&mut self.survivors, depth, self.rng);
        self.journal.replace_subtree(path, node, rebuilt);
        self.report.subtrees_retrained += 1;
    }

    /// Replaces cached candidates that stopped separating the node's data
    /// with freshly sampled thresholds from the surviving instances,
    /// keeping the candidate pool full for future deletions (the
    /// `O(|D| log |D|)` threshold-resampling step of the DaRE paper).
    fn replenish_candidates(&mut self, internal: &mut Internal, path: NodePath) {
        let cfg = self.cfg;
        let n = internal.n;
        let any_invalid = internal
            .candidates
            .iter()
            .any(|c| !candidate_valid(c, n, cfg));
        if !any_invalid {
            return;
        }
        self.report.candidates_replenished += 1;
        // The pool is about to be restructured: journal it wholesale.
        self.journal.record_candidates(path, internal);

        // Identify the chosen candidate before the vector is filtered.
        let chosen_key = {
            let c = &internal.candidates[internal.chosen as usize];
            (c.attr, c.threshold)
        };

        // Count how many candidates each attribute lost.
        self.lost.clear();
        for c in &internal.candidates {
            if !candidate_valid(c, n, cfg) {
                match self.lost.iter_mut().find(|(a, _)| *a == c.attr) {
                    Some((_, k)) => *k += 1,
                    None => self.lost.push((c.attr, 1)),
                }
            }
        }
        internal.candidates.retain(|c| candidate_valid(c, n, cfg));

        // The surviving instances of this node, needed for fresh histograms.
        self.survivors.clear();
        collect_survivors(&internal.left, &self.deleted, &mut self.survivors);
        collect_survivors(&internal.right, &self.deleted, &mut self.survivors);

        for &(attr, k) in &self.lost {
            self.builder.replenish(&mut internal.candidates, &self.survivors, attr, k, self.rng);
        }

        // Re-locate the chosen candidate after the reshuffle.
        let chosen_pos = internal
            .candidates
            .iter()
            .position(|c| (c.attr, c.threshold) == chosen_key)
            // fume-lint: allow(F001) -- replenish invariant: the chosen candidate passed candidate_valid above, so the retain/extend pass cannot have dropped it
            .expect("chosen candidate is valid and therefore retained");
        internal.chosen = row_u32(chosen_pos);
    }
}

/// A random node must be redrawn when the deletion empties one side (its
/// threshold fell outside the surviving code range) or violates the
/// leaf-size minimum the builder honored.
fn random_split_invalid(
    internal: &Internal,
    del_left: usize,
    del_right: usize,
    cfg: &DareConfig,
) -> bool {
    let left_n = internal.left.n() - row_u32(del_left);
    let right_n = internal.right.n() - row_u32(del_right);
    left_n < cfg.min_samples_leaf.max(1) || right_n < cfg.min_samples_leaf.max(1)
}

/// Whether the chosen split stopped being a split the builder could have
/// made: it no longer separates the node's data within the leaf-size
/// minimum. (Zero-gain splits are legal at build time, so gain alone never
/// kills a split — only being strictly beaten does, see
/// [`greedy_split_beaten`].)
fn chosen_split_dead(internal: &Internal, cfg: &DareConfig) -> bool {
    let chosen = &internal.candidates[internal.chosen as usize];
    !candidate_valid(chosen, internal.n, cfg)
}

/// After replenishment, the node must be rebuilt when some other cached
/// candidate now has a *strictly* better Gini gain (the paper's "improved
/// splitting criterion"). Ties never retrain — the builder's earliest-max
/// tie-break keeps the choice stable.
fn greedy_split_beaten(internal: &Internal, cfg: &DareConfig) -> bool {
    let chosen = &internal.candidates[internal.chosen as usize];
    let chosen_gain = gini_gain(internal.n, internal.n_pos, chosen.n_left, chosen.n_left_pos);
    match best_candidate(&internal.candidates, internal.n, internal.n_pos, cfg) {
        None => true,
        Some(best) => {
            let b = &internal.candidates[best];
            let best_gain = gini_gain(internal.n, internal.n_pos, b.n_left, b.n_left_pos);
            best_gain > chosen_gain + GAIN_EPS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MaxFeatures;
    use fume_tabular::{Attribute, Schema};
    use fume_tabular::rng::SeedableRng;
    use std::sync::Arc;

    fn data() -> Dataset {
        let schema = Arc::new(
            Schema::with_default_label(vec![
                Attribute::categorical("a", vec!["0".into(), "1".into(), "2".into()]),
                Attribute::categorical("b", vec!["0".into(), "1".into()]),
            ])
            .unwrap(),
        );
        let mut cols = vec![Vec::new(), Vec::new()];
        let mut labels = Vec::new();
        for i in 0..90usize {
            let a = (i % 3) as u16;
            let b = ((i / 3) % 2) as u16;
            cols[0].push(a);
            cols[1].push(b);
            // labels depend on a: a==2 mostly positive.
            labels.push(a == 2 || (a == 1 && i % 5 == 0));
        }
        Dataset::new(schema, cols, labels).unwrap()
    }

    fn cfg() -> DareConfig {
        DareConfig {
            random_depth: 0,
            max_features: MaxFeatures::All,
            max_depth: 6,
            ..DareConfig::default()
        }
    }

    fn build(d: &Dataset, rng: &mut StdRng, cfg: &DareConfig) -> Node {
        TreeBuilder::new(d, cfg).build(&mut d.all_row_ids(), 0, rng)
    }

    fn delete(
        root: &mut Node,
        del: &[u32],
        d: &Dataset,
        rng: &mut StdRng,
        cfg: &DareConfig,
        report: &mut DeleteReport,
    ) {
        let (r, records) = delete_from_tree(root, del, d, rng, cfg, JournalSink::Off);
        assert!(records.is_empty(), "an unjournaled pass records nothing");
        report.merge(&r);
    }

    fn validate(node: &Node, data: &Dataset, cfg: &DareConfig) {
        if let Node::Internal(i) = node {
            assert_eq!(i.n, i.left.n() + i.right.n(), "n consistency");
            assert_eq!(i.n_pos, i.left.n_pos() + i.right.n_pos(), "n_pos consistency");
            let mut left_ids = Vec::new();
            i.left.collect_ids(&mut left_ids);
            for id in left_ids {
                assert!(data.code(id as usize, i.attr as usize) <= i.threshold);
            }
            if !i.is_random {
                for c in &i.candidates {
                    let mut ids = Vec::new();
                    node.collect_ids(&mut ids);
                    let col = data.column(c.attr as usize);
                    let n_left = ids.iter().filter(|&&id| col[id as usize] <= c.threshold).count();
                    assert_eq!(c.n_left as usize, n_left, "candidate n_left stale");
                    assert!(candidate_valid(c, i.n, cfg), "invalid candidate retained");
                }
            }
            validate(&i.left, data, cfg);
            validate(&i.right, data, cfg);
        }
    }

    #[test]
    fn delete_keeps_statistics_exact() {
        let d = data();
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(10);
        let mut root = build(&d, &mut rng, &cfg);
        let mut report = DeleteReport::default();
        // Delete a batch spread across the space.
        let del: Vec<u32> = vec![0, 7, 14, 21, 28, 35, 42];
        delete(&mut root, &del, &d, &mut rng, &cfg, &mut report);
        assert_eq!(root.n() as usize, d.num_rows() - del.len());
        validate(&root, &d, &cfg);
        let mut ids = Vec::new();
        root.collect_ids(&mut ids);
        for id in &del {
            assert!(!ids.contains(id), "deleted id {id} survives");
        }
    }

    #[test]
    fn delete_everything_leaves_empty_leaf() {
        let d = data();
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(11);
        let mut root = build(&d, &mut rng, &cfg);
        let mut report = DeleteReport::default();
        delete(&mut root, &d.all_row_ids(), &d, &mut rng, &cfg, &mut report);
        assert_eq!(root.n(), 0);
        assert!(matches!(root, Node::Leaf(_)));
        assert!(report.subtrees_retrained >= 1);
    }

    #[test]
    fn delete_one_class_collapses_to_pure_leaf() {
        let d = data();
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(12);
        let mut root = build(&d, &mut rng, &cfg);
        let positives: Vec<u32> = (0..d.num_rows() as u32)
            .filter(|&r| d.label(r as usize))
            .collect();
        let mut report = DeleteReport::default();
        delete(&mut root, &positives, &d, &mut rng, &cfg, &mut report);
        assert!(matches!(root, Node::Leaf(_)), "pure data must collapse to a leaf");
        assert_eq!(root.n_pos(), 0);
        validate(&root, &d, &cfg);
    }

    #[test]
    fn sequential_deletions_stay_consistent() {
        let d = data();
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(13);
        let mut root = build(&d, &mut rng, &cfg);
        let mut remaining: Vec<u32> = d.all_row_ids();
        let mut report = DeleteReport::default();
        for step in 0..30 {
            let victim = remaining.remove((step * 7) % remaining.len());
            delete(&mut root, &[victim], &d, &mut rng, &cfg, &mut report);
            assert_eq!(root.n() as usize, remaining.len(), "step {step}");
            validate(&root, &d, &cfg);
        }
    }

    #[test]
    fn random_node_redrawn_when_side_empties() {
        let d = data();
        let mut cfg = cfg();
        cfg.random_depth = 1;
        let mut rng = StdRng::seed_from_u64(14);
        let mut root = build(&d, &mut rng, &cfg);
        let (attr, thr) = match &root {
            Node::Internal(i) => {
                assert!(i.is_random);
                (i.attr, i.threshold)
            }
            _ => panic!("expected internal root"),
        };
        // Delete the entire left side of the random root.
        let left_ids: Vec<u32> = (0..d.num_rows() as u32)
            .filter(|&r| d.code(r as usize, attr as usize) <= thr)
            .collect();
        let mut report = DeleteReport::default();
        delete(&mut root, &left_ids, &d, &mut rng, &cfg, &mut report);
        assert!(report.subtrees_retrained >= 1);
        validate(&root, &d, &cfg);
        assert_eq!(root.n() as usize, d.num_rows() - left_ids.len());
    }

    #[test]
    fn row_set_subtraction_removes_only_targets() {
        let deleted = RowSet::new(10, &[3, 9]);
        let mut ids = vec![5, 1, 9, 3, 7];
        ids.retain(|&id| !deleted.contains(id));
        assert_eq!(ids, vec![5, 1, 7]);
    }

    #[test]
    fn row_set_membership_at_word_edges() {
        let n_rows = 130;
        let last = n_rows as u32 - 1;
        let set = RowSet::new(n_rows, &[0, 63, 64, last]);
        for id in 0..n_rows as u32 {
            assert_eq!(set.contains(id), [0, 63, 64, last].contains(&id), "id {id}");
        }
        let full: Vec<u32> = (0..128).collect();
        let set = RowSet::new(128, &full);
        assert!(set.contains(0) && set.contains(63) && set.contains(64) && set.contains(127));
    }
}
