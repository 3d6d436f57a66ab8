//! Exact unlearning: batch deletion of training instances from a tree.
//!
//! The saved statistics decide, top-down, whether each node can absorb the
//! deletion by updating counts (cheap) or whether its subtree must be
//! rebuilt from the surviving instances (rare). Decision rules mirror the
//! build rules exactly, so an unlearned tree is always a tree the builder
//! *could* have produced on the surviving data — DaRE's exactness
//! guarantee.
//!
//! A pass works on the tree's [node store](crate::node) in place: counts
//! and pools are overwritten, a leaf's ids are filtered within its range,
//! and a rebuild appends the new subtree and repoints one link. With an
//! undo log attached, every such write is recorded first.

use fume_tabular::cast::row_u32;
use fume_tabular::Dataset;

use crate::builder::{best_candidate, candidate_valid, BuildWork, TreeBuilder, GAIN_EPS};
use crate::config::DareConfig;
use crate::gini::gini_gain;
use crate::journal::{Link, UndoLog};
use crate::node::{Candidate, Cold, NodeStore};
use crate::tree::{DareTree, Scratch};

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
    /// Nodes built and rows histogrammed and partitioned, rebuilds and
    /// replenishments included.
    pub work: BuildWork,
}

impl DeleteReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: &DeleteReport) {
        self.nodes_updated += other.nodes_updated;
        self.subtrees_retrained += other.subtrees_retrained;
        self.leaves_updated += other.leaves_updated;
        self.candidates_replenished += other.candidates_replenished;
        self.work.merge(&other.work);
    }
}

/// Membership bitset over a dataset's rows.
#[derive(Debug, Default)]
pub(crate) struct RowSet {
    words: Vec<u64>,
}

impl RowSet {
    /// Makes this the set of `ids`, each below `n_rows`.
    fn reset(&mut self, n_rows: usize, ids: &[u32]) {
        self.words.clear();
        self.words.resize(n_rows.div_ceil(64), 0);
        for &id in ids {
            self.words[id as usize / 64] |= 1 << (id % 64);
        }
    }

    /// Whether `id` is in the set.
    #[inline]
    fn contains(&self, id: u32) -> bool {
        self.words[id as usize / 64] >> (id % 64) & 1 == 1
    }
}

/// Moves the ids of `ids` that `deleted` does not hold to its front, in
/// order, and returns how many there are. Branch-free: each id is written
/// at the cursor, never ahead of the read position, and the cursor
/// advances past survivors only.
fn keep_survivors(ids: &mut [u32], deleted: &RowSet) -> usize {
    let mut kept = 0;
    for i in 0..ids.len() {
        let id = ids[i];
        ids[kept] = id;
        kept += usize::from(!deleted.contains(id));
    }
    kept
}

/// Appends the ids under `slot` that `deleted` does not hold, leaves left
/// to right, and returns how many slots the subtree spans.
fn collect_survivors(store: &NodeStore, slot: u32, deleted: &RowSet, out: &mut Vec<u32>) -> u32 {
    if store.is_leaf(slot) {
        let start = out.len();
        out.extend_from_slice(store.leaf_ids(slot));
        let kept = keep_survivors(&mut out[start..], deleted);
        out.truncate(start + kept);
        return 1;
    }
    let [left, right] = store.hot[slot as usize].kids;
    1 + collect_survivors(store, left, deleted, out) + collect_survivors(store, right, deleted, out)
}

/// Deletes `del` (sorted, deduplicated, all present in the tree) from
/// `tree`. When `log` is given, records into it everything the deletion
/// changes in place, so the tree can be rolled back.
pub(crate) fn delete_from_tree(
    tree: &mut DareTree,
    del: &[u32],
    data: &Dataset,
    cfg: &DareConfig,
    log: Option<&mut UndoLog>,
) -> DeleteReport {
    let mut scratch = std::mem::take(&mut tree.scratch);
    scratch.deleted.reset(data.num_rows(), del);
    scratch.batch.clear();
    scratch.batch.extend_from_slice(del);
    let Scratch { build, batch, ids, pool, lost, deleted, .. } = &mut scratch;
    let mut pass = DeletePass {
        builder: TreeBuilder::with_buffers(data, cfg, std::mem::take(build)),
        cfg,
        tree: &mut *tree,
        log,
        report: DeleteReport::default(),
        deleted,
        survivors: ids,
        pool,
        lost,
    };
    let root = pass.tree.root;
    pass.delete(root, batch, 0, Link::Root);
    let deepest = pass.builder.deepest();
    let report = DeleteReport { work: pass.builder.work(), ..pass.report };
    *build = pass.builder.into_buffers();
    tree.steps = tree.steps.max(deepest);
    tree.scratch = scratch;
    report
}

/// One top-down deletion pass over a tree: the shared traversal behind
/// both the destructive delete and the journaled delete+rollback path.
struct DeletePass<'a> {
    /// Rebuilds subtrees and samples replenished candidates; its scratch
    /// also partitions `del` and histograms it per candidate run.
    builder: TreeBuilder<'a>,
    cfg: &'a DareConfig,
    tree: &'a mut DareTree,
    log: Option<&'a mut UndoLog>,
    report: DeleteReport,
    /// Every row this pass deletes.
    deleted: &'a RowSet,
    /// Surviving ids of the subtree being rebuilt or replenished.
    survivors: &'a mut Vec<u32>,
    /// The new pool of the node being replenished, staged before it is
    /// written back over the old one.
    pool: &'a mut Vec<Candidate>,
    /// `(attribute, candidates lost)` of the node being replenished.
    lost: &'a mut Vec<(u16, usize)>,
}

impl DeletePass<'_> {
    /// Deletes `del` (deduplicated, all present under `slot`) from the
    /// subtree at `slot`, which sits at `depth` and hangs from `link`.
    /// Reorders `del` (stable partitions).
    fn delete(&mut self, slot: u32, del: &mut [u32], depth: usize, link: Link) {
        if del.is_empty() {
            return;
        }
        let cfg = self.cfg;
        let labels = self.builder.data().labels();
        let del_pos = row_u32(del.iter().filter(|&&id| labels[id as usize]).count());
        let store = &mut self.tree.store;
        let cold = store.cold[slot as usize];

        if store.is_leaf(slot) {
            if let Some(log) = self.log.as_deref_mut() {
                log.leaf(slot, cold, store.leaf_ids(slot));
            }
            let ids = &mut store.ids[cold.lo as usize..(cold.lo + cold.len) as usize];
            let kept = keep_survivors(ids, self.deleted);
            store.set_leaf_counts(slot, row_u32(kept), cold.n_pos - del_pos);
            self.report.leaves_updated += 1;
            return;
        }

        let new_n = cold.n - row_u32(del.len());
        let new_n_pos = cold.n_pos - del_pos;
        // The builder would now make this node a leaf: rebuild.
        if new_n < cfg.min_samples_split || new_n_pos == 0 || new_n_pos == new_n {
            self.rebuild(slot, depth, link);
            return;
        }

        if let Some(log) = self.log.as_deref_mut() {
            log.stats(slot, cold, store.pool(slot));
        }
        let node = &mut store.cold[slot as usize];
        node.n = new_n;
        node.n_pos = new_n_pos;
        self.report.nodes_updated += 1;

        let hot = store.hot[slot as usize];
        let n_left = self.builder.partition(del, hot.attr, hot.threshold);

        let retrain = if cold.random {
            random_split_invalid(store, hot.kids, n_left, del.len() - n_left, cfg)
        } else {
            self.builder.count_delta(store.pool_mut(slot), del, |c, [n, p]| {
                c.n_left -= n;
                c.n_left_pos -= p;
            });
            // The chosen split must stay valid and improving; if so,
            // resample any invalidated candidate thresholds *before*
            // re-checking optimality (a fresh candidate may win).
            chosen_split_dead(store, slot, cfg) || {
                self.replenish_candidates(slot);
                greedy_split_beaten(&self.tree.store, slot, cfg)
            }
        };

        if retrain {
            self.rebuild(slot, depth, link);
            return;
        }

        let (del_left, del_right) = del.split_at_mut(n_left);
        let [left, right] = hot.kids;
        self.delete(left, del_left, depth + 1, Link::Child { parent: slot, right: false });
        self.delete(right, del_right, depth + 1, Link::Child { parent: slot, right: true });
    }

    /// Appends a subtree built from the surviving instances under `slot`,
    /// in their order within the old subtree, and hangs it where `slot`
    /// hung. The old subtree stays in place, unreachable.
    fn rebuild(&mut self, slot: u32, depth: usize, link: Link) {
        self.survivors.clear();
        let tree = &mut *self.tree;
        let displaced = collect_survivors(&tree.store, slot, self.deleted, self.survivors);
        let rebuilt = self.builder.build(&mut tree.store, self.survivors, depth, &mut tree.rng);
        tree.relink(link, rebuilt);
        tree.orphans += displaced;
        if let Some(log) = self.log.as_deref_mut() {
            log.relink(link, slot, row_u32(depth));
        }
        self.report.subtrees_retrained += 1;
    }

    /// Replaces cached candidates that stopped separating the node's data
    /// with freshly sampled thresholds from the surviving instances,
    /// keeping the candidate pool full for future deletions (the
    /// `O(|D| log |D|)` threshold-resampling step of the DaRE paper).
    fn replenish_candidates(&mut self, slot: u32) {
        let cfg = self.cfg;
        let store = &mut self.tree.store;
        let cold = store.cold[slot as usize];
        let n = cold.n;
        let old = store.pool(slot);
        if old.iter().all(|c| candidate_valid(c, n, cfg)) {
            return;
        }
        self.report.candidates_replenished += 1;
        // The pool is about to be restructured: journal it wholesale.
        if let Some(log) = self.log.as_deref_mut() {
            log.pool(slot, cold, old);
        }

        // Identify the chosen candidate before the pool is filtered.
        let chosen_key = {
            let c = &old[cold.chosen as usize];
            (c.attr, c.threshold)
        };

        // Count how many candidates each attribute lost, and stage the
        // valid ones.
        self.lost.clear();
        for c in old {
            if !candidate_valid(c, n, cfg) {
                match self.lost.iter_mut().find(|(a, _)| *a == c.attr) {
                    Some((_, k)) => *k += 1,
                    None => self.lost.push((c.attr, 1)),
                }
            }
        }
        self.pool.clear();
        self.pool.extend(old.iter().filter(|c| candidate_valid(c, n, cfg)));

        // The surviving instances of this node, needed for fresh histograms.
        self.survivors.clear();
        let [left, right] = store.hot[slot as usize].kids;
        collect_survivors(store, left, self.deleted, self.survivors);
        collect_survivors(store, right, self.deleted, self.survivors);

        for &(attr, k) in self.lost.iter() {
            self.builder.replenish(self.pool, self.survivors, attr, k, &mut self.tree.rng);
        }

        // Re-locate the chosen candidate after the reshuffle.
        let chosen_pos = self
            .pool
            .iter()
            .position(|c| (c.attr, c.threshold) == chosen_key)
            // fume-lint: allow(F001) -- replenish invariant: the chosen candidate passed candidate_valid above, so the retain/extend pass cannot have dropped it
            .expect("chosen candidate is valid and therefore retained");
        // Each lost cut is replaced by at most one fresh one, so the new
        // pool fits in the range the old one occupies.
        debug_assert!(self.pool.len() <= cold.len as usize, "replenishment grew the pool");
        let store = &mut self.tree.store;
        let node = &mut store.cold[slot as usize];
        node.len = row_u32(self.pool.len());
        node.chosen = row_u32(chosen_pos);
        store.pool_mut(slot).copy_from_slice(self.pool.as_slice());
    }
}

/// A random node must be redrawn when the deletion empties one side (its
/// threshold fell outside the surviving code range) or violates the
/// leaf-size minimum the builder honored.
fn random_split_invalid(
    store: &NodeStore,
    [left, right]: [u32; 2],
    del_left: usize,
    del_right: usize,
    cfg: &DareConfig,
) -> bool {
    let left_n = store.cold[left as usize].n - row_u32(del_left);
    let right_n = store.cold[right as usize].n - row_u32(del_right);
    left_n < cfg.min_samples_leaf.max(1) || right_n < cfg.min_samples_leaf.max(1)
}

/// Whether the chosen split stopped being a split the builder could have
/// made: it no longer separates the node's data within the leaf-size
/// minimum. (Zero-gain splits are legal at build time, so gain alone never
/// kills a split — only being strictly beaten does, see
/// [`greedy_split_beaten`].)
fn chosen_split_dead(store: &NodeStore, slot: u32, cfg: &DareConfig) -> bool {
    let cold = store.cold[slot as usize];
    !candidate_valid(&store.pool(slot)[cold.chosen as usize], cold.n, cfg)
}

/// After replenishment, the node must be rebuilt when some other cached
/// candidate now has a *strictly* better Gini gain (the paper's "improved
/// splitting criterion"). Ties never retrain — the builder's earliest-max
/// tie-break keeps the choice stable.
pub(crate) fn greedy_split_beaten(store: &NodeStore, slot: u32, cfg: &DareConfig) -> bool {
    let Cold { n, n_pos, chosen, .. } = store.cold[slot as usize];
    let pool = store.pool(slot);
    let chosen = &pool[chosen as usize];
    let chosen_gain = gini_gain(n, n_pos, chosen.n_left, chosen.n_left_pos);
    match best_candidate(pool, n, n_pos, cfg) {
        None => true,
        Some((_, best_gain)) => best_gain > chosen_gain + GAIN_EPS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MaxFeatures;
    use crate::node::NodeRef;
    use fume_tabular::rng::{Rng, SeedableRng, StdRng};
    use fume_tabular::{Attribute, Schema};
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

    fn build(d: &Dataset, seed: u64, cfg: &DareConfig) -> DareTree {
        DareTree::fit(d, d.all_row_ids(), cfg, seed)
    }

    fn delete(
        tree: &mut DareTree,
        del: &[u32],
        d: &Dataset,
        cfg: &DareConfig,
        report: &mut DeleteReport,
    ) {
        report.merge(&tree.delete(del, d, cfg));
    }

    fn validate(node: NodeRef<'_>, data: &Dataset, cfg: &DareConfig) {
        if let Some([left, right]) = node.children() {
            assert_eq!(node.n(), left.n() + right.n(), "n consistency");
            assert_eq!(node.n_pos(), left.n_pos() + right.n_pos(), "n_pos consistency");
            let mut left_ids = Vec::new();
            left.collect_ids(&mut left_ids);
            for id in left_ids {
                assert!(data.code(id as usize, node.attr() as usize) <= node.threshold());
            }
            if !node.is_random() {
                for c in node.candidates() {
                    let mut ids = Vec::new();
                    node.collect_ids(&mut ids);
                    let col = data.column(c.attr as usize);
                    let n_left = ids.iter().filter(|&&id| col[id as usize] <= c.threshold).count();
                    assert_eq!(c.n_left as usize, n_left, "candidate n_left stale");
                    assert!(candidate_valid(c, node.n(), cfg), "invalid candidate retained");
                }
            }
            validate(left, data, cfg);
            validate(right, data, cfg);
        }
    }

    #[test]
    fn delete_keeps_statistics_exact() {
        let d = data();
        let cfg = cfg();
        let mut tree = build(&d, 10, &cfg);
        let mut report = DeleteReport::default();
        // Delete a batch spread across the space.
        let del: Vec<u32> = vec![0, 7, 14, 21, 28, 35, 42];
        delete(&mut tree, &del, &d, &cfg, &mut report);
        assert_eq!(tree.num_instances() as usize, d.num_rows() - del.len());
        validate(tree.root(), &d, &cfg);
        let ids = tree.instance_ids();
        for id in &del {
            assert!(!ids.contains(id), "deleted id {id} survives");
        }
    }

    #[test]
    fn delete_everything_leaves_empty_leaf() {
        let d = data();
        let cfg = cfg();
        let mut tree = build(&d, 11, &cfg);
        let mut report = DeleteReport::default();
        delete(&mut tree, &d.all_row_ids(), &d, &cfg, &mut report);
        assert_eq!(tree.num_instances(), 0);
        assert!(tree.root().is_leaf());
        assert!(report.subtrees_retrained >= 1);
        assert_eq!(tree.store().len(), 1, "compaction drops the displaced slots");
    }

    #[test]
    fn delete_one_class_collapses_to_pure_leaf() {
        let d = data();
        let cfg = cfg();
        let mut tree = build(&d, 12, &cfg);
        let positives: Vec<u32> = (0..d.num_rows() as u32)
            .filter(|&r| d.label(r as usize))
            .collect();
        let mut report = DeleteReport::default();
        delete(&mut tree, &positives, &d, &cfg, &mut report);
        assert!(tree.root().is_leaf(), "pure data must collapse to a leaf");
        assert_eq!(tree.root().n_pos(), 0);
        validate(tree.root(), &d, &cfg);
    }

    #[test]
    fn sequential_deletions_stay_consistent() {
        let d = data();
        let cfg = cfg();
        let mut tree = build(&d, 13, &cfg);
        let mut remaining: Vec<u32> = d.all_row_ids();
        let mut report = DeleteReport::default();
        for step in 0..30 {
            let victim = remaining.remove((step * 7) % remaining.len());
            delete(&mut tree, &[victim], &d, &cfg, &mut report);
            assert_eq!(tree.num_instances() as usize, remaining.len(), "step {step}");
            validate(tree.root(), &d, &cfg);
        }
    }

    #[test]
    fn random_node_redrawn_when_side_empties() {
        let d = data();
        let mut cfg = cfg();
        cfg.random_depth = 1;
        let mut tree = build(&d, 14, &cfg);
        let root = tree.root();
        assert!(!root.is_leaf() && root.is_random(), "expected a random root");
        let (attr, thr) = (root.attr(), root.threshold());
        // Delete the entire left side of the random root.
        let left_ids: Vec<u32> = (0..d.num_rows() as u32)
            .filter(|&r| d.code(r as usize, attr as usize) <= thr)
            .collect();
        let mut report = DeleteReport::default();
        delete(&mut tree, &left_ids, &d, &cfg, &mut report);
        assert!(report.subtrees_retrained >= 1);
        validate(tree.root(), &d, &cfg);
        assert_eq!(tree.num_instances() as usize, d.num_rows() - left_ids.len());
    }

    #[test]
    fn row_set_subtraction_removes_only_targets() {
        let mut deleted = RowSet::default();
        deleted.reset(10, &[3, 9]);
        let mut ids = vec![5, 1, 9, 3, 7];
        ids.retain(|&id| !deleted.contains(id));
        assert_eq!(ids, vec![5, 1, 7]);
    }

    /// The leaf filter and `collect_survivors` keep exactly what `retain`
    /// keeps, in order, from deleting nothing up to deleting everything.
    #[test]
    fn survivor_filters_match_retain() {
        let d = data();
        let cfg = cfg();
        let tree = build(&d, 15, &cfg);
        let rows = d.num_rows() as u32;
        let mut rng = StdRng::seed_from_u64(16);
        let mut deleted = RowSet::default();
        for round in 0..60 {
            let share = f64::from(round) / 59.0;
            let del: Vec<u32> = (0..rows).filter(|_| rng.gen_bool(share)).collect();
            deleted.reset(d.num_rows(), &del);

            let len = rng.gen_range(0..=300usize);
            let ids: Vec<u32> = (0..len).map(|_| rng.gen_range(0..rows)).collect();
            let mut expected = ids.clone();
            expected.retain(|&id| !deleted.contains(id));
            let mut got = ids;
            let kept = keep_survivors(&mut got, &deleted);
            assert_eq!(&got[..kept], &expected[..], "round {round}");

            let mut survivors = Vec::new();
            tree.root().collect_ids(&mut survivors);
            survivors.retain(|&id| !deleted.contains(id));
            let mut out = vec![u32::MAX]; // appended to, never overwritten
            let span = collect_survivors(&tree.store, tree.root, &deleted, &mut out);
            assert_eq!(out[0], u32::MAX);
            assert_eq!(&out[1..], &survivors[..], "round {round}");
            assert_eq!(span as usize, tree.root().size());
        }
    }

    #[test]
    fn row_set_membership_at_word_edges() {
        let n_rows = 130;
        let last = n_rows as u32 - 1;
        let mut set = RowSet::default();
        set.reset(n_rows, &[0, 63, 64, last]);
        for id in 0..n_rows as u32 {
            assert_eq!(set.contains(id), [0, 63, 64, last].contains(&id), "id {id}");
        }
        let full: Vec<u32> = (0..128).collect();
        set.reset(128, &full);
        assert!(set.contains(0) && set.contains(63) && set.contains(64) && set.contains(127));
        // A reset forgets the previous set.
        set.reset(128, &[5]);
        assert!(set.contains(5) && !set.contains(0));
    }
}
