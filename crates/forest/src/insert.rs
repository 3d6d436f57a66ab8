//! Incremental *addition* of training instances — the other half of the
//! DaRE paper's adaptivity (deletions and additions share the same
//! statistics machinery).
//!
//! Insertion mirrors deletion top-down:
//! * decision nodes absorb the new instances into their cached counts;
//! * a greedy node rebuilds its subtree when some cached candidate now has
//!   a strictly better Gini gain than the chosen split (the same
//!   criterion deletion uses);
//! * a leaf that the builder would now have split (big enough, impure,
//!   depth available) is rebuilt into a subtree.
//!
//! One documented approximation: random upper-layer nodes keep their
//! threshold even when new instances extend an attribute's observed
//! range, so the threshold's distribution can become slightly stale under
//! heavy insertion (deletion does not have this issue — an emptied side
//! always triggers a redraw). Greedy nodes, which carry all predictive
//! structure, are re-checked exactly.

use fume_tabular::cast::row_u32;
use fume_tabular::Dataset;

use crate::builder::{candidate_valid, BuildWork, TreeBuilder};
use crate::config::DareConfig;
use crate::delete::greedy_split_beaten;
use crate::journal::Link;
use crate::node::{slot_u32, NodeStore};
use crate::tree::{DareTree, Scratch};

/// Counters describing what one insertion did to a tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertReport {
    /// Decision nodes whose statistics were updated in place.
    pub nodes_updated: usize,
    /// Subtrees (including grown leaves) that were rebuilt.
    pub subtrees_rebuilt: usize,
    /// Leaves that absorbed instances without structural change.
    pub leaves_updated: usize,
    /// Nodes built and rows histogrammed and partitioned.
    pub work: BuildWork,
}

impl InsertReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: &InsertReport) {
        self.nodes_updated += other.nodes_updated;
        self.subtrees_rebuilt += other.subtrees_rebuilt;
        self.leaves_updated += other.leaves_updated;
        self.work.merge(&other.work);
    }
}

/// Whether the builder would split a leaf with these statistics at `depth`.
fn leaf_should_split(n: u32, n_pos: u32, depth: usize, cfg: &DareConfig) -> bool {
    n >= cfg.min_samples_split && n_pos > 0 && n_pos < n && depth < cfg.max_depth
}

/// Inserts the sorted id set `ins` into `tree`.
pub(crate) fn insert_into_tree(
    tree: &mut DareTree,
    ins: &[u32],
    data: &Dataset,
    cfg: &DareConfig,
) -> InsertReport {
    let mut scratch = std::mem::take(&mut tree.scratch);
    scratch.batch.clear();
    scratch.batch.extend_from_slice(ins);
    let Scratch { build, batch, ids, .. } = &mut scratch;
    let mut pass = InsertPass {
        builder: TreeBuilder::with_buffers(data, cfg, std::mem::take(build)),
        cfg,
        tree: &mut *tree,
        report: InsertReport::default(),
        ids,
    };
    let root = pass.tree.root;
    pass.insert(root, batch, 0, Link::Root);
    let deepest = pass.builder.deepest();
    let report = InsertReport { work: pass.builder.work(), ..pass.report };
    *build = pass.builder.into_buffers();
    tree.steps = tree.steps.max(deepest);
    tree.scratch = scratch;
    report
}

/// One top-down insertion pass over a tree.
struct InsertPass<'a> {
    /// Rebuilds subtrees; its scratch also partitions `ins` and
    /// histograms it per candidate run.
    builder: TreeBuilder<'a>,
    cfg: &'a DareConfig,
    tree: &'a mut DareTree,
    report: InsertReport,
    /// Ids of the subtree being rebuilt.
    ids: &'a mut Vec<u32>,
}

impl InsertPass<'_> {
    /// Inserts `ins` into the subtree at `slot`, which sits at `depth` and
    /// hangs from `link`. Reorders `ins` (stable partitions).
    fn insert(&mut self, slot: u32, ins: &mut [u32], depth: usize, link: Link) {
        if ins.is_empty() {
            return;
        }
        let cfg = self.cfg;
        let labels = self.builder.data().labels();
        let ins_pos = row_u32(ins.iter().filter(|&&id| labels[id as usize]).count());
        let store = &mut self.tree.store;
        let cold = store.cold[slot as usize];

        if store.is_leaf(slot) {
            let (n, n_pos) = (cold.n + row_u32(ins.len()), cold.n_pos + ins_pos);
            if leaf_should_split(n, n_pos, depth, cfg) {
                // Rebuild from the leaf's ids followed by `ins`.
                self.ids.clear();
                self.ids.extend_from_slice(store.leaf_ids(slot));
                self.ids.extend_from_slice(ins);
                let rebuilt = self.rebuild(depth, link, 1);
                let grew = !self.tree.store.is_leaf(rebuilt);
                self.report.subtrees_rebuilt += usize::from(grew);
                self.report.leaves_updated += usize::from(!grew);
            } else {
                // The ids grow in place at the end of the array; a leaf
                // anywhere else moves its range there first.
                let end = (cold.lo + cold.len) as usize;
                if end != store.ids.len() {
                    let lo = slot_u32(store.ids.len());
                    store.ids.extend_from_within(cold.lo as usize..end);
                    store.cold[slot as usize].lo = lo;
                }
                store.ids.extend_from_slice(ins);
                store.set_leaf_counts(slot, n, n_pos);
                self.report.leaves_updated += 1;
            }
            return;
        }

        let node = &mut store.cold[slot as usize];
        node.n += row_u32(ins.len());
        node.n_pos += ins_pos;
        self.report.nodes_updated += 1;
        let hot = store.hot[slot as usize];
        let [left, right] = hot.kids;

        if !cold.random {
            self.builder.count_delta(store.pool_mut(slot), ins, |c, [n, p]| {
                c.n_left += n;
                c.n_left_pos += p;
            });
            if greedy_split_beaten_after_insert(store, slot, cfg) {
                // Rebuild from the subtree's ids followed by `ins`, which
                // this node has not partitioned yet.
                self.ids.clear();
                store.collect_ids(left, self.ids);
                store.collect_ids(right, self.ids);
                self.ids.extend_from_slice(ins);
                let displaced = slot_u32(store.node(slot).size());
                self.rebuild(depth, link, displaced);
                self.report.subtrees_rebuilt += 1;
                return;
            }
        }

        let n_left = self.builder.partition(ins, hot.attr, hot.threshold);
        let (ins_left, ins_right) = ins.split_at_mut(n_left);
        self.insert(left, ins_left, depth + 1, Link::Child { parent: slot, right: false });
        self.insert(right, ins_right, depth + 1, Link::Child { parent: slot, right: true });
    }

    /// Appends a subtree built from `self.ids`, hangs it from `link` in
    /// place of a subtree of `displaced` slots, and returns its root.
    fn rebuild(&mut self, depth: usize, link: Link, displaced: u32) -> u32 {
        let tree = &mut *self.tree;
        let rebuilt = self.builder.build(&mut tree.store, self.ids, depth, &mut tree.rng);
        tree.relink(link, rebuilt);
        tree.orphans += displaced;
        rebuilt
    }
}

fn greedy_split_beaten_after_insert(store: &NodeStore, slot: u32, cfg: &DareConfig) -> bool {
    let cold = store.cold[slot as usize];
    if !candidate_valid(&store.pool(slot)[cold.chosen as usize], cold.n, cfg) {
        // Insertion only grows counts, but a chosen candidate can violate
        // the leaf minimum transiently if min_samples_leaf semantics
        // change; treat defensively.
        return true;
    }
    greedy_split_beaten(store, slot, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MaxFeatures;
    use crate::validate::validate_tree;
    use crate::DareTree;
    use fume_tabular::datasets::planted_toy;

    fn cfg() -> DareConfig {
        DareConfig {
            max_depth: 7,
            random_depth: 1,
            max_features: MaxFeatures::All,
            n_trees: 1,
            ..DareConfig::default()
        }
    }

    #[test]
    fn inserting_held_out_rows_keeps_statistics_exact() {
        let (data, _) = planted_toy().generate_scaled(0.2, 71).unwrap();
        let half: Vec<u32> = (0..(data.num_rows() / 2) as u32).collect();
        let rest: Vec<u32> = ((data.num_rows() / 2) as u32..data.num_rows() as u32).collect();
        let mut tree = DareTree::fit(&data, half, &cfg(), 71);
        let report = tree.insert(&rest, &data, &cfg());
        assert_eq!(tree.num_instances() as usize, data.num_rows());
        assert!(report.nodes_updated + report.leaves_updated > 0);
        let v = validate_tree(&tree, &data, &cfg());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn leaves_split_as_they_grow() {
        let (data, _) = planted_toy().generate_scaled(0.25, 72).unwrap();
        // Start from a tiny seed set: mostly leaves.
        let seed_ids: Vec<u32> = (0..4).collect();
        let mut tree = DareTree::fit(&data, seed_ids, &cfg(), 72);
        let depth_before = tree.root().depth();
        let slots_before = tree.store().len();
        let rest: Vec<u32> = (4..data.num_rows() as u32).collect();
        let report = tree.insert(&rest, &data, &cfg());
        assert!(report.subtrees_rebuilt > 0, "growth must split leaves");
        assert!(tree.root().depth() >= depth_before);
        assert!(tree.store().len() > slots_before);
        let live = tree.root().size();
        assert!(tree.store().len() - live <= live, "displaced slots never outnumber live ones");
        let v = validate_tree(&tree, &data, &cfg());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn delete_then_insert_roundtrip_stays_valid() {
        let (data, _) = planted_toy().generate_scaled(0.2, 73).unwrap();
        let mut tree = DareTree::fit(&data, data.all_row_ids(), &cfg(), 73);
        let batch: Vec<u32> = (50..120).collect();
        tree.delete(&batch, &data, &cfg());
        tree.insert(&batch, &data, &cfg());
        assert_eq!(tree.num_instances() as usize, data.num_rows());
        let v = validate_tree(&tree, &data, &cfg());
        assert!(v.is_empty(), "{v:?}");
        // Roundtrip preserves the *id set* (the model itself may differ in
        // structure — both are draws from the same distribution).
        assert_eq!(tree.instance_ids(), data.all_row_ids());
    }

    #[test]
    fn empty_leaf_accepts_first_instances() {
        let (data, _) = planted_toy().generate_scaled(0.1, 74).unwrap();
        let mut tree = DareTree::fit(&data, Vec::new(), &cfg(), 74);
        assert!(tree.root().is_leaf());
        let ids: Vec<u32> = (0..40).collect();
        tree.insert(&ids, &data, &cfg());
        assert_eq!(tree.num_instances(), 40);
        let v = validate_tree(&tree, &data, &cfg());
        assert!(v.is_empty(), "{v:?}");
    }
}
