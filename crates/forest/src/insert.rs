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
use fume_tabular::rng::StdRng;
use fume_tabular::Dataset;

use crate::builder::TreeBuilder;
use crate::config::DareConfig;
use crate::node::{Internal, Node};

/// Counters describing what one insertion did to a tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertReport {
    /// Decision nodes whose statistics were updated in place.
    pub nodes_updated: usize,
    /// Subtrees (including grown leaves) that were rebuilt.
    pub subtrees_rebuilt: usize,
    /// Leaves that absorbed instances without structural change.
    pub leaves_updated: usize,
}

impl InsertReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: &InsertReport) {
        self.nodes_updated += other.nodes_updated;
        self.subtrees_rebuilt += other.subtrees_rebuilt;
        self.leaves_updated += other.leaves_updated;
    }
}

/// Whether the builder would split a leaf with these statistics at `depth`.
fn leaf_should_split(n: u32, n_pos: u32, depth: usize, cfg: &DareConfig) -> bool {
    n >= cfg.min_samples_split && n_pos > 0 && n_pos < n && depth < cfg.max_depth
}

/// Inserts the sorted id set `ins` into the tree rooted at `root`.
pub(crate) fn insert_into_tree(
    root: &mut Node,
    ins: &[u32],
    data: &Dataset,
    rng: &mut StdRng,
    cfg: &DareConfig,
) -> InsertReport {
    let mut pass = InsertPass {
        builder: TreeBuilder::new(data, cfg),
        cfg,
        rng,
        report: InsertReport::default(),
        ids: Vec::new(),
    };
    pass.insert(root, &mut ins.to_vec(), 0);
    pass.report
}

/// One top-down insertion pass over a tree.
struct InsertPass<'a> {
    /// Rebuilds subtrees; its scratch also partitions `ins` and
    /// histograms it per candidate run.
    builder: TreeBuilder<'a>,
    cfg: &'a DareConfig,
    rng: &'a mut StdRng,
    report: InsertReport,
    /// Ids of the subtree being rebuilt.
    ids: Vec<u32>,
}

impl InsertPass<'_> {
    /// Inserts `ins` into the subtree rooted at `node`, which sits at
    /// `depth`. Reorders `ins` (stable partitions).
    fn insert(&mut self, node: &mut Node, ins: &mut [u32], depth: usize) {
        if ins.is_empty() {
            return;
        }
        let cfg = self.cfg;
        let labels = self.builder.data().labels();
        let ins_pos = row_u32(ins.iter().filter(|&&id| labels[id as usize]).count());

        match node {
            Node::Leaf(leaf) => {
                leaf.ids.extend_from_slice(ins);
                leaf.n_pos += ins_pos;
                let (n, n_pos) = (row_u32(leaf.ids.len()), leaf.n_pos);
                if leaf_should_split(n, n_pos, depth, cfg) {
                    let mut ids = std::mem::take(&mut leaf.ids);
                    *node = self.builder.build(&mut ids, depth, self.rng);
                    let grew = matches!(node, Node::Internal(_));
                    self.report.subtrees_rebuilt += usize::from(grew);
                    self.report.leaves_updated += usize::from(!grew);
                } else {
                    self.report.leaves_updated += 1;
                }
            }
            Node::Internal(internal) => {
                internal.n += row_u32(ins.len());
                internal.n_pos += ins_pos;
                self.report.nodes_updated += 1;

                if !internal.is_random {
                    self.builder.count_delta(&mut internal.candidates, ins, |c, [n, p]| {
                        c.n_left += n;
                        c.n_left_pos += p;
                    });
                    if greedy_split_beaten_after_insert(internal, cfg) {
                        // Rebuild from the subtree's ids followed by `ins`,
                        // which this node has not partitioned yet.
                        self.ids.clear();
                        internal.left.collect_ids(&mut self.ids);
                        internal.right.collect_ids(&mut self.ids);
                        self.ids.extend_from_slice(ins);
                        *node = self.builder.build(&mut self.ids, depth, self.rng);
                        self.report.subtrees_rebuilt += 1;
                        return;
                    }
                }

                let n_left = self.builder.partition(ins, internal.attr, internal.threshold);
                let (ins_left, ins_right) = ins.split_at_mut(n_left);
                self.insert(&mut internal.left, ins_left, depth + 1);
                self.insert(&mut internal.right, ins_right, depth + 1);
            }
        }
    }
}

fn greedy_split_beaten_after_insert(internal: &Internal, cfg: &DareConfig) -> bool {
    use crate::builder::{best_candidate, candidate_valid, GAIN_EPS};
    use crate::gini::gini_gain;
    let chosen = &internal.candidates[internal.chosen as usize];
    if !candidate_valid(chosen, internal.n, cfg) {
        // Insertion only grows counts, but a chosen candidate can violate
        // the leaf minimum transiently if min_samples_leaf semantics
        // change; treat defensively.
        return true;
    }
    let chosen_gain =
        gini_gain(internal.n, internal.n_pos, chosen.n_left, chosen.n_left_pos);
    match best_candidate(&internal.candidates, internal.n, internal.n_pos, cfg) {
        None => true,
        Some(best) => {
            let b = &internal.candidates[best];
            gini_gain(internal.n, internal.n_pos, b.n_left, b.n_left_pos)
                > chosen_gain + GAIN_EPS
        }
    }
}

/// Dedicated leaf used when a forest is fitted on zero rows and instances
/// arrive later.
#[cfg(test)]
pub(crate) fn empty_leaf() -> Node {
    Node::Leaf(crate::node::Leaf { ids: Vec::new(), n_pos: 0 })
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
        let rest: Vec<u32> = (4..data.num_rows() as u32).collect();
        let report = tree.insert(&rest, &data, &cfg());
        assert!(report.subtrees_rebuilt > 0, "growth must split leaves");
        assert!(tree.root().depth() >= depth_before);
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
        let mut node = empty_leaf();
        let mut rng = fume_tabular::rng::SeedableRng::seed_from_u64(74);
        let ids: Vec<u32> = (0..40).collect();
        insert_into_tree(&mut node, &ids, &data, &mut rng, &cfg());
        assert_eq!(node.n(), 40);
    }
}
