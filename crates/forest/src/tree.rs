//! A single DaRE tree: construction, prediction, unlearning and
//! structural introspection.

use fume_tabular::Dataset;
use fume_tabular::rng::{SeedableRng, StdRng};

use crate::builder::TreeBuilder;
use crate::config::DareConfig;
use crate::delete::{delete_from_tree, DeleteReport};
use crate::insert::{insert_into_tree, InsertReport};
use crate::journal::{rollback_records, JournalSink, NodePath, TreeUndo};
use crate::node::Node;

/// A decision tree supporting exact unlearning of training instances.
///
/// The tree owns a deterministic RNG stream that is consumed both at build
/// time and by deletion-triggered subtree retrains, so a cloned tree
/// replays identically.
#[derive(Debug, Clone, PartialEq)]
pub struct DareTree {
    root: Node,
    rng: StdRng,
}

impl DareTree {
    /// Trains a tree on the instances `ids` of `data`.
    pub fn fit(data: &Dataset, mut ids: Vec<u32>, cfg: &DareConfig, seed: u64) -> Self {
        // fume-lint: allow(F003) -- seed provenance: derived by DareForest::fit_on from config.seed and the tree index, so the stream is reproducible per (config, tree)
        let mut rng = StdRng::seed_from_u64(seed);
        let root = TreeBuilder::new(data, cfg).build(&mut ids, 0, &mut rng);
        Self { root, rng }
    }

    /// Reconstructs a tree from a persisted root. The RNG stream restarts
    /// from a seed derived deterministically from the forest seed and the
    /// tree's `index` (see `persist` module docs for the reseeding
    /// caveat).
    pub(crate) fn from_saved(root: Node, cfg: &DareConfig, index: usize) -> Self {
        let seed = cfg
            .seed
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(index as u64)
            .rotate_left(17);
        // fume-lint: allow(F003) -- seed provenance: reseeded deterministically from (config.seed, tree index); see the persist module's reseeding caveat
        Self { root, rng: StdRng::seed_from_u64(seed) }
    }

    /// Positive-class probability for `row` of `data`.
    pub fn predict_row(&self, data: &Dataset, row: usize) -> f64 {
        self.root.predict_row(data, row)
    }

    /// The probability at the leaf addressed by `path` — the vote of
    /// every row routed there, in the bits a full walk would produce.
    /// The routing index uses this to refresh all rows cached at a
    /// journal-edited leaf with a single lookup instead of one walk per
    /// row. Panics if `path` names an internal node: callers pass leaf
    /// addresses recorded by this tree's own journal, outside any
    /// rebuilt subtree, so the address still resolves to that leaf.
    pub fn proba_at(&self, path: NodePath) -> f64 {
        match path.locate(&self.root) {
            Node::Leaf(leaf) => leaf.proba(),
            // fume-lint: allow(F001) -- contract documented above: journal Leaf records only ever address leaves, and rebuilt cones are excluded by the caller; reaching an internal node means a corrupted journal, not a recoverable state
            Node::Internal(_) => panic!("proba_at: {path:?} addresses an internal node"),
        }
    }

    /// Unlearns the training instances `del` (must be sorted, deduplicated
    /// and present in the tree). Statistics are updated in place; subtrees
    /// are rebuilt from surviving instances only where the cached
    /// statistics prove it necessary.
    pub fn delete(&mut self, del: &[u32], data: &Dataset, cfg: &DareConfig) -> DeleteReport {
        debug_assert!(del.windows(2).all(|w| w[0] < w[1]), "ids must be sorted unique");
        delete_from_tree(&mut self.root, del, data, &mut self.rng, cfg, JournalSink::Off).0
    }

    /// [`Self::delete`] with an undo journal: performs the same deletion
    /// while recording every mutated statistic, edited leaf, displaced
    /// subtree, and the pre-delete RNG state, so that
    /// [`Self::rollback`] restores the tree byte-identically.
    pub fn delete_journaled(
        &mut self,
        del: &[u32],
        data: &Dataset,
        cfg: &DareConfig,
    ) -> (DeleteReport, TreeUndo) {
        debug_assert!(del.windows(2).all(|w| w[0] < w[1]), "ids must be sorted unique");
        let rng_before = self.rng.clone();
        let journal = JournalSink::On(Vec::new());
        let (report, records) =
            delete_from_tree(&mut self.root, del, data, &mut self.rng, cfg, journal);
        (report, TreeUndo { records, rng: rng_before })
    }

    /// Undoes a journaled deletion, restoring the tree — structure,
    /// statistics, candidate pools, leaf instance lists and RNG stream —
    /// to exactly its pre-delete state. Returns the number of node
    /// restorations applied.
    ///
    /// `undo` must come from this tree's most recent
    /// [`Self::delete_journaled`]; replaying a foreign or stale journal
    /// corrupts the tree.
    pub fn rollback(&mut self, undo: TreeUndo) -> usize {
        let restored = rollback_records(&mut self.root, undo.records);
        self.rng = undo.rng;
        restored
    }

    /// Incrementally learns the additional training instances `ins`
    /// (sorted, deduplicated, not already present). Leaves grow and split
    /// as the builder would have; greedy nodes rebuild when a cached
    /// candidate overtakes the chosen split.
    pub fn insert(&mut self, ins: &[u32], data: &Dataset, cfg: &DareConfig) -> InsertReport {
        debug_assert!(ins.windows(2).all(|w| w[0] < w[1]), "ids must be sorted unique");
        insert_into_tree(&mut self.root, ins, data, &mut self.rng, cfg)
    }

    /// The root node, for read-only structural walks (path mining,
    /// validation).
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Number of training instances currently in the tree.
    pub fn num_instances(&self) -> u32 {
        self.root.n()
    }

    /// All training-instance ids currently in the tree, sorted.
    pub fn instance_ids(&self) -> Vec<u32> {
        let mut ids = Vec::with_capacity(self.root.n() as usize);
        self.root.collect_ids(&mut ids);
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MaxFeatures;
    use fume_tabular::datasets::planted_toy;

    fn cfg() -> DareConfig {
        DareConfig {
            max_depth: 6,
            random_depth: 1,
            max_features: MaxFeatures::All,
            ..DareConfig::default()
        }
    }

    #[test]
    fn fit_is_deterministic_per_seed() {
        let (data, _) = planted_toy().generate_scaled(0.2, 1).unwrap();
        let a = DareTree::fit(&data, data.all_row_ids(), &cfg(), 5);
        let b = DareTree::fit(&data, data.all_row_ids(), &cfg(), 5);
        assert_eq!(a, b);
        let c = DareTree::fit(&data, data.all_row_ids(), &cfg(), 6);
        assert_ne!(a, c);
    }

    #[test]
    fn instance_ids_track_deletions() {
        let (data, _) = planted_toy().generate_scaled(0.2, 2).unwrap();
        let mut t = DareTree::fit(&data, data.all_row_ids(), &cfg(), 5);
        assert_eq!(t.num_instances() as usize, data.num_rows());
        let del = vec![0u32, 5, 10, 15];
        t.delete(&del, &data, &cfg());
        assert_eq!(t.num_instances() as usize, data.num_rows() - 4);
        let ids = t.instance_ids();
        for d in del {
            assert!(ids.binary_search(&d).is_err());
        }
    }

    #[test]
    fn predictions_stay_in_unit_interval() {
        let (data, _) = planted_toy().generate_scaled(0.2, 3).unwrap();
        let t = DareTree::fit(&data, data.all_row_ids(), &cfg(), 8);
        for row in 0..data.num_rows() {
            let p = t.predict_row(&data, row);
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
