//! A single DaRE tree: construction, prediction, unlearning and
//! structural introspection, all over one [`NodeStore`].

use fume_tabular::rng::{SeedableRng, StdRng};
use fume_tabular::Dataset;

use crate::builder::{BuildBuffers, TreeBuilder};
use crate::config::DareConfig;
use crate::delete::{delete_from_tree, DeleteReport, RowSet};
use crate::insert::{insert_into_tree, InsertReport};
use crate::journal::{Header, Link, Record, TreeUndo, UndoLog};
use crate::node::{Candidate, NodeRef, NodeStore};
use crate::plan::HotTree;

/// Buffers a delete or insert pass over one tree reuses from one pass to
/// the next, so a warm scratch tree unlearns and rolls back without
/// allocating. Never cloned, compared or persisted.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The tree builder's working sets.
    pub(crate) build: BuildBuffers,
    /// The pass's copy of its batch, partitioned in place.
    pub(crate) batch: Vec<u32>,
    /// Ids of the subtree being rebuilt or replenished.
    pub(crate) ids: Vec<u32>,
    /// A pool being replenished.
    pub(crate) pool: Vec<Candidate>,
    /// `(attribute, candidates lost)` of the node being replenished.
    pub(crate) lost: Vec<(u16, usize)>,
    /// Every row a delete pass removes.
    pub(crate) deleted: RowSet,
    /// The undo log of the next journaled delete, returned by the last
    /// rollback.
    pub(crate) undo: UndoLog,
}

/// A decision tree supporting exact unlearning of training instances.
///
/// The tree owns a deterministic RNG stream that is consumed both at build
/// time and by deletion-triggered subtree retrains, so a cloned tree
/// replays identically. Trees compare structurally: two trees are equal
/// when their live nodes, read from the root, and their RNG streams are,
/// wherever the nodes sit in the arrays.
#[derive(Debug)]
pub struct DareTree {
    pub(crate) store: NodeStore,
    /// Slot of the root node.
    pub(crate) root: u32,
    /// The prediction kernel's fixed descent length: at least the depth of
    /// the deepest live leaf (exact after a fit, a load or a compaction).
    pub(crate) steps: u32,
    /// Slots a rebuild displaced, unreachable from the root.
    pub(crate) orphans: u32,
    pub(crate) rng: StdRng,
    pub(crate) scratch: Scratch,
}

impl Clone for DareTree {
    fn clone(&self) -> Self {
        Self {
            store: self.store.clone(),
            root: self.root,
            steps: self.steps,
            orphans: self.orphans,
            rng: self.rng.clone(),
            scratch: Scratch::default(),
        }
    }
}

impl PartialEq for DareTree {
    fn eq(&self, other: &Self) -> bool {
        self.rng == other.rng && self.root() == other.root()
    }
}

impl DareTree {
    /// Trains a tree on the instances `ids` of `data`.
    pub fn fit(data: &Dataset, mut ids: Vec<u32>, cfg: &DareConfig, seed: u64) -> Self {
        // fume-lint: allow(F003) -- seed provenance: derived by DareForest::fit_on from config.seed and the tree index, so the stream is reproducible per (config, tree)
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = NodeStore::default();
        let mut builder = TreeBuilder::new(data, cfg);
        let root = builder.build(&mut store, &mut ids, 0, &mut rng);
        builder.work().emit();
        store.shrink_to_fit();
        let steps = builder.deepest();
        Self { store, root, steps, orphans: 0, rng, scratch: Scratch::default() }
    }

    /// Reconstructs a tree from a persisted store, written in preorder
    /// from `root`. The RNG stream restarts from a seed derived
    /// deterministically from the forest seed and the tree's `index` (see
    /// `persist` module docs for the reseeding caveat).
    pub(crate) fn from_saved(mut store: NodeStore, root: u32, cfg: &DareConfig, index: usize) -> Self {
        let seed = cfg
            .seed
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(index as u64)
            .rotate_left(17);
        store.shrink_to_fit();
        let steps = store.depth(root);
        // fume-lint: allow(F003) -- seed provenance: reseeded deterministically from (config.seed, tree index); see the persist module's reseeding caveat
        let rng = StdRng::seed_from_u64(seed);
        Self { store, root, steps, orphans: 0, rng, scratch: Scratch::default() }
    }

    /// Positive-class probability for `row` of `data`, by the kernel's
    /// fixed-length walk over the hot array.
    pub fn predict_row(&self, data: &Dataset, row: usize) -> f64 {
        self.hot_tree().predict_row(data, row)
    }

    /// The tree as the prediction kernel walks it.
    pub(crate) fn hot_tree(&self) -> HotTree<'_> {
        HotTree { nodes: &self.store.hot, root: self.root, steps: self.steps }
    }

    /// Unlearns the training instances `del` (must be sorted, deduplicated
    /// and present in the tree). Statistics are updated in place; subtrees
    /// are rebuilt from surviving instances only where the cached
    /// statistics prove it necessary. The store is compacted once the
    /// displaced slots outnumber the live ones.
    pub fn delete(&mut self, del: &[u32], data: &Dataset, cfg: &DareConfig) -> DeleteReport {
        debug_assert!(del.windows(2).all(|w| w[0] < w[1]), "ids must be sorted unique");
        let report = delete_from_tree(self, del, data, cfg, None);
        self.compact_if_sparse();
        report
    }

    /// [`Self::delete`] with an undo journal: performs the same deletion
    /// while recording every overwritten statistic, leaf id list and
    /// candidate pool, every repointed link, the array lengths and the
    /// pre-delete RNG state, so that [`Self::rollback`] restores the tree
    /// byte-identically. The store is never compacted here.
    pub fn delete_journaled(
        &mut self,
        del: &[u32],
        data: &Dataset,
        cfg: &DareConfig,
    ) -> (DeleteReport, TreeUndo) {
        debug_assert!(del.windows(2).all(|w| w[0] < w[1]), "ids must be sorted unique");
        let header = Header {
            lens: self.store.lens(),
            root: self.root,
            steps: self.steps,
            orphans: self.orphans,
        };
        let rng = self.rng.clone();
        let mut log = std::mem::take(&mut self.scratch.undo);
        log.clear();
        let report = delete_from_tree(self, del, data, cfg, Some(&mut log));
        (report, TreeUndo { log, header, rng })
    }

    /// Undoes a journaled deletion, restoring the tree — structure,
    /// statistics, candidate pools, leaf instance lists, every array's
    /// length and contents, and the RNG stream — to exactly its pre-delete
    /// state. Returns the number of records replayed.
    ///
    /// `undo` must come from this tree's most recent
    /// [`Self::delete_journaled`]; replaying a foreign or stale journal
    /// corrupts the tree.
    pub fn rollback(&mut self, undo: TreeUndo) -> usize {
        let TreeUndo { mut log, header, rng } = undo;
        let store = &mut self.store;
        for &record in log.records.iter().rev() {
            match record {
                Record::Relink { link, old } => match link {
                    Link::Root => self.root = old,
                    Link::Child { parent, right } => {
                        store.hot[parent as usize].kids[usize::from(right)] = old;
                    }
                },
                Record::Pool { slot, len, chosen, at } => {
                    let node = &mut store.cold[slot as usize];
                    node.len = len;
                    node.chosen = chosen;
                    store.pool_mut(slot).copy_from_slice(log.saved_pool(at, len));
                }
                Record::Stats { slot, n, n_pos, at, len } => {
                    let node = &mut store.cold[slot as usize];
                    node.n = n;
                    node.n_pos = n_pos;
                    debug_assert_eq!(node.len, len, "pool shape must match the snapshot");
                    let saved = log.saved_stats(at, len);
                    for (cand, &(n_left, n_left_pos)) in store.pool_mut(slot).iter_mut().zip(saved) {
                        cand.n_left = n_left;
                        cand.n_left_pos = n_left_pos;
                    }
                }
                Record::Leaf { slot, n, n_pos, at } => {
                    let lo = store.cold[slot as usize].lo as usize;
                    store.ids[lo..lo + n as usize].copy_from_slice(log.saved_ids(at, n));
                    store.set_leaf_counts(slot, n, n_pos);
                }
            }
        }
        let restored = log.records.len();
        store.truncate(header.lens);
        self.root = header.root;
        self.steps = header.steps;
        self.orphans = header.orphans;
        self.rng = rng;
        log.clear();
        self.scratch.undo = log;
        restored
    }

    /// Incrementally learns the additional training instances `ins`
    /// (sorted, deduplicated, not already present). Leaves grow and split
    /// as the builder would have; greedy nodes rebuild when a cached
    /// candidate overtakes the chosen split. The store is compacted once
    /// the displaced slots outnumber the live ones.
    pub fn insert(&mut self, ins: &[u32], data: &Dataset, cfg: &DareConfig) -> InsertReport {
        debug_assert!(ins.windows(2).all(|w| w[0] < w[1]), "ids must be sorted unique");
        let report = insert_into_tree(self, ins, data, cfg);
        self.compact_if_sparse();
        report
    }

    /// Hangs the subtree at `to` from `link`.
    pub(crate) fn relink(&mut self, link: Link, to: u32) {
        match link {
            Link::Root => self.root = to,
            Link::Child { parent, right } => {
                self.store.hot[parent as usize].kids[usize::from(right)] = to;
            }
        }
    }

    /// Rewrites the store in preorder from the root, dropping displaced
    /// slots and stale id ranges, once they outweigh the live ones.
    fn compact_if_sparse(&mut self) {
        let live = self.store.len() - self.orphans as usize;
        let stale_ids = self.store.ids.len() - self.num_instances() as usize;
        if self.orphans as usize <= live && stale_ids <= self.num_instances() as usize {
            return;
        }
        let mut store = NodeStore::default();
        self.root = store.copy_subtree(&self.store, self.root);
        self.steps = store.depth(self.root);
        self.store = store;
        self.orphans = 0;
    }

    /// The root node, for read-only structural walks (path mining,
    /// validation).
    pub fn root(&self) -> NodeRef<'_> {
        self.store.node(self.root)
    }

    /// The node store, displaced slots included.
    pub fn store(&self) -> &NodeStore {
        &self.store
    }

    /// The state of the tree's RNG stream, which its next rebuild draws
    /// from. The persistence format does not carry it (see `persist`).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Number of training instances currently in the tree.
    pub fn num_instances(&self) -> u32 {
        self.root().n()
    }

    /// All training-instance ids currently in the tree, sorted.
    pub fn instance_ids(&self) -> Vec<u32> {
        let mut ids = Vec::with_capacity(self.num_instances() as usize);
        self.root().collect_ids(&mut ids);
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
