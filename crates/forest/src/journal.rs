//! Undo journal for exact unlearning: record every statistic a deletion
//! mutates, so the tree can be rolled back byte-identically afterwards.
//!
//! FUME's hot loop asks "what would the bias be without subset T" for
//! hundreds of candidate subsets against the *same* deployed forest.
//! Cloning the forest per candidate makes every evaluation pay for the
//! full model; DaRE deletion itself only touches the nodes a deleted row
//! reaches. The journal confines the *evaluation* to the same footprint:
//! delete into a long-lived scratch forest while recording undo state,
//! measure, then [`DareTree::rollback`](crate::tree::DareTree::rollback).
//!
//! The journal is a flat log of fixed-size records addressed by slot,
//! plus three side buffers the records index into: the leaf ids and the
//! candidate statistics and pools the delete overwrote in place. Nothing
//! else needs saving, because the [node store](crate::node) never moves a
//! node: a subtree rebuild appends the new subtree and repoints one child
//! slot, so the displaced subtree is still intact in the arrays. Rollback
//! replays the log in **reverse** — a node first updated in place and
//! later displaced gets its link back before its statistics — then
//! truncates every array to its pre-delete length and restores the
//! tree's RNG stream, which rebuilds and replenishment consume. The
//! buffers then go back to the tree for its next journaled delete, so a
//! warm scratch forest journals without allocating.

use fume_tabular::rng::StdRng;

use crate::node::{Candidate, Cold, Lens};

/// Where a subtree hangs: the tree's root, or one child slot of a
/// decision node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Link {
    /// The tree's root.
    Root,
    /// Child `right` (0 left, 1 right) of the decision node at `parent`.
    Child {
        /// The decision node's slot.
        parent: u32,
        /// Which child.
        right: bool,
    },
}

/// One reversible mutation performed by a journaled deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Record {
    /// A leaf's ids were filtered in place: its pre-delete counts, and
    /// its pre-delete ids saved at `ids[at..at + n]`.
    Leaf { slot: u32, n: u32, n_pos: u32, at: u32 },
    /// A decision node's counts were updated in place: its pre-delete
    /// counts, and its pool's `(n_left, n_left_pos)` pairs saved at
    /// `stats[at..at + len]` (attribute and threshold never change in
    /// place).
    Stats { slot: u32, n: u32, n_pos: u32, at: u32, len: u32 },
    /// A greedy node's pool was restructured by replenishment: the
    /// pre-replenish pool saved at `pools[at..at + len]` and its chosen
    /// index. Replenishment never grows a pool, so it stays in its range.
    Pool { slot: u32, len: u32, chosen: u32, at: u32 },
    /// A subtree was rebuilt: `link` pointed at `old`, which sits at
    /// `depth` and stays intact until the rollback truncates the rebuild
    /// away. The rebuilt subtree's root hangs from `link` at that depth.
    Relink { link: Link, old: u32, depth: u32 },
}

/// The records of one journaled deletion on one tree and the side
/// buffers they index.
#[derive(Debug, Clone, Default)]
pub(crate) struct UndoLog {
    pub(crate) records: Vec<Record>,
    ids: Vec<u32>,
    stats: Vec<(u32, u32)>,
    pools: Vec<Candidate>,
}

impl UndoLog {
    /// Empties the log, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.records.clear();
        self.ids.clear();
        self.stats.clear();
        self.pools.clear();
    }

    /// Records a leaf's pre-delete counts and ids.
    pub(crate) fn leaf(&mut self, slot: u32, cold: Cold, ids: &[u32]) {
        let at = crate::node::slot_u32(self.ids.len());
        self.ids.extend_from_slice(ids);
        self.records.push(Record::Leaf { slot, n: cold.n, n_pos: cold.n_pos, at });
    }

    /// Records a decision node's pre-delete counts and pool statistics.
    pub(crate) fn stats(&mut self, slot: u32, cold: Cold, pool: &[Candidate]) {
        let at = crate::node::slot_u32(self.stats.len());
        self.stats.extend(pool.iter().map(|c| (c.n_left, c.n_left_pos)));
        self.records.push(Record::Stats { slot, n: cold.n, n_pos: cold.n_pos, at, len: cold.len });
    }

    /// Records a greedy node's whole pool before replenishment.
    pub(crate) fn pool(&mut self, slot: u32, cold: Cold, pool: &[Candidate]) {
        let at = crate::node::slot_u32(self.pools.len());
        self.pools.extend_from_slice(pool);
        self.records.push(Record::Pool { slot, len: cold.len, chosen: cold.chosen, at });
    }

    /// Records that `link` pointed at `old`, at `depth`, before a
    /// rebuild.
    pub(crate) fn relink(&mut self, link: Link, old: u32, depth: u32) {
        self.records.push(Record::Relink { link, old, depth });
    }

    /// Saved leaf ids.
    pub(crate) fn saved_ids(&self, at: u32, n: u32) -> &[u32] {
        &self.ids[at as usize..(at + n) as usize]
    }

    /// Saved pool statistics.
    pub(crate) fn saved_stats(&self, at: u32, len: u32) -> &[(u32, u32)] {
        &self.stats[at as usize..(at + len) as usize]
    }

    /// Saved pools.
    pub(crate) fn saved_pool(&self, at: u32, len: u32) -> &[Candidate] {
        &self.pools[at as usize..(at + len) as usize]
    }

    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.records.len() * size_of::<Record>()
            + self.ids.len() * size_of::<u32>()
            + self.stats.len() * size_of::<(u32, u32)>()
            + self.pools.len() * size_of::<Candidate>()
    }
}

/// The tree-level state a journaled delete changes besides its nodes,
/// restored wholesale by a rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    /// Array lengths before the delete: everything past them was appended
    /// by rebuilds.
    pub(crate) lens: Lens,
    /// Root slot.
    pub(crate) root: u32,
    /// The kernel's step count.
    pub(crate) steps: u32,
    /// Displaced slots.
    pub(crate) orphans: u32,
}

/// The undo log of one journaled deletion on one tree.
#[derive(Debug, Clone)]
#[must_use = "dropping an undo log forfeits the only way to roll the tree back"]
pub struct TreeUndo {
    pub(crate) log: UndoLog,
    pub(crate) header: Header,
    /// The tree's RNG state before the delete consumed it.
    pub(crate) rng: StdRng,
}

impl TreeUndo {
    /// Number of recorded node mutations.
    pub fn len(&self) -> usize {
        self.log.records.len()
    }

    /// Whether the deletion mutated nothing.
    pub fn is_empty(&self) -> bool {
        self.log.records.is_empty()
    }

    /// Rough journal footprint in bytes (the record log plus the saved
    /// ids, statistics and pools).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.log.approx_bytes()
    }
}

/// The undo log of one journaled deletion across a whole forest:
/// per-tree records plus the forest-level instance count delta.
#[derive(Debug, Clone)]
#[must_use = "dropping the journal forfeits the only way to roll the forest back"]
pub struct UndoJournal {
    pub(crate) trees: Vec<TreeUndo>,
    pub(crate) n_deleted: u32,
    /// What the journaled deletion did, tree reports merged (identical to
    /// what the destructive [`DareForest::delete`](crate::DareForest::delete)
    /// would have reported).
    pub report: crate::delete::DeleteReport,
}

impl UndoJournal {
    /// An empty journal (the deletion was a no-op).
    pub(crate) fn empty() -> Self {
        Self {
            trees: Vec::new(),
            n_deleted: 0,
            report: crate::delete::DeleteReport::default(),
        }
    }

    /// Number of instances the journaled deletion removed.
    pub fn n_deleted(&self) -> u32 {
        self.n_deleted
    }

    /// Total recorded node mutations across all trees.
    pub fn nodes_recorded(&self) -> usize {
        self.trees.iter().map(TreeUndo::len).sum()
    }

    /// Rough journal footprint in bytes across all trees.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.trees.iter().map(TreeUndo::approx_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_index_their_saved_payloads() {
        let mut log = UndoLog::default();
        let cold = Cold { n: 3, n_pos: 1, lo: 0, len: 2, chosen: 1, random: false };
        let pool = [
            Candidate { attr: 0, threshold: 1, n_left: 2, n_left_pos: 1 },
            Candidate { attr: 1, threshold: 0, n_left: 1, n_left_pos: 0 },
        ];
        log.leaf(4, Cold { len: 3, ..cold }, &[7, 8, 9]);
        log.stats(2, cold, &pool);
        log.pool(2, cold, &pool);
        log.relink(Link::Child { parent: 2, right: true }, 5, 1);
        assert_eq!(log.records.len(), 4);
        let Record::Leaf { at, n, .. } = log.records[0] else { panic!("leaf record first") };
        assert_eq!(log.saved_ids(at, n), &[7, 8, 9]);
        let Record::Stats { at, len, .. } = log.records[1] else { panic!("stats record") };
        assert_eq!(log.saved_stats(at, len), &[(2, 1), (1, 0)]);
        let Record::Pool { at, len, chosen, .. } = log.records[2] else { panic!("pool record") };
        assert_eq!((log.saved_pool(at, len), chosen), (&pool[..], 1));
        assert!(log.approx_bytes() > 4 * std::mem::size_of::<Record>());
        log.clear();
        assert!(log.records.is_empty() && log.approx_bytes() == 0);
    }
}
