//! Undo journal for exact unlearning: record every statistic a deletion
//! mutates, so the tree can be rolled back byte-identically afterwards.
//!
//! FUME's hot loop asks "what would the bias be without subset T" for
//! hundreds of candidate subsets against the *same* deployed forest.
//! Cloning the forest per candidate makes every evaluation pay for the
//! full model; DaRE deletion itself only touches the nodes a deleted row
//! reaches. The journal confines the *evaluation* to the same footprint:
//! delete into a long-lived scratch forest while recording undo state,
//! measure, then [`DareTree::rollback`](crate::tree::DareTree::rollback)
//! — restoring node statistics, leaf instance lists, candidate pools,
//! retrained subtrees, and the tree's RNG stream exactly.
//!
//! Invariants:
//! * records are replayed in **reverse** order, so a node that was first
//!   updated in place and later replaced wholesale is restored correctly
//!   (the subtree swap first, then the in-place statistics on top);
//! * paths stay valid because deletion never restructures a node above a
//!   recorded mutation — a subtree rebuild terminates the recursion, so
//!   no record ever points below a replaced node;
//! * the RNG state is snapshotted before the delete, because subtree
//!   rebuilds and candidate replenishment consume the tree's stream.

use crate::node::{Candidate, Internal, Leaf, Node};
use fume_tabular::rng::StdRng;

/// Address of a node as a left(0)/right(1) bit path from the root.
/// Journaled trees must therefore be shallower than 64 levels — far above
/// any configurable [`DareConfig::max_depth`](crate::DareConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodePath {
    bits: u64,
    depth: u8,
}

impl NodePath {
    /// The root of the tree.
    pub const ROOT: NodePath = NodePath { bits: 0, depth: 0 };

    /// The path one step down from `self`.
    pub fn child(self, right: bool) -> NodePath {
        assert!(self.depth < 64, "journaled trees must be shallower than 64 levels");
        NodePath {
            bits: self.bits | (u64::from(right) << self.depth),
            depth: self.depth + 1,
        }
    }

    /// Whether this node lies in the subtree rooted at `ancestor`, i.e.
    /// `ancestor`'s bit path is a prefix of this one (every node is its
    /// own ancestor). The routing index uses this to map a `Subtree`
    /// undo record to the cached leaf addresses it invalidates.
    pub fn descends_from(self, ancestor: NodePath) -> bool {
        // `child` permits depths up to 64, so the prefix mask must not
        // shift by the full word width.
        let mask = if ancestor.depth >= 64 {
            u64::MAX
        } else {
            (1u64 << ancestor.depth) - 1
        };
        ancestor.depth <= self.depth && (self.bits & mask) == ancestor.bits
    }

    /// Number of steps from the root (the root itself has depth 0).
    pub(crate) fn depth(self) -> u8 {
        self.depth
    }

    /// Descends from `root` along this path (shared-reference twin of
    /// [`Self::locate_mut`], for read-only lookups like
    /// [`DareTree::proba_at`](crate::DareTree::proba_at)).
    pub(crate) fn locate(self, root: &Node) -> &Node {
        let mut node = root;
        for i in 0..self.depth {
            let right = self.bits >> i & 1 == 1;
            node = match node {
                Node::Internal(internal) => {
                    if right {
                        &internal.right
                    } else {
                        &internal.left
                    }
                }
                // fume-lint: allow(F001) -- path invariant: see locate_mut
                Node::Leaf(_) => unreachable!("journal path descends through a leaf"),
            };
        }
        node
    }

    /// Descends from `root` along this path.
    fn locate_mut(self, root: &mut Node) -> &mut Node {
        let mut node = root;
        for i in 0..self.depth {
            let right = self.bits >> i & 1 == 1;
            node = match node {
                Node::Internal(internal) => {
                    if right {
                        &mut internal.right
                    } else {
                        &mut internal.left
                    }
                }
                // fume-lint: allow(F001) -- path invariant: NodePath bits are recorded while descending this same tree, and structural records are replayed in reverse order, so every prefix resolves to the internal node it was recorded at
                Node::Leaf(_) => unreachable!("journal path descends through a leaf"),
            };
        }
        node
    }
}

/// One reversible mutation performed by a journaled deletion.
#[derive(Debug, Clone)]
pub(crate) enum UndoRecord {
    /// A leaf's instance list was edited: the pre-delete list and count.
    Leaf {
        /// Where the leaf sits.
        path: NodePath,
        /// Pre-delete instance ids.
        ids: Vec<u32>,
        /// Pre-delete positive count.
        n_pos: u32,
    },
    /// A decision node's statistics were updated in place: the pre-delete
    /// scalars plus each cached candidate's `(n_left, n_left_pos)` pair
    /// (attribute/threshold are untouched by in-place updates, so only
    /// the counts are saved).
    InternalStats {
        /// Where the node sits.
        path: NodePath,
        /// Pre-delete instance count.
        n: u32,
        /// Pre-delete positive count.
        n_pos: u32,
        /// Pre-delete `(n_left, n_left_pos)` per cached candidate.
        cand_stats: Vec<(u32, u32)>,
    },
    /// The candidate pool was restructured (replenishment): the full
    /// pre-replenish pool and chosen index.
    Candidates {
        /// Where the node sits.
        path: NodePath,
        /// Pre-replenish candidate pool.
        candidates: Vec<Candidate>,
        /// Pre-replenish chosen index.
        chosen: u32,
    },
    /// A whole subtree was rebuilt: the displaced subtree, moved (not
    /// cloned) out of the tree when the rebuild replaced it.
    Subtree {
        /// Where the subtree was rooted.
        path: NodePath,
        /// The displaced subtree.
        node: Node,
    },
}

impl UndoRecord {
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + match self {
                Self::Leaf { ids, .. } => ids.len() * size_of::<u32>(),
                Self::InternalStats { cand_stats, .. } => {
                    cand_stats.len() * size_of::<(u32, u32)>()
                }
                Self::Candidates { candidates, .. } => {
                    candidates.len() * size_of::<Candidate>()
                }
                Self::Subtree { node, .. } => node.size() * size_of::<Internal>(),
            }
    }
}

/// Where a deletion pass sends its undo records: nowhere (the plain
/// destructive delete) or into a growing journal.
#[derive(Debug)]
pub(crate) enum JournalSink {
    /// Plain delete — mutations are not recorded.
    Off,
    /// Journaled delete — every mutation pushes an [`UndoRecord`].
    On(Vec<UndoRecord>),
}

impl JournalSink {
    /// Records a leaf's pre-delete state.
    pub(crate) fn record_leaf(&mut self, path: NodePath, leaf: &Leaf) {
        if let Self::On(records) = self {
            records.push(UndoRecord::Leaf {
                path,
                ids: leaf.ids.clone(),
                n_pos: leaf.n_pos,
            });
        }
    }

    /// Records a decision node's pre-delete scalar/candidate statistics.
    pub(crate) fn record_internal_stats(&mut self, path: NodePath, internal: &Internal) {
        if let Self::On(records) = self {
            records.push(UndoRecord::InternalStats {
                path,
                n: internal.n,
                n_pos: internal.n_pos,
                cand_stats: internal.candidate_stats(),
            });
        }
    }

    /// Records the full candidate pool before replenishment restructures
    /// it.
    pub(crate) fn record_candidates(&mut self, path: NodePath, internal: &Internal) {
        if let Self::On(records) = self {
            records.push(UndoRecord::Candidates {
                path,
                candidates: internal.candidates.clone(),
                chosen: internal.chosen,
            });
        }
    }

    /// Replaces `*node` with `new`, journaling the displaced subtree by
    /// move (the journaled path never clones what it can steal).
    pub(crate) fn replace_subtree(&mut self, path: NodePath, node: &mut Node, new: Node) {
        match self {
            Self::Off => *node = new,
            Self::On(records) => {
                let old = std::mem::replace(node, new);
                records.push(UndoRecord::Subtree { path, node: old });
            }
        }
    }

    /// Consumes the sink, yielding the recorded undo log.
    pub(crate) fn into_records(self) -> Vec<UndoRecord> {
        match self {
            Self::Off => Vec::new(),
            Self::On(records) => records,
        }
    }
}

/// The undo log of one journaled deletion on one tree.
#[derive(Debug, Clone)]
#[must_use = "dropping an undo log forfeits the only way to roll the tree back"]
pub struct TreeUndo {
    pub(crate) records: Vec<UndoRecord>,
    /// The tree's RNG state before the delete consumed it.
    pub(crate) rng: StdRng,
}

impl TreeUndo {
    /// Number of recorded node mutations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the deletion mutated nothing.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Rough journal footprint in bytes (records plus their heap
    /// payloads).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.records.iter().map(UndoRecord::approx_bytes).sum::<usize>()
    }
}

/// Replays `records` in reverse against `root`, restoring the pre-delete
/// tree. Returns the number of node restorations applied.
pub(crate) fn rollback_records(root: &mut Node, records: Vec<UndoRecord>) -> usize {
    let restored = records.len();
    for record in records.into_iter().rev() {
        match record {
            UndoRecord::Leaf { path, ids, n_pos } => match path.locate_mut(root) {
                Node::Leaf(leaf) => {
                    leaf.ids = ids;
                    leaf.n_pos = n_pos;
                }
                // fume-lint: allow(F001) -- record-kind invariant: a Leaf record is only emitted for a node that was a leaf, and later Subtree restores cannot change a node's kind before its own record replays
                Node::Internal(_) => unreachable!("leaf record points at a decision node"),
            },
            UndoRecord::InternalStats { path, n, n_pos, cand_stats } => {
                match path.locate_mut(root) {
                    Node::Internal(internal) => {
                        internal.n = n;
                        internal.n_pos = n_pos;
                        internal.restore_candidate_stats(&cand_stats);
                    }
                    // fume-lint: allow(F001) -- record-kind invariant: InternalStats records are emitted only at internal nodes, and reverse-order replay restores structure before stats
                    Node::Leaf(_) => unreachable!("stats record points at a leaf"),
                }
            }
            UndoRecord::Candidates { path, candidates, chosen } => {
                match path.locate_mut(root) {
                    Node::Internal(internal) => {
                        internal.candidates = candidates;
                        internal.chosen = chosen;
                    }
                    // fume-lint: allow(F001) -- record-kind invariant: Candidates records are emitted only at greedy internal nodes, preserved by reverse-order replay
                    Node::Leaf(_) => unreachable!("candidate record points at a leaf"),
                }
            }
            UndoRecord::Subtree { path, node } => {
                *path.locate_mut(root) = node;
            }
        }
    }
    restored
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
    fn paths_address_children_uniquely() {
        let root = NodePath::ROOT;
        let l = root.child(false);
        let r = root.child(true);
        assert_ne!(l, r);
        assert_ne!(l.child(true), r.child(false));
        // Left-left and left differ by depth even though the bits agree.
        assert_ne!(l, l.child(false));
    }

    #[test]
    fn descendance_is_prefix_matching() {
        let root = NodePath::ROOT;
        let l = root.child(false);
        let lr = l.child(true);
        let r = root.child(true);
        assert!(lr.descends_from(root));
        assert!(lr.descends_from(l));
        assert!(lr.descends_from(lr), "every node is its own ancestor");
        assert!(!lr.descends_from(r));
        assert!(!l.descends_from(lr), "ancestry is not symmetric");
        // Same bits, shallower depth: left-left descends from left, and a
        // right branch below does not leak into the left prefix.
        assert!(l.child(false).descends_from(l));
        assert!(!r.child(false).descends_from(l));
        // Deep chains exercise the mask at high depths.
        let mut deep = root;
        for i in 0..63 {
            deep = deep.child(i % 2 == 0);
        }
        assert!(deep.descends_from(root));
        assert!(deep.child(true).descends_from(deep));
    }

    #[test]
    fn locate_walks_the_recorded_path() {
        let leaf = |ids: Vec<u32>| Node::Leaf(Leaf { n_pos: 0, ids });
        let mut tree = Node::Internal(Box::new(Internal {
            attr: 0,
            threshold: 0,
            is_random: true,
            n: 3,
            n_pos: 0,
            candidates: Vec::new(),
            chosen: 0,
            left: leaf(vec![0]),
            right: Node::Internal(Box::new(Internal {
                attr: 1,
                threshold: 0,
                is_random: true,
                n: 2,
                n_pos: 0,
                candidates: Vec::new(),
                chosen: 0,
                left: leaf(vec![1]),
                right: leaf(vec![2]),
            })),
        }));
        let p = NodePath::ROOT.child(true).child(false);
        match p.locate_mut(&mut tree) {
            Node::Leaf(l) => assert_eq!(l.ids, vec![1]),
            Node::Internal(_) => panic!("expected the right-left leaf"),
        }
    }

    #[test]
    fn sink_off_records_nothing_but_still_replaces() {
        let mut sink = JournalSink::Off;
        let mut node = Node::Leaf(Leaf { ids: vec![1, 2], n_pos: 1 });
        sink.replace_subtree(
            NodePath::ROOT,
            &mut node,
            Node::Leaf(Leaf { ids: vec![], n_pos: 0 }),
        );
        assert_eq!(node.n(), 0);
        assert!(sink.into_records().is_empty());
    }

    #[test]
    fn sink_on_steals_the_replaced_subtree() {
        let mut sink = JournalSink::On(Vec::new());
        let mut node = Node::Leaf(Leaf { ids: vec![1, 2], n_pos: 1 });
        sink.replace_subtree(
            NodePath::ROOT,
            &mut node,
            Node::Leaf(Leaf { ids: vec![], n_pos: 0 }),
        );
        let records = sink.into_records();
        assert_eq!(records.len(), 1);
        let restored = rollback_records(&mut node, records);
        assert_eq!(restored, 1);
        assert_eq!(node.n(), 2);
    }
}
