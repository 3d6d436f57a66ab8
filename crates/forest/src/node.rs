//! The node store: every node of a DaRE tree lives in a few flat arrays,
//! indexed by slot, with the cached statistics that make exact
//! unlearning possible.
//!
//! DaRE trees keep, at every node, the counts needed to re-evaluate
//! split decisions without touching the training data:
//! * decision nodes: `n`, `n_pos`, and for every cached candidate split
//!   the pair `(n_left, n_left_pos)`;
//! * leaves: the list of training-instance ids plus the positive count.
//!
//! Splits are of the form `code(attr) <= threshold → left`.
//!
//! ## Layout
//!
//! A [`NodeStore`] splits each node across two parallel arrays:
//! * the **hot** array holds what a prediction walk reads per step, 16
//!   bytes a slot: split attribute, threshold, the child pair, and the
//!   leaf probability as the exact `f64` a leaf votes. A leaf's children
//!   both point back at the leaf itself, so a walk needs no leaf test
//!   (see [`plan`](crate::plan));
//! * the **cold** array holds what unlearning reads and writes: `n`,
//!   `n_pos`, the random flag, the chosen candidate, and one range — a
//!   greedy node's candidate pool in the store's one `Vec<Candidate>`,
//!   or a leaf's ids in its one `Vec<u32>`.
//!
//! A fit writes the tree in preorder. Unlearning never moves a node: a
//! subtree rebuild appends the new subtree at the end of the arrays and
//! repoints one child slot, leaving the displaced subtree in place. That
//! is what lets a rollback replay a flat undo log and truncate the arrays
//! (see [`journal`](crate::journal)), and lets a routing index key leaves
//! by slot. Destructive deletes and inserts compact the store once the
//! displaced slots outnumber the live ones.
//!
//! [`NodeRef`] is the borrowed, read-only view of one node that path
//! mining, validation and tests walk.

use fume_tabular::Dataset;

/// A slot, range start or length as `u32`: node, candidate and leaf-id
/// counts are bounded by instance counts, which dataset construction
/// bounds to the `u32` row universe.
pub(crate) fn slot_u32(i: usize) -> u32 {
    // fume-lint: allow(F001) -- audited narrowing: store sizes are bounded by training-instance counts (times the fixed per-node candidate cap), which dataset construction caps at u32
    i.try_into().expect("node store exceeds the u32 slot universe")
}

/// A cached candidate split with its sufficient statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Attribute index.
    pub attr: u16,
    /// Split threshold: codes `<= threshold` go left.
    pub threshold: u16,
    /// Number of node instances on the left side.
    pub n_left: u32,
    /// Number of positive node instances on the left side.
    pub n_left_pos: u32,
}

/// Positive-class probability of a leaf holding `n` instances of which
/// `n_pos` are positive; an empty leaf is maximally uncertain (0.5).
#[inline]
pub fn leaf_proba(n_pos: u32, n: u32) -> f64 {
    if n == 0 {
        0.5
    } else {
        f64::from(n_pos) / f64::from(n)
    }
}

/// What a prediction walk reads at one slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Hot {
    /// Splitting attribute; 0 (an ordinary, valid column) at leaves.
    pub(crate) attr: u16,
    /// Codes `<= threshold` go left; 0 at leaves.
    pub(crate) threshold: u16,
    /// Child slots, left then right, so a step is `kids[go_right]`. At a
    /// leaf both hold the leaf's own slot.
    pub(crate) kids: [u32; 2],
    /// The leaf's vote, `leaf_proba(n_pos, n)`; 0.0 at internal nodes.
    pub(crate) proba: f64,
}

/// What unlearning reads and writes at one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cold {
    /// Instances under the node.
    pub(crate) n: u32,
    /// Positive instances under the node.
    pub(crate) n_pos: u32,
    /// Start of the node's range: its candidate pool in
    /// [`NodeStore::candidates`] (internal) or its ids in
    /// [`NodeStore::ids`] (leaf).
    pub(crate) lo: u32,
    /// Length of that range; a leaf's equals `n`.
    pub(crate) len: u32,
    /// Index into the pool of the chosen split (greedy nodes only).
    pub(crate) chosen: u32,
    /// Whether this is one of the tree's random upper-layer nodes.
    pub(crate) random: bool,
}

/// The array lengths of a store, as a journal snapshots them before a
/// delete and a rollback truncates back to them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Lens {
    pub(crate) slots: u32,
    pub(crate) candidates: u32,
    pub(crate) ids: u32,
}

/// The arrays of one tree (see the [module docs](self)). Comparing two
/// stores with `==` compares the raw arrays, slot for slot, displaced
/// subtrees and unused range tails included; trees compare structurally
/// (see [`DareTree`](crate::DareTree)).
#[derive(Debug, Default, PartialEq)]
pub struct NodeStore {
    pub(crate) hot: Vec<Hot>,
    pub(crate) cold: Vec<Cold>,
    pub(crate) candidates: Vec<Candidate>,
    pub(crate) ids: Vec<u32>,
}

/// A copy of `v` with room for as many elements again.
fn copy_with_room<T: Clone>(v: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(2 * v.len());
    out.extend_from_slice(v);
    out
}

/// A clone reserves each array's length again. A clone is usually a
/// scratch forest about to be unlearned, and a delete appends at most
/// about one tree's worth of slots (the subtrees it rebuilds are
/// disjoint), so the room spares its first deletes a reallocation that
/// would copy the arrays and leave the old block free in the cloning
/// thread's heap.
impl Clone for NodeStore {
    fn clone(&self) -> Self {
        Self {
            hot: copy_with_room(&self.hot),
            cold: copy_with_room(&self.cold),
            candidates: copy_with_room(&self.candidates),
            ids: copy_with_room(&self.ids),
        }
    }
}

impl NodeStore {
    /// Number of slots, live or displaced.
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// Whether the store holds no slot at all.
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// The view of the node at `slot`.
    ///
    /// # Panics
    /// If `slot` is out of range.
    pub fn node(&self, slot: u32) -> NodeRef<'_> {
        assert!((slot as usize) < self.hot.len(), "slot {slot} outside the store");
        NodeRef { store: self, slot }
    }

    #[inline]
    pub(crate) fn is_leaf(&self, slot: u32) -> bool {
        self.hot[slot as usize].kids[0] == slot
    }

    pub(crate) fn lens(&self) -> Lens {
        Lens {
            slots: slot_u32(self.hot.len()),
            candidates: slot_u32(self.candidates.len()),
            ids: slot_u32(self.ids.len()),
        }
    }

    /// Frees the arrays' spare capacity: a fit grows them by doubling.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.hot.shrink_to_fit();
        self.cold.shrink_to_fit();
        self.candidates.shrink_to_fit();
        self.ids.shrink_to_fit();
    }

    /// Drops everything appended since `lens` was taken; capacity stays.
    pub(crate) fn truncate(&mut self, lens: Lens) {
        self.hot.truncate(lens.slots as usize);
        self.cold.truncate(lens.slots as usize);
        self.candidates.truncate(lens.candidates as usize);
        self.ids.truncate(lens.ids as usize);
    }

    /// Appends a leaf holding `ids`, `n_pos` of them positive.
    pub(crate) fn push_leaf(&mut self, ids: &[u32], n_pos: u32) -> u32 {
        let slot = slot_u32(self.hot.len());
        let n = slot_u32(ids.len());
        let lo = slot_u32(self.ids.len());
        self.ids.extend_from_slice(ids);
        self.hot.push(Hot { attr: 0, threshold: 0, kids: [slot, slot], proba: leaf_proba(n_pos, n) });
        self.cold.push(Cold { n, n_pos, lo, len: n, chosen: 0, random: false });
        slot
    }

    /// Appends a decision node with the candidate pool `candidates` (empty
    /// for a random node). Its children are set by [`Self::set_kids`]
    /// once they are written; until then they point outside the store.
    pub(crate) fn push_internal(
        &mut self,
        attr: u16,
        threshold: u16,
        cold: Cold,
        candidates: &[Candidate],
    ) -> u32 {
        let slot = slot_u32(self.hot.len());
        let lo = slot_u32(self.candidates.len());
        self.candidates.extend_from_slice(candidates);
        self.hot.push(Hot { attr, threshold, kids: [u32::MAX; 2], proba: 0.0 });
        self.cold.push(Cold { lo, len: slot_u32(candidates.len()), ..cold });
        slot
    }

    #[inline]
    pub(crate) fn set_kids(&mut self, slot: u32, kids: [u32; 2]) {
        self.hot[slot as usize].kids = kids;
    }

    /// The leaf's ids.
    #[inline]
    pub(crate) fn leaf_ids(&self, slot: u32) -> &[u32] {
        let c = &self.cold[slot as usize];
        &self.ids[c.lo as usize..(c.lo + c.len) as usize]
    }

    /// The greedy node's candidate pool.
    #[inline]
    pub(crate) fn pool(&self, slot: u32) -> &[Candidate] {
        let c = &self.cold[slot as usize];
        &self.candidates[c.lo as usize..(c.lo + c.len) as usize]
    }

    /// The greedy node's candidate pool, mutably.
    #[inline]
    pub(crate) fn pool_mut(&mut self, slot: u32) -> &mut [Candidate] {
        let c = self.cold[slot as usize];
        &mut self.candidates[c.lo as usize..(c.lo + c.len) as usize]
    }

    /// Sets a leaf's counts after its id range changed length, and the
    /// vote the hot array carries for it.
    #[inline]
    pub(crate) fn set_leaf_counts(&mut self, slot: u32, n: u32, n_pos: u32) {
        let c = &mut self.cold[slot as usize];
        c.n = n;
        c.len = n;
        c.n_pos = n_pos;
        self.hot[slot as usize].proba = leaf_proba(n_pos, n);
    }

    /// Appends every id under `slot` to `out`, leaves left to right.
    pub(crate) fn collect_ids(&self, slot: u32, out: &mut Vec<u32>) {
        if self.is_leaf(slot) {
            out.extend_from_slice(self.leaf_ids(slot));
        } else {
            let [l, r] = self.hot[slot as usize].kids;
            self.collect_ids(l, out);
            self.collect_ids(r, out);
        }
    }

    /// Depth of the deepest leaf under `slot` (a lone leaf has depth 0).
    pub(crate) fn depth(&self, slot: u32) -> u32 {
        if self.is_leaf(slot) {
            0
        } else {
            let [l, r] = self.hot[slot as usize].kids;
            1 + self.depth(l).max(self.depth(r))
        }
    }

    /// Appends the subtree at `slot` of `from` to `self` in preorder,
    /// returning its new root slot.
    pub(crate) fn copy_subtree(&mut self, from: &NodeStore, slot: u32) -> u32 {
        if from.is_leaf(slot) {
            let c = from.cold[slot as usize];
            return self.push_leaf(from.leaf_ids(slot), c.n_pos);
        }
        let h = from.hot[slot as usize];
        let new = self.push_internal(h.attr, h.threshold, from.cold[slot as usize], from.pool(slot));
        let left = self.copy_subtree(from, h.kids[0]);
        let right = self.copy_subtree(from, h.kids[1]);
        self.set_kids(new, [left, right]);
        new
    }
}

/// A borrowed view of one node of a [`NodeStore`].
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    store: &'a NodeStore,
    slot: u32,
}

impl std::fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("NodeRef");
        d.field("slot", &self.slot).field("n", &self.n()).field("n_pos", &self.n_pos());
        if !self.is_leaf() {
            d.field("attr", &self.attr()).field("threshold", &self.threshold());
        }
        d.finish()
    }
}

impl<'a> NodeRef<'a> {
    /// The node's slot in its store.
    pub fn slot(self) -> u32 {
        self.slot
    }

    /// Whether the node is a leaf.
    pub fn is_leaf(self) -> bool {
        self.store.is_leaf(self.slot)
    }

    /// The left (`code <= threshold`) and right children of a decision
    /// node; `None` at a leaf.
    pub fn children(self) -> Option<[NodeRef<'a>; 2]> {
        if self.is_leaf() {
            return None;
        }
        let [l, r] = self.store.hot[self.slot as usize].kids;
        Some([NodeRef { store: self.store, slot: l }, NodeRef { store: self.store, slot: r }])
    }

    /// Instances under this node.
    pub fn n(self) -> u32 {
        self.store.cold[self.slot as usize].n
    }

    /// Positive instances under this node.
    pub fn n_pos(self) -> u32 {
        self.store.cold[self.slot as usize].n_pos
    }

    /// `leaf_proba(n_pos, n)`: a leaf's vote, or a decision node's
    /// majority share.
    pub fn proba(self) -> f64 {
        leaf_proba(self.n_pos(), self.n())
    }

    /// Splitting attribute (0 at leaves).
    pub fn attr(self) -> u16 {
        self.store.hot[self.slot as usize].attr
    }

    /// Split threshold: codes `<= threshold` go left (0 at leaves).
    pub fn threshold(self) -> u16 {
        self.store.hot[self.slot as usize].threshold
    }

    /// Whether this is one of the tree's random upper-layer nodes (chosen
    /// uniformly, no cached candidates, rarely retrained).
    pub fn is_random(self) -> bool {
        self.store.cold[self.slot as usize].random
    }

    /// Cached candidate splits of a greedy node; empty for random nodes
    /// and leaves.
    pub fn candidates(self) -> &'a [Candidate] {
        if self.is_leaf() {
            &[]
        } else {
            self.store.pool(self.slot)
        }
    }

    /// Index into [`Self::candidates`] of the chosen split (greedy nodes).
    pub fn chosen(self) -> u32 {
        self.store.cold[self.slot as usize].chosen
    }

    /// Training-instance ids of a leaf; empty for decision nodes.
    pub fn ids(self) -> &'a [u32] {
        if self.is_leaf() {
            self.store.leaf_ids(self.slot)
        } else {
            &[]
        }
    }

    /// Collects all training-instance ids under this node, leaves left
    /// to right (ascending order is *not* guaranteed).
    pub fn collect_ids(self, out: &mut Vec<u32>) {
        self.store.collect_ids(self.slot, out);
    }

    /// The leaf `row` of `data` lands in, by the branching walk: test for
    /// a leaf, compare, follow one child.
    pub fn route_row(self, data: &Dataset, row: usize) -> NodeRef<'a> {
        let mut node = self;
        while let Some([left, right]) = node.children() {
            node = if data.code(row, node.attr() as usize) <= node.threshold() { left } else { right };
        }
        node
    }

    /// The reference prediction walk: the [`Self::proba`] of the leaf
    /// `row` lands in, computed from the leaf's counts. The kernel in
    /// [`plan`](crate::plan) must match it bitwise.
    pub fn predict_row(self, data: &Dataset, row: usize) -> f64 {
        self.route_row(data, row).proba()
    }

    /// Number of nodes in this subtree (internal + leaves).
    pub fn size(self) -> usize {
        match self.children() {
            None => 1,
            Some([l, r]) => 1 + l.size() + r.size(),
        }
    }

    /// Depth of this subtree (a lone leaf has depth 0).
    pub fn depth(self) -> usize {
        self.store.depth(self.slot) as usize
    }
}

/// Structural equality: same shape, and at every node the same split,
/// flags, counts, candidate pool and leaf ids, wherever the nodes sit in
/// their stores.
impl PartialEq for NodeRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (*self, *other);
        let same_node = a.attr() == b.attr()
            && a.threshold() == b.threshold()
            && a.is_random() == b.is_random()
            && a.n() == b.n()
            && a.n_pos() == b.n_pos()
            && a.chosen() == b.chosen()
            && a.candidates() == b.candidates()
            && a.ids() == b.ids();
        same_node
            && match (a.children(), b.children()) {
                (None, None) => true,
                (Some([al, ar]), Some([bl, br])) => al == bl && ar == br,
                _ => false,
            }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Split on attr 0 at threshold 0: code 0 → left leaf, 1.. → right.
    pub(crate) fn tiny_tree() -> (NodeStore, u32) {
        let mut s = NodeStore::default();
        let cold = Cold { n: 5, n_pos: 3, lo: 0, len: 0, chosen: 0, random: false };
        let cand = Candidate { attr: 0, threshold: 0, n_left: 2, n_left_pos: 0 };
        let root = s.push_internal(0, 0, cold, &[cand]);
        let left = s.push_leaf(&[0, 3], 0);
        let right = s.push_leaf(&[1, 2, 4], 3);
        s.set_kids(root, [left, right]);
        (s, root)
    }

    #[test]
    fn structural_accessors() {
        let (s, root) = tiny_tree();
        let t = s.node(root);
        assert_eq!(t.n(), 5);
        assert_eq!(t.n_pos(), 3);
        assert_eq!(t.size(), 3);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.candidates().len(), 1);
        let mut ids = Vec::new();
        t.collect_ids(&mut ids);
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        let [l, r] = t.children().unwrap();
        assert!(l.is_leaf() && r.is_leaf());
        assert_eq!((l.ids(), r.ids()), (&[0, 3][..], &[1, 2, 4][..]));
        assert!(l.candidates().is_empty() && t.ids().is_empty());
    }

    #[test]
    fn leaf_probability() {
        assert_eq!(leaf_proba(0, 0), 0.5);
        assert_eq!(leaf_proba(2, 2), 1.0);
        assert_eq!(leaf_proba(1, 4), 0.25);
        // The hot array carries the same bits the counts give.
        let (mut s, _) = tiny_tree();
        s.set_leaf_counts(2, 2, 1);
        assert_eq!(s.hot[2].proba.to_bits(), s.node(2).proba().to_bits());
    }

    #[test]
    fn prediction_routes_by_threshold() {
        use fume_tabular::{Attribute, Schema};
        use std::sync::Arc;
        let schema = Arc::new(
            Schema::with_default_label(vec![Attribute::categorical(
                "x",
                vec!["a".into(), "b".into()],
            )])
            .unwrap(),
        );
        let data =
            Dataset::new(schema, vec![vec![0, 1]], vec![false, true]).unwrap();
        let (s, root) = tiny_tree();
        let t = s.node(root);
        assert_eq!(t.predict_row(&data, 0), 0.0); // goes left
        assert_eq!(t.predict_row(&data, 1), 1.0); // goes right
        assert_eq!(t.route_row(&data, 1).slot(), 2);
    }

    #[test]
    fn equality_is_structural_and_store_equality_is_raw() {
        let (a, ra) = tiny_tree();
        // The same tree behind a displaced leaf: other slots, same shape.
        let mut b = NodeStore::default();
        b.push_leaf(&[9], 1);
        let rb = b.copy_subtree(&a, ra);
        assert_eq!(a.node(ra), b.node(rb));
        assert_ne!(a, b);
        let mut c = a.clone();
        c.set_leaf_counts(1, 1, 0);
        assert_ne!(a.node(ra), c.node(ra));
    }
}
