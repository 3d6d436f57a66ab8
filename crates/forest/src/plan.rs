//! The flattened prediction plan: a read-optimized arena compiled from a
//! deployed [`DareForest`], plus the blocked batch-traversal kernel that
//! replaces the pointer walk in full prediction passes.
//!
//! A [`DareForest`] is built to *mutate*: every node carries the cached
//! statistics exact unlearning needs, children live behind `Box`es, and a
//! prediction walk chases one heap pointer per level. That layout is right
//! for `delete`/`insert` and wrong for the full passes FUME's pipeline
//! keeps paying — violation checks, baseline scoring, the bias of every
//! counterfactual model over a large test set — where the *same* static
//! structure is traversed for thousands of rows. DaRE-style systems
//! (Brophy & Lowd; DynFrs) keep the mutable training structure and serve
//! inference from a compact read-only copy; [`PredictPlan`] is that copy.
//!
//! ## Layout
//!
//! Each tree is flattened **preorder** into an arena of 16-byte packed
//! nodes — feature id, threshold, both child slots, and the leaf
//! probability — with node addresses in a parallel side array (cold data
//! for the [`RoutingIndex`](crate::routing::RoutingIndex) diagnostic; the
//! kernel never touches it). In preorder a **subtree occupies one
//! contiguous range** of slots, and a node's **left child is the next
//! slot** (`i + 1`) — stored anyway as `kids[0]` so a traversal step
//! selects its successor by *indexing* (`kids[go_right]`), never by
//! branching on the split direction.
//!
//! A **leaf points both children at itself**, so stepping a row that has
//! already landed is a harmless self-loop. That makes every descent a
//! fixed-length loop (the tree's maximum leaf depth) with *no data-
//! dependent branches at all*: split directions are coin flips that a
//! branch predictor loses every other step, so the kernel replaces the
//! leaf test and the direction jump with indexed loads.
//!
//! ## The kernel
//!
//! [`PredictPlan::predict_into`] processes rows in blocks, trees-outer /
//! rows-inner within each block, accumulating per-row sums and dividing
//! once — the **exact float sequence** of [`DareForest::predict_row`], so
//! plan predictions are bitwise identical to the pointer walk (not merely
//! close). Within a tree the kernel descends [`LANES`](self) rows at
//! once: one row's walk is a serial chain of dependent loads (node →
//! feature code → compare → child slot → next node), so a single descent
//! is latency-bound at roughly a dozen cycles per level no matter how the
//! node is packed. Eight *independent* descents in flight overlap those
//! chains and turn the walk throughput-bound — this, not the flat layout
//! alone, is where the speedup over the pointer walk comes from (the
//! pointer walk cannot interleave: each step chases a heap pointer and
//! the borrow of one tree's `Box` chain pins the whole traversal order).
//! `FUME_DEEPCHECK=1` cross-checks the bitwise claim per full pass in
//! debug builds, and `benches/predict_kernel.rs` asserts it at bench
//! scale before comparing speed.
//!
//! ## Unlearning
//!
//! The plan describes the forest *as compiled* and is never patched: a
//! pass over a forest that has since been unlearned, rolled back or
//! extended compiles a fresh plan. [`DareForest::predict_proba`] does so
//! for every pass of at least [`PLAN_FULL_PASS_MIN_ROWS`] rows and walks
//! the pointer trees below that, so each unlearn-eval pays one compile
//! plus one pass, or one pointer-walk pass. `plan.recompile` spans and
//! the `fume.plan.{compiles,bytes}` counters make the compile cost
//! visible (see `docs/observability.md`).

use fume_tabular::{Classifier, Dataset};

use crate::forest::DareForest;
use crate::journal::NodePath;
use crate::node::Node;

/// Rows per traversal block in [`PredictPlan::predict_into`]: the block's
/// accumulator (2 KiB of `f64`) stays L1-resident across all trees, while
/// each tree's arena stays hot across all rows of the block.
pub const BLOCK_ROWS: usize = 256;

/// Interleaved descents per kernel step: enough independent load chains
/// to keep the memory ports busy while each chain waits out its own
/// latency, few enough that the lane state stays in registers.
const LANES: usize = 8;

/// Full passes over at least this many rows route through a compiled
/// [`PredictPlan`] in [`DareForest::predict_proba`]; smaller passes walk
/// the pointer structure directly, where a compile would cost more than
/// it saves. Purely a performance threshold — both paths are bitwise
/// identical.
pub const PLAN_FULL_PASS_MIN_ROWS: usize = 512;

/// An arena index as `u32` — the plan-side sibling of
/// [`fume_tabular::cast::row_u32`]: arena sizes are bounded by node
/// counts, which the builder bounds by instance counts, which dataset
/// construction bounds to the `u32` row universe.
fn node_u32(i: usize) -> u32 {
    // fume-lint: allow(F001) -- audited narrowing: arena node counts are bounded by training-instance counts, which dataset construction caps at u32
    i.try_into().expect("plan arena exceeds the u32 node universe")
}

/// One arena slot: everything a traversal step consults, packed into 16
/// bytes (4 nodes per cache line). A leaf is any slot whose children
/// point back at itself — there is no sentinel feature, so a leaf's
/// `feat`/`thresh` are inert but *safe* to consult, and the kernel never
/// needs a leaf test.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PackedNode {
    /// Splitting attribute; 0 (an ordinary, valid column) at leaves —
    /// harmless because both children loop back to the leaf itself.
    feat: u16,
    /// Split threshold (`code <= thresh` goes left); 0 at leaves.
    thresh: u16,
    /// Child slots, `kids[0]` left / `kids[1]` right, so a step is
    /// `kids[go_right]` — an indexed load, not a conditional jump. At a
    /// leaf both entries hold the leaf's own slot (the self-loop).
    kids: [u32; 2],
    /// Leaf probability; 0.0 at internal nodes. Embedded in the node so
    /// the terminal read of a walk comes from the line the final step
    /// already loaded.
    proba: f64,
}

/// One tree flattened into a preorder struct-of-arrays arena.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TreePlan {
    /// The hot array: one packed node per slot, in preorder.
    nodes: Vec<PackedNode>,
    /// Each slot's address in the pointer tree — cold data for the
    /// routing index; the kernel never touches it.
    path: Vec<NodePath>,
    /// Maximum leaf depth: the fixed step count that lands *every* row on
    /// its leaf (shallower rows self-loop for the remaining steps).
    steps: u32,
}

impl TreePlan {
    fn from_root(root: &Node) -> Self {
        let n = root.size();
        let mut plan = Self {
            nodes: Vec::with_capacity(n),
            path: Vec::with_capacity(n),
            steps: 0,
        };
        plan.flatten(root, NodePath::ROOT);
        plan.steps = plan.max_depth();
        plan
    }

    /// Appends `node`'s subtree in preorder. The left child lands at the
    /// next slot (`kids[0]` is known immediately); the right child slot
    /// is patched in once the left subtree's extent is known. Leaves
    /// self-loop: both children point back at the leaf's own slot.
    fn flatten(&mut self, node: &Node, path: NodePath) {
        match node {
            Node::Leaf(leaf) => {
                let slot = node_u32(self.nodes.len());
                self.nodes.push(PackedNode {
                    feat: 0,
                    thresh: 0,
                    kids: [slot, slot],
                    proba: leaf.proba(),
                });
                self.path.push(path);
            }
            Node::Internal(internal) => {
                let slot = self.nodes.len();
                self.nodes.push(PackedNode {
                    feat: internal.attr,
                    thresh: internal.threshold,
                    kids: [node_u32(slot + 1), 0],
                    proba: 0.0,
                });
                self.path.push(path);
                self.flatten(&internal.left, path.child(false));
                self.nodes[slot].kids[1] = node_u32(self.nodes.len());
                self.flatten(&internal.right, path.child(true));
            }
        }
    }

    /// Maximum leaf depth, from the recorded pointer-tree addresses.
    fn max_depth(&self) -> u32 {
        self.path.iter().map(|p| u32::from(p.depth())).max().unwrap_or(0)
    }

    /// Positive-class probability of `row` — the arena twin of
    /// [`Node::predict_row`], bit for bit. Runs the fixed-length
    /// branch-free descent: exactly [`Self::steps`] indexed steps (a row
    /// that lands early self-loops on its leaf), then one probability
    /// read. No leaf test, no direction branch.
    #[inline]
    pub(crate) fn predict_row(&self, data: &Dataset, row: usize) -> f64 {
        let mut i = 0usize;
        for _ in 0..self.steps {
            let node = &self.nodes[i];
            let go = usize::from(data.code(row, node.feat as usize) > node.thresh);
            i = node.kids[go] as usize;
        }
        self.nodes[i].proba
    }

    /// Descends [`LANES`] consecutive rows (`first_row..first_row +
    /// LANES`) through this tree at once, returning their leaf
    /// probabilities. Each lane's walk is a serial chain of dependent
    /// loads; running the lanes in lockstep keeps that many independent
    /// chains in flight, which is what makes the kernel faster than any
    /// single-row walk can be. The self-looping leaves make lockstep
    /// trivially correct: lanes that land early just spin in place.
    #[inline]
    fn predict_lanes(&self, data: &Dataset, first_row: usize) -> [f64; LANES] {
        let mut idx = [0usize; LANES];
        for _ in 0..self.steps {
            for (lane, i) in idx.iter_mut().enumerate() {
                let node = &self.nodes[*i];
                let code = data.code(first_row + lane, node.feat as usize);
                *i = node.kids[usize::from(code > node.thresh)] as usize;
            }
        }
        let mut out = [0.0; LANES];
        for (lane, i) in idx.iter().enumerate() {
            out[lane] = self.nodes[*i].proba;
        }
        out
    }

    /// Arena slot of the leaf `row` lands in.
    #[inline]
    pub(crate) fn route_row(&self, data: &Dataset, row: usize) -> usize {
        let mut i = 0usize;
        for _ in 0..self.steps {
            let node = &self.nodes[i];
            let go = usize::from(data.code(row, node.feat as usize) > node.thresh);
            i = node.kids[go] as usize;
        }
        i
    }

    /// The leaf probability stored at `slot`.
    #[inline]
    pub(crate) fn proba_of(&self, slot: usize) -> f64 {
        self.nodes[slot].proba
    }

    /// The pointer-tree address of `slot`.
    #[inline]
    pub(crate) fn path_of(&self, slot: usize) -> NodePath {
        self.path[slot]
    }

    /// Number of arena slots.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.len() * (size_of::<PackedNode>() + size_of::<NodePath>())
    }
}

/// An immutable, cache-friendly prediction kernel compiled from a
/// deployed [`DareForest`]: per-tree preorder struct-of-arrays arenas
/// plus a blocked batch-traversal pass that is bitwise identical to the
/// pointer walk (see the [module docs](self) for the layout and the
/// float-order argument).
///
/// ```
/// use fume_forest::{DareConfig, DareForest, PredictPlan};
/// use fume_tabular::datasets::planted_toy;
/// use fume_tabular::Classifier;
///
/// let (data, _) = planted_toy().generate_scaled(0.2, 7).unwrap();
/// let forest = DareForest::fit(&data, DareConfig::small(7));
/// let plan = PredictPlan::compile(&forest);
/// let fast = plan.predict_proba(&data);
/// for (row, p) in fast.iter().enumerate() {
///     assert_eq!(p.to_bits(), forest.predict_row(&data, row).to_bits());
/// }
/// ```
///
/// The plan describes the forest as it was at [`Self::compile`] time;
/// compile again after the forest changes.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictPlan {
    trees: Vec<TreePlan>,
}

impl PredictPlan {
    /// Flattens every tree of `forest` into its arena form. Emits a
    /// `plan.recompile` span and the `fume.plan.compiles` /
    /// `fume.plan.bytes` counters.
    pub fn compile(forest: &DareForest) -> Self {
        let _span = fume_obs::span!(
            "plan.recompile",
            trees = forest.trees().len(),
            full = true
        );
        let trees: Vec<TreePlan> =
            forest.trees().iter().map(|t| TreePlan::from_root(t.root())).collect();
        let plan = Self { trees };
        fume_obs::counter!("fume.plan.compiles", 1);
        fume_obs::counter!("fume.plan.bytes", plan.approx_bytes());
        plan
    }

    /// Number of flattened trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Total arena slots across all trees (internal nodes plus leaves).
    pub fn num_nodes(&self) -> usize {
        self.trees.iter().map(TreePlan::len).sum()
    }

    /// Rough arena footprint in bytes (what `fume.plan.bytes` reports).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.trees.iter().map(TreePlan::approx_bytes).sum::<usize>()
    }

    /// The per-tree arenas, for consumers that need per-tree routing
    /// (the routing index reads leaf addresses and probabilities straight
    /// out of the arena).
    pub(crate) fn tree_plans(&self) -> &[TreePlan] {
        &self.trees
    }

    /// The blocked batch kernel: fills `out[row]` with the ensemble
    /// probability of every row of `data`, in blocks of [`BLOCK_ROWS`],
    /// trees-outer / rows-inner within each block — the exact
    /// accumulate-then-divide float order of [`DareForest::predict_row`],
    /// so the result is bitwise identical to the pointer walk. Emits a
    /// `plan.predict_block` span per pass.
    ///
    /// # Panics
    /// If `out.len() != data.num_rows()`.
    pub fn predict_into(&self, data: &Dataset, out: &mut [f64]) {
        assert_eq!(out.len(), data.num_rows(), "output slice must cover every row");
        if self.trees.is_empty() {
            // The empty ensemble is maximally uncertain, matching
            // `DareForest::predict_row`.
            out.fill(0.5);
            return;
        }
        let _span = fume_obs::span!(
            "plan.predict_block",
            rows = out.len(),
            trees = self.trees.len()
        );
        let k = self.trees.len() as f64;
        let mut start = 0usize;
        while start < data.num_rows() {
            let end = (start + BLOCK_ROWS).min(data.num_rows());
            let block = &mut out[start..end];
            block.fill(0.0);
            for tree in &self.trees {
                // Interleaved descents in LANES-row groups; the block
                // tail (and any short block) falls back to the scalar
                // walk, which lands on the same leaf and reads the same
                // probability — per-row sums stay one addend per tree in
                // tree order either way, so the interleave cannot
                // perturb the float sequence.
                let mut off = 0usize;
                while off + LANES <= block.len() {
                    let probas = tree.predict_lanes(data, start + off);
                    for (slot, p) in block[off..off + LANES].iter_mut().zip(probas) {
                        *slot += p;
                    }
                    off += LANES;
                }
                for (rest, slot) in block[off..].iter_mut().enumerate() {
                    *slot += tree.predict_row(data, start + off + rest);
                }
            }
            for slot in block.iter_mut() {
                *slot /= k;
            }
            start = end;
        }
    }
}

impl Classifier for PredictPlan {
    /// [`Self::predict_into`] against a fresh vector — so a compiled plan
    /// drops in anywhere a model is scored (`metric.bias(&plan, ..)`,
    /// `plan.accuracy(..)`).
    fn predict_proba(&self, data: &Dataset) -> Vec<f64> {
        let mut out = vec![0.0f64; data.num_rows()];
        self.predict_into(data, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DareConfig;
    use fume_tabular::datasets::planted_toy;
    use fume_tabular::split::train_test_split;

    fn setup(seed: u64) -> (Dataset, Dataset, DareForest) {
        let (data, _) = planted_toy().generate_scaled(0.2, seed).unwrap();
        let (train, test) = train_test_split(&data, 0.3, seed).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(seed));
        (train, test, forest)
    }

    fn assert_bitwise(plan: &PredictPlan, forest: &DareForest, data: &Dataset) {
        let fast = plan.predict_proba(data);
        for (row, p) in fast.iter().enumerate() {
            assert_eq!(
                p.to_bits(),
                forest.predict_row(data, row).to_bits(),
                "row {row}"
            );
        }
    }

    #[test]
    fn compiled_plan_matches_the_pointer_walk_bitwise() {
        let (train, test, mut forest) = setup(51);
        let plan = PredictPlan::compile(&forest);
        assert_eq!(plan.num_trees(), forest.trees().len());
        let expected: usize = forest.trees().iter().map(|t| t.root().size()).sum();
        assert_eq!(plan.num_nodes(), expected);
        assert!(plan.approx_bytes() > 0);
        assert_bitwise(&plan, &forest, &test);

        // Plans compiled after a journaled delete and after its rollback
        // carry the pointer walk's bits too, and the rolled-back forest
        // compiles to the original arena.
        let subset: Vec<u32> = (0..60).step_by(3).collect();
        let journal = forest.delete_journaled(&subset, &train);
        let unlearned = PredictPlan::compile(&forest);
        assert_ne!(unlearned, plan, "the delete must change the arena");
        assert_bitwise(&unlearned, &forest, &test);
        forest.rollback(journal);
        let restored = PredictPlan::compile(&forest);
        assert_bitwise(&restored, &forest, &test);
        assert_eq!(restored, plan, "rollback restores the compiled arena");
    }

    #[test]
    fn arena_structure_is_preorder_with_implicit_left_children() {
        let (_, test, forest) = setup(52);
        let plan = PredictPlan::compile(&forest);
        for (tree, pointer) in plan.tree_plans().iter().zip(forest.trees()) {
            let size = |slot: usize| tree.path[slot].locate(pointer.root()).size();
            assert_eq!(size(0), tree.len(), "root spans the arena");
            let mut deepest = 0u32;
            for i in 0..tree.len() {
                deepest = deepest.max(u32::from(tree.path[i].depth()));
                if tree.nodes[i].kids[0] as usize == i {
                    assert_eq!(tree.nodes[i].kids, [i as u32; 2], "leaf self-loops");
                } else {
                    let [l, r] = tree.nodes[i].kids.map(|k| k as usize);
                    // Left child is the next slot; the left subtree is
                    // exactly `i+1..r`, the right subtree runs from `r`
                    // to the end of `i`'s contiguous range.
                    assert_eq!(l, i + 1);
                    assert_eq!(l + size(l), r);
                    assert_eq!(r + size(r), i + size(i));
                    // The stored paths agree with the slot structure.
                    assert_eq!(tree.path[l], tree.path[i].child(false));
                    assert_eq!(tree.path[r], tree.path[i].child(true));
                }
            }
            assert_eq!(tree.steps, deepest, "steps covers the deepest leaf");
        }
        // Routing lands on slots whose path/proba match the walk.
        for (t, tree) in forest.trees().iter().enumerate() {
            let arena = &plan.tree_plans()[t];
            for row in 0..test.num_rows() {
                let (path, proba) = tree.root().route_row(&test, row);
                let slot = arena.route_row(&test, row);
                assert_eq!(arena.path_of(slot), path);
                assert_eq!(arena.proba_of(slot).to_bits(), proba.to_bits());
            }
        }
    }

    #[test]
    fn empty_forest_plan_answers_half() {
        let (data, _) = planted_toy().generate_scaled(0.1, 53).unwrap();
        let cfg = DareConfig { n_trees: 0, ..DareConfig::small(53) };
        let forest = DareForest::fit(&data, cfg);
        let plan = PredictPlan::compile(&forest);
        assert_eq!(plan.num_trees(), 0);
        for p in plan.predict_proba(&data) {
            assert_eq!(p.to_bits(), 0.5f64.to_bits());
        }
    }

    #[test]
    fn predict_into_rejects_misshapen_output() {
        let (_, test, forest) = setup(57);
        let plan = PredictPlan::compile(&forest);
        let mut out = vec![0.0; test.num_rows() + 1];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.predict_into(&test, &mut out)
        }));
        assert!(err.is_err(), "length mismatch must panic");
    }
}
