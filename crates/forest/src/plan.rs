//! The prediction kernel: a blocked, 8-lane batch traversal over the hot
//! arrays of a forest's [node stores](crate::node), plus [`PredictPlan`],
//! a frozen copy of those arrays.
//!
//! [`DareForest::predict_proba`] runs this kernel on the live hot arrays
//! for every pass, whatever its size: nothing is compiled, and there is
//! one full-pass path. A pass over a forest that was just unlearned,
//! rolled back or extended reads the arrays as they are.
//!
//! ## Layout
//!
//! Each slot's hot record is 16 bytes — feature id, threshold, both child
//! slots and the leaf probability, four per cache line. A step selects its
//! successor by *indexing* (`kids[go_right]`), never by branching on the
//! split direction. A **leaf points both children at itself**, so
//! stepping a row that has already landed is a harmless self-loop. That
//! makes every descent a fixed-length loop (the tree's step count, at
//! least its deepest leaf) with *no data-dependent branches at all*:
//! split directions are coin flips that a branch predictor loses every
//! other step, so the kernel replaces the leaf test and the direction
//! jump with indexed loads. A fit writes the tree in preorder, so a left
//! child sits in the next slot; subtrees that unlearning rebuilds are
//! appended at the end, which costs the walk nothing.
//!
//! ## The kernel
//!
//! The kernel processes rows in blocks, trees-outer / rows-inner
//! within each block, accumulating per-row sums and dividing once — the
//! **exact float sequence** of the reference walk
//! ([`DareForest::predict_proba_reference`]), so predictions are bitwise
//! identical to it (not merely close). Within a tree the kernel descends
//! [`LANES`](self) rows at once: one row's walk is a serial chain of
//! dependent loads (node → feature code → compare → child slot → next
//! node), so a single descent is latency-bound at roughly a dozen cycles
//! per level no matter how the node is packed. Eight *independent*
//! descents in flight overlap those chains and turn the walk
//! throughput-bound. `FUME_DEEPCHECK=1` cross-checks the bitwise claim on
//! every full pass in debug builds, and `benches/predict_kernel.rs`
//! asserts it at bench scale before comparing speed.
//!
//! ## The plan
//!
//! [`PredictPlan::compile`] copies each tree's hot array, root and step
//! count; it describes the forest as compiled and is never patched. No
//! library path compiles one. It remains for the `explain_e2e`
//! benchmark's probe, together with the [routing index](crate::routing)
//! built from it. `plan.recompile` spans and the
//! `fume.plan.{compiles,bytes}` counters make each compile visible (see
//! `docs/observability.md`).

use fume_tabular::{Classifier, Dataset};

use crate::forest::DareForest;
use crate::node::Hot;

/// Rows per traversal block of the kernel: the block's accumulator
/// (2 KiB of `f64`) stays L1-resident across all trees, while each tree's
/// hot array stays hot across all rows of the block.
pub const BLOCK_ROWS: usize = 256;

/// Interleaved descents per kernel step: enough independent load chains
/// to keep the memory ports busy while each chain waits out its own
/// latency, few enough that the lane state stays in registers.
const LANES: usize = 8;

/// One tree as the kernel walks it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotTree<'a> {
    /// The hot array, live and displaced slots alike.
    pub(crate) nodes: &'a [Hot],
    /// Where every descent starts.
    pub(crate) root: u32,
    /// Steps that land *every* row on its leaf (shallower rows self-loop
    /// for the remaining steps).
    pub(crate) steps: u32,
}

impl HotTree<'_> {
    /// Slot of the leaf `row` lands in: exactly [`Self::steps`] indexed
    /// steps, no leaf test, no direction branch.
    #[inline]
    pub(crate) fn route_row(&self, data: &Dataset, row: usize) -> usize {
        let mut i = self.root as usize;
        for _ in 0..self.steps {
            let node = &self.nodes[i];
            let go = usize::from(data.code(row, node.attr as usize) > node.threshold);
            i = node.kids[go] as usize;
        }
        i
    }

    /// Positive-class probability of `row` — bitwise the reference walk's.
    #[inline]
    pub(crate) fn predict_row(&self, data: &Dataset, row: usize) -> f64 {
        self.nodes[self.route_row(data, row)].proba
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
        let mut idx = [self.root as usize; LANES];
        for _ in 0..self.steps {
            for (lane, i) in idx.iter_mut().enumerate() {
                let node = &self.nodes[*i];
                let code = data.code(first_row + lane, node.attr as usize);
                *i = node.kids[usize::from(code > node.threshold)] as usize;
            }
        }
        idx.map(|i| self.nodes[i].proba)
    }
}

/// The blocked batch kernel: fills `out[row]` with the ensemble
/// probability of every row of `data`, in blocks of [`BLOCK_ROWS`],
/// trees-outer / rows-inner within each block — the exact
/// accumulate-then-divide float order of the reference walk, so the
/// result is bitwise identical to it. Emits a `plan.predict_block` span
/// per pass.
///
/// # Panics
/// If `out.len() != data.num_rows()`.
pub(crate) fn predict_into(trees: &[HotTree<'_>], data: &Dataset, out: &mut [f64]) {
    assert_eq!(out.len(), data.num_rows(), "output slice must cover every row");
    if trees.is_empty() {
        // The empty ensemble is maximally uncertain, matching
        // `DareForest::predict_row`.
        out.fill(0.5);
        return;
    }
    let _span = fume_obs::span!("plan.predict_block", rows = out.len(), trees = trees.len());
    let k = trees.len() as f64;
    let mut start = 0usize;
    while start < data.num_rows() {
        let end = (start + BLOCK_ROWS).min(data.num_rows());
        let block = &mut out[start..end];
        block.fill(0.0);
        for tree in trees {
            // Interleaved descents in LANES-row groups; the block tail
            // (and any short block) falls back to the scalar walk, which
            // lands on the same leaf and reads the same probability —
            // per-row sums stay one addend per tree in tree order either
            // way, so the interleave cannot perturb the float sequence.
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

/// One tree's frozen hot array.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TreePlan {
    pub(crate) nodes: Vec<Hot>,
    pub(crate) root: u32,
    pub(crate) steps: u32,
}

impl TreePlan {
    pub(crate) fn hot(&self) -> HotTree<'_> {
        HotTree { nodes: &self.nodes, root: self.root, steps: self.steps }
    }
}

/// A frozen copy of a [`DareForest`]'s hot arrays, scored by the same
/// blocked kernel as the live forest, bitwise identically (see the
/// [module docs](self)).
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
    /// Copies every tree's hot array. Emits a `plan.recompile` span and
    /// the `fume.plan.compiles` / `fume.plan.bytes` counters.
    pub fn compile(forest: &DareForest) -> Self {
        let _span = fume_obs::span!(
            "plan.recompile",
            trees = forest.trees().len(),
            full = true
        );
        let trees = forest
            .trees()
            .iter()
            .map(|t| TreePlan { nodes: t.store.hot.clone(), root: t.root, steps: t.steps })
            .collect();
        let plan = Self { trees };
        fume_obs::counter!("fume.plan.compiles", 1);
        fume_obs::counter!("fume.plan.bytes", plan.approx_bytes());
        plan
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Total slots across all trees.
    pub fn num_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.nodes.len()).sum()
    }

    /// Rough footprint in bytes (what `fume.plan.bytes` reports).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.num_nodes() * std::mem::size_of::<Hot>()
    }

    /// The per-tree copies, for the routing index.
    pub(crate) fn tree_plans(&self) -> &[TreePlan] {
        &self.trees
    }

    /// Runs the blocked kernel over the copied arrays: fills `out[row]`
    /// with the ensemble probability of every row of `data`, bitwise the
    /// forest's answer at compile time.
    ///
    /// # Panics
    /// If `out.len() != data.num_rows()`.
    pub fn predict_into(&self, data: &Dataset, out: &mut [f64]) {
        let trees: Vec<HotTree<'_>> = self.trees.iter().map(TreePlan::hot).collect();
        predict_into(&trees, data, out);
    }
}

impl Classifier for PredictPlan {
    /// [`Self::predict_into`] against a fresh vector.
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
        let reference = forest.predict_proba_reference(data);
        for (row, (p, r)) in fast.iter().zip(&reference).enumerate() {
            assert_eq!(p.to_bits(), r.to_bits(), "row {row}");
            assert_eq!(p.to_bits(), forest.predict_row(data, row).to_bits(), "row {row}");
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
        // carry the reference walk's bits too, and the rolled-back forest
        // compiles to the original arrays.
        let subset: Vec<u32> = (0..60).step_by(3).collect();
        let journal = forest.delete_journaled(&subset, &train);
        let unlearned = PredictPlan::compile(&forest);
        assert_ne!(unlearned, plan, "the delete must change the arrays");
        assert_bitwise(&unlearned, &forest, &test);
        forest.rollback(journal);
        let restored = PredictPlan::compile(&forest);
        assert_bitwise(&restored, &forest, &test);
        assert_eq!(restored, plan, "rollback restores the compiled arrays");
    }

    #[test]
    fn arena_structure_is_preorder_with_implicit_left_children() {
        let (_, test, forest) = setup(52);
        let plan = PredictPlan::compile(&forest);
        for (tree, live) in plan.tree_plans().iter().zip(forest.trees()) {
            let size = |slot: usize| live.store().node(slot as u32).size();
            assert_eq!(tree.root, 0, "a fit writes the root first");
            assert_eq!(size(0), tree.nodes.len(), "root spans the arrays");
            for i in 0..tree.nodes.len() {
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
                }
            }
            assert_eq!(tree.steps as usize, live.root().depth(), "steps is the deepest leaf");
        }
        // Routing lands on the slot the reference walk lands on.
        for (tree, live) in plan.tree_plans().iter().zip(forest.trees()) {
            for row in 0..test.num_rows() {
                let leaf = live.root().route_row(&test, row);
                let slot = tree.hot().route_row(&test, row);
                assert_eq!(slot as u32, leaf.slot());
                assert_eq!(tree.nodes[slot].proba.to_bits(), leaf.proba().to_bits());
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
        for p in forest.predict_proba(&data) {
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
