//! Tree construction: random upper layers + greedy Gini nodes with cached
//! candidate-threshold statistics.
//!
//! One [`TreeBuilder`] serves one build: a fit, or every rebuild and
//! replenishment of one delete or insert pass. It recurses over a borrowed
//! id slice that it partitions in place, and keeps every per-node working
//! set (attribute order, cut list, label-split histograms, candidate
//! staging, partition spill) in scratch buffers reused from node to node —
//! and, through [`BuildBuffers`], from one pass over a tree to the next.
//! It writes each node into the tree's [`NodeStore`] in preorder: the node,
//! then its left subtree, then its right. A node therefore allocates
//! nothing of its own; the store's arrays grow by amortized doubling.
//!
//! The row loops have no data-dependent branch: a partition writes each
//! id to both sides and advances one cursor by the comparison, and a
//! greedy node fills its sampled attributes' histograms four at a time
//! in one pass over its ids.
//!
//! A built tree is a pure function of the ids' order, the configuration
//! and the RNG stream. The order and slice length of every RNG draw (the
//! attribute shuffle, each random threshold, each cut-list shuffle) and
//! the stability of every partition are part of that contract: seeded
//! forests, their persisted bytes and the retrains of every later delete
//! depend on them. Histograms draw nothing, so a greedy node fills all of
//! them before its first cut draw without moving one; and when `k'`
//! covers every cut of an attribute, the builder makes the shuffle's
//! draws without shuffling, since the kept cuts are the same ascending
//! list either way.

use fume_tabular::cast::{code_u16, row_u32};
use fume_tabular::rng::{Rng, SliceRandom, StdRng};
use fume_tabular::Dataset;

use crate::config::DareConfig;
use crate::gini::{gini, split_gain};
use crate::node::{Candidate, Cold, NodeStore};

/// Tolerance for "strictly better" gain comparisons: build-time choice and
/// delete-time re-evaluation must use the same epsilon or unlearning would
/// retrain on floating-point noise.
pub(crate) const GAIN_EPS: f64 = 1e-12;

/// One histogram bin: `[instances, positive instances]`.
type Bin = [u32; 2];

/// The work a builder did, counted as it goes: what a tree fit, or a
/// forest's delete or insert pass, emits as the `forest.nodes_built`,
/// `forest.rows_histogrammed` and `forest.rows_partitioned` counters.
/// For a given seed the counts are exact, so they show a change of one
/// node where a timing cannot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildWork {
    /// Nodes written, leaves included.
    pub nodes_built: usize,
    /// `(attribute, row)` pairs counted into label-split histograms.
    pub rows_histogrammed: usize,
    /// Ids that stable partitions moved.
    pub rows_partitioned: usize,
}

impl BuildWork {
    /// Merges another count into this one.
    pub fn merge(&mut self, other: &BuildWork) {
        self.nodes_built += other.nodes_built;
        self.rows_histogrammed += other.rows_histogrammed;
        self.rows_partitioned += other.rows_partitioned;
    }

    /// Emits the three `forest.*` work counters.
    pub(crate) fn emit(&self) {
        fume_obs::counter!("forest.nodes_built", self.nodes_built);
        fume_obs::counter!("forest.rows_histogrammed", self.rows_histogrammed);
        fume_obs::counter!("forest.rows_partitioned", self.rows_partitioned);
    }
}

/// Fills `hist` with the label-split histograms of `attrs` over `ids`,
/// back to back: `starts[j]` is where the bins of `attrs[j]` begin, and
/// `starts` ends with the total length. Bin `starts[j] + c` counts the
/// instances with code `c` and the positive ones. One pass over `ids`
/// fills up to four attributes, so a node reads its ids and labels once
/// per four sampled attributes; one attribute is the `attrs.len() == 1`
/// case. Returns the `(attribute, row)` pairs counted.
fn fill_histograms(
    hist: &mut Vec<Bin>,
    starts: &mut Vec<usize>,
    data: &Dataset,
    attrs: &[u16],
    ids: &[u32],
) -> usize {
    let schema = data.schema().attributes();
    starts.clear();
    starts.push(0);
    let mut total = 0;
    for &attr in attrs {
        total += schema[attr as usize].cardinality() as usize;
        starts.push(total);
    }
    hist.clear();
    hist.resize(total, [0, 0]);
    for (group, at) in attrs.chunks(4).zip(starts.chunks(4)) {
        match group.len() {
            1 => fill_group::<1>(hist, data, group, at, ids),
            2 => fill_group::<2>(hist, data, group, at, ids),
            3 => fill_group::<3>(hist, data, group, at, ids),
            _ => fill_group::<4>(hist, data, group, at, ids),
        }
    }
    attrs.len() * ids.len()
}

/// Adds `ids` to the bins of the `W` attributes `attrs`, whose bins begin
/// at `at`, in one pass.
#[inline]
fn fill_group<const W: usize>(
    hist: &mut [Bin],
    data: &Dataset,
    attrs: &[u16],
    at: &[usize],
    ids: &[u32],
) {
    let columns: [&[u16]; W] = std::array::from_fn(|j| data.column(attrs[j] as usize));
    let at: [usize; W] = std::array::from_fn(|j| at[j]);
    let labels = data.labels();
    for &id in ids {
        let id = id as usize;
        let pos = u32::from(labels[id]);
        for j in 0..W {
            let bin = &mut hist[at[j] + columns[j][id] as usize];
            bin[0] += 1;
            bin[1] += pos;
        }
    }
}

/// Turns a histogram into running totals: `hist[t]` becomes the
/// `[n_left, n_left_pos]` of the cut `code <= t`.
fn accumulate(hist: &mut [Bin]) {
    for c in 1..hist.len() {
        let prev = hist[c - 1];
        hist[c][0] += prev[0];
        hist[c][1] += prev[1];
    }
}

/// Keeps up to `k` of the ascending `cuts`, drawn uniformly without
/// replacement, in ascending order. A Fisher–Yates shuffle (`len - 1`
/// draws), truncated to `k` and sorted, decides which. When `k` covers
/// every cut, the truncation keeps them all and the sort undoes the
/// shuffle, so only the shuffle's draws are made: the result and the RNG
/// state afterwards are the same either way.
fn draw_cuts(cuts: &mut Vec<u16>, k: usize, rng: &mut StdRng) {
    if cuts.len() <= k {
        for i in (1..cuts.len()).rev() {
            let _: usize = rng.gen_range(0..=i);
        }
        return;
    }
    cuts.shuffle(rng);
    cuts.truncate(k);
    cuts.sort_unstable();
}

/// Whether a candidate split separates the node's data while honoring the
/// leaf-size minimum. Used identically at build time and unlearning time.
#[inline]
pub(crate) fn candidate_valid(c: &Candidate, n: u32, cfg: &DareConfig) -> bool {
    c.n_left >= cfg.min_samples_leaf && (n - c.n_left) >= cfg.min_samples_leaf
}

/// Index and Gini gain of the best valid candidate (ties keep the
/// earliest), or `None` if no candidate is valid. Zero-gain splits are
/// allowed — like standard random forests, a mixed node keeps splitting
/// until pure or depth-capped, because deeper splits may separate what
/// this one cannot (e.g. XOR-shaped labels). The parent's impurity is
/// computed once; each gain equals [`gini_gain`]'s bit for bit.
///
/// [`gini_gain`]: crate::gini::gini_gain
pub(crate) fn best_candidate(
    candidates: &[Candidate],
    n: u32,
    n_pos: u32,
    cfg: &DareConfig,
) -> Option<(usize, f64)> {
    let parent = gini(n, n_pos);
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in candidates.iter().enumerate() {
        if !candidate_valid(c, n, cfg) {
            continue;
        }
        let g = split_gain(parent, n, n_pos, c.n_left, c.n_left_pos);
        match best {
            Some((_, bg)) if g <= bg + GAIN_EPS => {}
            _ => best = Some((i, g)),
        }
    }
    best
}

/// A [`TreeBuilder`]'s scratch buffers, handed from one pass over a tree
/// to the next so a warm tree's passes allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct BuildBuffers {
    /// The current node's attribute order, reset to `0..p` and shuffled.
    attrs: Vec<u16>,
    /// Cut thresholds of the attribute being sampled.
    cuts: Vec<u16>,
    /// Label-split histograms of the attributes being examined, back to
    /// back.
    hist: Vec<Bin>,
    /// Where each attribute's bins begin in `hist`, then its length.
    starts: Vec<usize>,
    /// The current greedy node's candidates, or a replenishment's.
    staging: Vec<Candidate>,
    /// Right-hand ids of the partition in progress. It only grows, and
    /// is written before it is read, so it is never cleared.
    spill: Vec<u32>,
}

/// Builds trees, and the statistics updates of unlearning and insertion,
/// out of scratch buffers that live as long as the builder.
#[must_use = "a builder does nothing until asked to build"]
pub(crate) struct TreeBuilder<'a> {
    data: &'a Dataset,
    cfg: &'a DareConfig,
    bufs: BuildBuffers,
    /// Depth of the deepest leaf written since the builder was made.
    deepest: u32,
    /// Work done since the builder was made.
    work: BuildWork,
}

impl<'a> TreeBuilder<'a> {
    /// A builder over `data` with fresh buffers; they grow on first use.
    pub(crate) fn new(data: &'a Dataset, cfg: &'a DareConfig) -> Self {
        Self::with_buffers(data, cfg, BuildBuffers::default())
    }

    /// A builder over `data` reusing `bufs`.
    pub(crate) fn with_buffers(data: &'a Dataset, cfg: &'a DareConfig, bufs: BuildBuffers) -> Self {
        Self { data, cfg, bufs, deepest: 0, work: BuildWork::default() }
    }

    /// The buffers, for the next pass.
    pub(crate) fn into_buffers(self) -> BuildBuffers {
        self.bufs
    }

    /// The dataset this builder reads.
    pub(crate) fn data(&self) -> &'a Dataset {
        self.data
    }

    /// Depth of the deepest leaf this builder has written.
    pub(crate) fn deepest(&self) -> u32 {
        self.deepest
    }

    /// The work this builder has done.
    pub(crate) fn work(&self) -> BuildWork {
        self.work
    }

    /// Appends a (sub)tree over `ids` rooted at `depth` to `store` and
    /// returns its root slot. Leaves keep the ids in their order within
    /// `ids`; `ids` is left partitioned.
    pub(crate) fn build(
        &mut self,
        store: &mut NodeStore,
        ids: &mut [u32],
        depth: usize,
        rng: &mut StdRng,
    ) -> u32 {
        let labels = self.data.labels();
        let n_pos = row_u32(ids.iter().filter(|&&id| labels[id as usize]).count());
        self.build_node(store, ids, n_pos, depth, rng)
    }

    fn build_node(
        &mut self,
        store: &mut NodeStore,
        ids: &mut [u32],
        n_pos: u32,
        depth: usize,
        rng: &mut StdRng,
    ) -> u32 {
        let cfg = self.cfg;
        let n = row_u32(ids.len());
        if n < cfg.min_samples_split || n_pos == 0 || n_pos == n || depth >= cfg.max_depth {
            return self.leaf(store, ids, n_pos, depth);
        }
        if depth < cfg.random_depth {
            return self.random_node(store, ids, n_pos, depth, rng);
        }
        self.greedy_node(store, ids, n_pos, depth, rng)
    }

    fn leaf(&mut self, store: &mut NodeStore, ids: &[u32], n_pos: u32, depth: usize) -> u32 {
        self.deepest = self.deepest.max(row_u32(depth));
        self.work.nodes_built += 1;
        store.push_leaf(ids, n_pos)
    }

    /// Resets the attribute order to `0..p` and shuffles it: `p - 1` draws.
    fn shuffle_attrs(&mut self, rng: &mut StdRng) {
        self.bufs.attrs.clear();
        self.bufs.attrs.extend(0..code_u16(self.data.num_attributes()));
        self.bufs.attrs.shuffle(rng);
    }

    /// A random upper-layer node: uniformly random attribute, uniformly
    /// random threshold within that attribute's observed code range. Both
    /// children are non-empty by construction (`threshold ∈ [min, max)`).
    fn random_node(
        &mut self,
        store: &mut NodeStore,
        ids: &mut [u32],
        n_pos: u32,
        depth: usize,
        rng: &mut StdRng,
    ) -> u32 {
        let n = row_u32(ids.len());
        let msl = self.cfg.min_samples_leaf;
        self.shuffle_attrs(rng);
        for i in 0..self.bufs.attrs.len() {
            let attr = self.bufs.attrs[i];
            let BuildBuffers { hist, starts, .. } = &mut self.bufs;
            self.work.rows_histogrammed += fill_histograms(hist, starts, self.data, &[attr], ids);
            let lo = hist.iter().position(|b| b[0] > 0);
            let hi = hist.iter().rposition(|b| b[0] > 0);
            let (Some(lo), Some(hi)) = (lo, hi) else { continue };
            if lo >= hi {
                continue; // constant attribute in this node
            }
            let threshold = rng.gen_range(code_u16(lo)..code_u16(hi));
            accumulate(&mut hist[..=threshold as usize]);
            let [n_left, n_left_pos] = hist[threshold as usize];
            if n_left < msl || n - n_left < msl {
                continue;
            }
            self.partition(ids, attr, threshold);
            let cold = Cold { n, n_pos, lo: 0, len: 0, chosen: 0, random: true };
            let slot = store.push_internal(attr, threshold, cold, &[]);
            self.work.nodes_built += 1;
            let (left_ids, right_ids) = ids.split_at_mut(n_left as usize);
            let left = self.build_node(store, left_ids, n_left_pos, depth + 1, rng);
            let right = self.build_node(store, right_ids, n_pos - n_left_pos, depth + 1, rng);
            store.set_kids(slot, [left, right]);
            return slot;
        }
        // No attribute can split this node's data.
        self.leaf(store, ids, n_pos, depth)
    }

    /// A greedy node: samples `p̃` attributes and `k'` thresholds per
    /// attribute, caches every candidate's statistics, and splits on the
    /// best Gini gain. The sampled attributes' histograms are filled in
    /// one pass over `ids` before any cut is drawn; histograms draw
    /// nothing, so the draws keep their order.
    fn greedy_node(
        &mut self,
        store: &mut NodeStore,
        ids: &mut [u32],
        n_pos: u32,
        depth: usize,
        rng: &mut StdRng,
    ) -> u32 {
        let cfg = self.cfg;
        let n = row_u32(ids.len());
        self.shuffle_attrs(rng);
        self.bufs.attrs.truncate(cfg.max_features.resolve(self.data.num_attributes()));
        self.bufs.attrs.sort_unstable(); // deterministic candidate layout

        let BuildBuffers { attrs, hist, starts, staging, .. } = &mut self.bufs;
        self.work.rows_histogrammed += fill_histograms(hist, starts, self.data, attrs, ids);
        staging.clear();
        for i in 0..self.bufs.attrs.len() {
            let attr = self.bufs.attrs[i];
            self.stage_cuts(i, attr, n, cfg.n_thresholds, &[], rng);
        }

        let Some((chosen, _)) = best_candidate(&self.bufs.staging, n, n_pos, cfg) else {
            return self.leaf(store, ids, n_pos, depth);
        };
        // The pool is copied into the store before the children reuse the
        // staging area.
        let Candidate { attr, threshold, n_left, n_left_pos } = self.bufs.staging[chosen];
        let cold = Cold { n, n_pos, lo: 0, len: 0, chosen: row_u32(chosen), random: false };
        let slot = store.push_internal(attr, threshold, cold, &self.bufs.staging);
        self.work.nodes_built += 1;
        self.partition(ids, attr, threshold);
        let (left_ids, right_ids) = ids.split_at_mut(n_left as usize);
        let left = self.build_node(store, left_ids, n_left_pos, depth + 1, rng);
        let right = self.build_node(store, right_ids, n_pos - n_left_pos, depth + 1, rng);
        store.set_kids(slot, [left, right]);
        slot
    }

    /// Draws up to `k` cut thresholds for `attr`, whose histogram over a
    /// node of `n` instances is the `j`-th in the buffer, from its present
    /// codes (every present code except the largest is a cut), without
    /// replacement and skipping cuts `pool` already holds for `attr`. The
    /// cuts the builder could choose are staged with their statistics in
    /// ascending threshold order; one that violates the leaf-size minimum
    /// is dropped here, so every cached candidate is valid, the invariant
    /// unlearning's replenishment step maintains.
    fn stage_cuts(
        &mut self,
        j: usize,
        attr: u16,
        n: u32,
        k: usize,
        pool: &[Candidate],
        rng: &mut StdRng,
    ) {
        let BuildBuffers { cuts, hist, starts, staging, .. } = &mut self.bufs;
        let hist = &mut hist[starts[j]..starts[j + 1]];
        cuts.clear();
        cuts.extend(hist.iter().enumerate().filter(|(_, b)| b[0] > 0).map(|(c, _)| code_u16(c)));
        cuts.pop();
        if !pool.is_empty() {
            cuts.retain(|&t| !pool.iter().any(|c| c.attr == attr && c.threshold == t));
        }
        draw_cuts(cuts, k, rng);
        accumulate(hist);
        for &threshold in cuts.iter() {
            let [n_left, n_left_pos] = hist[threshold as usize];
            let candidate = Candidate { attr, threshold, n_left, n_left_pos };
            if candidate_valid(&candidate, n, self.cfg) {
                staging.push(candidate);
            }
        }
    }

    /// Refills `pool` after unlearning: samples up to `k` fresh cuts for
    /// `attr` over the node's surviving `ids` that `pool` does not hold
    /// yet, and appends the valid ones.
    pub(crate) fn replenish(
        &mut self,
        pool: &mut Vec<Candidate>,
        ids: &[u32],
        attr: u16,
        k: usize,
        rng: &mut StdRng,
    ) {
        let BuildBuffers { hist, starts, staging, .. } = &mut self.bufs;
        self.work.rows_histogrammed += fill_histograms(hist, starts, self.data, &[attr], ids);
        staging.clear();
        self.stage_cuts(0, attr, row_u32(ids.len()), k, pool, rng);
        pool.extend_from_slice(&self.bufs.staging);
    }

    /// Stable in-place partition of `ids` by `code(attr) <= threshold`:
    /// the left side first, each side in its original order. Returns the
    /// left side's length.
    ///
    /// Branch-free: each id is written both at the left cursor in `ids`
    /// (never ahead of the read position) and at the right cursor in the
    /// spill, and the comparison advances one of the two cursors.
    pub(crate) fn partition(&mut self, ids: &mut [u32], attr: u16, threshold: u16) -> usize {
        self.work.rows_partitioned += ids.len();
        let column = self.data.column(attr as usize);
        let spill = &mut self.bufs.spill;
        if spill.len() < ids.len() {
            spill.resize(ids.len(), 0);
        }
        let (mut n_left, mut n_right) = (0, 0);
        for i in 0..ids.len() {
            let id = ids[i];
            let left = column[id as usize] <= threshold;
            ids[n_left] = id;
            spill[n_right] = id;
            n_left += usize::from(left);
            n_right += usize::from(!left);
        }
        ids[n_left..].copy_from_slice(&spill[..n_right]);
        n_left
    }

    /// Calls `apply(candidate, [n, n_pos])` with how many of `ids`, and how
    /// many positive ones, fall left of each candidate's cut. `ids` is
    /// histogrammed once per run of same-attribute candidates, not once
    /// per candidate, and the runs' histograms are filled together.
    pub(crate) fn count_delta(
        &mut self,
        candidates: &mut [Candidate],
        ids: &[u32],
        apply: impl Fn(&mut Candidate, Bin),
    ) {
        // Between nodes the attribute buffer is free: it lists the runs.
        let BuildBuffers { attrs, hist, starts, .. } = &mut self.bufs;
        attrs.clear();
        for (i, c) in candidates.iter().enumerate() {
            if i == 0 || candidates[i - 1].attr != c.attr {
                attrs.push(c.attr);
            }
        }
        self.work.rows_histogrammed += fill_histograms(hist, starts, self.data, attrs, ids);
        for run in starts.windows(2) {
            accumulate(&mut hist[run[0]..run[1]]);
        }
        let mut run = 0;
        for c in candidates.iter_mut() {
            if attrs[run] != c.attr {
                run += 1;
            }
            apply(c, hist[starts[run] + c.threshold as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeRef;
    use fume_tabular::{Attribute, Schema};
    use fume_tabular::rng::SeedableRng;
    use std::sync::Arc;

    fn xor_data() -> Dataset {
        // label = a XOR b, plus a noise attribute.
        let schema = Arc::new(
            Schema::with_default_label(vec![
                Attribute::categorical("a", vec!["0".into(), "1".into()]),
                Attribute::categorical("b", vec!["0".into(), "1".into()]),
                Attribute::categorical("noise", vec!["0".into(), "1".into(), "2".into()]),
            ])
            .unwrap(),
        );
        let mut cols = vec![Vec::new(), Vec::new(), Vec::new()];
        let mut labels = Vec::new();
        for i in 0..64usize {
            let a = (i % 2) as u16;
            let b = ((i / 2) % 2) as u16;
            cols[0].push(a);
            cols[1].push(b);
            cols[2].push((i % 3) as u16);
            labels.push((a ^ b) == 1);
        }
        Dataset::new(schema, cols, labels).unwrap()
    }

    fn cfg() -> DareConfig {
        DareConfig {
            n_trees: 1,
            max_depth: 8,
            random_depth: 0,
            n_thresholds: 5,
            max_features: crate::config::MaxFeatures::All,
            ..DareConfig::default()
        }
    }

    fn build(d: &Dataset, mut ids: Vec<u32>, seed: u64, cfg: &DareConfig) -> NodeStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = NodeStore::default();
        let root = TreeBuilder::new(d, cfg).build(&mut store, &mut ids, 0, &mut rng);
        assert_eq!(root, 0, "a fit writes the root first");
        store
    }

    #[test]
    fn histogram_counts() {
        let d = xor_data();
        let ids = d.all_row_ids();
        let (mut h, mut starts) = (Vec::new(), Vec::new());
        assert_eq!(fill_histograms(&mut h, &mut starts, &d, &[0], &ids), 64);
        assert_eq!(h, vec![[32, 16], [32, 16]]);
        assert_eq!(starts, vec![0, 2]);
        fill_histograms(&mut h, &mut starts, &d, &[2], &ids[..6]); // codes 0,1,2,0,1,2
        assert_eq!(h.iter().map(|b| b[0]).collect::<Vec<_>>(), vec![2, 2, 2]);
        accumulate(&mut h);
        assert_eq!(h.iter().map(|b| b[0]).collect::<Vec<_>>(), vec![2, 4, 6]);
        assert_eq!(h[2][1], ids[..6].iter().filter(|&&id| d.label(id as usize)).count() as u32);
    }

    /// Ten attributes of cardinality 1 to 37 over `rows` rows, with
    /// random codes and labels.
    fn random_data(rows: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let cards: [u16; 10] = [1, 2, 3, 5, 8, 13, 4, 37, 2, 21];
        let attrs = cards
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                Attribute::categorical(format!("a{i}"), (0..c).map(|v| v.to_string()).collect())
            })
            .collect();
        let schema = Arc::new(Schema::with_default_label(attrs).unwrap());
        let cols = cards.iter().map(|&c| (0..rows).map(|_| rng.gen_range(0..c)).collect()).collect();
        let labels = (0..rows).map(|_| rng.gen_bool(0.4)).collect();
        Dataset::new(schema, cols, labels).unwrap()
    }

    /// `len` ids drawn from `0..rows`, repeats allowed.
    fn random_ids(rng: &mut StdRng, rows: usize, len: usize) -> Vec<u32> {
        (0..len).map(|_| rng.gen_range(0..rows as u32)).collect()
    }

    /// The partition equals the two-filter reference (left ids in order,
    /// then right ids in order) on random lists of every length from 0
    /// to 300, all-left and all-right lists included, with one builder,
    /// so the spill it reuses holds the previous call's ids.
    #[test]
    fn partition_matches_the_two_filter_reference() {
        let d = random_data(400, 11);
        let c = cfg();
        let mut b = TreeBuilder::new(&d, &c);
        let mut rng = StdRng::seed_from_u64(12);
        for len in (0..=300).rev() {
            let attr = rng.gen_range(1..d.num_attributes() as u16);
            let col = d.column(attr as usize);
            let card = d.schema().attributes()[attr as usize].cardinality();
            let ids = random_ids(&mut rng, d.num_rows(), len);
            let right_only: Vec<u32> = ids.iter().copied().filter(|&id| col[id as usize] > 0).collect();
            for (ids, thr) in [
                (ids.clone(), rng.gen_range(0..card)),
                (ids, card - 1),    // every id goes left
                (right_only, 0), // every id goes right
            ] {
                let mut expected: Vec<u32> =
                    ids.iter().copied().filter(|&id| col[id as usize] <= thr).collect();
                let n_left = expected.len();
                expected.extend(ids.iter().copied().filter(|&id| col[id as usize] > thr));
                let mut got = ids.clone();
                assert_eq!(b.partition(&mut got, attr, thr), n_left, "len {len} thr {thr}");
                assert_eq!(got, expected, "len {len} attr {attr} thr {thr}");
            }
        }
    }

    /// The one-pass histograms of 1 to 9 attributes (every remainder of
    /// the four-wide groups, twice) equal each attribute's histogram
    /// counted on its own, in any attribute order and on any id list.
    #[test]
    fn one_pass_histograms_match_per_attribute_histograms() {
        let d = random_data(500, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let (mut hist, mut starts) = (Vec::new(), Vec::new());
        for round in 0..40 {
            let width = 1 + round % 9;
            let mut attrs: Vec<u16> = (0..d.num_attributes() as u16).collect();
            attrs.shuffle(&mut rng);
            attrs.truncate(width);
            let len = rng.gen_range(0..400);
            let ids = random_ids(&mut rng, d.num_rows(), len);
            let counted = fill_histograms(&mut hist, &mut starts, &d, &attrs, &ids);
            assert_eq!(counted, width * ids.len());
            assert_eq!(starts.len(), width + 1);
            assert_eq!(*starts.last().unwrap(), hist.len());
            for (j, &attr) in attrs.iter().enumerate() {
                let card = d.schema().attributes()[attr as usize].cardinality() as usize;
                let mut reference = vec![[0u32, 0u32]; card];
                for &id in &ids {
                    let bin = &mut reference[d.code(id as usize, attr as usize) as usize];
                    bin[0] += 1;
                    bin[1] += u32::from(d.label(id as usize));
                }
                assert_eq!(&hist[starts[j]..starts[j + 1]], &reference[..], "attrs {attrs:?}");
            }
        }
    }

    /// When `k` covers every cut, the fast path keeps the ascending list
    /// and leaves the RNG where the shuffle, truncate and sort would.
    #[test]
    fn cut_fast_path_matches_the_shuffle_path() {
        let mut picker = StdRng::seed_from_u64(15);
        for k in [1, 5] {
            for count in 0..=k + 3 {
                for seed in 0..20 {
                    let mut codes: Vec<u16> = (0..64).collect();
                    codes.shuffle(&mut picker);
                    codes.truncate(count);
                    codes.sort_unstable();
                    let mut reference = codes.clone();
                    let mut reference_rng = StdRng::seed_from_u64(seed);
                    reference.shuffle(&mut reference_rng);
                    reference.truncate(k);
                    reference.sort_unstable();
                    let mut got = codes.clone();
                    let mut rng = StdRng::seed_from_u64(seed);
                    draw_cuts(&mut got, k, &mut rng);
                    assert_eq!(got, reference, "k {k} count {count} seed {seed}");
                    assert_eq!(rng.state(), reference_rng.state(), "k {k} count {count}");
                }
            }
        }
    }

    /// `best_candidate` picks the candidate and gain, bit for bit, that a
    /// scan calling `gini_gain` per candidate picks.
    #[test]
    fn best_candidate_matches_per_candidate_gini_gain() {
        let c = DareConfig { min_samples_leaf: 2, ..cfg() };
        let mut rng = StdRng::seed_from_u64(16);
        for _ in 0..500 {
            let n = rng.gen_range(0..60u32);
            let n_pos = rng.gen_range(0..=n);
            let pool: Vec<Candidate> = (0..rng.gen_range(0..12))
                .map(|i| {
                    let n_left = rng.gen_range(0..=n);
                    let lo = n_left.saturating_sub(n - n_pos);
                    let n_left_pos = rng.gen_range(lo..=n_left.min(n_pos));
                    Candidate { attr: i, threshold: 0, n_left, n_left_pos }
                })
                .collect();
            let mut reference: Option<(usize, f64)> = None;
            for (i, cand) in pool.iter().enumerate() {
                if !candidate_valid(cand, n, &c) {
                    continue;
                }
                let g = crate::gini::gini_gain(n, n_pos, cand.n_left, cand.n_left_pos);
                match reference {
                    Some((_, bg)) if g <= bg + GAIN_EPS => {}
                    _ => reference = Some((i, g)),
                }
            }
            let got = best_candidate(&pool, n, n_pos, &c);
            assert_eq!(got.map(|(i, g)| (i, g.to_bits())), reference.map(|(i, g)| (i, g.to_bits())));
        }
    }

    #[test]
    fn partition_is_stable_and_complete() {
        let d = xor_data();
        let c = cfg();
        let mut b = TreeBuilder::new(&d, &c);
        let mut ids = d.all_row_ids();
        let n_left = b.partition(&mut ids, 0, 0);
        let (l, r) = ids.split_at(n_left);
        assert_eq!(l.len() + r.len(), d.num_rows());
        assert!(l.windows(2).all(|w| w[0] < w[1]), "stable order");
        assert!(r.windows(2).all(|w| w[0] < w[1]), "stable order");
        assert!(l.iter().all(|&id| d.code(id as usize, 0) == 0));
        assert!(r.iter().all(|&id| d.code(id as usize, 0) == 1));
    }

    /// The in-place partition lays out exactly what the allocating
    /// `(left, right)` split did, concatenated.
    #[test]
    fn in_place_partition_matches_left_then_right() {
        let d = xor_data();
        let c = cfg();
        let mut b = TreeBuilder::new(&d, &c);
        let mixed: Vec<u32> = vec![7, 2, 9, 4, 4, 63, 0, 31, 12];
        let all_left: Vec<u32> = vec![6, 0, 2, 4];
        let all_right: Vec<u32> = vec![5, 1, 3];
        for (ids, attr, thr) in [
            (Vec::new(), 0, 0),
            (all_left, 0, 0),
            (all_right, 0, 0),
            (mixed.clone(), 0, 0),
            (mixed, 2, 1),
        ] {
            let col = d.column(attr as usize);
            let mut expected: Vec<u32> =
                ids.iter().copied().filter(|&id| col[id as usize] <= thr).collect();
            let expected_left = expected.len();
            expected.extend(ids.iter().copied().filter(|&id| col[id as usize] > thr));
            let mut got = ids.clone();
            assert_eq!(b.partition(&mut got, attr, thr), expected_left, "{ids:?}");
            assert_eq!(got, expected, "{ids:?}");
        }
    }

    #[test]
    fn greedy_tree_learns_xor() {
        let d = xor_data();
        let store = build(&d, d.all_row_ids(), 1, &cfg());
        for row in 0..d.num_rows() {
            let p = store.node(0).predict_row(&d, row);
            assert_eq!(p > 0.5, d.label(row), "row {row} proba {p}");
        }
    }

    #[test]
    fn node_statistics_are_consistent() {
        let d = xor_data();
        let store = build(&d, d.all_row_ids(), 2, &cfg());
        fn check(node: NodeRef<'_>) {
            if let Some([left, right]) = node.children() {
                assert_eq!(node.n(), left.n() + right.n());
                assert_eq!(node.n_pos(), left.n_pos() + right.n_pos());
                let c = &node.candidates()[node.chosen() as usize];
                assert_eq!((c.attr, c.threshold), (node.attr(), node.threshold()));
                assert_eq!(c.n_left, left.n());
                assert_eq!(c.n_left_pos, left.n_pos());
                assert_eq!(left.slot(), node.slot() + 1, "preorder: the left child is next");
                check(left);
                check(right);
            }
        }
        check(store.node(0));
        assert_eq!(store.node(0).size(), store.len(), "a fit leaves no unreachable slot");
    }

    #[test]
    fn random_layers_are_marked() {
        let d = xor_data();
        let mut c = cfg();
        c.random_depth = 2;
        let store = build(&d, d.all_row_ids(), 3, &c);
        let root = store.node(0);
        let [left, right] = root.children().expect("expected split at root");
        assert!(root.is_random());
        assert!(root.candidates().is_empty());
        // Random splits always separate.
        assert!(left.n() > 0 && right.n() > 0);
    }

    #[test]
    fn pure_data_yields_single_leaf() {
        let d = xor_data();
        let pure_ids: Vec<u32> = (0..d.num_rows() as u32)
            .filter(|&r| d.label(r as usize))
            .collect();
        let store = build(&d, pure_ids.clone(), 4, &cfg());
        let root = store.node(0);
        assert!(root.is_leaf(), "pure node must be a leaf");
        assert_eq!(root.ids(), &pure_ids[..]);
        assert_eq!(root.proba(), 1.0);
        assert_eq!(store.hot[0].kids, [0, 0], "a leaf points at itself");
    }

    #[test]
    fn max_depth_zero_means_single_leaf() {
        let d = xor_data();
        let mut c = cfg();
        c.max_depth = 0;
        let store = build(&d, d.all_row_ids(), 5, &c);
        assert!(store.node(0).is_leaf());
    }

    #[test]
    fn sample_candidates_excludes_and_caps() {
        let d = xor_data();
        let c = cfg();
        let mut b = TreeBuilder::new(&d, &c);
        let ids = d.all_row_ids(); // attribute 2 has codes 0,1,2
        let mut rng = StdRng::seed_from_u64(6);
        let mut all = Vec::new();
        b.replenish(&mut all, &ids, 2, 10, &mut rng);
        let thresholds = |p: &[Candidate]| p.iter().map(|c| c.threshold).collect::<Vec<_>>();
        assert_eq!(thresholds(&all), vec![0, 1]); // cuts at 0 and 1
        assert_eq!((all[0].n_left, all[1].n_left), (22, 43));
        let mut excl = vec![Candidate { attr: 2, threshold: 0, n_left: 22, n_left_pos: 11 }];
        b.replenish(&mut excl, &ids, 2, 10, &mut rng);
        assert_eq!(thresholds(&excl), vec![0, 1], "cut 0 is held, only cut 1 is fresh");
        // A cut held for another attribute does not exclude this one's.
        let mut other = vec![Candidate { attr: 1, threshold: 0, n_left: 32, n_left_pos: 16 }];
        b.replenish(&mut other, &ids, 2, 10, &mut rng);
        assert_eq!(other.len(), 3);
        let mut capped = Vec::new();
        b.replenish(&mut capped, &ids, 2, 1, &mut rng);
        assert_eq!(capped.len(), 1);
    }

    /// The per-run count delta equals a brute-force recount even when a
    /// replenished pool has appended fresh cuts behind other attributes,
    /// so one attribute's candidates form several runs.
    #[test]
    fn count_delta_matches_brute_force_on_non_contiguous_pool() {
        let d = xor_data();
        let c = cfg();
        let mut b = TreeBuilder::new(&d, &c);
        let ids = d.all_row_ids();
        let mut rng = StdRng::seed_from_u64(8);
        let mut pool = vec![
            Candidate { attr: 2, threshold: 0, n_left: 0, n_left_pos: 0 },
            Candidate { attr: 0, threshold: 0, n_left: 0, n_left_pos: 0 },
        ];
        b.replenish(&mut pool, &ids, 2, 10, &mut rng);
        let attrs: Vec<u16> = pool.iter().map(|c| c.attr).collect();
        assert_eq!(attrs, vec![2, 0, 2], "attribute 2 must form two runs");

        let del: Vec<u32> = vec![1, 2, 3, 10, 17, 40, 41, 63];
        for c in &mut pool {
            *c = Candidate { n_left: 1000, n_left_pos: 1000, ..*c };
        }
        b.count_delta(&mut pool, &del, |c, [n, p]| {
            c.n_left -= n;
            c.n_left_pos -= p;
        });
        for c in &pool {
            let left: Vec<u32> = del
                .iter()
                .copied()
                .filter(|&id| d.code(id as usize, c.attr as usize) <= c.threshold)
                .collect();
            let pos = left.iter().filter(|&&id| d.label(id as usize)).count() as u32;
            assert_eq!(c.n_left, 1000 - left.len() as u32, "{c:?}");
            assert_eq!(c.n_left_pos, 1000 - pos, "{c:?}");
        }
    }

    #[test]
    fn min_samples_leaf_respected() {
        let d = xor_data();
        let mut c = cfg();
        c.min_samples_leaf = 8;
        let store = build(&d, d.all_row_ids(), 7, &c);
        fn check(node: NodeRef<'_>, msl: u32) {
            if let Some([left, right]) = node.children() {
                assert!(left.n() >= msl && right.n() >= msl);
                check(left, msl);
                check(right, msl);
            }
        }
        check(store.node(0), 8);
    }
}
