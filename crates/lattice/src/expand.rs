//! Lattice node generation: level-1 literals and the apriori join.

use std::sync::Arc;

use fume_tabular::cast::{code_u16, row_u32};
use fume_tabular::{AttrKind, Dataset};

use crate::literal::{Literal, Op};
use crate::predicate::Predicate;

/// How level-1 literals are generated.
///
/// The paper's lattice uses equality literals only (`d × p` level-1
/// nodes); `WithRanges` additionally generates `≤ v` / `≥ v` literals for
/// *ordinal* (binned numeric) attributes — an extension that lets
/// explanations express intervals like `Age >= [45, 60)` directly instead
/// of unions of bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LiteralGen {
    /// Equality literals only (the paper's scheme).
    #[default]
    EqOnly,
    /// Equality literals plus `≤`/`≥` range literals on ordinal attributes.
    WithRanges,
}

/// A node of the search lattice: a predicate, the rows it selects, and —
/// once evaluated — its parity reduction `ρ` (the negated subset
/// attribution `−φ`; positive means removing the subset reduces bias).
#[derive(Debug, Clone, PartialEq)]
pub struct LatticeNode {
    /// The predicate this node represents.
    pub predicate: Predicate,
    /// Sorted training-row ids selected by the predicate. Shared, not
    /// copied: a [`PairTable`](crate::PairTable) cell, the frontier, the
    /// evaluated list and a report hold one allocation per selection.
    pub rows: Arc<[u32]>,
    /// Parity reduction, `None` until evaluated (oversized nodes are
    /// expanded without evaluation, see Rule 2).
    pub rho: Option<f64>,
    /// The larger of the parents' parity reductions — Rule 4's quality
    /// floor: once this node's own `ρ` is known, the node is only expanded
    /// if `ρ` reaches the floor. Level-1 nodes and children of unevaluated
    /// (oversized) parents have `-∞`.
    pub parent_floor: f64,
}

impl LatticeNode {
    /// Support of the node within a training set of `n` rows.
    pub fn support(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.rows.len() as f64 / n as f64
        }
    }
}

/// Generates every level-1 node: one `attr = value` literal per
/// attribute/value pair of the schema (the paper's `d × p` leaves of the
/// lattice root), excluding `exclude_attrs`. Selections are computed with
/// one scan per attribute.
pub fn level1_nodes(data: &Dataset, exclude_attrs: &[u16]) -> Vec<LatticeNode> {
    level1_nodes_with(data, exclude_attrs, LiteralGen::EqOnly)
}

/// [`level1_nodes`] with an explicit literal-generation strategy.
pub fn level1_nodes_with(
    data: &Dataset,
    exclude_attrs: &[u16],
    gen: LiteralGen,
) -> Vec<LatticeNode> {
    let mut nodes = Vec::new();
    for attr in 0..code_u16(data.num_attributes()) {
        if exclude_attrs.contains(&attr) {
            continue;
        }
        let Ok(attribute) = data.schema().attribute(attr as usize) else {
            continue;
        };
        let card = attribute.cardinality();
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); card as usize];
        for (row, &code) in data.column(attr as usize).iter().enumerate() {
            buckets[code as usize].push(row_u32(row));
        }

        if gen == LiteralGen::WithRanges
            && attribute.kind() == AttrKind::Ordinal
            && card >= 3
        {
            // Prefix/suffix unions of the equality buckets give the range
            // selections in one extra pass.
            for v in 0..card - 1 {
                let mut rows: Vec<u32> = buckets[..=v as usize].concat();
                rows.sort_unstable();
                nodes.push(LatticeNode {
                    predicate: Predicate::single(Literal { attr, op: Op::Le, value: v }),
                    rows: rows.into(),
                    rho: None,
                    parent_floor: f64::NEG_INFINITY,
                });
            }
            for v in 1..card {
                let mut rows: Vec<u32> = buckets[v as usize..].concat();
                rows.sort_unstable();
                nodes.push(LatticeNode {
                    predicate: Predicate::single(Literal { attr, op: Op::Ge, value: v }),
                    rows: rows.into(),
                    rho: None,
                    parent_floor: f64::NEG_INFINITY,
                });
            }
        }

        for (value, rows) in buckets.into_iter().enumerate() {
            nodes.push(LatticeNode {
                predicate: Predicate::single(Literal::eq(attr, code_u16(value))),
                rows: rows.into(),
                rho: None,
                parent_floor: f64::NEG_INFINITY,
            });
        }
    }
    nodes
}

/// The outcome of expanding one level.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Expansion {
    /// The surviving child nodes (satisfiable, with selections).
    pub children: Vec<LatticeNode>,
    /// Number of parent pairs considered (`C(|frontier|, 2)` — the
    /// paper's "possible subsets" accounting of Table 9).
    pub possible: usize,
    /// Candidates discarded by Rule 1 (contradictory predicates).
    pub pruned_rule1: usize,
    /// Candidates discarded as *redundant*: the child selects exactly the
    /// same rows as one of its parents, so it explains nothing the
    /// (simpler) parent doesn't. Only arises with overlapping literals,
    /// e.g. `Age <= 2 ∧ Age <= 3` or a literal subsumed by another
    /// attribute's selection.
    pub pruned_redundant: usize,
    /// Child selections computed by ANDing two parents' rows in this
    /// call — work, not outcome. Pairs Rule 1 drops are not joined.
    pub joined: usize,
}

/// Expands a frontier of level-`l` nodes into level-`l+1` children via the
/// apriori join (shared `l−1`-literal prefix). Each child's selection is
/// the intersection of its parents', taken as the AND of their row
/// bitsets; it equals [`intersect_sorted`](crate::intersect_sorted) of
/// their sorted rows. When `check_satisfiability` is set (Rule 1),
/// contradictory children are dropped without materializing selections.
pub fn expand_level(
    data: &Dataset,
    frontier: &[LatticeNode],
    check_satisfiability: bool,
) -> Expansion {
    // The paper's rule set has no redundancy pruning; it is opt-in via
    // [`expand_level_with`] / `RuleToggles::prune_redundant`.
    expand_level_with(data, frontier, check_satisfiability, false)
}

/// [`expand_level`] with explicit redundancy pruning control.
pub fn expand_level_with(
    data: &Dataset,
    frontier: &[LatticeNode],
    check_satisfiability: bool,
    prune_redundant: bool,
) -> Expansion {
    let n = frontier.len();
    let mut join = Join::new(data, check_satisfiability, prune_redundant);
    join.out.possible = n * n.saturating_sub(1) / 2;

    // Canonical join requires sorted frontier predicates; joins only fire
    // for pairs sharing their (l−1)-prefix, so sort and sweep prefix groups.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| frontier[a].predicate.cmp(&frontier[b].predicate));

    let mut group_start = 0;
    while group_start < n {
        let prefix_of = |idx: usize| {
            let lits = frontier[order[idx]].predicate.literals();
            &lits[..lits.len() - 1]
        };
        let mut group_end = group_start + 1;
        while group_end < n && prefix_of(group_end) == prefix_of(group_start) {
            group_end += 1;
        }
        let group = &order[group_start..group_end];
        if group.len() > 1 {
            join.bits.load(group.iter().map(|&k| &*frontier[k].rows));
        }
        for (i, &ka) in group.iter().enumerate() {
            for (j, &kb) in group.iter().enumerate().skip(i + 1) {
                let (a, b) = (&frontier[ka], &frontier[kb]);
                let Some(child) = a.predicate.join(&b.predicate) else {
                    continue;
                };
                let parent_floor = parent_floor(a.rho, b.rho);
                join.child(child, (i, a.rows.len()), (j, b.rows.len()), parent_floor);
            }
        }
        group_start = group_end;
    }
    join.out
}

/// Expands a frontier consisting of a *single* level-`l` node by
/// conjoining it with every fresh level-1 literal. The apriori join of
/// [`expand_level_with`] needs two parents sharing an `l−1`-literal
/// prefix, so a lone survivor has no join partner — yet its sub-lattice
/// is not exhausted: `T ∧ (X = v)` is a legitimate level-`l+1` subset
/// for any literal not already in `T`.
///
/// Children carry the node's own `ρ` as their `parent_floor`, matching
/// the `(Some, None)` evaluated/unevaluated parent case of the pairwise
/// join (the fresh literal's ρ at this point is unknown).
pub fn expand_singleton_with(
    data: &Dataset,
    node: &LatticeNode,
    exclude_attrs: &[u16],
    gen: LiteralGen,
    check_satisfiability: bool,
    prune_redundant: bool,
) -> Expansion {
    let fresh: Vec<LatticeNode> = level1_nodes_with(data, exclude_attrs, gen)
        .into_iter()
        // A literal already in the conjunction adds no new candidate.
        .filter(|f| !node.predicate.literals().contains(&f.predicate.literals()[0]))
        .collect();
    let mut join = Join::new(data, check_satisfiability, prune_redundant);
    join.out.possible = fresh.len();
    // Slot 0 holds the node, slot `1 + i` the `i`-th fresh literal: the
    // node's literals are level-1 literals themselves, so the slots number
    // at most the level-1 literals, as in a prefix group.
    join.bits.load(std::iter::once(&*node.rows).chain(fresh.iter().map(|f| &*f.rows)));
    let parent_floor = node.rho.unwrap_or(f64::NEG_INFINITY);
    for (i, f) in fresh.iter().enumerate() {
        let mut lits = node.predicate.literals().to_vec();
        lits.push(f.predicate.literals()[0]);
        let child = Predicate::new(lits);
        join.child(child, (0, node.rows.len()), (1 + i, f.rows.len()), parent_floor);
    }
    join.out
}

/// Rule 4's floor for the child of two parents: the larger of their
/// parity reductions, ignoring an unevaluated (oversized) parent.
pub(crate) fn parent_floor(a: Option<f64>, b: Option<f64>) -> f64 {
    match (a, b) {
        (Some(x), Some(y)) => x.max(y),
        (Some(x), None) | (None, Some(x)) => x,
        (None, None) => f64::NEG_INFINITY,
    }
}

/// One level's join: the children so far, the prune counts, and the row
/// bitsets of the parents being joined.
struct Join<'d> {
    data: &'d Dataset,
    check_satisfiability: bool,
    prune_redundant: bool,
    bits: RowBits,
    out: Expansion,
}

impl<'d> Join<'d> {
    fn new(data: &'d Dataset, check_satisfiability: bool, prune_redundant: bool) -> Self {
        Self {
            data,
            check_satisfiability,
            prune_redundant,
            bits: RowBits::new(data.num_rows()),
            out: Expansion::default(),
        }
    }

    /// Considers the candidate `predicate` of two parents, each given as
    /// its bitset slot and its row count: Rule 1 first, so contradictory
    /// candidates never touch the bitsets, then the selection, then
    /// redundancy pruning, which needs only the selection's size.
    fn child(
        &mut self,
        predicate: Predicate,
        (a, a_len): (usize, usize),
        (b, b_len): (usize, usize),
        parent_floor: f64,
    ) {
        if self.check_satisfiability && !predicate.is_satisfiable(self.data.schema()) {
            self.out.pruned_rule1 += 1;
            return;
        }
        let (a, b) = (self.bits.slot(a), self.bits.slot(b));
        self.out.joined += 1;
        let len = and_count(a, b);
        // A child selecting exactly a parent's rows adds literals without
        // changing the subset — keep the simpler parent.
        if self.prune_redundant && (len == a_len || len == b_len) {
            self.out.pruned_redundant += 1;
            return;
        }
        self.out.children.push(LatticeNode {
            predicate,
            rows: and_rows(a, b, len),
            rho: None,
            parent_floor,
        });
    }
}

/// Row bitsets of the parents of one prefix group: slot `i` has bit `r`
/// set for every training row `r` the group's `i`-th parent selects, one
/// `u64` per 64 rows. The buffer is reloaded from group to group, so it
/// holds one group at a time; a group has at most one parent per level-1
/// literal, which bounds it by `literals × rows / 8` bytes. A
/// [`PairTable`](crate::PairTable) loads it once, with every level-1
/// literal.
pub(crate) struct RowBits {
    words: usize,
    bits: Vec<u64>,
}

impl RowBits {
    pub(crate) fn new(rows: usize) -> Self {
        Self { words: rows.div_ceil(64), bits: Vec::new() }
    }

    /// Replaces the slots with one bitset per row-id selection.
    pub(crate) fn load<'s>(&mut self, selections: impl Iterator<Item = &'s [u32]>) {
        self.bits.clear();
        for rows in selections {
            let start = self.bits.len();
            self.bits.resize(start + self.words, 0);
            let slot = &mut self.bits[start..];
            for &r in rows {
                slot[r as usize / 64] |= 1 << (r % 64);
            }
        }
    }

    pub(crate) fn slot(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }
}

/// Number of rows set in both bitsets.
pub(crate) fn and_count(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b).map(|(x, y)| (x & y).count_ones() as usize).sum()
}

/// The ascending ids of the `len` rows set in both bitsets, where `len`
/// is their [`and_count`]. `(0..len).map(..)` has a trusted length, so
/// `collect` allocates the shared slice once and writes each id in
/// place, with no `Vec` to copy from.
pub(crate) fn and_rows(a: &[u64], b: &[u64], len: usize) -> Arc<[u32]> {
    let mut words = a.iter().zip(b).map(|(x, y)| x & y).enumerate();
    let (mut base, mut word) = (0, 0u64);
    (0..len)
        .map(|_| {
            if word == 0 {
                if let Some((w, next)) = words.find(|&(_, x)| x != 0) {
                    (base, word) = (row_u32(w * 64), next);
                }
            }
            let row = base + word.trailing_zeros();
            word &= word.wrapping_sub(1);
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fume_tabular::{Attribute, Schema};
    use std::sync::Arc;

    fn data() -> Dataset {
        let schema = Arc::new(
            Schema::with_default_label(vec![
                Attribute::categorical("a", vec!["x".into(), "y".into()]),
                // Ordinal so the range-literal generation tests have a
                // rangeable attribute.
                Attribute::ordinal("b", vec!["p".into(), "q".into(), "r".into()]),
            ])
            .unwrap(),
        );
        Dataset::new(
            schema,
            vec![vec![0, 0, 1, 1], vec![0, 1, 2, 0]],
            vec![true, false, true, false],
        )
        .unwrap()
    }

    #[test]
    fn level1_enumerates_attr_value_pairs() {
        let d = data();
        let nodes = level1_nodes(&d, &[]);
        assert_eq!(nodes.len(), 5); // 2 + 3 values
        // Selections partition the rows per attribute.
        let total_attr0: usize =
            nodes.iter().take(2).map(|n| n.rows.len()).sum();
        assert_eq!(total_attr0, d.num_rows());
        // a = x selects rows 0, 1.
        assert_eq!(*nodes[0].rows, [0, 1]);
    }

    #[test]
    fn level1_respects_exclusions() {
        let d = data();
        let nodes = level1_nodes(&d, &[0]);
        assert_eq!(nodes.len(), 3);
        assert!(nodes.iter().all(|n| n.predicate.literals()[0].attr == 1));
    }

    #[test]
    fn expansion_counts_and_prunes_contradictions() {
        let d = data();
        let frontier = level1_nodes(&d, &[]);
        let exp = expand_level(&d, &frontier, true);
        assert_eq!(exp.possible, 5 * 4 / 2);
        // Same-attribute equality pairs are contradictory:
        // 1 pair within attr a, 3 pairs within attr b.
        assert_eq!(exp.pruned_rule1, 4);
        // Cross-attribute children: 2 × 3.
        assert_eq!(exp.children.len(), 6);
        for c in &exp.children {
            assert_eq!(c.predicate.len(), 2);
            // Selection equals a fresh scan.
            assert_eq!(*c.rows, c.predicate.select(&d));
        }
    }

    #[test]
    fn without_rule1_contradictions_survive_with_empty_selections() {
        let d = data();
        let frontier = level1_nodes(&d, &[]);
        let exp = expand_level(&d, &frontier, false);
        assert_eq!(exp.pruned_rule1, 0);
        assert_eq!(exp.children.len(), 10);
        // 4 contradictory children plus 2 satisfiable-but-empty ones
        // (value combinations absent from this tiny dataset).
        let empties = exp.children.iter().filter(|c| c.rows.is_empty()).count();
        assert_eq!(empties, 6);
    }

    #[test]
    fn level3_join_requires_shared_prefix() {
        let d = data();
        let l1 = level1_nodes(&d, &[]);
        let l2 = expand_level(&d, &l1, true).children;
        let exp = expand_level(&d, &l2, true);
        // Only 2 attributes exist, so every 3-literal candidate repeats an
        // attribute and is contradictory.
        assert!(exp.children.is_empty());
        assert!(exp.pruned_rule1 > 0);
    }

    #[test]
    fn range_literals_generated_for_ordinal_attributes() {
        let d = data(); // "a" categorical(2), "b" ordinal(3)
        let nodes = level1_nodes_with(&d, &[], LiteralGen::WithRanges);
        // Eq: 2 + 3; ranges on "b" (card 3): Le{0,1} + Ge{1,2} = 4.
        assert_eq!(nodes.len(), 9);
        let ranges: Vec<&LatticeNode> = nodes
            .iter()
            .filter(|n| n.predicate.literals()[0].op != crate::literal::Op::Eq)
            .collect();
        assert_eq!(ranges.len(), 4);
        for node in ranges {
            assert_eq!(node.predicate.literals()[0].attr, 1, "only ordinal attr");
            // Selection consistent with a fresh scan.
            assert_eq!(*node.rows, node.predicate.select(&d));
            // Ranges are proper subsets of everything — never empty, never all
            // (card 3, cuts strictly inside).
            assert!(!node.rows.is_empty());
        }
        // Binary ordinal / categorical attributes get no ranges.
        let eq_only = level1_nodes_with(&d, &[], LiteralGen::EqOnly);
        assert_eq!(eq_only.len(), 5);
    }

    #[test]
    fn redundancy_pruning_drops_subsumed_children() {
        let d = data();
        let frontier = level1_nodes_with(&d, &[], LiteralGen::WithRanges);
        let with = expand_level_with(&d, &frontier, true, true);
        let without = expand_level_with(&d, &frontier, true, false);
        assert!(with.pruned_redundant > 0);
        assert_eq!(
            with.children.len() + with.pruned_redundant,
            without.children.len(),
            "redundancy pruning only removes, never adds"
        );
        // The canonical redundancy: (b <= 0) ∧ (b <= 1) ≡ (b <= 0); it must
        // have been pruned.
        use crate::literal::Op;
        let subsumed = Predicate::new(vec![
            Literal { attr: 1, op: Op::Le, value: 0 },
            Literal { attr: 1, op: Op::Le, value: 1 },
        ]);
        assert!(with.children.iter().all(|c| c.predicate != subsumed));
        assert!(without.children.iter().any(|c| c.predicate == subsumed));
    }

    #[test]
    fn singleton_expansion_conjoins_fresh_literals() {
        let d = data(); // "a" categorical(2), "b" ordinal(3)
        let nodes = level1_nodes(&d, &[]);
        // Take `a = x` (rows 0, 1) as the lone survivor, with a known ρ.
        let mut node = nodes[0].clone();
        node.rho = Some(0.7);
        let exp = expand_singleton_with(&d, &node, &[], LiteralGen::EqOnly, true, false);
        // Candidates: the 4 other literals (a = y, b = p/q/r); a = y is
        // contradictory with a = x under Rule 1.
        assert_eq!(exp.possible, 4);
        assert_eq!(exp.pruned_rule1, 1);
        assert_eq!(exp.children.len(), 3);
        for c in &exp.children {
            assert_eq!(c.predicate.len(), 2);
            assert_eq!(*c.rows, c.predicate.select(&d));
            // The lone parent's ρ becomes the child's Rule-4 floor.
            assert!((c.parent_floor - 0.7).abs() < 1e-12);
        }
        // An unevaluated (oversized) lone parent leaves the floor open.
        let mut oversized = nodes[0].clone();
        oversized.rho = None;
        let exp = expand_singleton_with(&d, &oversized, &[], LiteralGen::EqOnly, true, false);
        assert!(exp.children.iter().all(|c| c.parent_floor == f64::NEG_INFINITY));
        // Exclusions hold: excluding attr 1 leaves only the contradictory
        // same-attribute candidate.
        let exp = expand_singleton_with(&d, &node, &[1], LiteralGen::EqOnly, true, false);
        assert!(exp.children.is_empty());
        assert_eq!(exp.pruned_rule1, 1);
    }

    #[test]
    fn singleton_expansion_prunes_redundant_children() {
        let d = data();
        // `b <= 1` (rows 0, 1, 3) joined with `b <= 0`-style range
        // literals produces subsumed conjunctions; redundancy pruning
        // must drop children selecting exactly a parent's rows.
        let frontier = level1_nodes_with(&d, &[], LiteralGen::WithRanges);
        let node = frontier
            .iter()
            .find(|n| {
                let l = n.predicate.literals()[0];
                l.attr == 1 && l.op == Op::Le && l.value == 1
            })
            .unwrap()
            .clone();
        let with = expand_singleton_with(&d, &node, &[], LiteralGen::WithRanges, true, true);
        let without = expand_singleton_with(&d, &node, &[], LiteralGen::WithRanges, true, false);
        assert!(with.pruned_redundant > 0);
        assert_eq!(
            with.children.len() + with.pruned_redundant,
            without.children.len()
        );
    }

    #[test]
    fn node_support() {
        let node = LatticeNode {
            predicate: Predicate::single(Literal::eq(0, 0)),
            rows: [1, 2].into(),
            rho: None,
            parent_floor: f64::NEG_INFINITY,
        };
        assert!((node.support(4) - 0.5).abs() < 1e-12);
        assert_eq!(node.support(0), 0.0);
    }
}
