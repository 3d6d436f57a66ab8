//! The level-2 pair table: every child of two level-1 literals, joined
//! at most once per set of training data.
//!
//! At the paper's default `η = 2` the whole join of a search is level
//! 1 → 2: every pair of expandable level-1 literals is ANDed into a
//! child. A child depends only on the training data and its two
//! literals, not on ρ, the metric or the support range, so a
//! [`PairTable`] built over one level-1 frontier answers the level-1
//! expansion of every search over that data. Each cell is filled the
//! first time a search asks for it, and from then on a child costs a
//! reference-count bump on its selection.

use std::sync::{Arc, OnceLock};

use fume_tabular::{Dataset, Schema};

use crate::expand::{and_count, and_rows, parent_floor, Expansion, LatticeNode, RowBits};
use crate::literal::Literal;
use crate::predicate::Predicate;

/// The children of every pair of level-1 literals over one training set,
/// computed lazily and shared.
///
/// The table holds the level-1 row bitsets and one cell per unordered
/// pair of literals. A cell is the child predicate, its selection and
/// whether the predicate is satisfiable (Rule 1). It is a pure function
/// of its pair, so the order in which concurrent searches fill cells
/// cannot change an answer; each cell is its own [`OnceLock`], with no
/// lock around the table, no eviction and nothing to tune.
///
/// Memory is bounded by construction: at most `C(L, 2)` cells for `L`
/// level-1 literals. With equality literals the cells of one attribute
/// pair partition the rows, so a full table holds at most
/// `C(attributes, 2) × rows` ids; range literals overlap, up to
/// `C(L, 2) × rows`. A contradictory cell holds no ids, since an
/// unsatisfiable predicate selects nothing.
///
/// [`expand`](Self::expand) and
/// [`expand_singleton`](Self::expand_singleton) return exactly what
/// [`expand_level_with`](crate::expand_level_with) and
/// [`expand_singleton_with`](crate::expand_singleton_with) return for
/// the same level-1 nodes, except for [`Expansion::joined`], which
/// counts only the cells this call filled.
///
/// ```
/// use fume_lattice::{expand_level_with, level1_nodes, PairTable};
/// use fume_tabular::datasets::planted_toy;
///
/// let (data, _) = planted_toy().generate_scaled(0.1, 1).unwrap();
/// let level1 = level1_nodes(&data, &[]);
/// let table = PairTable::new(&data, &level1);
/// let cold = table.expand(&level1, true, false).unwrap();
/// let warm = table.expand(&level1, true, false).unwrap();
/// assert_eq!(cold.children, expand_level_with(&data, &level1, true, false).children);
/// assert_eq!(warm.children, cold.children);
/// assert_eq!(warm.joined, 0, "every cell was filled by the first call");
/// ```
pub struct PairTable {
    schema: Arc<Schema>,
    /// The level-1 literals, in the order of the frontier the table was
    /// built from (generation order, which a lone survivor's children
    /// follow).
    literals: Vec<Literal>,
    /// Each literal's selection, shared with that frontier's nodes.
    rows: Vec<Arc<[u32]>>,
    /// Positions in `literals`, sorted by literal, for lookups.
    by_literal: Vec<usize>,
    bits: RowBits,
    /// One cell per pair `p < q` of positions (see [`pair_index`]).
    cells: Box<[OnceLock<Cell>]>,
}

/// The child of one pair of level-1 literals.
struct Cell {
    predicate: Predicate,
    rows: Arc<[u32]>,
    satisfiable: bool,
}

/// The index of the cell of positions `p < q` among `n`: the pairs of
/// position 0 first, then those of position 1, and so on.
fn pair_index(n: usize, p: usize, q: usize) -> usize {
    p * (2 * n - p - 1) / 2 + (q - p - 1)
}

impl PairTable {
    /// An empty table over the level-1 frontier `level1` of `data`:
    /// its literals, their shared selections and their row bitsets.
    /// Nodes of more than one literal are left out.
    pub fn new(data: &Dataset, level1: &[LatticeNode]) -> Self {
        let single: Vec<&LatticeNode> =
            level1.iter().filter(|node| node.predicate.len() == 1).collect();
        let literals: Vec<Literal> =
            single.iter().flat_map(|node| node.predicate.literals()).copied().collect();
        let rows: Vec<Arc<[u32]>> = single.iter().map(|node| Arc::clone(&node.rows)).collect();
        let mut by_literal: Vec<usize> = (0..literals.len()).collect();
        by_literal.sort_by_key(|&p| literals[p]);
        let mut bits = RowBits::new(data.num_rows());
        bits.load(rows.iter().map(|r| &**r));
        let n = literals.len();
        let cells = (0..n * n.saturating_sub(1) / 2).map(|_| OnceLock::new()).collect();
        Self { schema: data.schema_handle(), literals, rows, by_literal, bits, cells }
    }

    /// How full the table is: cells filled and the row ids they hold.
    pub fn filled(&self) -> (usize, usize) {
        self.cells
            .iter()
            .filter_map(OnceLock::get)
            .fold((0, 0), |(cells, ids), cell| (cells + 1, ids + cell.rows.len()))
    }

    /// The level-1 expansion of `frontier`, as
    /// [`expand_level_with`](crate::expand_level_with) computes it, from
    /// the table's cells. `None` if a node is not one of the table's
    /// level-1 nodes (another literal, or a selection the table does
    /// not share); the caller then joins the frontier itself.
    pub fn expand(
        &self,
        frontier: &[LatticeNode],
        check_satisfiability: bool,
        prune_redundant: bool,
    ) -> Option<Expansion> {
        let mut order = frontier
            .iter()
            .map(|node| Some((self.position(node)?, node)))
            .collect::<Option<Vec<_>>>()?;
        // The reference join's order: pairs of the frontier sorted by
        // predicate, which for one literal is the literal.
        order.sort_by(|(_, a), (_, b)| a.predicate.cmp(&b.predicate));
        let n = order.len();
        let mut out = Expansion { possible: n * n.saturating_sub(1) / 2, ..Expansion::default() };
        for (i, &(p, a)) in order.iter().enumerate() {
            for &(q, b) in &order[i + 1..] {
                // A literal does not join itself.
                if self.literals[p] == self.literals[q] {
                    continue;
                }
                let lens = (a.rows.len(), b.rows.len());
                let floor = parent_floor(a.rho, b.rho);
                self.child(&mut out, (p, q), lens, floor, check_satisfiability, prune_redundant);
            }
        }
        Some(out)
    }

    /// The expansion of a lone level-1 survivor, as
    /// [`expand_singleton_with`](crate::expand_singleton_with) computes
    /// it: the node conjoined with every other level-1 literal, in the
    /// frontier's generation order. `None` if the node is not one of
    /// the table's level-1 nodes.
    pub fn expand_singleton(
        &self,
        node: &LatticeNode,
        check_satisfiability: bool,
        prune_redundant: bool,
    ) -> Option<Expansion> {
        let p = self.position(node)?;
        let floor = node.rho.unwrap_or(f64::NEG_INFINITY);
        let mut out = Expansion::default();
        for q in (0..self.literals.len()).filter(|&q| self.literals[q] != self.literals[p]) {
            out.possible += 1;
            let lens = (node.rows.len(), self.rows[q].len());
            self.child(&mut out, (p, q), lens, floor, check_satisfiability, prune_redundant);
        }
        Some(out)
    }

    /// Where `node` sits in the table: it must be a level-1 node whose
    /// selection is the table's own allocation for its literal.
    fn position(&self, node: &LatticeNode) -> Option<usize> {
        let [literal] = node.predicate.literals() else {
            return None;
        };
        let k = self.by_literal.binary_search_by(|&p| self.literals[p].cmp(literal)).ok()?;
        let p = self.by_literal[k];
        Arc::ptr_eq(&self.rows[p], &node.rows).then_some(p)
    }

    /// Considers the child of positions `p` and `q`, whose parents select
    /// `lens` rows, exactly as the reference join's `Join::child` does.
    fn child(
        &self,
        out: &mut Expansion,
        (p, q): (usize, usize),
        (a_len, b_len): (usize, usize),
        parent_floor: f64,
        check_satisfiability: bool,
        prune_redundant: bool,
    ) {
        let (lo, hi) = (p.min(q), p.max(q));
        let mut joined = false;
        let cell = self.cells[pair_index(self.literals.len(), lo, hi)].get_or_init(|| {
            let cell = self.join(lo, hi);
            joined = cell.satisfiable;
            cell
        });
        out.joined += usize::from(joined);
        if check_satisfiability && !cell.satisfiable {
            out.pruned_rule1 += 1;
            return;
        }
        let len = cell.rows.len();
        if prune_redundant && (len == a_len || len == b_len) {
            out.pruned_redundant += 1;
            return;
        }
        out.children.push(LatticeNode {
            predicate: cell.predicate.clone(),
            rows: Arc::clone(&cell.rows),
            rho: None,
            parent_floor,
        });
    }

    /// Computes the cell of positions `p < q`. A contradictory pair is
    /// not ANDed: its predicate selects nothing, whatever the data.
    fn join(&self, p: usize, q: usize) -> Cell {
        let predicate = Predicate::new(vec![self.literals[p], self.literals[q]]);
        if !predicate.is_satisfiable(&self.schema) {
            return Cell { predicate, rows: Arc::new([]), satisfiable: false };
        }
        let (a, b) = (self.bits.slot(p), self.bits.slot(q));
        let rows = and_rows(a, b, and_count(a, b));
        Cell { predicate, rows, satisfiable: true }
    }
}

impl std::fmt::Debug for PairTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (cells, ids) = self.filled();
        f.debug_struct("PairTable")
            .field("literals", &self.literals.len())
            .field("cells", &self.cells.len())
            .field("filled", &cells)
            .field("ids", &ids)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::{
        expand_level_with, expand_singleton_with, level1_nodes_with, LiteralGen,
    };
    use fume_tabular::Attribute;

    fn data() -> Dataset {
        let schema = Arc::new(
            Schema::with_default_label(vec![
                Attribute::categorical("a", vec!["x".into(), "y".into()]),
                Attribute::ordinal("b", vec!["p".into(), "q".into(), "r".into()]),
            ])
            .unwrap(),
        );
        Dataset::new(
            schema,
            vec![vec![0, 0, 1, 1, 0], vec![0, 1, 2, 0, 2]],
            vec![true, false, true, false, true],
        )
        .unwrap()
    }

    #[test]
    fn pair_indices_cover_the_cells_once() {
        for n in 0..9usize {
            let mut seen = vec![false; n * n.saturating_sub(1) / 2];
            for p in 0..n {
                for q in p + 1..n {
                    let i = pair_index(n, p, q);
                    assert!(!seen[i], "n {n}: ({p}, {q}) reuses cell {i}");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "n {n}: a cell is never used");
        }
    }

    #[test]
    fn the_table_answers_like_the_reference_join() {
        let d = data();
        for gen in [LiteralGen::EqOnly, LiteralGen::WithRanges] {
            let level1 = level1_nodes_with(&d, &[], gen);
            let table = PairTable::new(&d, &level1);
            for (rule1, prune) in [(true, false), (true, true), (false, false), (false, true)] {
                let got = table.expand(&level1, rule1, prune).unwrap();
                let want = expand_level_with(&d, &level1, rule1, prune);
                assert_eq!(
                    (got.children, got.possible, got.pruned_rule1, got.pruned_redundant),
                    (want.children, want.possible, want.pruned_rule1, want.pruned_redundant),
                    "{gen:?}, rule 1 {rule1}, redundancy {prune}"
                );
                for node in &level1 {
                    let got = table.expand_singleton(node, rule1, prune).unwrap();
                    let want = expand_singleton_with(&d, node, &[], gen, rule1, prune);
                    assert_eq!(got.children, want.children, "{:?}", node.predicate);
                    assert_eq!(got.possible, want.possible);
                    assert_eq!(got.pruned_rule1, want.pruned_rule1);
                    assert_eq!(got.pruned_redundant, want.pruned_redundant);
                }
            }
        }
    }

    #[test]
    fn each_satisfiable_pair_is_joined_once() {
        let d = data();
        let level1 = level1_nodes_with(&d, &[], LiteralGen::EqOnly);
        let table = PairTable::new(&d, &level1);
        assert_eq!(table.literals.len(), 5);
        assert_eq!(table.filled(), (0, 0));
        // 2 × 3 cross-attribute pairs are joined; the 4 same-attribute
        // equality pairs are contradictory and hold no rows.
        assert_eq!(table.expand(&level1, true, false).unwrap().joined, 6);
        assert_eq!(table.filled(), (10, d.num_rows()));
        assert_eq!(table.expand(&level1, false, false).unwrap().joined, 0);
        assert_eq!(table.expand_singleton(&level1[0], true, false).unwrap().joined, 0);
        // A warm child shares the cell's selection.
        let warm = table.expand(&level1, true, false).unwrap();
        let again = table.expand(&level1, true, false).unwrap();
        assert!(Arc::ptr_eq(&warm.children[0].rows, &again.children[0].rows));
    }

    #[test]
    fn nodes_the_table_does_not_share_are_refused() {
        let d = data();
        let level1 = level1_nodes_with(&d, &[], LiteralGen::EqOnly);
        let table = PairTable::new(&d, &level1);
        // The same literals scanned again: equal rows, other allocations.
        let rescanned = level1_nodes_with(&d, &[], LiteralGen::EqOnly);
        assert!(table.expand(&rescanned, true, false).is_none());
        assert!(table.expand_singleton(&rescanned[0], true, false).is_none());
        // A literal the table does not hold, and a level-2 node.
        let ranges = level1_nodes_with(&d, &[], LiteralGen::WithRanges);
        let range = ranges.iter().find(|n| n.predicate.literals()[0].op != crate::Op::Eq);
        assert!(table.expand_singleton(range.unwrap(), true, false).is_none());
        let level2 = expand_level_with(&d, &level1, true, false).children;
        assert!(table.expand(&level2, true, false).is_none());
        assert_eq!(table.filled(), (0, 0), "a refused call fills nothing");
    }
}
