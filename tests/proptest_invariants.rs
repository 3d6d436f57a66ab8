//! Randomized tests over the workspace's core invariants. Formerly
//! proptest properties; now deterministic seeded loops over the in-tree
//! generator, so the workspace builds with an empty cargo registry and
//! every failure reproduces from its printed seed.

mod common;

use std::sync::{Arc, OnceLock};

use common::random_dataset;
use fume::fairness::FairnessMetric;
use fume::forest::validate::validate_forest;
use fume::forest::{gini, DareConfig, DareForest};
use fume::lattice::expand::Expansion;
use fume::lattice::{
    expand_level_with, expand_singleton_with, intersect_sorted, level1_nodes_with, LatticeNode,
    Literal, LiteralGen, Op, PairTable, Predicate,
};
use fume::tabular::discretize::Discretizer;
use fume::tabular::rng::{Rng, SeedableRng, StdRng};
use fume::tabular::workers;
use fume::tabular::{Attribute, Dataset, GroupSpec, Schema};

#[test]
fn gini_gain_is_bounded() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_0001);
    let mut checked = 0;
    while checked < 64 {
        let n = rng.gen_range(1u32..200);
        let n_pos = (f64::from(n) * rng.gen::<f64>()) as u32;
        let n_l = (f64::from(n) * rng.gen::<f64>()) as u32;
        let n_l_pos = (f64::from(n_l.min(n_pos)) * rng.gen::<f64>()) as u32;
        // Respect the right-side constraint.
        if n_pos - n_l_pos > n - n_l {
            continue;
        }
        checked += 1;
        let g = gini::gini_gain(n, n_pos, n_l, n_l_pos);
        assert!((-1e-9..=0.5 + 1e-9).contains(&g), "gain {g}");
        assert!(gini::gini(n, n_pos) <= 0.5 + 1e-12);
    }
}

#[test]
fn predicate_select_matches_row_filter() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE_0002 ^ seed);
        let data = random_dataset(&mut rng, 2..=4, 2..=4, 20..=120);
        let p = data.num_attributes();
        let card = data.schema().attribute(0).unwrap().cardinality();
        let k = rng.gen_range(1..=3usize);
        let literals: Vec<Literal> = (0..k)
            .map(|_| Literal {
                attr: rng.gen_range(0..p as u16),
                op: [Op::Eq, Op::Ne, Op::Le, Op::Gt][rng.gen_range(0..4usize)],
                value: rng.gen_range(0..card),
            })
            .collect();
        let pred = Predicate::new(literals);
        let selected = pred.select(&data);
        // Selection is sorted-unique and equals per-row matching.
        assert!(selected.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
        for row in 0..data.num_rows() {
            let in_sel = selected.binary_search(&(row as u32)).is_ok();
            assert_eq!(in_sel, pred.matches(&data, row), "seed {seed} row {row}");
        }
        // Unsatisfiable predicates select nothing.
        if !pred.is_satisfiable(data.schema()) {
            assert!(selected.is_empty(), "seed {seed}");
        }
    }
}

#[test]
fn join_selection_is_parent_intersection() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE_0003 ^ seed);
        let data = random_dataset(&mut rng, 2..=4, 2..=4, 20..=120);
        let p = data.num_attributes() as u16;
        let card = data.schema().attribute(0).unwrap().cardinality();
        let (a, b) = (rng.gen_range(0..p), rng.gen_range(0..p));
        let (va, vb) = (rng.gen_range(0..card), rng.gen_range(0..card));
        let pa = Predicate::single(Literal::eq(a, va));
        let pb = Predicate::single(Literal::eq(b, vb));
        if let Some(child) = pa.join(&pb) {
            let expect = intersect_sorted(&pa.select(&data), &pb.select(&data));
            assert_eq!(child.select(&data), expect, "seed {seed}");
            // Support is monotone under conjunction.
            assert!(child.support(&data) <= pa.support(&data) + 1e-12, "seed {seed}");
            assert!(child.support(&data) <= pb.support(&data) + 1e-12, "seed {seed}");
        }
    }
}

/// A random dataset of exactly `n` rows whose attributes are each
/// categorical or ordinal (range literals need ordinal ones), with
/// cardinalities 1–5, so some literals select every row.
fn random_mixed_dataset(rng: &mut StdRng, n: usize) -> Dataset {
    let p = rng.gen_range(2..=4usize);
    let cards: Vec<u16> = (0..p).map(|_| rng.gen_range(1..=5u16)).collect();
    let cols: Vec<Vec<u16>> =
        cards.iter().map(|&c| (0..n).map(|_| rng.gen_range(0..c)).collect()).collect();
    let labels: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    let attributes = cards
        .iter()
        .enumerate()
        .map(|(j, &c)| {
            let values = (0..c).map(|v| format!("v{v}")).collect();
            if rng.gen::<bool>() {
                Attribute::ordinal(format!("a{j}"), values)
            } else {
                Attribute::categorical(format!("a{j}"), values)
            }
        })
        .collect();
    let schema = Arc::new(Schema::with_default_label(attributes).unwrap());
    Dataset::new(schema, cols, labels).unwrap()
}

/// The child of two parents as the lattice defines it, joined over the
/// parents' sorted id lists.
#[allow(clippy::too_many_arguments)]
fn reference_child(
    out: &mut Expansion,
    data: &Dataset,
    predicate: Predicate,
    a: &[u32],
    b: &[u32],
    parent_floor: f64,
    rule1: bool,
    prune_redundant: bool,
) {
    if rule1 && !predicate.is_satisfiable(data.schema()) {
        out.pruned_rule1 += 1;
        return;
    }
    let rows = intersect_sorted(a, b);
    if prune_redundant && (rows.len() == a.len() || rows.len() == b.len()) {
        out.pruned_redundant += 1;
        return;
    }
    out.children.push(LatticeNode { predicate, rows: rows.into(), rho: None, parent_floor });
}

/// The pairwise join: every pair of frontier nodes, in predicate order,
/// whose predicates join.
fn reference_join(
    data: &Dataset,
    frontier: &[LatticeNode],
    rule1: bool,
    prune_redundant: bool,
) -> Expansion {
    let mut sorted: Vec<&LatticeNode> = frontier.iter().collect();
    sorted.sort_by(|a, b| a.predicate.cmp(&b.predicate));
    let n = sorted.len();
    let mut out = Expansion { possible: n * n.saturating_sub(1) / 2, ..Expansion::default() };
    for (i, a) in sorted.iter().enumerate() {
        for b in &sorted[i + 1..] {
            let Some(child) = a.predicate.join(&b.predicate) else { continue };
            let floor = match (a.rho, b.rho) {
                (Some(x), Some(y)) => x.max(y),
                (Some(x), None) | (None, Some(x)) => x,
                (None, None) => f64::NEG_INFINITY,
            };
            reference_child(&mut out, data, child, &a.rows, &b.rows, floor, rule1, prune_redundant);
        }
    }
    out
}

/// The singleton expansion: the node conjoined with every level-1 literal
/// it does not already hold.
fn reference_singleton(
    data: &Dataset,
    node: &LatticeNode,
    gen: LiteralGen,
    rule1: bool,
    prune_redundant: bool,
) -> Expansion {
    let mut out = Expansion::default();
    for fresh in level1_nodes_with(data, &[], gen) {
        let lit = fresh.predicate.literals()[0];
        if node.predicate.literals().contains(&lit) {
            continue;
        }
        out.possible += 1;
        let mut lits = node.predicate.literals().to_vec();
        lits.push(lit);
        let floor = node.rho.unwrap_or(f64::NEG_INFINITY);
        let child = Predicate::new(lits);
        reference_child(&mut out, data, child, &node.rows, &fresh.rows, floor, rule1, prune_redundant);
    }
    out
}

fn assert_same_expansion(got: &Expansion, want: &Expansion, ctx: &str) {
    assert_eq!(got.possible, want.possible, "{ctx}: possible");
    assert_eq!(got.pruned_rule1, want.pruned_rule1, "{ctx}: pruned_rule1");
    assert_eq!(got.pruned_redundant, want.pruned_redundant, "{ctx}: pruned_redundant");
    assert_eq!(got.children.len(), want.children.len(), "{ctx}: children");
    for (k, (g, w)) in got.children.iter().zip(&want.children).enumerate() {
        assert_eq!(g.predicate, w.predicate, "{ctx}: child {k} predicate");
        assert_eq!(g.rows, w.rows, "{ctx}: child {k} rows");
        assert_eq!(g.rho, None, "{ctx}: child {k} rho");
        assert_eq!(g.parent_floor.to_bits(), w.parent_floor.to_bits(), "{ctx}: child {k} floor");
    }
}

/// Gives each node a random ρ (or none, as for an oversized node) and
/// keeps a random share of them, as Rules 2, 4 and 5 would.
fn survivors(rng: &mut StdRng, nodes: Vec<LatticeNode>) -> Vec<LatticeNode> {
    let keep = rng.gen_range(0.3..1.0f64);
    let mut kept = Vec::new();
    for mut node in nodes {
        if rng.gen::<f64>() < keep {
            node.rho = rng.gen::<bool>().then(|| rng.gen_range(-1.0..1.0f64));
            kept.push(node);
        }
    }
    kept
}

#[test]
fn bitset_join_matches_the_sorted_list_join() {
    // Word-boundary sizes (one row, 64 ± 1, 128 ± 1) and random ones.
    let mut sizes = vec![1, 63, 64, 65, 127, 128, 129];
    let mut rng = StdRng::seed_from_u64(0xC0DE_0007);
    sizes.extend((0..24).map(|_| rng.gen_range(1..=300usize)));
    let (mut joined, mut redundant) = (0usize, 0usize);
    for (case, &n) in sizes.iter().enumerate() {
        let data = random_mixed_dataset(&mut rng, n);
        for gen in [LiteralGen::EqOnly, LiteralGen::WithRanges] {
            for (rule1, prune) in [(true, false), (true, true), (false, false), (false, true)] {
                let ctx = format!("case {case} ({n} rows), {gen:?}, rule 1 {rule1}, redundancy {prune}");
                let level1 = survivors(&mut rng, level1_nodes_with(&data, &[], gen));
                let want = reference_join(&data, &level1, rule1, prune);
                let got = expand_level_with(&data, &level1, rule1, prune);
                assert_same_expansion(&got, &want, &format!("{ctx}, level 1→2"));

                let level2 = survivors(&mut rng, want.children);
                let want = reference_join(&data, &level2, rule1, prune);
                let got = expand_level_with(&data, &level2, rule1, prune);
                assert_same_expansion(&got, &want, &format!("{ctx}, level 2→3"));
                joined += got.children.len();
                redundant += got.pruned_redundant;

                // A lone survivor at level 1 and at level 2.
                for frontier in [&level1, &level2] {
                    if frontier.is_empty() {
                        continue;
                    }
                    let node = &frontier[rng.gen_range(0..frontier.len())];
                    let want = reference_singleton(&data, node, gen, rule1, prune);
                    let got = expand_singleton_with(&data, node, &[], gen, rule1, prune);
                    let level = node.predicate.len();
                    assert_same_expansion(&got, &want, &format!("{ctx}, singleton at level {level}"));
                }
            }
        }
    }
    assert!(joined > 0, "the battery must produce level-3 children");
    assert!(redundant > 0, "redundancy pruning must fire at level 3");
}

/// A warm expansion answers from the cells the cold one filled: the same
/// children, each sharing its selection's allocation, and no joins.
fn assert_warm(cold: &Expansion, warm: Option<Expansion>, ctx: &str) {
    let warm = warm.unwrap_or_else(|| panic!("{ctx}: the table refused its own nodes"));
    assert_same_expansion(&warm, cold, &format!("{ctx}, warm"));
    assert_eq!(warm.joined, 0, "{ctx}: a warm expansion joined pairs again");
    for (k, (w, c)) in warm.children.iter().zip(&cold.children).enumerate() {
        assert!(Arc::ptr_eq(&w.rows, &c.rows), "{ctx}: warm child {k} copied its rows");
    }
}

#[test]
fn pair_table_matches_the_reference_join() {
    // Word-boundary sizes (one row, 64 ± 1, 128 ± 1) and random ones.
    let mut sizes = vec![1, 63, 64, 65, 127, 128, 129];
    let mut rng = StdRng::seed_from_u64(0xC0DE_000A);
    sizes.extend((0..24).map(|_| rng.gen_range(1..=300usize)));
    let (mut children, mut redundant, mut singletons) = (0usize, 0usize, 0usize);
    for (case, &n) in sizes.iter().enumerate() {
        let data = random_mixed_dataset(&mut rng, n);
        for gen in [LiteralGen::EqOnly, LiteralGen::WithRanges] {
            // One table per dataset and literal scheme, shared by every
            // toggle below, as a serve session shares one.
            let level1 = level1_nodes_with(&data, &[], gen);
            let table = PairTable::new(&data, &level1);
            for (rule1, prune) in [(true, false), (true, true), (false, false), (false, true)] {
                let ctx = format!("case {case} ({n} rows), {gen:?}, rule 1 {rule1}, redundancy {prune}");
                // A random expandable subset of level 1, with random ρ
                // and unevaluated (oversized) nodes.
                let frontier = survivors(&mut rng, level1.clone());
                let want = reference_join(&data, &frontier, rule1, prune);
                let got = table
                    .expand(&frontier, rule1, prune)
                    .unwrap_or_else(|| panic!("{ctx}: the table refused its own nodes"));
                assert_same_expansion(&got, &want, &format!("{ctx}, level 1→2"));
                assert_warm(&got, table.expand(&frontier, rule1, prune), &ctx);
                children += got.children.len();
                redundant += got.pruned_redundant;

                // A lone survivor, with its own ρ or none.
                if let Some(node) = frontier.get(rng.gen_range(0..frontier.len().max(1))) {
                    let ctx = format!("{ctx}, singleton {:?}", node.predicate);
                    let want = reference_singleton(&data, node, gen, rule1, prune);
                    let got = table
                        .expand_singleton(node, rule1, prune)
                        .unwrap_or_else(|| panic!("{ctx}: the table refused its own node"));
                    assert_same_expansion(&got, &want, &ctx);
                    assert_warm(&got, table.expand_singleton(node, rule1, prune), &ctx);
                    singletons += 1;
                }
            }
        }
    }
    assert!(children > 0 && singletons > 0, "the battery must produce children");
    assert!(redundant > 0, "redundancy pruning must fire at level 2");
}

#[test]
fn concurrent_fills_of_one_pair_table_agree_with_a_fresh_table() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_000B);
    for round in 0..8 {
        // Enough rows that the two fills overlap in time.
        let n = rng.gen_range(1500..=2500usize);
        let data = random_mixed_dataset(&mut rng, n);
        let gen = if round % 2 == 0 { LiteralGen::EqOnly } else { LiteralGen::WithRanges };
        let level1 = level1_nodes_with(&data, &[], gen);
        let subsets = [survivors(&mut rng, level1.clone()), survivors(&mut rng, level1.clone())];
        let shared = PairTable::new(&data, &level1);
        let answers: [OnceLock<Expansion>; 2] = [OnceLock::new(), OnceLock::new()];
        workers::scoped_workers(
            2,
            |i| {
                let got = shared.expand(&subsets[i], true, false);
                assert!(answers[i].set(got.expect("the table holds its own nodes")).is_ok());
            },
            || (),
        );
        for (i, subset) in subsets.iter().enumerate() {
            let fresh = PairTable::new(&data, &level1).expand(subset, true, false).unwrap();
            let got = answers[i].get().expect("each worker answers");
            assert_same_expansion(got, &fresh, &format!("round {round}, thread {i}"));
        }
    }
}

#[test]
fn literal_satisfiability_matches_domain_scan() {
    let ops = [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge];
    // The full cross product is tiny — scan it instead of sampling.
    for card in 1u16..6 {
        for op in ops {
            for value in 0u16..6 {
                let lit = Literal { attr: 0, op, value };
                let brute = (0..card).any(|c| lit.matches(c));
                assert_eq!(lit.satisfiable(card), brute, "{lit:?} card {card}");
            }
        }
    }
}

#[test]
fn discretizer_assign_is_monotone() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE_0004 ^ seed);
        let n = rng.gen_range(3usize..60);
        let mut values: Vec<f64> =
            (0..n).map(|_| rng.gen_range(-1e6f64..1e6)).collect();
        let bins = rng.gen_range(2usize..8);
        let cuts = Discretizer::EqualWidth(bins).cut_points(&values).unwrap();
        assert!(cuts.len() < bins, "seed {seed}");
        let codes = Discretizer::assign(&values, &cuts);
        // Sorting values must sort codes (monotonicity).
        let mut pairs: Vec<(f64, u16)> = values.drain(..).zip(codes).collect();
        pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
        assert!(pairs.windows(2).all(|w| w[0].1 <= w[1].1), "seed {seed}");
        // Codes stay within the bin count.
        assert!(pairs.iter().all(|&(_, c)| (c as usize) <= cuts.len()), "seed {seed}");
    }
}

#[test]
fn forest_invariants_hold_after_arbitrary_batch_delete() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE_0005 ^ seed);
        let data = random_dataset(&mut rng, 2..=4, 2..=4, 20..=120);
        let cfg = DareConfig { n_trees: 2, max_depth: 5, seed, ..DareConfig::default() };
        let mut forest = DareForest::fit(&data, cfg);
        let del: Vec<u32> =
            (0..data.num_rows() as u32).filter(|_| rng.gen::<bool>()).collect();
        forest.delete(&del, &data).unwrap();
        assert_eq!(
            forest.num_instances() as usize,
            data.num_rows() - del.len(),
            "seed {seed}"
        );
        let violations = validate_forest(&forest, &data);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

#[test]
fn statistical_parity_flips_sign_when_groups_swap() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE_0006 ^ seed);
        let preds: Vec<bool> = (0..30).map(|_| rng.gen()).collect();
        let labels: Vec<bool> = (0..30).map(|_| rng.gen()).collect();
        let mask: Vec<bool> = (0..30).map(|_| rng.gen()).collect();
        let f = FairnessMetric::StatisticalParity.compute(&preds, &labels, &mask);
        let flipped: Vec<bool> = mask.iter().map(|&m| !m).collect();
        let g = FairnessMetric::StatisticalParity.compute(&preds, &labels, &flipped);
        assert!((f + g).abs() < 1e-12, "seed {seed}: f={f} g={g}");
    }
}

#[test]
fn perfect_predictions_satisfy_error_based_metrics() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_0007);
    let mut checked = 0;
    'outer: while checked < 64 {
        let n = rng.gen_range(2usize..60);
        let labels: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        let mask: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        // The identity requires every group rate to be well-defined: each
        // group must contain both a positive and a negative label
        // (undefined rates fall back to 0 by documented convention, which
        // would fabricate a difference).
        for want_priv in [false, true] {
            let pos = labels.iter().zip(&mask).any(|(&y, &m)| m == want_priv && y);
            let neg = labels.iter().zip(&mask).any(|(&y, &m)| m == want_priv && !y);
            if !(pos && neg) {
                continue 'outer;
            }
        }
        checked += 1;
        // A perfect predictor has TPR 1 / FPR 0 / PPV 1 in every such
        // group, so the *error-based* metrics are satisfied. Statistical
        // parity deliberately is NOT: it compares selection rates, which a
        // perfect predictor inherits from the groups' base rates.
        for m in [FairnessMetric::EqualizedOdds, FairnessMetric::PredictiveParity] {
            let v = m.compute(&labels, &labels, &mask);
            assert!(v.abs() < 1e-12, "{} = {v}", m.name());
        }
        // And statistical parity of a perfect predictor equals the base
        // rate difference.
        let sp = FairnessMetric::StatisticalParity.compute(&labels, &labels, &mask);
        let rate = |want_priv: bool| {
            let (mut n, mut pos) = (0usize, 0usize);
            for (&y, &m) in labels.iter().zip(&mask) {
                if m == want_priv {
                    n += 1;
                    pos += usize::from(y);
                }
            }
            if n == 0 {
                0.0
            } else {
                pos as f64 / n as f64
            }
        };
        assert!((sp - (rate(false) - rate(true))).abs() < 1e-12);
    }
}

#[test]
fn group_masks_partition_rows() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE_0008 ^ seed);
        let data = random_dataset(&mut rng, 2..=4, 2..=4, 20..=120);
        let card = data.schema().attribute(0).unwrap().cardinality();
        let code = rng.gen_range(0..card);
        let group = GroupSpec::new(0, code);
        let mask = data.privileged_mask(group);
        let priv_count = mask.iter().filter(|&&m| m).count();
        let by_code = data.column(0).iter().filter(|&&c| c == code).count();
        assert_eq!(priv_count, by_code, "seed {seed}");
    }
}
