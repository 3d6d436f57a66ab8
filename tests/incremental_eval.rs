//! The bias answer of one unlearn-eval on edge inputs:
//! `DareRemoval::bias_removed` (journaled delete, one full prediction
//! pass, rollback) must agree bitwise with the clone-per-eval baseline on
//! an empty test set and on rows that sit exactly on the 0.5 threshold.

use std::sync::Arc;

use fume::core::prelude::*;
use fume::tabular::datasets::planted_toy;
use fume::tabular::split::train_test_split;
use fume::tabular::{Attribute, Dataset, Schema};

/// An empty test set has nothing to predict; the full prediction pass
/// must answer 0.0 like the clone path instead of panicking.
#[test]
fn empty_test_set_falls_back_to_the_full_path() {
    let (data, group) = planted_toy().generate_scaled(0.5, 95).unwrap();
    let (train, test) = train_test_split(&data, 0.3, 95).unwrap();
    let forest = DareForest::fit(&train, DareConfig::small(95));
    let empty = test.select_rows(&[]).unwrap();
    let pooled = DareRemoval::new(&forest, &train);
    let cloning = DareCloneRemoval::new(&forest, &train);
    for metric in FairnessMetric::ALL {
        let eval = BiasEval { metric, test: &empty, group };
        let a = pooled.bias_removed(&[0, 1, 2], &eval);
        let b = cloning.bias_removed(&[0, 1, 2], &eval);
        assert_eq!(a, 0.0, "{}: an empty test set has no bias", metric.name());
        assert_eq!(a.to_bits(), b.to_bits(), "{}: pool {a} != clone {b}", metric.name());
    }
}

/// A forest whose every leaf holds a perfectly balanced label split
/// predicts exactly 0.5 for every row — the planted tie. The shared
/// threshold convention (`float::positive_class`: ties are negative)
/// must hold on the deployed model, and a deletion that tips the balance
/// must flip rows identically on the pooled and clone paths.
#[test]
fn planted_probability_tie_is_handled_identically() {
    let schema = Arc::new(
        Schema::with_default_label(vec![
            Attribute::categorical("x", vec!["a".into(), "b".into()]),
            Attribute::categorical("s", vec!["f".into(), "m".into()]),
        ])
        .unwrap(),
    );
    // Labels balanced within each group: any leaf the tree can carve
    // (by `s`; `x` is constant) tallies 50% positive, so every tree
    // votes exactly 0.5 on every row.
    let train = Dataset::new(
        Arc::clone(&schema),
        vec![vec![0; 8], vec![0, 0, 0, 0, 1, 1, 1, 1]],
        vec![true, false, true, false, true, false, true, false],
    )
    .unwrap();
    let test = Dataset::new(
        Arc::clone(&schema),
        vec![vec![0; 4], vec![0, 0, 1, 1]],
        vec![true, false, true, false],
    )
    .unwrap();
    let group = GroupSpec::new(1, 1);
    let forest = DareForest::fit(&train, DareConfig::small(5).with_trees(3));

    let probas = forest.predict_proba(&test);
    assert!(
        probas.iter().all(|p| p.to_bits() == 0.5f64.to_bits()),
        "fixture must put every row exactly on the threshold: {probas:?}"
    );
    assert_eq!(forest.predict(&test), vec![false; 4], "exact ties are negative");

    let pooled = DareRemoval::new(&forest, &train);
    let cloning = DareCloneRemoval::new(&forest, &train);
    for metric in FairnessMetric::ALL {
        let eval = BiasEval { metric, test: &test, group };
        // Deleting a negative privileged row tips that group's leaves
        // above 0.5; deleting a positive one keeps them at or below it.
        for subset in [vec![5u32], vec![4u32], vec![4u32, 5]] {
            let a = pooled.bias_removed(&subset, &eval);
            let b = cloning.bias_removed(&subset, &eval);
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} deleting {subset:?}: tie rows diverged",
                metric.name()
            );
        }
    }
}
