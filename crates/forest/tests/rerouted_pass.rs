//! The rerouted prediction pass against the full pass and the reference
//! walk, bitwise, on every row.
//!
//! Each case builds [`LeafRoutes`] for a deployed forest once, then
//! journal-deletes a sweep of subsets from a scratch clone, from no row
//! up to every row (so some deletes rebuild whole trees from the root),
//! compares the rerouted pass with `predict_proba` and
//! `predict_proba_reference` after each, and rolls back. The deployed
//! forests are fitted on the Adult, German and ACS generators, then also
//! unlearned destructively (displaced, appended and compacted slots) and
//! extended by inserts. `scripts/verify.sh` also runs this file under
//! `FUME_DEEPCHECK=1`, where every rerouted pass asserts its answer
//! against the full pass from inside.

use fume_forest::{DareConfig, DareForest, LeafRoutes};
use fume_tabular::datasets::{acs_income, adult, german_credit, PaperDataset};
use fume_tabular::rng::{Rng, SeedableRng, StdRng};
use fume_tabular::split::train_test_split;
use fume_tabular::{Classifier, Dataset};

fn generators() -> [(&'static str, PaperDataset, f64); 3] {
    [("adult", adult(), 0.02), ("german", german_credit(), 1.0), ("acs", acs_income(), 0.005)]
}

fn config(n_trees: usize) -> DareConfig {
    DareConfig {
        n_trees,
        max_depth: 8,
        random_depth: 1,
        seed: 23,
        n_jobs: Some(1),
        ..DareConfig::default()
    }
}

fn split(data: &Dataset, seed: u64) -> (Dataset, Dataset) {
    train_test_split(data, 0.3, seed).expect("dataset is non-empty")
}

fn assert_bitwise(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: lengths");
    for (row, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: row {row} rerouted {g}, expected {w}");
    }
}

/// Subsets of the ids `held`: shares from none to all, drawn at random,
/// plus one label-pure subset, whose deletion leaves pure nodes that the
/// builder turns into leaves.
fn subsets(held: &[u32], train: &Dataset, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Vec<u32>> = [0.0, 0.002, 0.02, 0.1, 0.3, 0.6, 0.9, 0.99, 1.0]
        .iter()
        .map(|&share| held.iter().copied().filter(|_| rng.gen_bool(share)).collect())
        .collect();
    out.push(held.iter().copied().filter(|&id| train.label(id as usize)).collect());
    out
}

/// Checks the rerouted pass after a journaled delete of each subset from
/// a clone of `deployed`, rolling back in between so the routes, built
/// once, serve every delete. Returns how many deletes rebuilt some tree
/// from its root.
fn check_sweep(
    deployed: &DareForest,
    train: &Dataset,
    test: &Dataset,
    subsets: &[Vec<u32>],
    stage: &str,
) -> usize {
    let routes = LeafRoutes::build(deployed, test);
    let mut scratch = deployed.clone();
    let mut root_rebuilds = 0;
    for (i, subset) in subsets.iter().enumerate() {
        let journal = scratch.delete_journaled(subset, train);
        let rerouted = routes.predict_proba(&scratch, &journal);
        let what = format!("{stage}: subset {i} ({} rows)", subset.len());
        let reference = scratch.predict_proba_reference(test);
        assert_bitwise(&rerouted, &scratch.predict_proba(test), &format!("{what} vs full pass"));
        assert_bitwise(&rerouted, &reference, &format!("{what} vs reference"));
        let moved_root = |(s, d): (&fume_forest::DareTree, &fume_forest::DareTree)| {
            s.root().slot() != d.root().slot()
        };
        root_rebuilds += usize::from(scratch.trees().iter().zip(deployed.trees()).any(moved_root));
        scratch.rollback(journal);
        assert!(&scratch == deployed, "{what}: rollback");
    }
    root_rebuilds
}

#[test]
fn rerouting_matches_the_full_pass_on_every_generator_and_subset_size() {
    for (name, generator, scale) in generators() {
        let (data, _) = generator.generate_scaled(scale, 5).expect("generator spec is valid");
        let (train, test) = split(&data, 5);
        let deployed = DareForest::fit(&train, config(6));
        let sweep = subsets(&train.all_row_ids(), &train, 6);
        let root_rebuilds = check_sweep(&deployed, &train, &test, &sweep, name);
        assert!(root_rebuilds > 0, "{name}: no delete rebuilt a tree from its root");
    }
}

#[test]
fn rerouting_holds_on_forests_unlearned_destructively_or_extended() {
    for (name, generator, scale) in generators() {
        let (data, _) = generator.generate_scaled(scale, 7).expect("generator spec is valid");
        let (train, test) = split(&data, 7);
        let n = train.num_rows() as u32;

        // Destructive waves: rebuilt subtrees are appended past displaced
        // slots until a compaction rewrites the store in preorder.
        let mut unlearned = DareForest::fit(&train, config(5));
        let mut held = train.all_row_ids();
        let mut rng = StdRng::seed_from_u64(8);
        let (mut displaced, mut compacted) = (false, false);
        for wave in 0..4 {
            let gone: Vec<u32> = held.iter().copied().filter(|_| rng.gen_bool(0.15)).collect();
            let before: Vec<usize> = unlearned.trees().iter().map(|t| t.store().len()).collect();
            unlearned.delete(&gone, &train).expect("ids are held");
            held.retain(|id| gone.binary_search(id).is_err());
            for (t, &len) in unlearned.trees().iter().zip(&before) {
                displaced |= t.store().len() > t.root().size();
                compacted |= t.store().len() < len;
            }
            let sweep = subsets(&held, &train, 9 + wave);
            let stage = format!("{name}: after delete wave {wave}");
            check_sweep(&unlearned, &train, &test, &sweep, &stage);
        }
        assert!(displaced && compacted, "{name}: the waves must leave displaced slots and compact");

        // Inserts into a forest fitted on half the rows.
        let half: Vec<u32> = (0..n / 2).collect();
        let mut extended = DareForest::fit_on(&train, half.clone(), config(5));
        let rest: Vec<u32> = (n / 2..n).collect();
        for chunk in rest.chunks(rest.len().div_ceil(3).max(1)) {
            extended.insert(chunk, &train).expect("ids are new");
            let held = extended.trees()[0].instance_ids();
            let sweep = subsets(&held, &train, 10);
            check_sweep(&extended, &train, &test, &sweep, &format!("{name}: after insert"));
        }
    }
}

#[test]
fn rerouting_an_empty_test_set_or_an_empty_forest() {
    let (data, _) = adult().generate_scaled(0.01, 11).expect("generator spec is valid");
    let (train, test) = split(&data, 11);
    let sweep = subsets(&train.all_row_ids(), &train, 12);

    let deployed = DareForest::fit(&train, config(3));
    let empty_test = test.select_rows(&[]).expect("no rows is a valid selection");
    assert_eq!(empty_test.num_rows(), 0);
    check_sweep(&deployed, &train, &empty_test, &sweep, "empty test set");

    let no_trees = DareForest::fit(&train, config(0));
    check_sweep(&no_trees, &train, &test, &sweep, "no trees");
    let routes = LeafRoutes::build(&no_trees, &test);
    let mut scratch = no_trees.clone();
    let journal = scratch.delete_journaled(&sweep[3], &train);
    let proba = routes.predict_proba(&scratch, &journal);
    assert!(proba.iter().all(|p| p.to_bits() == 0.5f64.to_bits()));
    scratch.rollback(journal);
}

#[test]
#[should_panic(expected = "not the tree the routes were built for")]
fn routes_refuse_a_forest_they_were_not_built_for() {
    let (data, _) = german_credit().generate_scaled(1.0, 13).expect("generator spec is valid");
    let (train, test) = split(&data, 13);
    let deployed = DareForest::fit(&train, config(3));
    let routes = LeafRoutes::build(&deployed, &test);
    let mut other = deployed.clone();
    other.delete(&(0..200).collect::<Vec<u32>>(), &train).expect("ids are held");
    let journal = other.delete_journaled(&[300, 301], &train);
    let _ = routes.predict_proba(&other, &journal);
}
