//! The node store under every operation that changes it: the prediction
//! kernel on the live hot arrays must equal the reference walk bitwise on
//! every row, and a rollback must leave every array exactly as it was.
//!
//! The sweep runs the Adult, German and ACS generators of the golden
//! fingerprint test through a fit, journaled deletes that rebuild
//! subtrees and replenish candidate pools, their rollbacks, destructive
//! deletes and inserts that trigger compaction, and a persist round-trip.
//! `scripts/verify.sh` also runs this file under `FUME_DEEPCHECK=1`,
//! where every journaled delete and rollback re-validates the forest and
//! every full pass is checked against the reference walk from inside.

use fume_forest::{persist, DareConfig, DareForest, DeleteReport, NodeStore};
use fume_tabular::datasets::{acs_income, adult, german_credit, PaperDataset};
use fume_tabular::{Classifier, Dataset};

fn generators() -> [(&'static str, PaperDataset, f64); 3] {
    [("adult", adult(), 0.02), ("german", german_credit(), 1.0), ("acs", acs_income(), 0.005)]
}

/// Rows `i` of `0..n` with `keep(i)`, ascending.
fn rows(n: usize, keep: impl Fn(usize) -> bool) -> Vec<u32> {
    (0..n).filter(|&i| keep(i)).map(|i| i as u32).collect()
}

fn config() -> DareConfig {
    DareConfig {
        n_trees: 4,
        max_depth: 8,
        random_depth: 1,
        seed: 11,
        n_jobs: Some(1),
        ..DareConfig::default()
    }
}

/// The kernel's full pass, and each single-row prediction, carry the
/// reference walk's bits on every row of `data`.
fn assert_kernel_is_reference(forest: &DareForest, data: &Dataset, stage: &str) {
    let kernel = forest.predict_proba(data);
    let reference = forest.predict_proba_reference(data);
    assert_eq!(kernel.len(), data.num_rows());
    for (row, (k, r)) in kernel.iter().zip(&reference).enumerate() {
        assert_eq!(k.to_bits(), r.to_bits(), "{stage}: row {row} kernel {k} reference {r}");
        let single = forest.predict_row(data, row);
        assert_eq!(single.to_bits(), r.to_bits(), "{stage}: row {row} single-row walk");
    }
}

fn stores(forest: &DareForest) -> Vec<NodeStore> {
    forest.trees().iter().map(|t| t.store().clone()).collect()
}

/// Whether some tree's store holds slots its root cannot reach.
fn has_displaced_slots(forest: &DareForest) -> bool {
    forest.trees().iter().any(|t| t.store().len() > t.root().size())
}

#[test]
fn the_kernel_matches_the_reference_walk_through_every_store_change() {
    for (name, generator, scale) in generators() {
        let (data, _) = generator.generate_scaled(scale, 7).expect("generator spec is valid");
        let n = data.num_rows();
        let held_out = |i: usize| i.is_multiple_of(17);
        let mut forest = DareForest::fit_on(&data, rows(n, |i| !held_out(i)), config());
        assert_kernel_is_reference(&forest, &data, &format!("{name}: fit"));
        assert!(!has_displaced_slots(&forest), "{name}: a fit writes every slot in preorder");

        // Journaled deletes of pattern subsets, like the lattice's, then
        // their rollbacks.
        let mut journaled = DeleteReport::default();
        for attr in 0..3 {
            let code = data.code(0, attr);
            let pattern = rows(n, |i| !held_out(i) && data.code(i, attr) == code);
            let before = stores(&forest);
            let snapshot = forest.clone();
            let journal = forest.delete_journaled(&pattern, &data);
            journaled.merge(&journal.report);
            assert_kernel_is_reference(&forest, &data, &format!("{name}: journaled delete {attr}"));
            forest.rollback(journal);
            assert_eq!(forest, snapshot, "{name}: rollback {attr} restores the forest");
            for (t, (tree, store)) in forest.trees().iter().zip(&before).enumerate() {
                assert!(
                    tree.store() == store,
                    "{name}: rollback {attr} must restore tree {t}'s raw arrays"
                );
            }
            assert_kernel_is_reference(&forest, &data, &format!("{name}: rollback {attr}"));
        }
        assert!(journaled.subtrees_retrained > 0, "{name}: the journaled deletes must rebuild");

        // Destructive deletes in waves, then the rows back in: displaced
        // slots pile up until a compaction drops them.
        let mut compacted = false;
        let mut deleted = Vec::new();
        for wave in 0..6 {
            let batch = rows(n, |i| !held_out(i) && i % 6 == wave && !i.is_multiple_of(5));
            let before: Vec<usize> = forest.trees().iter().map(|t| t.store().len()).collect();
            forest.delete(&batch, &data).expect("the wave is held by the forest");
            compacted |= forest.trees().iter().zip(&before).any(|(t, &len)| t.store().len() < len);
            for tree in forest.trees() {
                let live = tree.root().size();
                assert!(tree.store().len() - live <= live, "{name}: displaced slots outnumber live ones");
            }
            assert_kernel_is_reference(&forest, &data, &format!("{name}: delete wave {wave}"));
            deleted.extend(batch);
        }
        deleted.sort_unstable();
        for chunk in deleted.chunks(deleted.len().div_ceil(3)) {
            forest.insert(chunk, &data).expect("the rows were deleted before");
            assert_kernel_is_reference(&forest, &data, &format!("{name}: insert"));
        }
        assert!(compacted, "{name}: the delete waves must compact some tree");

        // A persist round-trip writes the live tree in preorder.
        let loaded = persist::from_bytes(&persist::to_bytes(&forest)).expect("round-trip");
        assert_kernel_is_reference(&loaded, &data, &format!("{name}: persist round-trip"));
        assert!(!has_displaced_slots(&loaded), "{name}: a load writes every slot in preorder");
        for (a, b) in forest.trees().iter().zip(loaded.trees()) {
            assert_eq!(a.root(), b.root(), "{name}: the loaded trees are the saved ones");
        }
    }
}
