//! The DaRE random forest: an ensemble of unlearnable trees.
//!
//! Following the DaRE-RF paper, trees are *not* bagged: every tree trains
//! on the full instance set, and diversity comes from per-tree random
//! attribute/threshold sampling. (Bagging would make exact unlearning
//! ambiguous — a deleted instance appears in a random subset of trees.)

use fume_tabular::cast::row_u32;
use fume_tabular::workers::{parallel_map, parallel_map_mut, parallel_zip_map, resolve_jobs};
use fume_tabular::{Classifier, Dataset};

use crate::config::DareConfig;
use crate::delete::DeleteReport;
use crate::insert::InsertReport;
use crate::journal::{TreeUndo, UndoJournal};
use crate::plan::HotTree;
use crate::tree::DareTree;

/// A random forest classifier with exact unlearning (DaRE-RF).
///
/// ```
/// use fume_forest::{DareConfig, DareForest};
/// use fume_tabular::datasets::planted_toy;
/// use fume_tabular::Classifier;
///
/// let (data, _) = planted_toy().generate_scaled(0.2, 7).unwrap();
/// let mut forest = DareForest::fit(&data, DareConfig::small(7));
/// let acc_before = forest.accuracy(&data);
/// forest.delete(&[1, 2, 3], &data).unwrap();
/// assert_eq!(forest.num_instances() as usize, data.num_rows() - 3);
/// assert!(forest.accuracy(&data) > acc_before - 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DareForest {
    trees: Vec<DareTree>,
    config: DareConfig,
    /// Number of training instances still learned (after deletions).
    n_instances: u32,
}

/// Errors from forest unlearning/learning operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForestError {
    /// A requested id is not (or no longer) in the training set.
    UnknownInstance(u32),
    /// An inserted id is already in the training set.
    DuplicateInstance(u32),
    /// An id is outside the dataset's row range.
    RowOutOfRange(u32),
}

impl std::fmt::Display for ForestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownInstance(id) => {
                write!(f, "instance {id} is not in the forest's training set")
            }
            Self::DuplicateInstance(id) => {
                write!(f, "instance {id} is already in the forest's training set")
            }
            Self::RowOutOfRange(id) => {
                write!(f, "row {id} is outside the dataset")
            }
        }
    }
}

impl std::error::Error for ForestError {}

impl DareForest {
    /// Trains a forest on all rows of `data`.
    pub fn fit(data: &Dataset, config: DareConfig) -> Self {
        Self::fit_on(data, data.all_row_ids(), config)
    }

    /// Trains a forest on the subset `ids` of `data` (used by the
    /// retrain-from-scratch baseline).
    pub fn fit_on(data: &Dataset, ids: Vec<u32>, config: DareConfig) -> Self {
        let _span =
            fume_obs::span!("forest.fit", trees = config.n_trees, instances = ids.len());
        let n_instances = row_u32(ids.len());
        let seeds: Vec<u64> = (0..config.n_trees)
            .map(|i| config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64))
            .collect();
        let jobs = resolve_jobs(config.n_jobs, config.n_trees);
        let trees = parallel_map(&seeds, jobs, |&s| DareTree::fit(data, ids.clone(), &config, s));
        Self { trees, config, n_instances }
    }

    /// Reassembles a forest from persisted trees. Returns `None` when the
    /// tree count disagrees with the configuration.
    pub(crate) fn from_saved(
        trees: Vec<DareTree>,
        config: DareConfig,
        n_instances: u32,
    ) -> Option<Self> {
        if trees.len() != config.n_trees {
            return None;
        }
        Some(Self { trees, config, n_instances })
    }

    /// Unlearns the given training instances from every tree. Ids are
    /// sorted and deduplicated internally; unknown ids are rejected before
    /// any tree is modified.
    pub fn delete(&mut self, ids: &[u32], data: &Dataset) -> Result<DeleteReport, ForestError> {
        let mut del: Vec<u32> = ids.to_vec();
        del.sort_unstable();
        del.dedup();
        if del.is_empty() {
            return Ok(DeleteReport::default());
        }
        // All trees hold the same instance set; check against the first.
        if let Some(tree) = self.trees.first() {
            let present = tree.instance_ids();
            for &id in &del {
                if present.binary_search(&id).is_err() {
                    return Err(ForestError::UnknownInstance(id));
                }
            }
        }
        Ok(self.delete_validated(del, data))
    }

    /// [`Self::delete`] without the presence check — the caller guarantees
    /// every id is currently held by the forest. FUME's attribution hot
    /// path uses this: lattice selections are drawn from the training
    /// universe the forest was fitted on, so re-scanning a tree's id list
    /// per evaluated subset would be pure overhead. Passing an absent id
    /// corrupts cached statistics (or panics in debug builds).
    pub fn delete_unchecked(&mut self, ids: &[u32], data: &Dataset) -> DeleteReport {
        let mut del: Vec<u32> = ids.to_vec();
        del.sort_unstable();
        del.dedup();
        if del.is_empty() {
            return DeleteReport::default();
        }
        self.delete_validated(del, data)
    }

    fn delete_validated(&mut self, del: Vec<u32>, data: &Dataset) -> DeleteReport {
        let _span = fume_obs::span!("forest.delete", ids = del.len());
        let jobs = resolve_jobs(self.config.n_jobs, self.trees.len());
        let (config, del_ref) = (&self.config, &del);
        let reports: Vec<DeleteReport> =
            parallel_map_mut(&mut self.trees, jobs, |t| t.delete(del_ref, data, config));
        let total = merge_delete_reports(&reports);
        self.n_instances -= row_u32(del.len());
        emit_delete_counters(del.len(), &total);
        total
    }

    /// [`Self::delete_unchecked`] with an undo journal: unlearns `ids`
    /// from every tree while recording everything mutated, so
    /// [`Self::rollback`] restores the forest byte-identically (same
    /// structure, statistics *and* per-tree RNG streams — a rolled-back
    /// forest compares equal to a pre-delete snapshot).
    ///
    /// Like `delete_unchecked`, the caller guarantees every id is
    /// currently held by the forest; this is FUME's scratch-forest hot
    /// path, where selections come from the training universe.
    pub fn delete_journaled(&mut self, ids: &[u32], data: &Dataset) -> UndoJournal {
        let mut del: Vec<u32> = ids.to_vec();
        del.sort_unstable();
        del.dedup();
        if del.is_empty() {
            return UndoJournal::empty();
        }
        let _span = fume_obs::span!("forest.delete", ids = del.len(), journaled = true);
        let jobs = resolve_jobs(self.config.n_jobs, self.trees.len());
        let (config, del_ref) = (&self.config, &del);
        let outcomes: Vec<(DeleteReport, TreeUndo)> =
            parallel_map_mut(&mut self.trees, jobs, |t| {
                t.delete_journaled(del_ref, data, config)
            });
        let (reports, undos): (Vec<DeleteReport>, Vec<TreeUndo>) =
            outcomes.into_iter().unzip();
        let total = merge_delete_reports(&reports);
        let n_deleted = row_u32(del.len());
        self.n_instances -= n_deleted;
        emit_delete_counters(del.len(), &total);
        let journal = UndoJournal { trees: undos, n_deleted, report: total };
        crate::deepcheck::check_forest(self, data, "delete_journaled");
        journal
    }

    /// Undoes a journaled deletion, restoring the forest to exactly its
    /// pre-delete state. Returns the total number of node restorations
    /// applied across all trees.
    ///
    /// `journal` must come from this forest's most recent
    /// [`Self::delete_journaled`]; journals do not compose, so roll back
    /// before the next journaled delete.
    pub fn rollback(&mut self, journal: UndoJournal) -> usize {
        if journal.trees.is_empty() && journal.n_deleted == 0 {
            return 0; // journal of an empty delete
        }
        assert_eq!(
            journal.trees.len(),
            self.trees.len(),
            "journal does not belong to this forest"
        );
        let _span = fume_obs::span!("forest.rollback", records = journal.nodes_recorded());
        let jobs = resolve_jobs(self.config.n_jobs, self.trees.len());
        let restored: Vec<usize> =
            parallel_zip_map(&mut self.trees, journal.trees, jobs, |t, undo| {
                t.rollback(undo)
            });
        self.n_instances += journal.n_deleted;
        restored.into_iter().sum()
    }

    /// Incrementally learns additional rows of `data` (the forest must
    /// have been fitted on rows of the same dataset). Ids are sorted and
    /// deduplicated internally; out-of-range or already-present ids are
    /// rejected before any tree is modified.
    pub fn insert(&mut self, ids: &[u32], data: &Dataset) -> Result<InsertReport, ForestError> {
        let mut ins: Vec<u32> = ids.to_vec();
        ins.sort_unstable();
        ins.dedup();
        if ins.is_empty() {
            return Ok(InsertReport::default());
        }
        for &id in &ins {
            if id as usize >= data.num_rows() {
                return Err(ForestError::RowOutOfRange(id));
            }
        }
        if let Some(tree) = self.trees.first() {
            let present = tree.instance_ids();
            for &id in &ins {
                if present.binary_search(&id).is_ok() {
                    return Err(ForestError::DuplicateInstance(id));
                }
            }
        }
        let _span = fume_obs::span!("forest.insert", ids = ins.len());
        let jobs = resolve_jobs(self.config.n_jobs, self.trees.len());
        let (config, ins_ref) = (&self.config, &ins);
        let reports: Vec<InsertReport> =
            parallel_map_mut(&mut self.trees, jobs, |t| t.insert(ins_ref, data, config));
        let mut total = InsertReport::default();
        for r in &reports {
            total.merge(r);
        }
        self.n_instances += row_u32(ins.len());
        fume_obs::counter!("forest.instances_inserted", ins.len());
        fume_obs::counter!("forest.subtrees_rebuilt", total.subtrees_rebuilt);
        fume_obs::counter!("forest.nodes_updated", total.nodes_updated);
        fume_obs::counter!("forest.leaves_updated", total.leaves_updated);
        total.work.emit();
        Ok(total)
    }

    /// Positive-class probability for a single `row` of `data` — bitwise
    /// identical to `predict_proba(data)[row]`: same tree order, same
    /// accumulate-then-divide float sequence, same empty-forest answer.
    pub fn predict_row(&self, data: &Dataset, row: usize) -> f64 {
        if self.trees.is_empty() {
            return 0.5;
        }
        let mut acc = 0.0f64;
        for tree in &self.trees {
            acc += tree.predict_row(data, row);
        }
        acc / self.trees.len() as f64
    }

    /// The reference full prediction pass: the branching walk
    /// ([`NodeRef::predict_row`](crate::node::NodeRef::predict_row)) over
    /// every tree for every row, each leaf's vote recomputed from its
    /// counts, accumulate then divide. This is the float-order contract
    /// the kernel must reproduce bitwise. No library path calls it: tests,
    /// `FUME_DEEPCHECK=1` and `benches/predict_kernel.rs` compare
    /// [`Classifier::predict_proba`] against it.
    pub fn predict_proba_reference(&self, data: &Dataset) -> Vec<f64> {
        if self.trees.is_empty() {
            return vec![0.5; data.num_rows()];
        }
        let mut acc = vec![0.0f64; data.num_rows()];
        for tree in &self.trees {
            for (row, slot) in acc.iter_mut().enumerate() {
                *slot += tree.root().predict_row(data, row);
            }
        }
        let k = self.trees.len() as f64;
        for slot in &mut acc {
            *slot /= k;
        }
        acc
    }

    /// The trees, for structural inspection (path mining, validation).
    pub fn trees(&self) -> &[DareTree] {
        &self.trees
    }

    /// The forest's configuration.
    pub fn config(&self) -> &DareConfig {
        &self.config
    }

    /// Number of training instances currently learned.
    pub fn num_instances(&self) -> u32 {
        self.n_instances
    }
}

impl Classifier for DareForest {
    /// Average of per-tree leaf probabilities, by the blocked kernel of
    /// [`plan`](crate::plan) over every tree's live hot array — one path
    /// for every pass size. Under `FUME_DEEPCHECK=1` each pass is also
    /// checked bitwise against [`Self::predict_proba_reference`].
    fn predict_proba(&self, data: &Dataset) -> Vec<f64> {
        let mut out = vec![0.0f64; data.num_rows()];
        let trees: Vec<HotTree<'_>> = self.trees.iter().map(DareTree::hot_tree).collect();
        crate::plan::predict_into(&trees, data, &mut out);
        if crate::deepcheck::enabled() {
            let reference = self.predict_proba_reference(data);
            for (row, (a, b)) in out.iter().zip(&reference).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "FUME_DEEPCHECK: kernel prediction diverged from the reference walk at row {row}"
                );
            }
        }
        out
    }
}

fn merge_delete_reports(reports: &[DeleteReport]) -> DeleteReport {
    let mut total = DeleteReport::default();
    for r in reports {
        total.merge(r);
    }
    total
}

fn emit_delete_counters(n_deleted: usize, total: &DeleteReport) {
    fume_obs::counter!("forest.instances_removed", n_deleted);
    fume_obs::counter!("forest.nodes_retrained", total.subtrees_retrained);
    fume_obs::counter!("forest.nodes_updated", total.nodes_updated);
    fume_obs::counter!("forest.leaves_updated", total.leaves_updated);
    fume_obs::counter!("forest.candidates_replenished", total.candidates_replenished);
    total.work.emit();
}

#[cfg(test)]
mod tests {
    use super::*;
    use fume_tabular::datasets::planted_toy;
    use fume_tabular::split::train_test_split;

    fn small_cfg(seed: u64) -> DareConfig {
        DareConfig { n_trees: 15, max_depth: 6, seed, ..DareConfig::default() }
    }

    #[test]
    fn forest_learns_the_toy_task() {
        let (data, _) = planted_toy().generate_full(20).unwrap();
        let (train, test) = train_test_split(&data, 0.3, 20).unwrap();
        let forest = DareForest::fit(&train, small_cfg(20));
        let acc = forest.accuracy(&test);
        assert!(acc > 0.55, "test accuracy {acc} barely better than chance");
    }

    #[test]
    fn parallel_and_serial_fits_agree() {
        let (data, _) = planted_toy().generate_scaled(0.2, 21).unwrap();
        let serial = DareForest::fit(&data, small_cfg(3).with_jobs(1));
        let parallel = DareForest::fit(&data, small_cfg(3).with_jobs(4));
        assert_eq!(serial.trees(), parallel.trees());
    }

    #[test]
    fn parallel_and_serial_deletes_agree() {
        let (data, _) = planted_toy().generate_scaled(0.2, 22).unwrap();
        let mut serial = DareForest::fit(&data, small_cfg(4).with_jobs(1));
        let mut parallel = DareForest::fit(&data, small_cfg(4).with_jobs(4));
        let del: Vec<u32> = (0..60).map(|i| i * 3).collect();
        let rs = serial.delete(&del, &data).unwrap();
        let rp = parallel.delete(&del, &data).unwrap();
        assert_eq!(serial.trees(), parallel.trees());
        assert_eq!(rs, rp);
    }

    #[test]
    fn delete_rejects_unknown_ids_without_mutating() {
        let (data, _) = planted_toy().generate_scaled(0.1, 23).unwrap();
        let mut forest = DareForest::fit(&data, small_cfg(5));
        let before = forest.clone();
        let err = forest.delete(&[0, 999_999], &data).unwrap_err();
        assert_eq!(err, ForestError::UnknownInstance(999_999));
        assert_eq!(forest, before, "failed delete must not mutate");
    }

    #[test]
    fn double_delete_rejected() {
        let (data, _) = planted_toy().generate_scaled(0.1, 24).unwrap();
        let mut forest = DareForest::fit(&data, small_cfg(6));
        forest.delete(&[7], &data).unwrap();
        let err = forest.delete(&[7], &data).unwrap_err();
        assert_eq!(err, ForestError::UnknownInstance(7));
    }

    #[test]
    fn empty_delete_is_noop() {
        let (data, _) = planted_toy().generate_scaled(0.1, 25).unwrap();
        let mut forest = DareForest::fit(&data, small_cfg(7));
        let before = forest.clone();
        let report = forest.delete(&[], &data).unwrap();
        assert_eq!(report, DeleteReport::default());
        assert_eq!(forest, before);
    }

    #[test]
    fn duplicate_ids_deduplicated() {
        let (data, _) = planted_toy().generate_scaled(0.1, 26).unwrap();
        let mut forest = DareForest::fit(&data, small_cfg(8));
        let n = forest.num_instances();
        forest.delete(&[3, 3, 3, 9], &data).unwrap();
        assert_eq!(forest.num_instances(), n - 2);
    }

    #[test]
    fn delete_unchecked_matches_checked_delete() {
        let (data, _) = planted_toy().generate_scaled(0.1, 31).unwrap();
        let mut a = DareForest::fit(&data, small_cfg(13));
        let mut b = a.clone();
        let del: Vec<u32> = (0..30).step_by(2).collect();
        let ra = a.delete(&del, &data).unwrap();
        let rb = b.delete_unchecked(&del, &data);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        assert_eq!(b.delete_unchecked(&[], &data), DeleteReport::default());
    }

    #[test]
    fn insert_validates_before_mutating() {
        let (data, _) = planted_toy().generate_scaled(0.1, 28).unwrap();
        let half: Vec<u32> = (0..(data.num_rows() / 2) as u32).collect();
        let mut forest = DareForest::fit_on(&data, half, small_cfg(10));
        let before = forest.clone();
        // Already present.
        let err = forest.insert(&[0], &data).unwrap_err();
        assert_eq!(err, ForestError::DuplicateInstance(0));
        assert_eq!(forest, before);
        // Out of range.
        let err = forest.insert(&[u32::MAX], &data).unwrap_err();
        assert_eq!(err, ForestError::RowOutOfRange(u32::MAX));
        assert_eq!(forest, before);
        // Empty is a no-op.
        assert_eq!(forest.insert(&[], &data).unwrap(), InsertReport::default());
    }

    #[test]
    fn streaming_insert_matches_instance_count_and_stays_valid() {
        use crate::validate::validate_forest;
        let (data, _) = planted_toy().generate_scaled(0.15, 29).unwrap();
        let n = data.num_rows() as u32;
        let seed_ids: Vec<u32> = (0..n / 3).collect();
        let mut forest = DareForest::fit_on(&data, seed_ids, small_cfg(11));
        for chunk_start in (n / 3..n).step_by(50) {
            let chunk: Vec<u32> = (chunk_start..(chunk_start + 50).min(n)).collect();
            forest.insert(&chunk, &data).unwrap();
        }
        assert_eq!(forest.num_instances(), n);
        let v = validate_forest(&forest, &data);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn insert_then_delete_roundtrip_restores_instance_set() {
        let (data, _) = planted_toy().generate_scaled(0.1, 30).unwrap();
        let mut forest = DareForest::fit(&data, small_cfg(12).with_trees(5));
        forest.delete(&[5, 6, 7], &data).unwrap();
        forest.insert(&[5, 6, 7], &data).unwrap();
        assert_eq!(forest.num_instances() as usize, data.num_rows());
        for t in forest.trees() {
            assert_eq!(t.instance_ids(), data.all_row_ids());
        }
    }

    #[test]
    fn journaled_delete_matches_unchecked_delete() {
        let (data, _) = planted_toy().generate_scaled(0.1, 32).unwrap();
        let mut a = DareForest::fit(&data, small_cfg(14));
        let mut b = a.clone();
        let del: Vec<u32> = (0..40).step_by(3).collect();
        let ra = a.delete_unchecked(&del, &data);
        let journal = b.delete_journaled(&del, &data);
        assert_eq!(a, b, "journaling must not change deletion outcome");
        assert_eq!(ra, journal.report);
        assert_eq!(journal.n_deleted(), del.len() as u32);
        assert!(journal.approx_bytes() > 0);
    }

    #[test]
    fn rollback_restores_pre_delete_snapshot() {
        let (data, _) = planted_toy().generate_scaled(0.1, 33).unwrap();
        for jobs in [1usize, 4] {
            let mut forest = DareForest::fit(&data, small_cfg(15).with_jobs(jobs));
            let snapshot = forest.clone();
            let del: Vec<u32> = (0..50).step_by(2).collect();
            let journal = forest.delete_journaled(&del, &data);
            assert_ne!(forest, snapshot, "delete must mutate the forest");
            let restored = forest.rollback(journal);
            assert!(restored > 0);
            assert_eq!(forest, snapshot, "rollback must restore byte-identical state");
            // The restored forest still unlearns correctly.
            forest.delete(&del, &data).unwrap();
            assert_eq!(forest.num_instances() as usize, data.num_rows() - del.len());
        }
    }

    #[test]
    fn empty_journaled_delete_is_noop() {
        let (data, _) = planted_toy().generate_scaled(0.1, 34).unwrap();
        let mut forest = DareForest::fit(&data, small_cfg(16));
        let before = forest.clone();
        let journal = forest.delete_journaled(&[], &data);
        assert_eq!(journal.n_deleted(), 0);
        assert_eq!(journal.nodes_recorded(), 0);
        assert_eq!(forest, before);
    }

    #[test]
    fn predict_row_is_bitwise_identical_to_the_full_pass() {
        let (data, _) = planted_toy().generate_scaled(0.1, 35).unwrap();
        let forest = DareForest::fit(&data, small_cfg(17));
        let full = forest.predict_proba(&data);
        for (row, p) in full.iter().enumerate() {
            assert_eq!(p.to_bits(), forest.predict_row(&data, row).to_bits(), "row {row}");
        }
    }

    #[test]
    fn proba_averages_trees() {
        let (data, _) = planted_toy().generate_scaled(0.1, 27).unwrap();
        let forest = DareForest::fit(&data, small_cfg(9));
        for p in forest.predict_proba(&data) {
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
