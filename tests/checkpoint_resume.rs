//! Crash-resumability: for every `FUME_FAULT` site, a seeded explain run
//! is killed mid-flight, resumed from its checkpoint, and must reproduce
//! the uninterrupted run's report byte-identically — and checkpointing
//! itself must not change the report. Corrupt and mismatched checkpoints,
//! another model among them, must fail cleanly, never panic.
//!
//! Fault injection only exists in debug builds (`fume_obs::fault` is a
//! no-op under release), which is the default `cargo test` profile.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use fume::core::checkpoint;
use fume::core::{CheckpointError, ExplainRequest, Fume, FumeConfig, FumeError, FumeReport};
use fume::forest::{persist, DareConfig, DareForest};
use fume::lattice::SupportRange;
use fume::obs::fault;
use fume::tabular::datasets::{adult, german_credit, PaperDataset};
use fume::tabular::split::train_test_split;
use fume::tabular::{Classifier, Dataset, GroupSpec};

/// Fault state is process-global; every test that arms a site (or runs a
/// checkpointed search that passes fault points) serializes on this.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

const SEED: u64 = 11;

fn setup() -> (Dataset, Dataset, GroupSpec) {
    let (data, group) = german_credit().generate_scaled(0.2, SEED).unwrap();
    let (train, test) = train_test_split(&data, 0.3, SEED).unwrap();
    (train, test, group)
}

fn config(dir: &Path) -> FumeConfig {
    FumeConfig::default()
        .with_forest(DareConfig::small(SEED))
        .with_support(SupportRange::new(0.02, 0.30).unwrap())
        .with_max_literals(3)
        .with_checkpoint_dir(dir)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fume_ckpt_resume").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(dir: &Path, train: &Dataset, test: &Dataset, group: GroupSpec) -> FumeReport {
    Fume::new(config(dir)).run(&ExplainRequest::new(train, test, group)).unwrap()
}

/// The two runs must agree bit-for-bit on everything the run computes;
/// wall-clock times are the only fields allowed to differ.
fn assert_reports_identical(a: &FumeReport, b: &FumeReport) {
    assert_eq!(a.top_k, b.top_k, "top-k reports differ");
    assert_eq!(a.evaluated, b.evaluated, "evaluated subsets differ");
    assert_eq!(a.levels, b.levels, "level stats differ");
    assert_eq!(a.unlearning_operations, b.unlearning_operations);
    assert_eq!(a.original_bias.to_bits(), b.original_bias.to_bits());
    assert_eq!(a.original_fairness.to_bits(), b.original_fairness.to_bits());
    assert_eq!(a.original_accuracy.to_bits(), b.original_accuracy.to_bits());
    assert_eq!(a.metric, b.metric);
}

/// Expects `Fume::run` to fail with a typed checkpoint mismatch.
fn assert_mismatch(outcome: Result<FumeReport, FumeError>, what: &str) {
    match outcome {
        Err(FumeError::Checkpoint(CheckpointError::Mismatch(_))) => {}
        other => panic!("{what}: expected Mismatch, got {other:?}"),
    }
}

#[test]
fn uninterrupted_checkpointed_run_matches_plain_run_ranking() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let (train, test, group) = setup();
    let dir = fresh_dir("plain_vs_ckpt");
    let ckpt_report = run(&dir, &train, &test, group);
    let mut plain_cfg = config(&dir);
    plain_cfg.checkpoint_dir = None;
    let plain = Fume::new(plain_cfg).run(&ExplainRequest::new(&train, &test, group)).unwrap();
    assert!(!plain.top_k.is_empty());
    assert_eq!(ckpt_report.to_json(), plain.to_json(), "checkpointing changed the report");
    // The directory holds the search state and nothing else.
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(files, [checkpoint::STATE_FILE]);
}

/// A generated split and the configuration that explains it at support
/// 5–15% and η = 2, with forests shaped like the `explain_e2e`
/// benchmark's `adult_default` and `german_wide` members.
fn member(
    dataset: PaperDataset,
    scale: f64,
    trees: usize,
    seed: u64,
) -> (Dataset, Dataset, GroupSpec, FumeConfig) {
    let (data, group) = dataset.generate_scaled(scale, seed).unwrap();
    let (train, test) = train_test_split(&data, 0.3, seed).unwrap();
    let forest = DareConfig::default()
        .with_trees(trees)
        .with_max_depth(10)
        .with_seed(seed)
        .with_jobs(1);
    let config = FumeConfig::default()
        .with_forest(forest)
        .with_support(SupportRange::new(0.05, 0.15).unwrap())
        .with_max_literals(2)
        .with_jobs(2);
    (train, test, group, config)
}

/// DaRE's subtree rebuilds draw from each tree's RNG stream, so a run
/// that explained a save/load copy of the forest (whose streams are
/// reseeded) would rank other subsets. On Adult and German members the
/// report is the same with and without a checkpoint directory, and after
/// a kill at a level boundary and a resume that refits the forest.
#[test]
fn checkpointing_does_not_change_the_answer_on_generated_members() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let members =
        [("adult", member(adult(), 0.03, 20, 1)), ("german", member(german_credit(), 1.0, 5, 1))];
    for (name, (train, test, group, config)) in members {
        let forest = DareForest::fit(&train, config.forest.clone());
        let request = ExplainRequest::new(&train, &test, group).with_model(&forest);
        let plain = Fume::new(config.clone()).run(&request).unwrap().to_json();

        let dir = fresh_dir(&format!("member_{name}"));
        let ckpt = Fume::new(config.clone().with_checkpoint_dir(&dir)).run(&request).unwrap();
        assert_eq!(ckpt.to_json(), plain, "{name}: checkpointed report differs from plain");

        let dir = fresh_dir(&format!("member_{name}_killed"));
        fault::arm("post-level", 1);
        let died = catch_unwind(AssertUnwindSafe(|| {
            Fume::new(config.clone().with_checkpoint_dir(&dir)).run(&request)
        }));
        fault::disarm();
        assert!(died.is_err(), "{name}: post-level must kill the run");
        let resumed =
            Fume::resume(&dir).unwrap().run(&ExplainRequest::new(&train, &test, group)).unwrap();
        assert_eq!(resumed.to_json(), plain, "{name}: resumed report differs from plain");
    }
}

/// For each fault site: the run dies at the site, `Fume::resume`
/// continues from the sidecar, and the final report is byte-identical to
/// an uninterrupted checkpointed run's.
#[test]
fn killed_runs_resume_to_byte_identical_reports() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let (train, test, group) = setup();

    let baseline_dir = fresh_dir("baseline");
    let baseline = run(&baseline_dir, &train, &test, group);
    assert!(!baseline.top_k.is_empty(), "fixture must find subsets");
    assert!(baseline.levels.len() >= 2, "fixture must search multiple levels");

    // (site, occurrence): kill the first post-eval batch, the first
    // completed level, and the second atomic write (write 1 persists the
    // initial boundary; dying on write 2 — the level-1 boundary —
    // exercises "previous checkpoint stays loadable").
    for (site, nth) in [("post-eval", 1), ("post-level", 1), ("mid-checkpoint-write", 2)] {
        let dir = fresh_dir(&format!("kill_{site}_{nth}"));
        fault::arm(site, nth);
        let died = catch_unwind(AssertUnwindSafe(|| run(&dir, &train, &test, group)));
        fault::disarm();
        assert!(died.is_err(), "site {site}:{nth} must kill the run");

        // The checkpoint left behind is loadable (atomic writes).
        let ckpt = checkpoint::load_state(&dir)
            .unwrap_or_else(|e| panic!("site {site}:{nth}: checkpoint unreadable: {e}"));
        assert!(!ckpt.state.done, "site {site}:{nth}: state must be mid-run");

        let resumed = Fume::resume(&dir)
            .unwrap_or_else(|e| panic!("site {site}:{nth}: resume failed: {e}"))
            .run(&ExplainRequest::new(&train, &test, group))
            .unwrap_or_else(|e| panic!("site {site}:{nth}: resumed run failed: {e}"));
        assert_reports_identical(&baseline, &resumed);
        assert_eq!(resumed.to_json(), baseline.to_json(), "site {site}:{nth}");
        // Given no model, a resume refits the forest from the checkpoint's
        // configuration.
        assert!(resumed.training_time.as_nanos() > 0, "site {site}:{nth}");
    }

    // Kill/resume cycles take and re-take every pipeline lock; the
    // lock-order detector (active in debug and under FUME_DEEPCHECK=1)
    // must have recorded a consistent order throughout.
    assert!(
        fume::obs::sync::cycle_reports().is_empty(),
        "{:?}",
        fume::obs::sync::cycle_reports()
    );
}

/// Resuming an already-finished run replays its report from the terminal
/// checkpoint without a single new unlearning evaluation.
#[test]
fn resuming_a_finished_run_replays_the_report() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let (train, test, group) = setup();
    let dir = fresh_dir("finished");
    let baseline = run(&dir, &train, &test, group);
    let ckpt = checkpoint::load_state(&dir).unwrap();
    assert!(ckpt.state.done, "terminal state must be persisted");
    let replay = Fume::resume(&dir).unwrap().run(&ExplainRequest::new(&train, &test, group)).unwrap();
    assert_reports_identical(&baseline, &replay);
}

#[test]
fn corrupt_or_truncated_checkpoints_fail_cleanly() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let (train, test, group) = setup();
    let dir = fresh_dir("corrupt");
    run(&dir, &train, &test, group);
    let path = dir.join("search.ckpt");
    let good = std::fs::read(&path).unwrap();

    // Garbage bytes: clean error from Fume::resume, never a panic.
    std::fs::write(&path, b"this is not a checkpoint").unwrap();
    match Fume::resume(&dir) {
        Err(FumeError::Checkpoint(CheckpointError::BadMagic)) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }

    // Truncation mid-state: still a clean error.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    match Fume::resume(&dir) {
        Err(FumeError::Checkpoint(CheckpointError::Corrupt(_))) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // A version-1 file, whose fingerprint covers the data only: refused.
    let mut v1 = good.clone();
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    std::fs::write(&path, &v1).unwrap();
    match Fume::resume(&dir) {
        Err(FumeError::Checkpoint(CheckpointError::UnsupportedVersion(1))) => {}
        other => panic!("expected UnsupportedVersion(1), got {other:?}"),
    }

    // Missing entirely: NothingToResume.
    std::fs::remove_file(&path).unwrap();
    match Fume::resume(&dir) {
        Err(FumeError::Checkpoint(CheckpointError::NothingToResume(_))) => {}
        other => panic!("expected NothingToResume, got {other:?}"),
    }
}

#[test]
fn resume_rejects_different_data_or_config() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let (train, test, group) = setup();
    let dir = fresh_dir("mismatch");
    run(&dir, &train, &test, group);

    // Different data (another seed) under the same checkpoint: rejected.
    let (data2, group2) = german_credit().generate_scaled(0.2, SEED + 1).unwrap();
    let (train2, test2) = train_test_split(&data2, 0.3, SEED).unwrap();
    match Fume::resume(&dir).unwrap().run(&ExplainRequest::new(&train2, &test2, group2)) {
        Err(FumeError::Checkpoint(CheckpointError::Mismatch(_))) => {}
        other => panic!("expected Mismatch, got {other:?}"),
    }

    // A fresh (non-resume) run with a different config over the same dir
    // simply overwrites the checkpoint — it must not be poisoned by it.
    let other_cfg = config(&dir).with_top_k(3);
    let report = Fume::new(other_cfg).run(&ExplainRequest::new(&train, &test, group)).unwrap();
    assert!(report.top_k.len() <= 3);
}

/// Resuming a German checkpoint on an Adult split (another schema: 14
/// attributes instead of 21) must be the same typed mismatch as resuming
/// it on other German rows, not a panic in the persisted forest's first
/// prediction pass over columns the Adult data does not have.
#[test]
fn resume_on_data_with_another_schema_is_a_mismatch() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let (train, test, group) = setup();
    let dir = fresh_dir("other_schema");
    run(&dir, &train, &test, group);

    let (adult_data, adult_group) = adult().generate_scaled(0.01, SEED).unwrap();
    let (adult_train, adult_test) = train_test_split(&adult_data, 0.3, SEED).unwrap();
    assert_ne!(adult_train.num_attributes(), train.num_attributes());
    let request = ExplainRequest::new(&adult_train, &adult_test, adult_group);
    let resumed = catch_unwind(AssertUnwindSafe(|| Fume::resume(&dir).unwrap().run(&request)));
    match resumed {
        Ok(Err(FumeError::Checkpoint(CheckpointError::Mismatch(_)))) => {}
        Ok(other) => panic!("expected Mismatch, got {other:?}"),
        Err(_) => panic!("resuming on another schema panicked instead of failing cleanly"),
    }
}

/// A fault during the checkpoint write itself must leave the *previous*
/// checkpoint loadable — the atomicity guarantee, checked directly.
#[test]
fn fault_during_checkpoint_write_preserves_previous_checkpoint() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let (train, test, group) = setup();
    let dir = fresh_dir("atomic");

    // Write 3 is the level-2 boundary: when it dies, the level-1
    // boundary state (write 2) must still be the loadable checkpoint.
    fault::arm("mid-checkpoint-write", 3);
    let died = catch_unwind(AssertUnwindSafe(|| run(&dir, &train, &test, group)));
    fault::disarm();
    assert!(died.is_err());

    // Whatever state was last *renamed in* is intact and decodable, and
    // the interrupted write's temp file never shadows it.
    let ckpt = checkpoint::load_state(&dir).unwrap();
    assert!(!ckpt.state.done);
    let resumed = Fume::resume(&dir).unwrap().run(&ExplainRequest::new(&train, &test, group)).unwrap();
    let baseline_dir = fresh_dir("atomic_baseline");
    let baseline = run(&baseline_dir, &train, &test, group);
    assert_reports_identical(&baseline, &resumed);
}

/// Runs a checkpointed explain of `forest` into a fresh `dir`, killed at
/// its first level boundary, and returns the directory.
fn killed_model_run(
    name: &str,
    forest: &DareForest,
    train: &Dataset,
    test: &Dataset,
    group: GroupSpec,
) -> PathBuf {
    let dir = fresh_dir(name);
    let request = ExplainRequest::new(train, test, group).with_model(forest);
    fault::arm("post-level", 1);
    let died = catch_unwind(AssertUnwindSafe(|| Fume::new(config(&dir)).run(&request)));
    fault::disarm();
    assert!(died.is_err(), "{name}: post-level must kill the run");
    dir
}

/// A run given a model resumes with that model to the same report as a
/// plain run of it; with any other forest — another fit, or a save/load
/// copy that predicts the same but rebuilds from reseeded RNG streams —
/// the resume is a typed mismatch.
#[test]
fn resume_is_checked_against_the_model_it_is_given() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let (train, test, group) = setup();
    let forest = DareForest::fit(&train, DareConfig::small(SEED + 1));
    let dir = killed_model_run("model_given", &forest, &train, &test, group);
    let request = |model| ExplainRequest::new(&train, &test, group).with_model(model);

    let other = DareForest::fit(&train, DareConfig::small(SEED + 2));
    assert_mismatch(Fume::resume(&dir).unwrap().run(&request(&other)), "another forest");
    let reloaded = persist::from_bytes(&persist::to_bytes(&forest)).unwrap();
    assert_eq!(reloaded.predict_proba(&test), forest.predict_proba(&test));
    assert_mismatch(Fume::resume(&dir).unwrap().run(&request(&reloaded)), "a reloaded copy");
    // Without the model the resume refits the configuration's forest
    // (seed SEED), which is not the one this run was given.
    assert_mismatch(
        Fume::resume(&dir).unwrap().run(&ExplainRequest::new(&train, &test, group)),
        "a refit of another model",
    );

    let mut plain_cfg = config(&dir);
    plain_cfg.checkpoint_dir = None;
    let plain = Fume::new(plain_cfg).run(&request(&forest)).unwrap();
    let resumed = Fume::resume(&dir).unwrap().run(&request(&forest)).unwrap();
    assert_eq!(resumed.to_json(), plain.to_json());
    assert_eq!(resumed.training_time.as_nanos(), 0, "a given model is not refitted");
}

/// A run given a German forest, resumed with that forest on Adult rows:
/// the forest would read columns the Adult data does not have, so the
/// mismatch must surface before it predicts anything.
#[test]
fn resume_of_a_model_given_run_on_another_schema_is_a_mismatch() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let (train, test, group) = setup();
    let forest = DareForest::fit(&train, DareConfig::small(SEED));
    let dir = killed_model_run("model_other_schema", &forest, &train, &test, group);

    let (adult_data, adult_group) = adult().generate_scaled(0.01, SEED).unwrap();
    let (adult_train, adult_test) = train_test_split(&adult_data, 0.3, SEED).unwrap();
    let request = ExplainRequest::new(&adult_train, &adult_test, adult_group).with_model(&forest);
    let resumed = catch_unwind(AssertUnwindSafe(|| Fume::resume(&dir).unwrap().run(&request)))
        .unwrap_or_else(|_| panic!("resuming on another schema panicked"));
    assert_mismatch(resumed, "another schema");
}
