//! Work ledger: exact counts of what one seeded explain, and one seeded
//! served session, do — pinned the way `golden_fingerprint` pins bytes.
//!
//! `forest.nodes_built`, `forest.rows_histogrammed` and
//! `forest.rows_partitioned` count nodes written and rows moved through
//! the builder's two row loops, for the fit and for every delete pass of
//! the search. For a given seed they do not depend on the host or on the
//! number of workers, so a change that makes the builder do other work
//! (not the same work faster) moves them. `forest.tree_row_walks` counts
//! the (tree, row) descents of the prediction passes. Re-pin [`PINNED`]
//! only in a change that means to alter the work, and say so.
//!
//! The served session counts what an engine does for a fixed request
//! stream: metric evaluations, executed unlearn-evals, eval-cache hits
//! and misses, generated lattice nodes and tree-row walks.
//! [`SERVE_PINNED`] moves only when serving does other work.
//!
//! Under `FUME_DEEPCHECK=1` the counts are the same: the deep checks'
//! recomputations run as `fume_obs::audit`s, which add no counts.
//!
//! The recorder is process-global, so the tests take [`serial`] before
//! they reset and read it.

use std::sync::{Mutex, MutexGuard, PoisonError};

use fume::core::{ExplainRequest, Fume, FumeConfig};
use fume::fairness::FairnessMetric;
use fume::forest::{DareConfig, DareForest};
use fume::lattice::SupportRange;
use fume::serve::{Engine, EngineOptions, ExplainOverrides, JobReply};
use fume::tabular::datasets::adult;
use fume::tabular::split::train_test_split;

/// The counters, in [`PINNED`] order.
const COUNTERS: [&str; 4] = [
    "forest.nodes_built",
    "forest.rows_histogrammed",
    "forest.rows_partitioned",
    "forest.tree_row_walks",
];

/// The counts of one Adult 3% × 20-tree explain at η = 2, 5–15% support,
/// seed 41. The walks are one full pass for the violation check, one for
/// the routes, and the rows under rebuilt subtrees in each eval's
/// rerouted pass; with a full pass per eval they read 1,359,380.
const PINNED: [u64; 4] = [480_111, 27_399_342, 7_157_152, 631_457];

/// The served-session counters, in [`SERVE_PINNED`] order.
const SERVE_COUNTERS: [&str; 6] = [
    "fairness.metric_evals",
    "fume.unlearn_evals",
    "fume.serve.cache.hits",
    "fume.serve.cache.misses",
    "lattice.generated",
    "forest.tree_row_walks",
];

/// The counts of one session of an Adult 2% × 5-tree engine (seed 41,
/// one worker) answering [`serve_stream`]: 786 executed evals and 2,956
/// cache hits. The model's three metrics are evaluated once per session
/// (the engine's prepared snapshot), and one metric once per executed
/// eval: 3 + 786. When every request predicted the test set again, the
/// first count read 3 × 24 + 786 = 858.
///
/// The session walks 5 trees × 271 test rows for the snapshot and again
/// for the routes, then the rows under rebuilt subtrees per executed eval;
/// with a full pass per eval (787 passes) the walks read 1,066,385.
const SERVE_PINNED: [u64; 6] = [789, 786, 2_956, 786, 9_370, 465_094];

/// Serializes the tests of this binary around the global recorder.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs the explain with `jobs` workers for the fit and for the evals,
/// and reads the [`COUNTERS`].
fn ledger(jobs: usize) -> [u64; 4] {
    let rec = fume::obs::install();
    rec.reset();
    let seed = 41;
    let (data, group) = adult().generate_scaled(0.03, seed).unwrap();
    let (train, test) = train_test_split(&data, 0.3, seed).unwrap();
    let forest =
        DareConfig::default().with_trees(20).with_max_depth(10).with_seed(seed).with_jobs(jobs);
    let config = FumeConfig::default()
        .with_forest(forest)
        .with_support(SupportRange::new(0.05, 0.15).unwrap())
        .with_max_literals(2)
        .with_jobs(jobs);
    let report = Fume::new(config).run(&ExplainRequest::new(&train, &test, group)).unwrap();
    assert!(!report.top_k.is_empty(), "nothing explained");
    let counts = COUNTERS.map(|name| rec.counter_value(name).unwrap_or(0));
    rec.reset();
    counts
}

#[test]
fn builder_work_is_pinned_and_independent_of_jobs() {
    let _g = serial();
    let serial = ledger(1);
    let parallel = ledger(2);
    assert_eq!(serial, parallel, "the counts of {COUNTERS:?} depend on n_jobs");
    assert_eq!(serial, PINNED, "the work changed: {COUNTERS:?} read {serial:?}");
}

/// Two metrics crossed with six overlapping support ranges: the twelve
/// overrides of the `explain_e2e` `serve_mixed` workload.
fn serve_override(i: usize) -> ExplainOverrides {
    const METRICS: [FairnessMetric; 2] =
        [FairnessMetric::StatisticalParity, FairnessMetric::EqualizedOdds];
    const SUPPORTS: [(f64, f64); 6] =
        [(0.05, 0.15), (0.03, 0.10), (0.05, 0.25), (0.10, 0.30), (0.02, 0.08), (0.08, 0.20)];
    ExplainOverrides {
        metric: Some(METRICS[i / SUPPORTS.len()]),
        support: Some(SUPPORTS[i % SUPPORTS.len()]),
        ..ExplainOverrides::default()
    }
}

/// The twelve overrides in order, then all twelve again: every override
/// once cold and once warm.
fn serve_stream() -> Vec<ExplainOverrides> {
    (0..24).map(|i| serve_override(i % 12)).collect()
}

#[test]
fn served_session_work_is_pinned() {
    let _g = serial();
    let seed = 41;
    let (data, group) = adult().generate_scaled(0.02, seed).unwrap();
    let (train, test) = train_test_split(&data, 0.3, seed).unwrap();
    let forest = DareForest::fit(
        &train,
        DareConfig::default().with_trees(5).with_max_depth(10).with_seed(seed).with_jobs(1),
    );
    let config = FumeConfig::default().with_forest(forest.config().clone());
    let opts = EngineOptions { workers: 1, ..EngineOptions::default() };
    let engine = Engine::with_forest(config, train, test, group, forest, opts).unwrap();

    let rec = fume::obs::install();
    rec.reset();
    let failed = engine.serve(|h| {
        serve_stream()
            .into_iter()
            .filter(|o| !matches!(h.explain(o.clone()).unwrap().wait(), Ok(JobReply::Report(_))))
            .count()
    });
    let counts = SERVE_COUNTERS.map(|name| rec.counter_value(name).unwrap_or(0));
    rec.reset();
    assert_eq!(failed, 0, "every request of the stream must be answered with a report");
    assert_eq!(
        counts, SERVE_PINNED,
        "the served session's work changed: {SERVE_COUNTERS:?} read {counts:?}"
    );
}
