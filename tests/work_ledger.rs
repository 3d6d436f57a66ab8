//! Work ledger: exact counts of what the DaRE builder does in one seeded
//! explain, pinned the way `golden_fingerprint` pins bytes.
//!
//! `forest.nodes_built`, `forest.rows_histogrammed` and
//! `forest.rows_partitioned` count nodes written and rows moved through
//! the builder's two row loops, for the fit and for every delete pass of
//! the search. For a given seed they do not depend on the host or on the
//! number of workers, so a change that makes the builder do other work
//! (not the same work faster) moves them. Re-pin [`PINNED`] only in a
//! change that means to alter the work, and say so.

use fume::core::{ExplainRequest, Fume, FumeConfig};
use fume::forest::DareConfig;
use fume::lattice::SupportRange;
use fume::tabular::datasets::adult;
use fume::tabular::split::train_test_split;

/// The counters, in [`PINNED`] order.
const COUNTERS: [&str; 3] =
    ["forest.nodes_built", "forest.rows_histogrammed", "forest.rows_partitioned"];

/// The counts of one Adult 3% × 20-tree explain at η = 2, 5–15% support,
/// seed 41.
const PINNED: [u64; 3] = [480_111, 27_399_342, 7_157_152];

/// Runs the explain with `jobs` workers for the fit and for the evals,
/// and reads the three counters.
fn ledger(jobs: usize) -> [u64; 3] {
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
    let serial = ledger(1);
    let parallel = ledger(2);
    assert_eq!(serial, parallel, "the counts of {COUNTERS:?} depend on n_jobs");
    assert_eq!(serial, PINNED, "the builder's work changed: {COUNTERS:?} read {serial:?}");
}
