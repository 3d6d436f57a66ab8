//! Pins the unlearn-eval accounting identity across the counter and
//! progress layers:
//!
//! ```text
//! fume.unlearn_evals + .deduped + .memoized == items submitted
//! ```
//!
//! and every submitted item ticks progress exactly once — computed,
//! deduped, or memoized — so a level's `done` always reaches its
//! `planned`, even on a fully warm (all-memo-hit) pass. This is the
//! regression test for the historical double-count where memo-less runs
//! counted items pre-dedup while memoized runs counted misses only, and
//! memo hits never ticked progress at all.

use std::collections::HashMap;
use std::sync::Mutex;

use fume::core::prelude::*;
use fume::lattice::{BatchEvaluator, EvalItem, Literal, Op, Predicate};
use fume::tabular::datasets::planted_toy;
use fume::tabular::split::train_test_split;

/// The recorder and progress state are process-global; the tests in this
/// binary serialize on this lock and reset both at entry.
static ACCOUNTING_LOCK: Mutex<()> = Mutex::new(());

#[derive(Default)]
struct MapMemo(Mutex<HashMap<Vec<u32>, f64>>);

impl EvalMemo for MapMemo {
    fn lookup(&self, rows: &[u32]) -> Option<f64> {
        self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).get(rows).copied()
    }
    fn store(&self, rows: &[u32], rho: f64) {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(rows.to_vec(), rho);
    }
}

/// Extracts `"key":N` from a JSONL line.
fn field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat).unwrap_or_else(|| panic!("no {key} in {line}"))
        + pat.len()..];
    rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().unwrap()
}

#[test]
fn counters_and_progress_account_for_every_submitted_item() {
    let _g = ACCOUNTING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let rec = fume::obs::install();
    rec.reset();
    fume::obs::progress::reset();
    fume::obs::progress::enable();

    let (data, group) = planted_toy().generate_scaled(0.5, 71).unwrap();
    let (train, test) = train_test_split(&data, 0.3, 71).unwrap();
    let forest = DareForest::fit(&train, DareConfig::small(71));
    let metric = FairnessMetric::StatisticalParity;
    let bias = metric.bias(&forest, &test, group);
    assert!(bias > 0.0, "fixture must show a violation");

    // Three distinct row selections plus one syntactic duplicate (a
    // different predicate selecting the same rows): 4 items per batch,
    // of which dedup satisfies one.
    let preds = [
        Predicate::single(Literal::eq(1, 0)),
        Predicate::single(Literal { attr: 1, op: Op::Le, value: 0 }),
        Predicate::single(Literal::eq(1, 1)),
        Predicate::single(Literal::eq(1, 2)),
    ];
    let selections: Vec<Vec<u32>> = preds.iter().map(|p| p.select(&train)).collect();
    assert_eq!(selections[0], selections[1], "setup: first two selections coincide");
    let items: Vec<EvalItem<'_>> = preds
        .iter()
        .zip(&selections)
        .map(|(p, s)| EvalItem { predicate: p, rows: s })
        .collect();

    let memo = MapMemo::default();
    // Cold pass: 3 unique selections evaluated, 1 dedup hit.
    fume::obs::progress::level_started(1, items.len() as u64, items.len() as u64);
    let cold = AttributionEstimator::new(
        DareRemoval::new(&forest, &train),
        metric,
        &test,
        group,
        bias,
        Some(2),
    )
    .with_memo(&memo);
    let cold_out = cold.evaluate(&items);
    // Warm pass over the same items: every unique selection is a memo
    // hit, plus the same dedup hit — zero forest work.
    fume::obs::progress::level_started(2, items.len() as u64, items.len() as u64);
    let warm = AttributionEstimator::new(
        DareRemoval::new(&forest, &train),
        metric,
        &test,
        group,
        bias,
        Some(2),
    )
    .with_memo(&memo);
    let warm_out = warm.evaluate(&items);
    assert_eq!(cold_out, warm_out, "memo hits must reuse the computed ρ verbatim");

    // --- counter layer: the identity holds and each leg is exact ---
    let executed = rec.counter_value("fume.unlearn_evals").unwrap_or(0);
    let deduped = rec.counter_value("fume.unlearn_evals.deduped").unwrap_or(0);
    let memoized = rec.counter_value("fume.unlearn_evals.memoized").unwrap_or(0);
    assert_eq!(executed, 3, "cold pass executes each unique selection once");
    assert_eq!(deduped, 2, "one within-batch duplicate per pass");
    assert_eq!(memoized, 3, "warm pass answers every unique selection from the memo");
    let submitted = 2 * items.len() as u64;
    assert_eq!(
        executed + deduped + memoized,
        submitted,
        "executed + deduped + memoized must equal items submitted"
    );

    // --- scratch pool: one lease per executed eval, each from the pool
    // the estimator warmed, so no eval pays a clone. Deep checks
    // re-derive memo hits through extra leases, so the lease count holds
    // only with them off. ---
    let leases = rec.counter_value("fume.scratch.leases").unwrap_or(0);
    if !fume::forest::deepcheck::enabled() {
        assert_eq!(leases, executed, "one lease per executed eval");
    }
    assert_eq!(rec.counter_value("fume.scratch.cold_clones").unwrap_or(0), 0);

    // --- progress layer: both levels completed their plan, and the
    // run-wide totals agree with the counters ---
    let jsonl = rec.events_to_jsonl();
    let last_progress = jsonl
        .lines()
        .rfind(|l| l.contains("\"type\":\"progress\""))
        .expect("ticks must emit progress events");
    assert_eq!(field(last_progress, "level"), 2);
    assert_eq!(
        field(last_progress, "done"),
        field(last_progress, "planned"),
        "warm level must finish its plan: {last_progress}"
    );
    assert_eq!(field(last_progress, "done_total"), submitted);
    assert_eq!(field(last_progress, "deduped"), deduped + memoized);

    fume::obs::progress::reset();
}
