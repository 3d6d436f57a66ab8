//! Healthcare audit — MEPS-style utilization model, across all three
//! fairness metrics.
//!
//! The paper observes that the attributable subsets *differ across
//! fairness metrics* on the same data: no single cohort explains every
//! notion of bias. This example reproduces that observation on the MEPS
//! stand-in.
//!
//! ```text
//! cargo run --release --example healthcare_audit
//! ```

use fume::core::{ExplainRequest, Fume, FumeConfig};
use fume::fairness::{fairness_report, FairnessMetric};
use fume::forest::{DareConfig, DareForest};
use fume::tabular::datasets::meps;
use fume::tabular::split::train_test_split;
use fume::tabular::Classifier;

fn main() {
    let (data, group) = meps().generate_scaled(0.5, 19).expect("generate");
    let (train, test) = train_test_split(&data, 0.3, 19).expect("split");
    let forest_cfg = DareConfig::default().with_trees(40).with_seed(19);
    let forest = DareForest::fit(&train, forest_cfg.clone());

    let snapshot = fairness_report(&forest, &test, group);
    println!(
        "utilization model: accuracy {:.1}%\n  statistical parity: {:+.4}\n  \
         equalized odds:     {:+.4}\n  predictive parity:  {:+.4}\n",
        forest.accuracy(&test) * 100.0,
        snapshot.statistical_parity,
        snapshot.equalized_odds,
        snapshot.predictive_parity,
    );

    for metric in FairnessMetric::ALL {
        println!("== top subsets attributable to {} ==", metric.name());
        let fume = Fume::new(
            FumeConfig::default()
                .with_metric(metric)
                .with_top_k(3)
                .with_forest(forest_cfg.clone()),
        );
        match fume.run(&ExplainRequest::new(&train, &test, group).with_model(&forest)) {
            Ok(report) => print!("{}", report.to_markdown()),
            Err(e) => println!("  ({e})"),
        }
        println!();
    }
    println!(
        "Note how the ranked cohorts differ per metric — the paper's finding \
         that no single subset explains bias across all fairness notions."
    );
}
