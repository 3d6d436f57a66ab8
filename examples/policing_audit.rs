//! Policing audit — the paper's Stop-Question-Frisk analysis (§6.3).
//!
//! A frisk-prediction model shows racial disparity. FUME surfaces the
//! attributable subsets, and permutation feature importance explains *why*
//! each subset matters: deleting `Sex = Female` rows breaks the model's
//! sex↔race dependence, shifting importance onto legitimate stop reasons.
//!
//! ```text
//! cargo run --release --example policing_audit
//! ```

use fume::core::{ExplainRequest, Fume, FumeConfig, RetrainRemoval, RemovalMethod};
use fume::fairness::{permutation_importance, FairnessMetric};
use fume::forest::{DareConfig, DareForest};
use fume::tabular::datasets::sqf;
use fume::tabular::split::train_test_split;
use fume::tabular::Classifier;

fn main() {
    // 10% sample of SQF keeps the example snappy; pass 1.0 for full scale.
    let (data, group) = sqf().generate_scaled(0.10, 11).expect("generate");
    let (train, test) = train_test_split(&data, 0.3, 11).expect("split");
    let forest_cfg = DareConfig::default().with_trees(40).with_seed(11);
    let forest = DareForest::fit(&train, forest_cfg.clone());

    let metric = FairnessMetric::StatisticalParity;
    println!(
        "frisk model: accuracy {:.1}%, racial disparity {:.4}",
        forest.accuracy(&test) * 100.0,
        metric.bias(&forest, &test, group)
    );

    let fume = Fume::new(FumeConfig::default().with_forest(forest_cfg.clone()));
    let report = fume
        .run(&ExplainRequest::new(&train, &test, group).with_model(&forest))
        .expect("the model is biased");
    print!("\n{}", report.to_markdown());

    // Why is the top subset attributable? Compare feature importance of a
    // model trained with vs without it (the paper's §6.3 analysis).
    let Some(top) = report.top_k.first() else {
        println!("no attributable subsets in this support range");
        return;
    };
    println!("\n== feature importance shift when `{}` is removed ==", top.pattern);
    let before = permutation_importance(&forest, &test, 5, 11);
    let removal = RetrainRemoval::new(&train, forest_cfg);
    let after = removal
        .with_removed(&top.rows, |without| permutation_importance(without, &test, 5, 11));
    let change = after.relative_change_from(&before);

    let schema = train.schema();
    let mut ranked: Vec<usize> = (0..schema.num_attributes()).collect();
    ranked.sort_by(|&a, &b| {
        change[b]
            .partial_cmp(&change[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    println!("  biggest importance gains:");
    for &a in ranked.iter().take(3) {
        println!(
            "    {:<45} {:+.1}%",
            schema.attribute(a).unwrap().name(),
            100.0 * change[a].clamp(-10.0, 10.0)
        );
    }
    println!("  biggest importance losses:");
    for &a in ranked.iter().rev().take(3) {
        println!(
            "    {:<45} {:+.1}%",
            schema.attribute(a).unwrap().name(),
            100.0 * change[a].clamp(-10.0, 10.0)
        );
    }
    println!(
        "\nExpected shape (paper Table 5 discussion): sex/race lose importance, \
         legitimate stop reasons (drug transaction, casing, lookout) gain."
    );
}
