//! Production lifecycle of an unlearnable model: train → persist → serve
//! → honor deletion requests → absorb new data → re-audit — the workflow
//! that motivates machine unlearning in the first place (GDPR/CCPA right
//! to be forgotten, paper §7), plus the diagnostic extras built around
//! FUME: slice finding and instance-level attribution.
//!
//! ```text
//! cargo run --release --example model_lifecycle
//! ```

use fume::core::{
    find_slices, overlap_with_subset, rank_instances, ExplainRequest, Fume, FumeConfig,
};
use fume::fairness::FairnessMetric;
use fume::forest::persist;
use fume::forest::{DareConfig, DareForest};
use fume::lattice::SupportRange;
use fume::tabular::datasets::planted_toy;
use fume::tabular::split::train_test_split;
use fume::tabular::Classifier;

fn main() {
    let (data, group) = planted_toy().generate_full(99).expect("generate");
    let (train, test) = train_test_split(&data, 0.3, 99).expect("split");
    let cfg = DareConfig::default().with_trees(30).with_max_depth(8).with_seed(99);

    // --- train and persist ---
    let forest = DareForest::fit(&train, cfg.clone());
    let path = std::env::temp_dir().join("fume_lifecycle_model.dare");
    persist::save(&forest, &path).expect("save");
    println!(
        "trained on {} rows, saved {} bytes to {}",
        forest.num_instances(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        path.display()
    );

    // --- reload and serve ---
    let mut served = persist::load(&path).expect("load");
    assert_eq!(served.predict_proba(&test), forest.predict_proba(&test));
    println!("reloaded model reproduces predictions bit-for-bit");

    // --- a deletion request arrives (right to be forgotten) ---
    let forget: Vec<u32> = vec![12, 57, 101];
    let report = served.delete(&forget, &train).expect("rows exist");
    println!(
        "unlearned {} individuals ({} nodes updated, {} subtrees retrained)",
        forget.len(),
        report.nodes_updated,
        report.subtrees_retrained
    );

    // --- new data arrives ---
    served.insert(&forget, &train).expect("re-adding is an insert");
    println!("re-learned the rows as fresh data; {} instances held", served.num_instances());

    // --- periodic fairness audit with FUME ---
    let fume = Fume::new(
        FumeConfig::default()
            .with_support(SupportRange::new(0.02, 0.25).expect("valid"))
            .with_forest(cfg.clone()),
    );
    let audit = fume
        .run(&ExplainRequest::new(&train, &test, group).with_model(&served))
        .expect("the toy model is biased");
    println!(
        "\naudit: |F| = {:.4}; top attributable subset: {} (removes {:.1}% of the bias)",
        audit.original_bias,
        audit.top_k[0].pattern,
        audit.top_k[0].parity_reduction * 100.0
    );

    // --- drill down: which individuals inside the subset matter most? ---
    let top = &audit.top_k[0];
    let ranked = rank_instances(
        &served,
        &train,
        &test,
        group,
        FairnessMetric::StatisticalParity,
        Some(&top.rows),
        None,
    );
    println!(
        "instance drill-down: {} rows ranked; strongest single row removes {:.2}% of the bias",
        ranked.len(),
        ranked.first().map(|a| a.parity_reduction * 100.0).unwrap_or(0.0)
    );
    let all_ranked = rank_instances(
        &served,
        &train,
        &test,
        group,
        FairnessMetric::StatisticalParity,
        Some(&(0..400).collect::<Vec<_>>()),
        None,
    );
    println!(
        "of the 20 individually most responsible rows (first 400 scanned), {:.0}% lie inside the subset",
        overlap_with_subset(&all_ranked, &top.rows, 20) * 100.0
    );

    // --- contrast: what would a slice finder say? ---
    let params = fume.config().search_params().expect("valid");
    let slices = find_slices(&served, &test, &params, 3);
    println!("\nslice finder (accuracy lens, not fairness):");
    for s in &slices {
        println!(
            "  {} — error {:.1}% vs {:.1}% elsewhere",
            s.pattern,
            s.slice_error * 100.0,
            s.rest_error * 100.0
        );
    }
    println!(
        "slices show where the model errs; FUME shows which training data *causes unfairness* — \
         different questions, same lattice."
    );

    let _ = std::fs::remove_file(&path);
}
