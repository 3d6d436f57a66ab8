//! Quickstart: explain a fairness violation in three steps.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fume::core::{ExplainRequest, Fume, FumeConfig};
use fume::forest::DareConfig;
use fume::lattice::SupportRange;
use fume::tabular::datasets::planted_toy;
use fume::tabular::split::train_test_split;

fn main() {
    // 1. Data: a toy population in which label bias against the protected
    //    group was planted inside the cohort `city = urban AND job = manual`.
    let (data, group) = planted_toy().generate_full(42).expect("generate");
    let (train, test) = train_test_split(&data, 0.3, 42).expect("split");
    println!(
        "train: {} rows, test: {} rows, sensitive attribute: {}",
        train.num_rows(),
        test.num_rows(),
        train.schema().attribute(group.attr).unwrap().name()
    );

    // 2. Configure FUME: statistical parity, subsets of 2-25% support,
    //    up to 2 literals, top-5.
    let fume = Fume::new(
        FumeConfig::default()
            .with_support(SupportRange::new(0.02, 0.25).expect("valid range"))
            .with_forest(DareConfig::small(42)),
    );

    // 3. Explain. FUME trains a DaRE forest, measures its violation, and
    //    searches the predicate lattice using machine unlearning to score
    //    every candidate subset.
    let report = fume.run(&ExplainRequest::new(&train, &test, group)).expect("a violation exists");

    println!(
        "\nmodel accuracy: {:.1}%   statistical parity violation |F|: {:.4}",
        report.original_accuracy * 100.0,
        report.original_bias
    );
    println!(
        "unlearning operations: {}   search time: {:.2}s\n",
        report.unlearning_operations,
        report.search_time.as_secs_f64()
    );
    println!("{}", report.to_markdown());
    println!(
        "The planted cohort (city = urban AND job = manual) should rank at \
         or near the top."
    );
}
