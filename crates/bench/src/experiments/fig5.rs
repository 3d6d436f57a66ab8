//! Figure 5 — FUME efficiency on synthetic data:
//! (a) runtime vs number of instances for several attribute counts;
//! (b) runtime vs number of distinct attribute values (n = 30 000, p = 10).

use std::time::Instant;

use fume_core::{ExplainRequest, Fume, FumeConfig};
use fume_tabular::datasets::{synthetic, SyntheticConfig};
use fume_tabular::split::train_test_split;

use crate::common::SEED;
use crate::scale::RunScale;

/// One timing sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Instances generated.
    pub instances: usize,
    /// Attributes.
    pub attributes: usize,
    /// Distinct values per attribute.
    pub values: usize,
    /// End-to-end seconds.
    pub seconds: f64,
}

fn measure(instances: usize, attributes: usize, values: usize, scale: RunScale) -> Sample {
    let ds = synthetic(SyntheticConfig {
        num_attributes: attributes,
        values_per_attribute: values,
        seed: SEED,
    });
    let (data, group) =
        fume_tabular::generator::generate(&ds.spec, instances, SEED).expect("valid spec");
    let (train, test) = train_test_split(&data, 0.3, SEED).expect("non-empty");
    let fume = Fume::new(FumeConfig::default().with_forest(scale.forest(SEED)));
    let t0 = Instant::now();
    let _ = fume.run(&ExplainRequest::new(&train, &test, group));
    Sample { instances, attributes, values, seconds: t0.elapsed().as_secs_f64() }
}

/// Figure 5(a): sweep instances × attributes (binary attributes).
pub fn run_a(scale: RunScale) -> String {
    let instance_grid: Vec<usize> = if scale.data_fraction >= 1.0 {
        vec![10_000, 30_000, 50_000]
    } else {
        vec![1_000, 3_000, 5_000]
    };
    let attr_grid = [5usize, 10, 15, 20];
    let mut out = String::from(
        "## Figure 5(a): runtime vs #instances and #attributes (d = 2)\n\n\
         | #instances | #attributes | Time (sec) |\n|---|---|---|\n",
    );
    for &n in &instance_grid {
        for &p in &attr_grid {
            let s = measure(n, p, 2, scale);
            out.push_str(&format!("| {} | {} | {:.2} |\n", s.instances, s.attributes, s.seconds));
        }
    }
    out.push_str(
        "\nPaper shape: runtime grows with both instance count and attribute \
         count; FUME stays efficient below ~50k instances.\n",
    );
    out
}

/// Figure 5(b): sweep distinct values per attribute (p = 10).
pub fn run_b(scale: RunScale) -> String {
    let n = if scale.data_fraction >= 1.0 { 30_000 } else { 3_000 };
    let mut out = format!(
        "## Figure 5(b): runtime vs #distinct attribute values (n = {n}, p = 10)\n\n\
         | #distinct values | Time (sec) |\n|---|---|\n",
    );
    for d in [2usize, 4, 6, 8, 10] {
        let s = measure(n, 10, d, scale);
        out.push_str(&format!("| {} | {:.2} |\n", s.values, s.seconds));
    }
    out.push_str(
        "\nPaper shape: no clear monotone trend — more values create more \
         subsets, but pruning removes most of them; runtime is governed by \
         the number of unlearning calls, not the raw lattice size.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "trains forests end-to-end; run with: cargo test -p fume-bench --release -- --ignored"]
    fn measure_returns_positive_time() {
        let s = measure(600, 5, 2, RunScale::quick());
        assert!(s.seconds > 0.0);
        assert_eq!(s.attributes, 5);
    }
}
