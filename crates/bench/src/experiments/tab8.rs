//! Table 8 — FUME runtime on the five real-world datasets, against the
//! dataset *dimension* (`n × p`). The paper reports near-linear scaling
//! initially, degrading for the largest datasets.

use std::time::Instant;

use fume_core::{ExplainRequest, Fume, FumeConfig};
use fume_tabular::datasets::all_paper_datasets;

use crate::common::{Prepared, SEED};
use crate::scale::RunScale;

/// One measured row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// `n × p` of the generated training data.
    pub dimension: usize,
    /// End-to-end seconds (training + search).
    pub seconds: f64,
    /// Unlearning operations performed.
    pub unlearning_ops: usize,
}

/// Measures all five datasets (Table 8 order).
pub fn rows(scale: RunScale) -> Vec<Row> {
    all_paper_datasets()
        .iter()
        .map(|ds| {
            let p = Prepared::new(ds, scale, SEED);
            let fume = Fume::new(FumeConfig::default().with_forest(p.forest_cfg.clone()));
            let t0 = Instant::now();
            let report = fume.run(&ExplainRequest::new(&p.train, &p.test, p.group));
            let seconds = t0.elapsed().as_secs_f64();
            Row {
                dataset: p.name.clone(),
                dimension: p.train.dimension(),
                seconds,
                unlearning_ops: report.map(|r| r.unlearning_operations).unwrap_or(0),
            }
        })
        .collect()
}

/// Regenerates Table 8.
pub fn run(scale: RunScale) -> String {
    let measured = rows(scale);
    let base_dim = measured[0].dimension.max(1) as f64;
    let base_t = measured[0].seconds.max(1e-9);
    let mut out = String::from(
        "## Table 8: FUME runtime vs dataset dimension\n\n\
         | Dataset | Dimension (n×p) | Time (sec) | Dim ratio | Time ratio | Unlearning ops | ms/op |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for r in &measured {
        out.push_str(&format!(
            "| {} | {} | {:.2} | {:.2}x | {:.2}x | {} | {:.1} |\n",
            r.dataset,
            r.dimension,
            r.seconds,
            r.dimension as f64 / base_dim,
            r.seconds / base_t,
            r.unlearning_ops,
            1_000.0 * r.seconds / r.unlearning_ops.max(1) as f64,
        ));
    }
    out.push_str(
        "\nPaper shape (German→Adult→MEPS→SQF→ACS): time ratios track dimension \
         ratios roughly linearly at first and grow steeper for the largest \
         datasets. Total time is (#unlearning ops) × (per-op cost); the schema \
         determines the former (German's 21 rich attributes spawn the most \
         candidates), the dimension the latter (`ms/op` grows with n×p).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fume_tabular::datasets::german_credit;

    #[test]
    #[ignore = "trains forests end-to-end; run with: cargo test -p fume-bench --release -- --ignored"]
    fn single_dataset_row_is_measured() {
        let scale = RunScale::quick();
        let p = Prepared::new(&german_credit(), scale, SEED);
        let fume = Fume::new(FumeConfig::default().with_forest(p.forest_cfg.clone()));
        let t0 = Instant::now();
        let _ = fume.run(&ExplainRequest::new(&p.train, &p.test, p.group));
        assert!(t0.elapsed().as_secs_f64() > 0.0);
        assert_eq!(p.train.dimension(), p.train.num_rows() * 21);
    }
}
