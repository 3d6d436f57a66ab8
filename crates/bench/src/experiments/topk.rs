//! Tables 3–7 — the top-5 attributable subsets per dataset (statistical
//! parity, 5–15 % support), with the DropUnprivUnfavor baseline line the
//! paper reports alongside each table.

use fume_core::{drop_unpriv_unfavor, ExplainRequest, Fume, FumeConfig};
use fume_fairness::FairnessMetric;
use fume_lattice::SupportRange;
use fume_tabular::datasets::{
    acs_income, adult, german_credit, meps, sqf, PaperDataset,
};

use crate::common::{fmt_secs, pct, Prepared, SEED};
use crate::scale::RunScale;

/// Which paper table to regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopKTable {
    /// Table 3: German Credit.
    German,
    /// Table 4: Adult.
    Adult,
    /// Table 5: SQF.
    Sqf,
    /// Table 6: ACS Income.
    Acs,
    /// Table 7: MEPS.
    Meps,
}

impl TopKTable {
    /// The dataset behind the table.
    pub fn dataset(self) -> PaperDataset {
        match self {
            Self::German => german_credit(),
            Self::Adult => adult(),
            Self::Sqf => sqf(),
            Self::Acs => acs_income(),
            Self::Meps => meps(),
        }
    }

    /// Paper table number.
    pub fn number(self) -> usize {
        match self {
            Self::German => 3,
            Self::Adult => 4,
            Self::Sqf => 5,
            Self::Acs => 6,
            Self::Meps => 7,
        }
    }
}

/// Regenerates one of Tables 3–7.
pub fn run(table: TopKTable, scale: RunScale) -> String {
    let ds = table.dataset();
    let p = Prepared::new(&ds, scale, SEED);
    let fume = Fume::new(
        FumeConfig::default()
            .with_metric(FairnessMetric::StatisticalParity)
            .with_support(SupportRange::medium())
            .with_top_k(5)
            .with_forest(p.forest_cfg.clone()),
    );
    let report = match fume.run(&ExplainRequest::new(&p.train, &p.test, p.group)) {
        Ok(r) => r,
        Err(e) => return format!("## Table {}: {} — {e}\n", table.number(), p.name),
    };

    let mut out = format!(
        "## Table {}: Top-5 subsets attributable to statistical disparity in {} \
         (support range 5%-15%)\n\n\
         Original |F|: {:.4} · model accuracy: {} · unlearning operations: {} · \
         search time: {}s\n\n",
        table.number(),
        p.name,
        report.original_bias,
        pct(report.original_accuracy),
        report.unlearning_operations,
        fmt_secs(report.search_time),
    );
    out.push_str(&report.to_markdown());

    let baseline = drop_unpriv_unfavor(
        &p.train,
        &p.test,
        p.group,
        FairnessMetric::StatisticalParity,
        &p.forest_cfg,
    );
    out.push_str(&format!(
        "\nDropUnprivUnfavor baseline: removes {} of the training data, parity \
         reduction {}, accuracy {} → {}.\n",
        pct(baseline.removed_fraction),
        pct(baseline.parity_reduction),
        pct(baseline.accuracy_before),
        pct(baseline.accuracy_after),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "trains forests end-to-end; run with: cargo test -p fume-bench --release -- --ignored"]
    fn german_table_has_five_rows_and_baseline() {
        let md = run(TopKTable::German, RunScale::quick());
        assert!(md.contains("## Table 3"), "{md}");
        assert!(md.contains("DropUnprivUnfavor"));
        // At least one attributable subset row.
        assert!(md.contains("| 1 |"), "{md}");
    }

    #[test]
    fn table_numbers() {
        assert_eq!(TopKTable::German.number(), 3);
        assert_eq!(TopKTable::Meps.number(), 7);
    }
}
