//! Figure 4 — quality of the identified subsets: average and maximum
//! parity reduction of the top-5 per dataset × support range
//! ({0–5 %, 5–15 %, ≥30 %}).

use fume_core::{ExplainRequest, Fume, FumeConfig};
use fume_lattice::SupportRange;
use fume_tabular::datasets::all_paper_datasets;

use crate::common::{pct, Prepared, SEED};
use crate::scale::RunScale;

/// One bar of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Bar {
    /// Dataset name.
    pub dataset: String,
    /// Support range label.
    pub range: &'static str,
    /// Average parity reduction of the top-5 (0 when nothing was found).
    pub avg: f64,
    /// Maximum parity reduction of the top-5.
    pub max: f64,
    /// How many attributable subsets were found (≤ 5).
    pub found: usize,
}

/// Computes every bar of Figure 4.
pub fn bars(scale: RunScale) -> Vec<Bar> {
    let ranges: [(&str, SupportRange); 3] = [
        ("0-5%", SupportRange::small()),
        ("5-15%", SupportRange::medium()),
        (">=30%", SupportRange::large()),
    ];
    let mut out = Vec::new();
    for ds in all_paper_datasets() {
        let p = Prepared::new(&ds, scale, SEED);
        let forest = p.fit();
        for (label, range) in ranges {
            let fume = Fume::new(
                FumeConfig::default()
                    .with_support(range)
                    .with_forest(p.forest_cfg.clone()),
            );
            let (avg, max, found) =
                match fume.run(&ExplainRequest::new(&p.train, &p.test, p.group).with_model(&forest)) {
                    Ok(report) if !report.top_k.is_empty() => {
                        let rs: Vec<f64> =
                            report.top_k.iter().map(|s| s.parity_reduction).collect();
                        let avg = rs.iter().sum::<f64>() / rs.len() as f64;
                        let max = rs.iter().copied().fold(f64::MIN, f64::max);
                        (avg, max, rs.len())
                    }
                    _ => (0.0, 0.0, 0),
                };
            out.push(Bar { dataset: p.name.clone(), range: label, avg, max, found });
        }
    }
    out
}

/// Regenerates Figure 4 as a markdown table.
pub fn run(scale: RunScale) -> String {
    let mut out = String::from(
        "## Figure 4: Quality of attributable subsets by support range\n\n\
         | Dataset | Support range | Avg parity reduction (top-5) | Max parity reduction | #found |\n\
         |---|---|---|---|---|\n",
    );
    for b in bars(scale) {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            b.dataset,
            b.range,
            pct(b.avg),
            pct(b.max),
            b.found
        ));
    }
    out.push_str(
        "\nPaper shape: German reduces >90% of bias across ranges; ACS Income \
         only reaches large reductions in the ≥30% range; small datasets admit \
         small attributable subsets, large datasets need larger ones.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fume_tabular::datasets::german_credit;

    /// Full `bars()` covers 15 runs — too slow for a unit test; check one.
    #[test]
    #[ignore = "trains forests end-to-end; run with: cargo test -p fume-bench --release -- --ignored"]
    fn german_medium_range_finds_subsets() {
        let scale = RunScale::quick();
        let p = Prepared::new(&german_credit(), scale, SEED);
        let fume = Fume::new(
            FumeConfig::default()
                .with_support(SupportRange::medium())
                .with_forest(p.forest_cfg.clone()),
        );
        let report = fume.run(&ExplainRequest::new(&p.train, &p.test, p.group)).unwrap();
        assert!(!report.top_k.is_empty());
    }
}
