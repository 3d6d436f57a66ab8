//! Table 9 — effect of pruning on subset exploration: per lattice level,
//! how many subsets were possible, how many were actually evaluated, and
//! the pruned percentage. Also runs the rule-4/5 ablation the design
//! document calls out.

use fume_core::{ExplainRequest, Fume, FumeConfig};
use fume_lattice::RuleToggles;
use fume_tabular::datasets::german_credit;

use crate::common::{Prepared, SEED};
use crate::scale::RunScale;

fn level_table(report: &fume_core::FumeReport) -> String {
    let mut out = String::from(
        "| Level | Possible subsets | Generated | Explored | Pruned (%) | rule1 | support-low | oversized | rule4 | rule5 |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    for l in &report.levels {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.2} | {} | {} | {} | {} | {} |\n",
            l.level,
            l.possible,
            l.generated,
            l.explored,
            l.pruned_percent(),
            l.pruned_rule1,
            l.pruned_support_low,
            l.oversized,
            l.pruned_rule4,
            l.pruned_rule5,
        ));
    }
    out
}

/// Regenerates Table 9 on German Credit with a 4-level lattice, plus the
/// rule-4/5 ablation.
pub fn run(scale: RunScale) -> String {
    let p = Prepared::new(&german_credit(), scale, SEED);
    let forest = p.fit();

    let base_cfg = FumeConfig::default()
        .with_max_literals(4)
        .with_forest(p.forest_cfg.clone());

    let mut out = String::from("## Table 9: Effect of pruning on subset exploration (German, eta = 4)\n\n");

    let fume = Fume::new(base_cfg.clone());
    match fume.run(&ExplainRequest::new(&p.train, &p.test, p.group).with_model(&forest)) {
        Ok(report) => {
            out.push_str(&level_table(&report));
            out.push_str(&format!(
                "\nTotal unlearning operations with all rules on: {}\n",
                report.unlearning_operations
            ));
        }
        Err(e) => out.push_str(&format!("run failed: {e}\n")),
    }

    out.push_str("\n### Ablation: rules 4 and 5 disabled\n\n");
    let mut ablated = base_cfg;
    ablated.toggles = RuleToggles {
        rule4_parent_dominance: false,
        rule5_positive_only: false,
        ..RuleToggles::default()
    };
    match Fume::new(ablated).run(&ExplainRequest::new(&p.train, &p.test, p.group).with_model(&forest)) {
        Ok(report) => {
            out.push_str(&level_table(&report));
            out.push_str(&format!(
                "\nTotal unlearning operations without rules 4/5: {} — the \
                 attribution-based rules are what keep deeper levels tractable.\n",
                report.unlearning_operations
            ));
        }
        Err(e) => out.push_str(&format!("ablation failed: {e}\n")),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fume_lattice::SupportRange;

    #[test]
    #[ignore = "trains forests end-to-end; run with: cargo test -p fume-bench --release -- --ignored"]
    fn pruning_reduces_exploration() {
        // Small, fast variant of the ablation with eta = 3.
        let p = Prepared::new(&german_credit(), RunScale::quick(), SEED);
        let forest = p.fit();
        let cfg = FumeConfig::default()
            .with_max_literals(3)
            .with_support(SupportRange::new(0.05, 0.25).unwrap())
            .with_forest(p.forest_cfg.clone());
        let on = Fume::new(cfg.clone())
            .run(&ExplainRequest::new(&p.train, &p.test, p.group).with_model(&forest))
            .unwrap();
        let mut ablated = cfg;
        ablated.toggles = RuleToggles {
            rule4_parent_dominance: false,
            rule5_positive_only: false,
            ..RuleToggles::default()
        };
        let off = Fume::new(ablated)
            .run(&ExplainRequest::new(&p.train, &p.test, p.group).with_model(&forest))
            .unwrap();
        assert!(
            on.unlearning_operations <= off.unlearning_operations,
            "rules on: {} ops, off: {} ops",
            on.unlearning_operations,
            off.unlearning_operations
        );
    }
}
