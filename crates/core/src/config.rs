//! FUME configuration.

use std::path::PathBuf;

use fume_fairness::FairnessMetric;
use fume_forest::DareConfig;
use fume_lattice::{LatticeError, LiteralGen, RuleToggles, SearchParams, SupportRange};

/// Everything that parameterizes a FUME run.
#[derive(Debug, Clone, PartialEq)]
pub struct FumeConfig {
    /// The fairness notion whose violation is being explained.
    pub metric: FairnessMetric,
    /// Rule 2's support range.
    pub support: SupportRange,
    /// Rule 3's interpretability cap (max literals per subset).
    pub max_literals: usize,
    /// How many subsets to report (the paper uses `k = 5`).
    pub top_k: usize,
    /// Hyperparameters of the DaRE forest.
    pub forest: DareConfig,
    /// Pruning-rule ablation switches.
    pub toggles: RuleToggles,
    /// Attributes excluded from explanations.
    pub exclude_attrs: Vec<u16>,
    /// Level-1 literal generation (equality only, or with `≤`/`≥` range
    /// literals on ordinal attributes).
    pub literal_gen: LiteralGen,
    /// Worker threads for parallel subset evaluation
    /// (`None` = all available cores).
    pub n_jobs: Option<usize>,
    /// Directory to checkpoint the run into (the search state at every
    /// lattice-level boundary), enabling
    /// [`Fume::resume`](crate::Fume::resume) after a crash. `None`
    /// disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for FumeConfig {
    /// The paper's defaults: statistical parity, 5–15 % support,
    /// 2-literal subsets, top-5.
    fn default() -> Self {
        Self {
            metric: FairnessMetric::StatisticalParity,
            support: SupportRange::medium(),
            max_literals: 2,
            top_k: 5,
            forest: DareConfig::default(),
            toggles: RuleToggles::default(),
            exclude_attrs: Vec::new(),
            literal_gen: LiteralGen::EqOnly,
            n_jobs: None,
            checkpoint_dir: None,
        }
    }
}

impl FumeConfig {
    /// Builder-style setter for the fairness metric.
    pub fn with_metric(mut self, metric: FairnessMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Builder-style setter for the support range.
    pub fn with_support(mut self, support: SupportRange) -> Self {
        self.support = support;
        self
    }

    /// Builder-style setter for the literal cap.
    pub fn with_max_literals(mut self, eta: usize) -> Self {
        self.max_literals = eta;
        self
    }

    /// Builder-style setter for `k`.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Builder-style setter for the forest hyperparameters.
    pub fn with_forest(mut self, forest: DareConfig) -> Self {
        self.forest = forest;
        self
    }

    /// Builder-style setter for the worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.n_jobs = Some(jobs);
        self
    }

    /// Builder-style setter for the literal-generation strategy.
    /// Selecting [`LiteralGen::WithRanges`] also enables redundancy
    /// pruning — overlapping range literals otherwise flood the ranking
    /// with subsumed conjunctions like `age >= 2 ∧ age >= 4`.
    pub fn with_literal_gen(mut self, gen: LiteralGen) -> Self {
        self.literal_gen = gen;
        if gen == LiteralGen::WithRanges {
            self.toggles.prune_redundant = true;
        }
        self
    }

    /// Builder-style setter for the checkpoint directory.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// The lattice search parameters implied by this configuration.
    pub fn search_params(&self) -> Result<SearchParams, LatticeError> {
        let mut p = SearchParams::new(self.support, self.max_literals)?;
        p.toggles = self.toggles;
        p.exclude_attrs = self.exclude_attrs.clone();
        p.literal_gen = self.literal_gen;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FumeConfig::default();
        assert_eq!(c.metric, FairnessMetric::StatisticalParity);
        assert_eq!(c.top_k, 5);
        assert_eq!(c.max_literals, 2);
        assert!((c.support.min - 0.05).abs() < 1e-12);
        assert!((c.support.max - 0.15).abs() < 1e-12);
    }

    #[test]
    fn builder_and_search_params() {
        let c = FumeConfig::default()
            .with_metric(FairnessMetric::PredictiveParity)
            .with_max_literals(3)
            .with_top_k(7)
            .with_jobs(2);
        assert_eq!(c.top_k, 7);
        let p = c.search_params().unwrap();
        assert_eq!(p.max_literals, 3);

        let bad = FumeConfig::default().with_max_literals(0);
        assert!(bad.search_params().is_err());
    }

    #[test]
    fn literal_gen_with_ranges_enables_redundancy_pruning() {
        let cfg = FumeConfig::default().with_literal_gen(LiteralGen::WithRanges);
        assert_eq!(cfg.literal_gen, LiteralGen::WithRanges);
        assert!(cfg.toggles.prune_redundant);
    }
}
