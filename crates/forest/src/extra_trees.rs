//! An extremely-randomized-trees (ERT) variant, in the spirit of the
//! HedgeCut substrate the paper cites as the other tree-based unlearning
//! option.
//!
//! An ERT splits every node on a randomly drawn attribute/threshold pair
//! instead of a greedy search. In the DaRE framework this is exactly a
//! forest whose *random layers* extend all the way down — such nodes carry
//! no candidate statistics and only retrain when a deletion empties a
//! side, making unlearning extremely cheap at some cost in accuracy. The
//! variant is used by the ablation benches to quantify that trade-off.

use fume_tabular::{Classifier, Dataset};

use crate::config::DareConfig;
use crate::delete::DeleteReport;
use crate::forest::{DareForest, ForestError};

/// An extremely randomized forest with cheap unlearning.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtraForest {
    inner: DareForest,
}

impl ExtraForest {
    /// Trains an ERT forest: `cfg` is reinterpreted with fully random
    /// splits (`random_depth = max_depth`).
    pub fn fit(data: &Dataset, cfg: DareConfig) -> Self {
        let cfg = DareConfig { random_depth: cfg.max_depth, ..cfg };
        Self { inner: DareForest::fit(data, cfg) }
    }

    /// Unlearns training instances; see [`DareForest::delete`].
    pub fn delete(&mut self, ids: &[u32], data: &Dataset) -> Result<DeleteReport, ForestError> {
        self.inner.delete(ids, data)
    }

    /// The underlying forest.
    pub fn as_dare(&self) -> &DareForest {
        &self.inner
    }

    /// Number of training instances currently learned.
    pub fn num_instances(&self) -> u32 {
        self.inner.num_instances()
    }
}

impl Classifier for ExtraForest {
    fn predict_proba(&self, data: &Dataset) -> Vec<f64> {
        self.inner.predict_proba(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_forest;
    use fume_tabular::datasets::planted_toy;
    use fume_tabular::split::train_test_split;

    #[test]
    fn all_nodes_are_random() {
        let (data, _) = planted_toy().generate_scaled(0.2, 51).unwrap();
        let f = ExtraForest::fit(&data, DareConfig::small(51));
        fn assert_random(node: crate::node::NodeRef<'_>) {
            if let Some([left, right]) = node.children() {
                assert!(node.is_random());
                assert_random(left);
                assert_random(right);
            }
        }
        for t in f.as_dare().trees() {
            assert_random(t.root());
        }
    }

    #[test]
    fn ert_learns_something_and_unlearns_cheaply() {
        let (data, _) = planted_toy().generate_full(52).unwrap();
        let (train, test) = train_test_split(&data, 0.3, 52).unwrap();
        let mut f = ExtraForest::fit(&train, DareConfig::small(52));
        assert!(f.accuracy(&test) > 0.52, "{}", f.accuracy(&test));
        let report = f.delete(&(0..50).collect::<Vec<_>>(), &train).unwrap();
        // Random nodes carry no candidates; replenishment never happens.
        assert_eq!(report.candidates_replenished, 0);
        let v = validate_forest(f.as_dare(), &train);
        assert!(v.is_empty(), "{v:?}");
    }
}
