//! Tree-path pattern mining — the *inadequate* manual explanation
//! strategy of the paper's Example 1.1 / Table 1, provided both for the
//! motivating experiment and as a diagnostic tool.
//!
//! For each tree of the forest, the miner walks the first few levels and
//! reports root-to-leaf paths that (a) constrain the sensitive attribute
//! to the protected side and (b) end in a leaf predicting the unfavorable
//! outcome, together with the fraction of training samples they carry.

use fume_forest::{DareForest, NodeRef};
use fume_tabular::{Dataset, GroupSpec};

/// A mined discriminatory path.
#[derive(Debug, Clone, PartialEq)]
pub struct MinedPattern {
    /// Which tree the path is from.
    pub tree_index: usize,
    /// Rendered conjunction of the path's split conditions.
    pub description: String,
    /// Fraction of the tree's training instances in the leaf.
    pub sample_fraction: f64,
    /// The leaf's positive-class probability.
    pub leaf_proba: f64,
}

/// Mines every tree of `forest` down to `max_levels` for paths that
/// mention the protected group and predict the unfavorable label
/// (paper Table 1).
pub fn mine_unfair_paths(
    forest: &DareForest,
    data: &Dataset,
    group: GroupSpec,
    max_levels: usize,
) -> Vec<MinedPattern> {
    let total = forest.num_instances().max(1) as f64;
    let mut out = Vec::new();
    for (tree_index, tree) in forest.trees().iter().enumerate() {
        let mut conditions: Vec<(u16, bool, u16)> = Vec::new();
        walk(
            tree.root(),
            0,
            max_levels,
            &mut conditions,
            &mut |conditions, leaf_n, leaf_proba| {
                if leaf_proba >= 0.5 {
                    return; // favorable leaf
                }
                // The path must constrain the sensitive attribute away
                // from the privileged code.
                let mentions_protected = conditions.iter().any(|&(attr, is_left, thr)| {
                    attr as usize == group.attr
                        && !side_allows_code(is_left, thr, group.privileged_code)
                });
                if !mentions_protected {
                    return;
                }
                out.push(MinedPattern {
                    tree_index,
                    description: render_conditions(conditions, data),
                    sample_fraction: leaf_n as f64 / total,
                    leaf_proba,
                });
            },
        );
    }
    out
}

/// Whether the chosen side of a `code <= thr` split can contain `code`.
fn side_allows_code(is_left: bool, thr: u16, code: u16) -> bool {
    if is_left {
        code <= thr
    } else {
        code > thr
    }
}

fn walk(
    node: NodeRef<'_>,
    depth: usize,
    max_levels: usize,
    conditions: &mut Vec<(u16, bool, u16)>,
    emit: &mut impl FnMut(&[(u16, bool, u16)], u32, f64),
) {
    let Some([left, right]) = node.children() else {
        emit(conditions, node.n(), node.proba());
        return;
    };
    if depth >= max_levels {
        // Treat the subtree as a pseudo-leaf with its majority.
        emit(conditions, node.n(), node.proba());
        return;
    }
    conditions.push((node.attr(), true, node.threshold()));
    walk(left, depth + 1, max_levels, conditions, emit);
    conditions.pop();
    conditions.push((node.attr(), false, node.threshold()));
    walk(right, depth + 1, max_levels, conditions, emit);
    conditions.pop();
}

fn render_conditions(conditions: &[(u16, bool, u16)], data: &Dataset) -> String {
    conditions
        .iter()
        .map(|&(attr, is_left, thr)| {
            let schema = data.schema();
            let a = schema.attribute(attr as usize).ok();
            let name = a.map(|a| a.name()).unwrap_or("?");
            let label = a
                .and_then(|a| a.value_label(thr))
                .unwrap_or("?");
            if is_left {
                format!("({name} <= {label})")
            } else {
                format!("({name} > {label})")
            }
        })
        .collect::<Vec<_>>()
        .join(" and ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fume_forest::DareConfig;
    use fume_tabular::datasets::planted_toy;

    #[test]
    fn mined_paths_are_unfavorable_and_mention_the_group() {
        let (train, group) = planted_toy().generate_scaled(0.5, 95).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(95).with_trees(10));
        let patterns = mine_unfair_paths(&forest, &train, group, 5);
        for p in &patterns {
            assert!(p.leaf_proba < 0.5);
            assert!(p.description.contains("sex"), "{}", p.description);
            assert!(p.sample_fraction > 0.0 && p.sample_fraction <= 1.0);
        }
    }

    #[test]
    fn deeper_scans_find_at_least_as_many_paths() {
        let (train, group) = planted_toy().generate_scaled(0.5, 96).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(96).with_trees(10));
        let shallow = mine_unfair_paths(&forest, &train, group, 2).len();
        let deep = mine_unfair_paths(&forest, &train, group, 6).len();
        assert!(deep >= shallow, "shallow {shallow} deep {deep}");
    }

    #[test]
    fn side_allows_code_semantics() {
        // split code <= 1: left side holds codes 0,1; right holds 2+.
        assert!(side_allows_code(true, 1, 0));
        assert!(side_allows_code(true, 1, 1));
        assert!(!side_allows_code(true, 1, 2));
        assert!(!side_allows_code(false, 1, 1));
        assert!(side_allows_code(false, 1, 2));
    }
}
