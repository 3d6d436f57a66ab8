//! Structural invariant checking for DaRE trees.
//!
//! Exact unlearning hinges on cached statistics staying equal to what a
//! from-scratch pass over the surviving data would compute. This module
//! verifies that property, and what the prediction kernel relies on in
//! the node store's hot array, and is used heavily by the workspace's
//! tests (including property-based tests) and by `FUME_DEEPCHECK=1`.

use fume_tabular::cast::row_u32;
use fume_tabular::Dataset;

use crate::builder::candidate_valid;
use crate::config::DareConfig;
use crate::forest::DareForest;
use crate::gini::gini_gain;
use crate::node::NodeRef;
use crate::tree::DareTree;

/// A violated invariant, with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn check_node(
    node: NodeRef<'_>,
    data: &Dataset,
    cfg: &DareConfig,
    depth: usize,
    out: &mut Vec<Violation>,
) {
    let Some([left, right]) = node.children() else {
        let pos = row_u32(node.ids().iter().filter(|&&id| data.label(id as usize)).count());
        if pos != node.n_pos() {
            out.push(Violation(format!(
                "leaf at depth {depth}: cached n_pos {} != recomputed {pos}",
                node.n_pos()
            )));
        }
        return;
    };
    if node.n() != left.n() + right.n() {
        out.push(Violation(format!(
            "node at depth {depth}: n {} != children {}",
            node.n(),
            left.n() + right.n()
        )));
    }
    if node.n_pos() != left.n_pos() + right.n_pos() {
        out.push(Violation(format!(
            "node at depth {depth}: n_pos {} != children {}",
            node.n_pos(),
            left.n_pos() + right.n_pos()
        )));
    }
    // Routing: every id under `left` must satisfy the split.
    let (attr, threshold) = (node.attr() as usize, node.threshold());
    let mut ids = Vec::new();
    left.collect_ids(&mut ids);
    if let Some(id) = ids.iter().find(|&&id| data.code(id as usize, attr) > threshold) {
        out.push(Violation(format!(
            "node at depth {depth}: id {id} routed left violates split"
        )));
    }
    ids.clear();
    right.collect_ids(&mut ids);
    if let Some(id) = ids.iter().find(|&&id| data.code(id as usize, attr) <= threshold) {
        out.push(Violation(format!(
            "node at depth {depth}: id {id} routed right violates split"
        )));
    }

    if depth >= cfg.max_depth {
        out.push(Violation(format!(
            "internal node at depth {depth} exceeds max_depth {}",
            cfg.max_depth
        )));
    }

    if node.is_random() {
        if !node.candidates().is_empty() {
            out.push(Violation(format!(
                "random node at depth {depth} carries candidates"
            )));
        }
        if depth >= cfg.random_depth {
            out.push(Violation(format!(
                "random node at depth {depth} below random_depth {}",
                cfg.random_depth
            )));
        }
    } else {
        check_greedy_candidates(node, data, cfg, depth, out);
    }

    check_node(left, data, cfg, depth + 1, out);
    check_node(right, data, cfg, depth + 1, out);
}

fn check_greedy_candidates(
    node: NodeRef<'_>,
    data: &Dataset,
    cfg: &DareConfig,
    depth: usize,
    out: &mut Vec<Violation>,
) {
    let candidates = node.candidates();
    if candidates.is_empty() {
        out.push(Violation(format!("greedy node at depth {depth} has no candidates")));
        return;
    }
    let Some(chosen) = candidates.get(node.chosen() as usize) else {
        out.push(Violation(format!(
            "greedy node at depth {depth}: chosen index {} out of range",
            node.chosen()
        )));
        return;
    };
    if (chosen.attr, chosen.threshold) != (node.attr(), node.threshold()) {
        out.push(Violation(format!(
            "greedy node at depth {depth}: chosen candidate does not match split"
        )));
    }

    let mut ids = Vec::new();
    node.collect_ids(&mut ids);
    let (n, n_pos) = (node.n(), node.n_pos());
    let chosen_gain = gini_gain(n, n_pos, chosen.n_left, chosen.n_left_pos);
    for (ci, c) in candidates.iter().enumerate() {
        let column = data.column(c.attr as usize);
        let n_left =
            row_u32(ids.iter().filter(|&&id| column[id as usize] <= c.threshold).count());
        let n_left_pos = row_u32(
            ids.iter()
                .filter(|&&id| {
                    column[id as usize] <= c.threshold && data.label(id as usize)
                })
                .count(),
        );
        if (c.n_left, c.n_left_pos) != (n_left, n_left_pos) {
            out.push(Violation(format!(
                "greedy node at depth {depth}: candidate {ci} stats ({}, {}) != recomputed ({n_left}, {n_left_pos})",
                c.n_left, c.n_left_pos
            )));
        }
        if !candidate_valid(c, n, cfg) {
            out.push(Violation(format!(
                "greedy node at depth {depth}: candidate {ci} invalid but retained"
            )));
        }
        let gain = gini_gain(n, n_pos, c.n_left, c.n_left_pos);
        if gain > chosen_gain + 1e-9 {
            out.push(Violation(format!(
                "greedy node at depth {depth}: candidate {ci} gain {gain} beats chosen {chosen_gain}"
            )));
        }
    }
}

/// Checks what the prediction kernel relies on: every live leaf points
/// both children at itself and carries its counts' probability bit for
/// bit, every live decision node carries its split in the hot array, and
/// the step count reaches the deepest leaf.
fn check_hot(tree: &DareTree, out: &mut Vec<Violation>) {
    let store = tree.store();
    let mut stack = vec![(tree.root(), 0u32)];
    while let Some((node, depth)) = stack.pop() {
        let slot = node.slot();
        let hot = store.hot[slot as usize];
        match node.children() {
            None => {
                if hot.kids != [slot; 2] {
                    out.push(Violation(format!("leaf slot {slot} does not loop to itself")));
                }
                if hot.proba.to_bits() != node.proba().to_bits() {
                    out.push(Violation(format!(
                        "leaf slot {slot}: hot probability {} != counts' {}",
                        hot.proba,
                        node.proba()
                    )));
                }
                if depth > tree.steps {
                    out.push(Violation(format!(
                        "leaf slot {slot} at depth {depth} is below the {} kernel steps",
                        tree.steps
                    )));
                }
            }
            Some([left, right]) => {
                if left.slot() == slot || right.slot() == slot {
                    out.push(Violation(format!("decision slot {slot} loops to itself")));
                    continue;
                }
                stack.push((left, depth + 1));
                stack.push((right, depth + 1));
            }
        }
    }
}

/// Checks every invariant of `tree` against `data`, returning all
/// violations (empty = valid).
pub fn validate_tree(tree: &DareTree, data: &Dataset, cfg: &DareConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    check_node(tree.root(), data, cfg, 0, &mut out);
    check_hot(tree, &mut out);
    out
}

/// Checks every tree of `forest`; returns all violations across trees.
pub fn validate_forest(forest: &DareForest, data: &Dataset) -> Vec<Violation> {
    let mut out = Vec::new();
    for (ti, tree) in forest.trees().iter().enumerate() {
        for v in validate_tree(tree, data, forest.config()) {
            out.push(Violation(format!("tree {ti}: {v}")));
        }
        if tree.num_instances() != forest.num_instances() {
            out.push(Violation(format!(
                "tree {ti}: holds {} instances, forest says {}",
                tree.num_instances(),
                forest.num_instances()
            )));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DareConfig;
    use fume_tabular::datasets::planted_toy;

    #[test]
    fn fresh_forest_is_valid() {
        let (data, _) = planted_toy().generate_scaled(0.2, 31).unwrap();
        let forest = DareForest::fit(&data, DareConfig::small(31));
        let v = validate_forest(&forest, &data);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn forest_stays_valid_under_batch_deletions() {
        let (data, _) = planted_toy().generate_scaled(0.3, 32).unwrap();
        let mut forest = DareForest::fit(&data, DareConfig::small(32));
        // Three waves of deletions, including a coherent block.
        let waves: Vec<Vec<u32>> = vec![
            (0..40).collect(),
            (100..160).step_by(2).collect(),
            (200..230).collect(),
        ];
        for wave in waves {
            forest.delete(&wave, &data).unwrap();
            let v = validate_forest(&forest, &data);
            assert!(v.is_empty(), "{v:?}");
        }
    }

    #[test]
    fn forest_stays_valid_under_many_single_deletions() {
        let (data, _) = planted_toy().generate_scaled(0.15, 33).unwrap();
        let mut forest = DareForest::fit(&data, DareConfig::small(33).with_trees(5));
        for id in (0..120u32).step_by(3) {
            forest.delete(&[id], &data).unwrap();
        }
        let v = validate_forest(&forest, &data);
        assert!(v.is_empty(), "{v:?}");
    }
}
