//! Gini impurity and split-gain computations over label counts.
//!
//! All scores work on integer counts so that cached statistics (updated
//! incrementally during unlearning) reproduce build-time decisions exactly.

/// Gini impurity of a node with `n` instances of which `n_pos` are positive:
/// `1 − p₊² − p₋²`. An empty node has impurity 0 by convention.
#[inline]
pub fn gini(n: u32, n_pos: u32) -> f64 {
    debug_assert!(n_pos <= n);
    if n == 0 {
        return 0.0;
    }
    let p = n_pos as f64 / n as f64;
    1.0 - p * p - (1.0 - p) * (1.0 - p)
}

/// Gini *gain* of splitting `(n, n_pos)` into a left part `(n_l, n_l_pos)`
/// and the complementary right part: parent impurity minus the
/// count-weighted child impurity. Non-separating splits (`n_l == 0` or
/// `n_l == n`) gain exactly 0.
#[inline]
pub fn gini_gain(n: u32, n_pos: u32, n_l: u32, n_l_pos: u32) -> f64 {
    split_gain(gini(n, n_pos), n, n_pos, n_l, n_l_pos)
}

/// [`gini_gain`] given the parent's impurity `parent = gini(n, n_pos)`,
/// so a node scores all its candidates against one parent impurity. The
/// float operations are [`gini_gain`]'s, so the results are identical.
#[inline]
pub(crate) fn split_gain(parent: f64, n: u32, n_pos: u32, n_l: u32, n_l_pos: u32) -> f64 {
    debug_assert!(n_l <= n && n_l_pos <= n_pos && (n_pos - n_l_pos) <= (n - n_l));
    if n == 0 || n_l == 0 || n_l == n {
        return 0.0;
    }
    let n_r = n - n_l;
    let n_r_pos = n_pos - n_l_pos;
    let w_l = n_l as f64 / n as f64;
    let w_r = n_r as f64 / n as f64;
    parent - w_l * gini(n_l, n_l_pos) - w_r * gini(n_r, n_r_pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_nodes_have_zero_impurity() {
        assert_eq!(gini(10, 0), 0.0);
        assert_eq!(gini(10, 10), 0.0);
        assert_eq!(gini(0, 0), 0.0);
    }

    #[test]
    fn balanced_node_has_half_impurity() {
        assert!((gini(10, 5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn impurity_is_symmetric_in_classes() {
        for n_pos in 0..=20 {
            assert!((gini(20, n_pos) - gini(20, 20 - n_pos)).abs() < 1e-12);
        }
    }

    #[test]
    fn perfect_split_gains_full_impurity() {
        // 10 instances, 5 positive, split puts all positives left.
        let g = gini_gain(10, 5, 5, 5);
        assert!((g - 0.5).abs() < 1e-12);
    }

    #[test]
    fn useless_split_gains_nothing() {
        // Children mirror the parent distribution.
        let g = gini_gain(20, 10, 10, 5);
        assert!(g.abs() < 1e-12);
    }

    #[test]
    fn non_separating_split_gains_zero() {
        assert_eq!(gini_gain(10, 5, 0, 0), 0.0);
        assert_eq!(gini_gain(10, 5, 10, 5), 0.0);
    }

    #[test]
    fn gain_is_never_negative() {
        // Exhaustive over small counts: Gini gain of any valid split ≥ 0.
        for n in 1..=12u32 {
            for n_pos in 0..=n {
                for n_l in 0..=n {
                    for n_l_pos in 0..=n_l.min(n_pos) {
                        if n_pos - n_l_pos <= n - n_l {
                            let g = gini_gain(n, n_pos, n_l, n_l_pos);
                            assert!(g >= -1e-12, "gain {g} for {n},{n_pos},{n_l},{n_l_pos}");
                        }
                    }
                }
            }
        }
    }
}
