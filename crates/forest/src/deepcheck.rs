//! Opt-in deep invariant checking (`FUME_DEEPCHECK=1`).
//!
//! The journal/rollback engine trades a full forest clone for an undo
//! log, which makes its correctness *load-bearing*: a single missed
//! [record](crate::journal) silently corrupts every ρ score computed
//! after the bad rollback. This module wires
//! [`validate::validate_forest`](crate::validate::validate_forest) into
//! the mutation hot path as an opt-in gate: with the `FUME_DEEPCHECK`
//! environment variable set to `1` (or `true`), debug and test builds
//! re-validate the full forest — cached statistics and the hot array the
//! kernel reads — after every journaled delete and every rollback, and
//! check every full prediction pass bitwise against the reference walk,
//! panicking on the first inconsistency.
//!
//! Release builds compile the check to a no-op regardless of the
//! environment, so production attribution runs pay nothing.

use fume_tabular::Dataset;

use crate::forest::DareForest;

/// Whether deep checking is enabled for this process
/// ([`fume_obs::deepcheck_enabled`], which the lattice's checks read
/// too).
///
/// Reads `FUME_DEEPCHECK` once and caches the answer: the gate sits on
/// the unlearning hot path, where even a `getenv` per delete would be
/// measurable. Always `false` in release builds.
#[inline]
pub fn enabled() -> bool {
    fume_obs::deepcheck_enabled()
}

/// Validates `forest` against `data` if deep checking is enabled,
/// panicking with every violation when the forest is inconsistent.
///
/// `context` names the operation that just mutated the forest (e.g.
/// `"delete_journaled"`, `"rollback"`) so a failure pinpoints the
/// offending mutation, not just the detecting call site.
#[inline]
pub fn check_forest(forest: &DareForest, data: &Dataset, context: &str) {
    if !enabled() {
        return;
    }
    let violations = crate::validate::validate_forest(forest, data);
    fume_obs::counter!("forest.deepcheck_runs", 1);
    assert!(
        violations.is_empty(),
        "FUME_DEEPCHECK: forest inconsistent after {context}: {violations:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_is_stable_across_calls() {
        // Whatever the ambient environment says, the cached answer must
        // not flip between reads (OnceLock semantics).
        assert_eq!(enabled(), enabled());
    }
}
