//! Figure 3 — effectiveness of DaRE unlearning at estimating subset
//! attribution: for clouds of random and coherent subsets of German
//! Credit, compare the unlearning-estimated attribution against the
//! retrain-from-scratch ground truth. The paper's claim is that the
//! points hug the `y = x` line.

use fume_core::{AttributionEstimator, DareRemoval, RetrainRemoval};
use fume_fairness::FairnessMetric;
use fume_lattice::{expand_level, level1_nodes, EvalItem, Predicate, SupportRange};
use fume_tabular::datasets::german_credit;
use fume_tabular::Dataset;
use fume_tabular::rng::{Rng, SeedableRng, SliceRandom, StdRng};

use crate::common::{Prepared, SEED};
use crate::scale::RunScale;

/// One scatter point: a subset's true vs estimated attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Retrain-from-scratch parity reduction (x-axis).
    pub actual: f64,
    /// DaRE-unlearning-estimated parity reduction (y-axis).
    pub estimated: f64,
    /// Subset support.
    pub support: f64,
}

/// Scatter statistics for one subset family.
#[derive(Debug, Clone, PartialEq)]
pub struct Scatter {
    /// The points.
    pub points: Vec<Point>,
    /// Pearson correlation of actual vs estimated.
    pub correlation: f64,
    /// Mean absolute difference.
    pub mean_abs_diff: f64,
}

fn pearson(points: &[Point]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 1.0;
    }
    let mx = points.iter().map(|p| p.actual).sum::<f64>() / n;
    let my = points.iter().map(|p| p.estimated).sum::<f64>() / n;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for p in points {
        let (dx, dy) = (p.actual - mx, p.estimated - my);
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 1.0;
    }
    sxy / (sxx * syy).sqrt()
}

fn summarize(points: Vec<Point>) -> Scatter {
    let correlation = pearson(&points);
    let mean_abs_diff = if points.is_empty() {
        0.0
    } else {
        points.iter().map(|p| (p.actual - p.estimated).abs()).sum::<f64>()
            / points.len() as f64
    };
    Scatter { points, correlation, mean_abs_diff }
}

/// Draws `count` *random* subsets: uniformly sized within the support
/// range, rows sampled without replacement.
pub fn random_subsets(
    data: &Dataset,
    range: SupportRange,
    count: usize,
    seed: u64,
) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = data.num_rows();
    (0..count)
        .map(|_| {
            let frac = rng.gen_range(range.min.max(0.005)..range.max);
            let size = ((n as f64 * frac) as usize).max(1);
            let mut ids = data.all_row_ids();
            ids.shuffle(&mut rng);
            ids.truncate(size);
            ids.sort_unstable();
            ids
        })
        .collect()
}

/// Draws up to `count` *coherent* subsets: 1- and 2-literal predicates
/// whose support falls in the range, sampled uniformly from the lattice's
/// first two levels.
pub fn coherent_subsets(
    data: &Dataset,
    range: SupportRange,
    count: usize,
    seed: u64,
) -> Vec<(Predicate, Vec<u32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let level1 = level1_nodes(data, &[]);
    let level2 = expand_level(data, &level1, true).children;
    let n = data.num_rows();
    let mut eligible: Vec<(Predicate, Vec<u32>)> = level1
        .into_iter()
        .chain(level2)
        .filter(|nd| range.contains(nd.support(n)))
        .map(|nd| (nd.predicate, nd.rows.to_vec()))
        .collect();
    eligible.shuffle(&mut rng);
    eligible.truncate(count);
    eligible
}

/// Computes the scatter of estimated vs actual attribution for a batch of
/// row subsets, plus the *retrain noise floor*: the mean |ρ_A − ρ_B|
/// between two independent retrains, which bounds how well any exact
/// unlearning method can possibly agree with a single retrain draw.
fn scatter_for(
    prepared: &Prepared,
    subsets: &[Vec<u32>],
    metric: FairnessMetric,
) -> (Scatter, f64) {
    let forest = prepared.fit();
    let original = metric.bias(&forest, &prepared.test, prepared.group);
    if original <= f64::EPSILON {
        return (summarize(Vec::new()), 0.0);
    }
    let dare = AttributionEstimator::new(
        DareRemoval::new(&forest, &prepared.train),
        metric,
        &prepared.test,
        prepared.group,
        original,
        None,
    );
    let retrain = AttributionEstimator::new(
        RetrainRemoval::new(&prepared.train, prepared.forest_cfg.clone()),
        metric,
        &prepared.test,
        prepared.group,
        original,
        None,
    );
    let alt_cfg = prepared.forest_cfg.clone().with_seed(prepared.forest_cfg.seed ^ 0xABCD);
    let retrain_alt = AttributionEstimator::new(
        RetrainRemoval::new(&prepared.train, alt_cfg),
        metric,
        &prepared.test,
        prepared.group,
        original,
        None,
    );
    // Batch-evaluate through the same parallel path FUME uses.
    let dummy = Predicate::new(vec![]);
    let items: Vec<EvalItem<'_>> = subsets
        .iter()
        .map(|rows| EvalItem { predicate: &dummy, rows })
        .collect();
    use fume_lattice::BatchEvaluator as _;
    let estimated = dare.evaluate(&items);
    let actual = retrain.evaluate(&items);
    let actual_alt = retrain_alt.evaluate(&items);
    let noise_floor = if actual.is_empty() {
        0.0
    } else {
        actual
            .iter()
            .zip(&actual_alt)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / actual.len() as f64
    };
    let n = prepared.train.num_rows() as f64;
    let scatter = summarize(
        subsets
            .iter()
            .zip(actual)
            .zip(estimated)
            .map(|((rows, a), e)| Point {
                actual: a,
                estimated: e,
                support: rows.len() as f64 / n,
            })
            .collect(),
    );
    (scatter, noise_floor)
}

/// Regenerates Figure 3: random and coherent subset clouds on German
/// Credit with the predictive-parity metric and 5–15 % support. Returns a
/// markdown summary plus a CSV block of the points for plotting.
///
/// The estimator-vs-truth comparison needs *low model variance* — both
/// sides re-randomize tree structure, and with few trees that resampling
/// noise swamps the subset effects. The forest is therefore always run at
/// the paper's 100 trees for this experiment, regardless of scale.
pub fn run(scale: RunScale) -> String {
    let mut prepared = Prepared::new(&german_credit(), scale, SEED);
    prepared.forest_cfg = prepared.forest_cfg.with_trees(100).with_max_depth(10);
    let metric = FairnessMetric::PredictiveParity;
    let count = scale.fig3_subsets;

    let mut out = String::from(
        "## Figure 3: DaRE-estimated vs actual subset attribution (German, \
         predictive parity)\n\n\
         | Support range | Subset family | #subsets | Pearson r | mean |est − actual| | retrain noise floor |\n\
         |---|---|---|---|---|---|\n",
    );
    let mut csv = String::from("```csv\nrange,family,support,actual,estimated\n");

    for (label, range) in [("0-5%", SupportRange::small()), ("5-15%", SupportRange::medium())]
    {
        let random = random_subsets(&prepared.train, range, count, SEED + 1);
        let (random_scatter, random_floor) = scatter_for(&prepared, &random, metric);

        let coherent = coherent_subsets(&prepared.train, range, count, SEED + 2);
        let coherent_rows: Vec<Vec<u32>> =
            coherent.iter().map(|(_, rows)| rows.clone()).collect();
        let (coherent_scatter, coherent_floor) =
            scatter_for(&prepared, &coherent_rows, metric);

        for (family, sc, floor) in [
            ("random", &random_scatter, random_floor),
            ("coherent", &coherent_scatter, coherent_floor),
        ] {
            out.push_str(&format!(
                "| {} | {} | {} | {:.3} | {:.4} | {:.4} |\n",
                label,
                family,
                sc.points.len(),
                sc.correlation,
                sc.mean_abs_diff,
                floor,
            ));
            for p in &sc.points {
                csv.push_str(&format!(
                    "{label},{family},{:.4},{:.4},{:.4}\n",
                    p.support, p.actual, p.estimated
                ));
            }
        }
    }
    csv.push_str("```\n");

    out.push_str(
        "\nPaper shape (§5.1 + Figure 3): the unlearned model's fairness tracks \
         a true retrain — within the paper's own \"up to 25%\" envelope for \
         medium (5-15%) subsets. The *retrain noise floor* column is the mean \
         |ρ_A − ρ_B| between two independent retrains of the same surviving \
         data: when |est − actual| is at or below it, DaRE unlearning is \
         indistinguishable from an exact retrain draw, which is the strongest \
         checkable form of the paper's exactness claim.\n\n",
    );
    out.push_str(&csv);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_subsets_respect_support_range() {
        let p = Prepared::new(&german_credit(), RunScale::quick(), 7);
        let subsets = random_subsets(&p.train, SupportRange::medium(), 10, 7);
        assert_eq!(subsets.len(), 10);
        let n = p.train.num_rows() as f64;
        for s in &subsets {
            let sup = s.len() as f64 / n;
            assert!((0.004..=0.151).contains(&sup), "support {sup}");
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        }
    }

    #[test]
    fn coherent_subsets_are_predicates_in_range() {
        let p = Prepared::new(&german_credit(), RunScale::quick(), 8);
        let subs = coherent_subsets(&p.train, SupportRange::medium(), 15, 8);
        assert!(!subs.is_empty());
        for (pred, rows) in &subs {
            assert!(pred.len() <= 2);
            assert_eq!(rows, &pred.select(&p.train));
        }
    }

    #[test]
    fn pearson_of_identical_series_is_one() {
        let pts: Vec<Point> = (0..10)
            .map(|i| Point { actual: i as f64, estimated: i as f64, support: 0.1 })
            .collect();
        assert!((pearson(&pts) - 1.0).abs() < 1e-12);
    }
}
