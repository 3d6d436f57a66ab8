//! The four workloads and the inputs each run builds from its seed.
//!
//! A run explains a *stream* of models: the run seed derives one seed per
//! stream member, and each member gets its own generated dataset, split
//! and forest. Explain cost differs by up to 2.3x between seeds of one
//! generator (the lattice follows the data), so a run that explained one
//! model, or the same few models again and again, would make the
//! run-to-run spread a property of the seed rather than of the code;
//! every measured explain being of a new member averages the seed effect
//! out with the host's. README.md records why each workload exists and
//! what it should move.

use fume_core::{ExplainRequest, FumeConfig};
use fume_fairness::FairnessMetric;
use fume_forest::{DareConfig, DareForest};
use fume_lattice::SupportRange;
use fume_obs::clock::Stopwatch;
use fume_tabular::datasets::{acs_income, adult, german_credit, PaperDataset};
use fume_tabular::rng::{Rng, SeedableRng, SliceRandom, StdRng};
use fume_tabular::split::train_test_split;
use fume_tabular::{Dataset, GroupSpec};

use crate::probe::Deployed;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["adult_default", "german_wide", "acs_narrow", "serve_mixed"];

/// Worker threads of a batch explain (`FumeConfig::n_jobs`); forests
/// themselves fit and unlearn on one thread, so exactly this many
/// threads work at a time. Sized for a 2-core machine.
pub const EXPLAIN_JOBS: usize = 2;

/// The metric the batch workloads explain.
pub const BATCH_METRIC: FairnessMetric = FairnessMetric::StatisticalParity;

/// The serve workload's per-request overrides: two fairness metrics
/// crossed with six overlapping support ranges. Overrides of one metric
/// share cached ρ values for the subsets their ranges have in common.
/// Predictive parity and equal opportunity are left out: on test sets of
/// a few hundred rows, a few models in a thousand show no violation of
/// them at all, and such a request fails.
pub const SERVE_METRICS: [FairnessMetric; 2] = [
    FairnessMetric::StatisticalParity,
    FairnessMetric::EqualizedOdds,
];
/// See [`SERVE_METRICS`].
pub const SERVE_SUPPORTS: [(f64, f64); 6] = [
    (0.05, 0.15),
    (0.03, 0.10),
    (0.05, 0.25),
    (0.10, 0.30),
    (0.02, 0.08),
    (0.08, 0.20),
];

/// How a workload drives the library.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Repeated `Fume::run` calls with a prebuilt forest, statistical
    /// parity at η = 2 over `support`.
    Batch {
        /// Rule 2's support range.
        support: (f64, f64),
    },
    /// Fresh `fume_serve::Engine` sessions, each answering `requests`
    /// closed-loop requests: a fixed Zipf(s = 1) mix of the twelve
    /// overrides in a seeded order.
    Serve {
        /// Requests per session.
        requests: usize,
    },
}

/// One workload at one size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Its name on the command line and in the ledger.
    pub name: &'static str,
    /// The paper dataset generator.
    pub dataset: fn() -> PaperDataset,
    /// Rows as a share of the dataset's published size.
    pub scale: f64,
    /// Trees per forest.
    pub trees: usize,
    /// Maximum tree depth.
    pub depth: usize,
    /// How the library is driven.
    pub shape: Shape,
}

impl Workload {
    /// The fairness metrics the workload explains.
    pub fn metrics(&self) -> &'static [FairnessMetric] {
        match self.shape {
            Shape::Batch { .. } => &[BATCH_METRIC],
            Shape::Serve { .. } => &SERVE_METRICS,
        }
    }
}

/// The workload `name` at full or smoke size.
pub fn find(name: &str, smoke: bool) -> Option<Workload> {
    let name: &'static str = NAMES.iter().find(|&&n| n == name)?;
    let batch = |support| Shape::Batch { support };
    let w = |name, dataset, scale, trees, shape| Workload {
        name,
        dataset,
        scale,
        trees,
        depth: if smoke { 4 } else { 10 },
        shape,
    };
    let full = !smoke;
    Some(match name {
        "adult_default" if full => w(name, adult, 0.03, 20, batch((0.05, 0.15))),
        "adult_default" => w(name, adult, 0.005, 3, batch((0.05, 0.15))),
        "german_wide" if full => w(name, german_credit, 1.0, 5, batch((0.05, 0.15))),
        "german_wide" => w(name, german_credit, 0.2, 2, batch((0.05, 0.15))),
        "acs_narrow" if full => w(name, acs_income, 0.05, 20, batch((0.005, 0.02))),
        "acs_narrow" => w(name, acs_income, 0.002, 3, batch((0.005, 0.02))),
        "serve_mixed" if full => w(name, adult, 0.02, 5, Shape::Serve { requests: 120 }),
        "serve_mixed" => w(name, adult, 0.005, 3, Shape::Serve { requests: 12 }),
        _ => return None,
    })
}

/// One stream member: a generated split and the forest deployed on it.
#[derive(Debug)]
pub struct Member {
    /// Training split (70%).
    pub train: Dataset,
    /// Test split (30%).
    pub test: Dataset,
    /// The protected group.
    pub group: GroupSpec,
    /// The deployed forest, fitted on `train`.
    pub forest: DareForest,
}

impl Member {
    /// An explain request for the member's deployed forest.
    pub fn request(&self) -> ExplainRequest<'_> {
        ExplainRequest::new(&self.train, &self.test, self.group).with_model(&self.forest)
    }

    /// The member's deployed model and data, as the probes take them.
    pub fn deployed(&self) -> Deployed<'_> {
        Deployed {
            forest: &self.forest,
            train: &self.train,
            test: &self.test,
            group: self.group,
        }
    }
}

/// Wall time of setting one member up, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Dataset generation.
    pub generate_s: f64,
    /// Forest fitting.
    pub fit_s: f64,
    /// Generate + split + fit (+ engine construction for serve).
    pub total_s: f64,
}

/// The member seeds of a run: an endless stream derived from the run seed.
pub fn member_seeds(seed: u64) -> impl Iterator<Item = u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    std::iter::repeat_with(move || rng.next_u64())
}

/// The forest hyperparameters of a member.
pub fn forest_config(w: &Workload, member_seed: u64) -> DareConfig {
    DareConfig::default()
        .with_trees(w.trees)
        .with_max_depth(w.depth)
        .with_seed(member_seed)
        .with_jobs(1)
}

/// The batch explain configuration (statistical parity, η = 2, top-5).
pub fn batch_config(support: (f64, f64), forest: &DareForest) -> FumeConfig {
    FumeConfig::default()
        .with_metric(BATCH_METRIC)
        .with_support(SupportRange::new(support.0, support.1).expect("static support range"))
        .with_forest(forest.config().clone())
        .with_jobs(EXPLAIN_JOBS)
}

/// Generates, splits and fits the member with seed `member_seed`.
pub fn build_member(w: &Workload, member_seed: u64) -> (Member, SetupTimes) {
    let total = Stopwatch::start();
    let t = Stopwatch::start();
    let (data, group) = (w.dataset)()
        .generate_scaled(w.scale, member_seed)
        .expect("generator spec is valid");
    let generate_s = t.elapsed().as_secs_f64();
    let (train, test) = train_test_split(&data, 0.3, member_seed).expect("dataset is non-empty");
    let t = Stopwatch::start();
    let forest = DareForest::fit(&train, forest_config(w, member_seed));
    let fit_s = t.elapsed().as_secs_f64();
    let times = SetupTimes {
        generate_s,
        fit_s,
        total_s: total.elapsed().as_secs_f64(),
    };
    (
        Member {
            train,
            test,
            group,
            forest,
        },
        times,
    )
}

/// Sets up the next member of `seeds` whose model violates every metric
/// the workload explains, and returns its seed with it. A model without
/// a violation has nothing to explain, so it is not an input of the
/// workload (about one German model in a thousand shows exactly no
/// statistical-parity bias); the set-up times are those of the member
/// returned.
pub fn next_member(
    w: &Workload,
    seeds: &mut impl Iterator<Item = u64>,
) -> (u64, Member, SetupTimes) {
    loop {
        let seed = seeds.next().expect("the seed stream is endless");
        let (m, times) = build_member(w, seed);
        if w.metrics()
            .iter()
            .all(|metric| metric.bias(&m.forest, &m.test, m.group) > f64::EPSILON)
        {
            return (seed, m, times);
        }
    }
}

/// The serve request stream: `n` indices into the twelve overrides in a
/// seeded order, with a fixed Zipf(s = 1) mix — override `i` gets its
/// largest-remainder share of `n` by weight `1 / (i + 1)`, and at least
/// one request. Fixing the mix keeps every override cold exactly once per
/// session, so the cold work a session does is the same for every seed.
pub fn request_stream(seed: u64, n: usize) -> Vec<usize> {
    let k = SERVE_METRICS.len() * SERVE_SUPPORTS.len();
    assert!(
        n >= k,
        "a session must request every override at least once"
    );
    let weights: Vec<f64> = (0..k).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let quota: Vec<f64> = weights.iter().map(|w| n as f64 * w / total).collect();
    let mut counts: Vec<usize> = quota.iter().map(|q| (q.floor() as usize).max(1)).collect();
    while counts.iter().sum::<usize>() < n {
        let short = (0..k)
            .max_by(|&a, &b| {
                (quota[a] - counts[a] as f64).total_cmp(&(quota[b] - counts[b] as f64))
            })
            .expect("twelve overrides");
        counts[short] += 1;
    }
    let mut stream: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect();
    stream.shuffle(&mut StdRng::seed_from_u64(seed));
    stream
}

/// Override `i` of the serve workload as `(metric, support)`.
pub fn serve_override(i: usize) -> (FairnessMetric, (f64, f64)) {
    (
        SERVE_METRICS[i / SERVE_SUPPORTS.len()],
        SERVE_SUPPORTS[i % SERVE_SUPPORTS.len()],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_at_both_sizes() {
        for name in NAMES {
            assert!(find(name, false).is_some(), "{name}");
            assert!(find(name, true).is_some(), "{name} smoke");
        }
        assert!(find("nope", false).is_none());
    }

    #[test]
    fn seeds_drive_inputs_deterministically() {
        let first4 = |seed| member_seeds(seed).take(4).collect::<Vec<_>>();
        assert_eq!(first4(7), first4(7));
        assert_ne!(first4(7), first4(8));
        assert_eq!(request_stream(3, 50), request_stream(3, 50));
        assert_ne!(request_stream(3, 50), request_stream(4, 50));
    }

    #[test]
    fn request_stream_has_a_fixed_zipf_mix() {
        let count = |s: &[usize], i| s.iter().filter(|&&x| x == i).count();
        let a = request_stream(1, 120);
        let b = request_stream(2, 120);
        assert_eq!(a.len(), 120);
        for i in 0..12 {
            assert_eq!(count(&a, i), count(&b, i), "override {i}");
            assert!(count(&a, i) >= 1);
        }
        // Weight 1 : 1/2 : 1/12 of 120 requests over H(12) ≈ 3.10.
        assert_eq!((count(&a, 0), count(&a, 1), count(&a, 11)), (39, 19, 3));
    }

    #[test]
    fn members_without_a_violation_are_skipped() {
        // This German member's deployed model shows exactly no
        // statistical-parity bias, so explaining it would fail.
        const NO_VIOLATION: u64 = 5_442_330_324_322_636_693;
        let w = find("german_wide", false).unwrap();
        let (m, _) = build_member(&w, NO_VIOLATION);
        assert!(BATCH_METRIC.bias(&m.forest, &m.test, m.group) <= f64::EPSILON);
        let (seed, m, _) = next_member(&w, &mut [NO_VIOLATION, 7].into_iter());
        assert_eq!(seed, 7);
        assert!(BATCH_METRIC.bias(&m.forest, &m.test, m.group) > f64::EPSILON);
    }
}
