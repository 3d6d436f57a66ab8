//! Golden explain reports: for seeded generated members, the FNV-1a hash
//! of [`FumeReport::to_json`] must equal the value pinned below.
//!
//! The JSON report holds everything a run computes (top-k, every
//! evaluated subset with its rows and ρ, per-level statistics, the
//! original bias) and no timings, so one changed row id, ρ bit or pruning
//! count anywhere in the lattice changes the hash. The members cover
//! what the lattice join does on real shapes: Adult and German at the
//! paper's default support with η = 2 (level 1→2 joins of one prefix
//! group), ACS at 0.5–2% support (many oversized parents, small
//! children), and one η = 3 run with range literals, so redundancy
//! pruning and the level 2→3 prefix groups run too.
//!
//! On a mismatch the failure message prints the table as observed, in
//! the source form of [`GOLDEN`]. Re-pin it only in a change that
//! deliberately alters the reports, and say so.

use fume::core::{ExplainRequest, Fume, FumeConfig};
use fume::forest::DareConfig;
use fume::lattice::{LiteralGen, SupportRange};
use fume::obs::hash::fnv1a;
use fume::tabular::datasets::{acs_income, adult, german_credit, PaperDataset};
use fume::tabular::split::train_test_split;

/// One member: name, generator, scale, trees, support range, η, literal
/// generation and seed.
struct Member {
    name: &'static str,
    dataset: fn() -> PaperDataset,
    scale: f64,
    trees: usize,
    support: (f64, f64),
    eta: usize,
    literals: LiteralGen,
    seed: u64,
}

const MEMBERS: &[Member] = &[
    Member { name: "adult", dataset: adult, scale: 0.03, trees: 20, support: (0.05, 0.15), eta: 2, literals: LiteralGen::EqOnly, seed: 41 },
    Member { name: "adult", dataset: adult, scale: 0.03, trees: 20, support: (0.05, 0.15), eta: 2, literals: LiteralGen::EqOnly, seed: 42 },
    Member { name: "german", dataset: german_credit, scale: 0.2, trees: 5, support: (0.05, 0.15), eta: 2, literals: LiteralGen::EqOnly, seed: 41 },
    Member { name: "german", dataset: german_credit, scale: 0.2, trees: 5, support: (0.05, 0.15), eta: 2, literals: LiteralGen::EqOnly, seed: 42 },
    Member { name: "acs", dataset: acs_income, scale: 0.01, trees: 5, support: (0.005, 0.02), eta: 2, literals: LiteralGen::EqOnly, seed: 41 },
    Member { name: "german_ranges", dataset: german_credit, scale: 0.2, trees: 5, support: (0.05, 0.30), eta: 3, literals: LiteralGen::WithRanges, seed: 41 },
];

/// Member name, seed and the hash of its JSON report, in [`MEMBERS`] order.
type Row = (&'static str, u64, u64);

const GOLDEN: &[Row] = &[
    ("adult", 41, 0xd488f82d496d1e8b),
    ("adult", 42, 0x799491fa27506346),
    ("german", 41, 0x50ede008bede94e0),
    ("german", 42, 0x23661659693c0e1d),
    ("acs", 41, 0x6bbd2e8e898cbb7e),
    ("german_ranges", 41, 0xce18c28d643a259d),
];

#[test]
fn reports_match_their_golden_hashes() {
    let mut observed: Vec<Row> = Vec::new();
    for m in MEMBERS {
        let (data, group) = (m.dataset)().generate_scaled(m.scale, m.seed).unwrap();
        let (train, test) = train_test_split(&data, 0.3, m.seed).unwrap();
        let forest = DareConfig::default()
            .with_trees(m.trees)
            .with_max_depth(10)
            .with_seed(m.seed)
            .with_jobs(1);
        let config = FumeConfig::default()
            .with_forest(forest)
            .with_support(SupportRange::new(m.support.0, m.support.1).unwrap())
            .with_max_literals(m.eta)
            .with_literal_gen(m.literals)
            .with_jobs(2);
        let report = Fume::new(config).run(&ExplainRequest::new(&train, &test, group)).unwrap();
        assert!(!report.top_k.is_empty(), "{} seed {}: nothing explained", m.name, m.seed);
        if m.eta == 3 {
            // The member must reach what it is here for.
            let level3 = report.levels.get(2).expect("the search reaches level 3");
            assert!(level3.possible > 0, "no level 2→3 joins");
            let redundant: usize = report.levels.iter().map(|l| l.pruned_redundant).sum();
            assert!(redundant > 0, "redundancy pruning never fired");
        }
        observed.push((m.name, m.seed, fnv1a(report.to_json().as_bytes())));
    }

    if observed.as_slice() != GOLDEN {
        let mut table = String::from("const GOLDEN: &[Row] = &[\n");
        for (name, seed, hash) in &observed {
            table.push_str(&format!("    (\"{name}\", {seed}, {hash:#018x}),\n"));
        }
        table.push_str("];\n");
        let first_diff = observed
            .iter()
            .zip(GOLDEN)
            .find(|(o, g)| o != g)
            .map_or("the table length".to_string(), |((name, seed, _), _)| {
                format!("{name} seed {seed}")
            });
        panic!("report hashes changed, first at {first_diff}; observed:\n{table}");
    }
}
