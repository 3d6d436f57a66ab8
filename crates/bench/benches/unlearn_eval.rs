//! The unlearn-eval engine head-to-head: clone-per-eval (PR-1 shape)
//! vs scratch-pool + undo-journal rollback, on Adult-scale synthetic
//! data. Emits `BENCH_unlearn_eval.json` with the measured throughputs
//! and speedup; `scripts/verify.sh` runs the `--smoke` mode and fails
//! if the pooled path ever regresses below the clone baseline.
//!
//! ```text
//! cargo bench --bench unlearn_eval            # full Adult-scale run
//! cargo bench --bench unlearn_eval -- --smoke # small CI-gate run
//! ```

use std::time::Instant;

use fume_core::prelude::*;
use fume_fairness::FairnessMetric;
use fume_tabular::datasets::adult;
use fume_tabular::split::train_test_split;

struct Setup {
    mode: &'static str,
    train: Dataset,
    test: Dataset,
    group: GroupSpec,
    forest: DareForest,
    subsets: Vec<Vec<u32>>,
    rounds: usize,
}

fn setup(smoke: bool) -> Setup {
    let (mode, scale, trees, depth, n_subsets, rounds) =
        if smoke { ("smoke", 0.05, 30, 8, 8, 3) } else { ("full", 0.5, 50, 14, 30, 3) };
    let (data, group) = adult().generate_scaled(scale, 10).expect("generate");
    // A substantial held-out split, so the bias evaluation carries a
    // realistic share of the per-eval cost.
    let (train, test) = train_test_split(&data, 0.3, 10).expect("split");
    let cfg = DareConfig::default().with_trees(trees).with_max_depth(depth).with_seed(10);
    let forest = DareForest::fit(&train, cfg);
    // Small contiguous subsets spread across the id range — the regime of
    // deep lattice levels, where hundreds of narrow candidates are each
    // unlearned against the same deployed forest.
    let n = train.num_rows() as u32;
    let subsets: Vec<Vec<u32>> = (0..n_subsets as u32)
        .map(|i| {
            let size = (n / 2000).max(4) + (i % 4) * 2;
            let start = (i * (n / n_subsets as u32)).min(n - size - 1);
            (start..start + size).collect()
        })
        .collect();
    Setup { mode, train, test, group, forest, subsets, rounds }
}

/// Runs every subset through `removal` (delete → bias → restore), for
/// `rounds` repetitions; returns the ρ-determining bias vector of the
/// last round and the best round's wall-clock seconds.
fn run_path<R: RemovalMethod>(removal: R, s: &Setup) -> (Vec<f64>, f64) {
    let metric = FairnessMetric::StatisticalParity;
    removal.warm(1);
    let mut best = f64::INFINITY;
    let mut biases = Vec::new();
    for _ in 0..s.rounds {
        let t0 = Instant::now();
        let out: Vec<f64> = s
            .subsets
            .iter()
            .map(|subset| {
                removal.with_removed(subset, |m| metric.bias(m, &s.test, s.group))
            })
            .collect();
        best = best.min(t0.elapsed().as_secs_f64());
        biases = out;
    }
    (biases, best)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // `FUME_TRACE=<path>`: record the whole head-to-head as a JSONL trace,
    // so `fume-trace diff` can gate two runs against each other.
    let trace_path = std::env::var("FUME_TRACE").ok().filter(|p| !p.is_empty());
    if trace_path.is_some() {
        let rec = fume_obs::install();
        rec.reset();
        rec.set_meta("bench", "unlearn_eval");
        rec.set_meta("mode", if smoke { "smoke" } else { "full" });
    }
    let s = setup(smoke);
    let evals = s.subsets.len();

    let (clone_biases, clone_secs) = run_path(DareCloneRemoval::new(&s.forest, &s.train), &s);
    let (pool_biases, pool_secs) = run_path(DareRemoval::new(&s.forest, &s.train), &s);

    // The engines must agree bit-for-bit before their speed is comparable.
    assert_eq!(clone_biases.len(), pool_biases.len());
    for (a, b) in clone_biases.iter().zip(&pool_biases) {
        assert_eq!(a.to_bits(), b.to_bits(), "pool and clone paths diverged");
    }

    let clone_tput = evals as f64 / clone_secs;
    let pool_tput = evals as f64 / pool_secs;
    let speedup = clone_secs / pool_secs;

    println!(
        "unlearn_eval ({} · {} rows · {} test rows · {} trees · {evals} evals/round · {} rounds)",
        s.mode,
        s.train.num_rows(),
        s.test.num_rows(),
        s.forest.config().n_trees,
        s.rounds
    );
    println!("  clone-per-eval   {clone_secs:>9.3}s   {clone_tput:>8.1} evals/s");
    println!("  pool+rollback    {pool_secs:>9.3}s   {pool_tput:>8.1} evals/s");
    println!("  speedup          {speedup:>9.2}x (pool vs clone)");

    let json = format!(
        "{{\"bench\":\"unlearn_eval\",\"mode\":\"{}\",\"rows\":{},\"trees\":{},\
         \"evals_per_round\":{evals},\"rounds\":{},\
         \"clone_per_eval_secs\":{clone_secs:.6},\"pool_rollback_secs\":{pool_secs:.6},\
         \"clone_evals_per_sec\":{clone_tput:.3},\"pool_evals_per_sec\":{pool_tput:.3},\
         \"speedup\":{speedup:.3}}}\n",
        s.mode,
        s.train.num_rows(),
        s.forest.config().n_trees,
        s.rounds
    );
    // `cargo bench` sets the executable's CWD to the package directory;
    // anchor the output at the workspace root instead.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_unlearn_eval.json");
    std::fs::write(out, json).expect("write BENCH_unlearn_eval.json");
    eprintln!("wrote BENCH_unlearn_eval.json");

    if let (Some(path), Some(rec)) = (trace_path, fume_obs::global()) {
        // Like the BENCH json: `cargo bench` runs with the package as CWD,
        // so anchor relative paths at the workspace root.
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let dest = root.join(&path);
        std::fs::write(&dest, rec.events_to_jsonl()).expect("write FUME_TRACE file");
        eprintln!("wrote trace to {path}");
    }
}
