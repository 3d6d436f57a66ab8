//! Reference walk vs the production kernel: full ensemble prediction
//! passes over an Adult-scale test set through `DareForest::predict_proba`
//! (the blocked 8-lane kernel on the forest's live hot arrays, the only
//! production path) and through `DareForest::predict_proba_reference`
//! (the branching per-row walk every fast path must match). Emits
//! `BENCH_predict.json`; `scripts/verify.sh` runs the `--smoke` mode and
//! fails if the kernel regresses below 1.5x over the reference walk. The
//! two must agree bitwise before their speed is comparable — the bench
//! asserts full-vector bit equality first, in release mode (the
//! comparison here *is* the `FUME_DEEPCHECK` check, at bench scale).
//!
//! ```text
//! cargo bench --bench predict_kernel            # full Adult-scale run
//! cargo bench --bench predict_kernel -- --smoke # small CI-gate run
//! ```

use std::time::Instant;

use fume_forest::{DareConfig, DareForest};
use fume_tabular::datasets::adult;
use fume_tabular::split::train_test_split;
use fume_tabular::{Classifier, Dataset};

struct Setup {
    mode: &'static str,
    test: Dataset,
    forest: DareForest,
    /// Full passes per timed round: smoke-scale single passes are
    /// sub-millisecond, so each round times a batch and reports
    /// per-pass seconds — otherwise the gate compares timer noise.
    passes: usize,
    rounds: usize,
}

fn setup(smoke: bool) -> Setup {
    let (mode, scale, trees, depth, passes, rounds) =
        if smoke { ("smoke", 0.05, 30, 8, 30, 5) } else { ("full", 0.5, 50, 14, 5, 5) };
    let (data, _) = adult().generate_scaled(scale, 11).expect("generate");
    let (train, test) = train_test_split(&data, 0.3, 11).expect("split");
    let cfg = DareConfig::default().with_trees(trees).with_max_depth(depth).with_seed(11);
    let forest = DareForest::fit(&train, cfg);
    Setup { mode, test, forest, passes, rounds }
}

/// Best-of-rounds per-pass seconds for `f`, which runs one full pass.
fn time_passes(passes: usize, rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..passes {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / passes as f64);
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trace_path = std::env::var("FUME_TRACE").ok().filter(|p| !p.is_empty());
    if trace_path.is_some() {
        let rec = fume_obs::install();
        rec.reset();
        rec.set_meta("bench", "predict_kernel");
        rec.set_meta("mode", if smoke { "smoke" } else { "full" });
    }
    let s = setup(smoke);
    let rows = s.test.num_rows();
    let trees = s.forest.config().n_trees;

    // Bitwise equivalence before any speed claim: every row of the
    // kernel's output must carry the exact bits of the reference walk.
    let reference = s.forest.predict_proba_reference(&s.test);
    let kernel = s.forest.predict_proba(&s.test);
    for (row, (a, b)) in kernel.iter().zip(&reference).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "the kernel diverged from the reference walk at row {row}"
        );
    }

    let reference_secs = time_passes(s.passes, s.rounds, || {
        std::hint::black_box(s.forest.predict_proba_reference(&s.test));
    });
    let kernel_secs = time_passes(s.passes, s.rounds, || {
        std::hint::black_box(s.forest.predict_proba(&s.test));
    });

    let speedup = reference_secs / kernel_secs;
    let reference_rps = rows as f64 / reference_secs;
    let kernel_rps = rows as f64 / kernel_secs;
    let slots: usize = s.forest.trees().iter().map(|t| t.store().len()).sum();

    println!(
        "predict_kernel ({} · {rows} test rows · {trees} trees · {slots} slots · {} passes/round · {} rounds)",
        s.mode, s.passes, s.rounds
    );
    println!("  reference walk {:>12.6}s/pass   {reference_rps:>12.0} rows/s", reference_secs);
    println!("  kernel         {:>12.6}s/pass   {kernel_rps:>12.0} rows/s", kernel_secs);
    println!("  speedup        {speedup:>12.2}x (kernel vs reference walk)");

    let json = format!(
        "{{\"bench\":\"predict\",\"mode\":\"{}\",\"rows\":{rows},\"trees\":{trees},\
         \"passes_per_round\":{},\"rounds\":{},\
         \"reference_secs\":{reference_secs:.9},\"kernel_secs\":{kernel_secs:.9},\
         \"reference_rows_per_sec\":{reference_rps:.0},\"kernel_rows_per_sec\":{kernel_rps:.0},\
         \"speedup\":{speedup:.3}}}\n",
        s.mode, s.passes, s.rounds
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_predict.json");
    std::fs::write(out_path, json).expect("write BENCH_predict.json");
    eprintln!("wrote BENCH_predict.json");

    if let (Some(path), Some(rec)) = (trace_path, fume_obs::global()) {
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let dest = root.join(&path);
        std::fs::write(&dest, rec.events_to_jsonl()).expect("write FUME_TRACE file");
        eprintln!("wrote trace to {path}");
    }
}
