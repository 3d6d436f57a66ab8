//! Batch workloads: `Fume::run` calls on a stream of prebuilt forests,
//! the way a library user explains a deployed model.

use fume_core::{parity_reduction, DareCloneRemoval, Fume, FumeReport, RemovalMethod, RemovalSpec};
use fume_fairness::FairnessMetric;
use fume_obs::clock::Stopwatch;

use crate::ledger::Report;
use crate::probe::{self, Deployed, Replay, Timed, TracedExplain};
use crate::workload::{self, Workload, EXPLAIN_JOBS};
use crate::{os, stats, RunOpts, TRACED_MEMBERS};

/// Re-derives each top-k ρ of `report` by cloning the deployed forest,
/// deleting the subset and measuring the full bias: the reference path,
/// independent of the scratch pool and the incremental bias. Returns the
/// number of top-k subsets whose ρ differs in any bit.
pub fn top_k_mismatches(at: &Deployed<'_>, metric: FairnessMetric, report: &FumeReport) -> usize {
    let clone = DareCloneRemoval::new(at.forest, at.train);
    report
        .top_k
        .iter()
        .filter(|s| {
            let bias = clone.with_removed(&s.rows, |m| metric.bias(m, at.test, at.group));
            parity_reduction(report.original_bias, bias).to_bits() != s.parity_reduction.to_bits()
        })
        .count()
}

/// A member explained in the window and kept for the later checks.
struct Explained {
    seed: u64,
    report: FumeReport,
    wall_s: f64,
}

/// Runs one batch workload for `opts.seconds` and reports its metrics.
pub fn run(w: &Workload, support: (f64, f64), opts: &RunOpts) -> Report {
    let mut rep = Report::default();
    let metric = workload::BATCH_METRIC;

    // The window: each member is set up from the next seed and explained
    // once. Its top-k is re-derived independently (untimed); the first
    // few members are kept for the repeat check and the traced pass.
    let mut seeds = workload::member_seeds(opts.seed);
    let (mut setups, mut wall, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept: Vec<Explained> = Vec::new();
    let window = Stopwatch::start();
    while opts.another(wall.len(), window.elapsed().as_secs_f64()) {
        let (seed, m, times) = workload::next_member(w, &mut seeds);
        setups.push(times);
        let fume = Fume::new(workload::batch_config(support, &m.forest));
        let cpu0 = os::cpu_seconds();
        let sw = Stopwatch::start();
        let out = fume.run(&m.request());
        let wall_s = sw.elapsed().as_secs_f64();
        cpu.push(os::cpu_seconds() - cpu0);
        wall.push(wall_s);
        match out {
            Err(e) => rep.attempt(false, || format!("{}: member {seed}: {e}", w.name)),
            Ok(report) => {
                let bad = top_k_mismatches(&m.deployed(), metric, &report);
                rep.attempt(bad == 0, || {
                    format!("{}: member {seed}: {bad} top-k ρ differ", w.name)
                });
                if kept.len() < TRACED_MEMBERS {
                    kept.push(Explained {
                        seed,
                        report,
                        wall_s,
                    });
                }
            }
        }
    }
    rep.set("peak_rss_mb", os::peak_rss_mb(), "MB", 1);
    crate::setup_metrics(&mut rep, &setups);
    rep.set("explain_s", stats::median(&wall), "s", wall.len());
    rep.set("explain_cpu_s", stats::median(&cpu), "s", cpu.len());
    rep.tail(
        "core.explain_ms.tail",
        &wall.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    // A batch workload has no engine, so its serve-layer counters are 0.
    rep.pct("serve.cache_hit_pct", 0.0, 0.0, 0);
    rep.count("serve.jobs_failed", 0.0, 0);
    rep.count("serve.busy_rejections", 0.0, 0);

    // A second rep of the first member, set up again from its seed, must
    // report byte for byte what the first did.
    if let Some(first) = kept.first() {
        let (m, _) = workload::build_member(w, first.seed);
        let again = Fume::new(workload::batch_config(support, &m.forest)).run(&m.request());
        let same = again.is_ok_and(|r| r.to_json() == first.report.to_json());
        rep.attempt(same, || {
            format!("{}: member {}: a second rep differs", w.name, first.seed)
        });
    }

    if opts.traced {
        traced(w, support, opts, &kept, &mut rep);
    }
    rep
}

/// The traced pass: every kept member is set up again, explained once
/// more through the timing wrapper, and its evaluated subsets replayed;
/// the first also runs one checkpointed explain to probe.
fn traced(w: &Workload, support: (f64, f64), opts: &RunOpts, kept: &[Explained], rep: &mut Report) {
    let samples = probe::eval_samples();
    let mut explains = Vec::new();
    let mut replay = Replay::default();
    let (mut traced_ms, mut untraced_ms) = (0.0, 0.0);
    for (i, k) in kept.iter().enumerate() {
        let (m, _) = workload::build_member(w, k.seed);
        let fume = Fume::new(workload::batch_config(support, &m.forest));
        let before = samples.lock().len();
        let timed = Timed::new(&m.forest, &m.train, &samples);
        let request = m.request().with_removal(RemovalSpec::Shared(&timed));
        let sw = Stopwatch::start();
        let out = fume.run(&request);
        let wall_ms = sw.elapsed().as_secs_f64() * 1e3;
        let executed = samples.lock().len() - before;
        match out {
            Ok(r) if r.to_json() == k.report.to_json() => {
                rep.attempt(true, String::new);
                explains.push(TracedExplain::new(&r, wall_ms, executed, EXPLAIN_JOBS));
                traced_ms += wall_ms;
                untraced_ms += k.wall_s * 1e3;
            }
            _ => rep.attempt(false, || {
                format!("{}: member {}: traced report differs", w.name, k.seed)
            }),
        }
        replay.run(&m.deployed(), workload::BATCH_METRIC, &[&k.report]);
        if i == 0 {
            let config = workload::batch_config(support, &m.forest);
            probe::checkpointed(rep, w.name, config, &m.request(), &opts.work_dir);
        }
    }
    let eval_ms = samples.lock().clone();
    probe::explain_layers(rep, &explains, &eval_ms);
    rep.pct(
        "trace.overhead_pct",
        traced_ms - untraced_ms,
        untraced_ms,
        explains.len(),
    );
    replay.report(rep, w.name);
}
