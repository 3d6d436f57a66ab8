//! The serve workload: fresh `fume_serve::Engine` sessions answering a
//! closed-loop Zipf request stream, the way a resident explain service
//! is used.

use std::collections::BTreeMap;

use fume_core::{ExplainRequest, Fume, FumeConfig, FumeReport, RemovalSpec};
use fume_lattice::SupportRange;
use fume_obs::clock::Stopwatch;
use fume_serve::{Engine, EngineOptions, EngineStats, ExplainOverrides, JobReply};
use fume_tabular::workers;

use crate::batch::top_k_mismatches;
use crate::ledger::Report;
use crate::probe::{self, Deployed, Replay, Timed, TracedExplain};
use crate::workload::{self, Member, Workload, SERVE_METRICS};
use crate::{os, stats, RunOpts, TRACED_MEMBERS};

/// Closed-loop clients; each waits for its reply before sending again.
const CLIENTS: usize = 2;

/// Engine layout for a 2-core machine: two workers, one eval thread per
/// job, forests unlearning on one thread, the default cache. No
/// checkpoint root: with one, every job persists and reloads the whole
/// forest before its search, which puts file-system latency into every
/// cache-warm request (see README.md); checkpoint costs are probed by the
/// traced pass instead.
fn engine_options() -> EngineOptions {
    EngineOptions {
        workers: 2,
        queue_depth: 16,
        job_jobs: 1,
        cache_capacity: 4096,
        checkpoint_root: None,
    }
}

fn base_config(m: &Member) -> FumeConfig {
    FumeConfig::default().with_forest(m.forest.config().clone())
}

fn new_engine(m: &Member) -> Engine {
    let (train, test, forest) = (m.train.clone(), m.test.clone(), m.forest.clone());
    Engine::with_forest(
        base_config(m),
        train,
        test,
        m.group,
        forest,
        engine_options(),
    )
    .expect("engine over a non-empty split")
}

fn overrides(i: usize) -> ExplainOverrides {
    let (metric, support) = workload::serve_override(i);
    ExplainOverrides {
        metric: Some(metric),
        support: Some(support),
        ..ExplainOverrides::default()
    }
}

/// What one engine session served.
struct Session {
    cpu_s: f64,
    /// `(override, latency ms, reply)` per request, in stream order.
    replies: Vec<(usize, f64, Result<FumeReport, String>)>,
    stats: EngineStats,
}

fn session(engine: &Engine, stream: &[usize]) -> Session {
    let cpu0 = os::cpu_seconds();
    let per_client = engine.serve(|h| {
        let clients: Vec<usize> = (0..CLIENTS).collect();
        workers::parallel_map(&clients, CLIENTS, |&c| {
            (c..stream.len())
                .step_by(CLIENTS)
                .map(|i| {
                    let t = Stopwatch::start();
                    let submitted = h.explain(overrides(stream[i]));
                    // fume-lint: allow(F009) -- Ticket::wait is not a condvar wait; it re-checks the slot under a loop internally
                    let outcome = submitted.and_then(|ticket| ticket.wait());
                    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                    let reply = match outcome {
                        Ok(JobReply::Report(r)) => Ok(r),
                        Ok(JobReply::Stats(_)) => Err("stats reply to an explain".to_string()),
                        Err(e) => Err(e.to_string()),
                    };
                    (i, latency_ms, reply)
                })
                .collect::<Vec<_>>()
        })
    });
    let cpu_s = os::cpu_seconds() - cpu0;
    let mut replies: Vec<_> = per_client.into_iter().flatten().collect();
    replies.sort_by_key(|r| r.0);
    let replies = replies
        .into_iter()
        .map(|(i, l, r)| (stream[i], l, r))
        .collect();
    Session {
        cpu_s,
        replies,
        stats: engine.stats(),
    }
}

/// The first reply to every override a session served, by override.
type References = BTreeMap<usize, (FumeReport, String)>;

/// A member served in the window and kept for the later checks.
struct Kept {
    seed: u64,
    refs: References,
}

/// Runs the serve workload for `opts.seconds` and reports its metrics.
pub fn run(w: &Workload, requests: usize, opts: &RunOpts) -> Report {
    let mut rep = Report::default();
    let mut seeds = workload::member_seeds(opts.seed);
    let (mut setups, mut latencies, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut lookups, mut jobs_failed, mut busy) = (0u64, 0u64, 0u64, 0u64);
    let mut kept: Vec<Kept> = Vec::new();
    let window = Stopwatch::start();
    while opts.another(cpu.len(), window.elapsed().as_secs_f64()) {
        // Each session serves a new member from a fresh engine, so its
        // cache starts cold.
        let (seed, m, mut times) = workload::next_member(w, &mut seeds);
        let sw = Stopwatch::start();
        let engine = new_engine(&m);
        times.total_s += sw.elapsed().as_secs_f64();
        setups.push(times);
        let s = session(&engine, &workload::request_stream(seed, requests));
        cpu.push(s.cpu_s / requests as f64);
        hits += s.stats.cache.hits;
        lookups += s.stats.cache.hits + s.stats.cache.misses;
        jobs_failed += s.stats.jobs_failed;
        busy += s.stats.busy_rejections;
        let at = Deployed {
            forest: engine.forest(),
            ..m.deployed()
        };
        let mut refs = References::new();
        for (ov, latency_ms, reply) in s.replies {
            latencies.push(latency_ms);
            check_reply(
                &mut rep,
                &format!("{}: member {seed}", w.name),
                &at,
                ov,
                reply,
                &mut refs,
            );
        }
        if kept.len() < TRACED_MEMBERS {
            kept.push(Kept { seed, refs });
        }
    }
    rep.set("peak_rss_mb", os::peak_rss_mb(), "MB", 1);
    crate::setup_metrics(&mut rep, &setups);
    rep.set(
        "explain_s",
        stats::median(&latencies) / 1e3,
        "s",
        latencies.len(),
    );
    rep.set("explain_cpu_s", stats::median(&cpu), "s", cpu.len());
    rep.tail("core.explain_ms.tail", &latencies);
    rep.pct(
        "serve.cache_hit_pct",
        hits as f64,
        lookups as f64,
        cpu.len(),
    );
    rep.count("serve.jobs_failed", jobs_failed as f64, cpu.len());
    rep.count("serve.busy_rejections", busy as f64, cpu.len());
    if jobs_failed + busy > 0 {
        rep.fail(|| {
            format!(
                "{}: {jobs_failed} jobs failed, {busy} busy rejections",
                w.name
            )
        });
    }

    // A second session for the first member, from a new engine, must
    // reply to every override byte for byte what the first did.
    if let Some(first) = kept.first() {
        let (m, _) = workload::build_member(w, first.seed);
        let engine = new_engine(&m);
        let s = session(&engine, &workload::request_stream(first.seed, requests));
        let at = Deployed {
            forest: engine.forest(),
            ..m.deployed()
        };
        let mut refs = first.refs.clone();
        for (ov, _, reply) in s.replies {
            check_reply(
                &mut rep,
                &format!("{}: member {} again", w.name, first.seed),
                &at,
                ov,
                reply,
                &mut refs,
            );
        }
    }

    if opts.traced {
        traced(w, opts, &kept, &mut rep);
    }
    rep
}

/// Checks one served reply: it must succeed, repeat the first reply to
/// the same override byte for byte, and (the first time) have a top-k
/// whose ρ the clone-and-delete reference path reproduces bit for bit.
fn check_reply(
    rep: &mut Report,
    who: &str,
    at: &Deployed<'_>,
    ov: usize,
    reply: Result<FumeReport, String>,
    refs: &mut References,
) {
    let report = match reply {
        Ok(r) => r,
        Err(e) => return rep.attempt(false, || format!("{who}: {e}")),
    };
    let json = report.to_json();
    if let Some((_, first)) = refs.get(&ov) {
        let same = *first == json;
        return rep.attempt(same, || {
            format!("{who}: override {ov} reply differs from its first")
        });
    }
    let bad = top_k_mismatches(at, workload::serve_override(ov).0, &report);
    rep.attempt(bad == 0, || {
        format!("{who}: override {ov}: {bad} top-k ρ differ")
    });
    refs.insert(ov, (report, json));
}

/// The traced pass: every kept member and its engine are set up again
/// and the subsets of every override it served are replayed. For the
/// first, every override is also explained again without the engine's
/// cache, once plainly and once through the timing wrapper (both must
/// reproduce the served reply), and once more with checkpointing to
/// probe.
fn traced(w: &Workload, opts: &RunOpts, kept: &[Kept], rep: &mut Report) {
    let samples = probe::eval_samples();
    let mut explains = Vec::new();
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    let mut replay = Replay::default();
    for (i, k) in kept.iter().enumerate() {
        let (m, _) = workload::build_member(w, k.seed);
        let engine = new_engine(&m);
        let forest = engine.forest();
        let request = ExplainRequest::new(&m.train, &m.test, m.group).with_model(forest);
        if i == 0 {
            for (&ov, (_, json)) in &k.refs {
                let (metric, (lo, hi)) = workload::serve_override(ov);
                let mut config = base_config(&m).with_metric(metric).with_jobs(1);
                config.support = SupportRange::new(lo, hi).expect("static support range");
                let fume = Fume::new(config);
                let sw = Stopwatch::start();
                let plain = fume.run(&request);
                plain_ms += sw.elapsed().as_secs_f64() * 1e3;
                let before = samples.lock().len();
                let timed = Timed::new(forest, &m.train, &samples);
                let sw = Stopwatch::start();
                let out = fume.run(&request.clone().with_removal(RemovalSpec::Shared(&timed)));
                let wall_ms = sw.elapsed().as_secs_f64() * 1e3;
                traced_ms += wall_ms;
                let executed = samples.lock().len() - before;
                let same =
                    |r: &Result<FumeReport, _>| r.as_ref().is_ok_and(|r| r.to_json() == *json);
                rep.attempt(same(&plain) && same(&out), || {
                    format!(
                        "{}: override {ov}: uncached or traced report differs from the served",
                        w.name
                    )
                });
                if let Ok(r) = &out {
                    explains.push(TracedExplain::new(r, wall_ms, executed, 1));
                }
            }
            probe::checkpointed(
                rep,
                w.name,
                base_config(&m).with_jobs(1),
                &request,
                &opts.work_dir,
            );
        }
        let at = Deployed {
            forest,
            ..m.deployed()
        };
        for metric in SERVE_METRICS {
            let of_metric: Vec<&FumeReport> = k
                .refs
                .iter()
                .filter(|(&ov, _)| workload::serve_override(ov).0 == metric)
                .map(|(_, (r, _))| r)
                .collect();
            replay.run(&at, metric, &of_metric);
        }
    }
    let eval_ms = samples.lock().clone();
    probe::explain_layers(rep, &explains, &eval_ms);
    rep.pct(
        "trace.overhead_pct",
        traced_ms - plain_ms,
        plain_ms,
        explains.len(),
    );
    replay.report(rep, w.name);
}
