//! Integration tests for the persistent serve engine (`fume-serve`)
//! through the facade: concurrent clients must see exactly what serial
//! clients see, warm repeats must be answered entirely by the
//! cross-request eval cache, and overload/faults must surface as typed
//! protocol errors rather than hangs.

use std::sync::{Mutex, PoisonError};

use fume::core::FumeConfig;
use fume::forest::DareConfig;
use fume::lattice::SupportRange;
use fume::serve::{serve_lines, Engine, EngineOptions, ExplainOverrides, JobReply};
use fume::tabular::datasets::planted_toy;
use fume::tabular::split::train_test_split;
use fume::tabular::workers;

/// Fault arming is process-global and every explain job passes through
/// the `serve-mid-job` fault site, so tests that run jobs must not
/// overlap with the test that arms it.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn engine_with(opts: EngineOptions) -> Engine {
    let (data, group) = planted_toy().generate_scaled(0.6, 7).unwrap();
    let (train, test) = train_test_split(&data, 0.3, 7).unwrap();
    let config = FumeConfig::default()
        .with_forest(DareConfig::small(7))
        .with_support(SupportRange::new(0.02, 0.30).unwrap());
    Engine::new(config, train, test, group, opts).unwrap()
}

fn engine(workers: usize) -> Engine {
    engine_with(EngineOptions { workers, ..EngineOptions::default() })
}

fn client_overrides(i: usize) -> ExplainOverrides {
    ExplainOverrides { top_k: Some(3 + i), ..ExplainOverrides::default() }
}

fn report_json(reply: JobReply) -> String {
    match reply {
        JobReply::Report(report) => report.to_json(),
        JobReply::Stats(_) => panic!("expected a report reply"),
    }
}

#[test]
fn concurrent_clients_are_byte_identical_to_serial() {
    let _g = serial();
    const CLIENTS: usize = 3;

    // Serial baseline: a single-worker engine answering one request at a
    // time, in order.
    let baseline: Vec<String> = engine(1).serve(|h| {
        (0..CLIENTS)
            .map(|i| report_json(h.explain(client_overrides(i)).unwrap().wait().unwrap()))
            .collect()
    });

    // The same requests from concurrent client threads against a
    // multi-worker engine sharing one eval cache.
    let slots: Vec<Mutex<Option<String>>> =
        (0..CLIENTS).map(|_| Mutex::new(None)).collect();
    engine(2).serve(|h| {
        workers::scoped_workers(
            CLIENTS,
            |i| {
                let json =
                    report_json(h.explain(client_overrides(i)).unwrap().wait().unwrap());
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(json);
            },
            || (),
        )
    });

    for (i, (slot, expected)) in slots.iter().zip(&baseline).enumerate() {
        let got = slot.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(
            got.as_deref(),
            Some(expected.as_str()),
            "client {i}: concurrent report differs from serial"
        );
    }
}

/// The engine answers every bias query through its shared warm scratch
/// pool (`DareRemoval` behind `RemovalSpec::Shared`). Its canonical
/// report must be byte-identical to a one-shot run of the same forest
/// lent the clone-per-eval `DareCloneRemoval`, which deletes into a
/// fresh clone of the deployed forest for every eval.
#[test]
fn engine_reports_are_byte_identical_to_the_full_recompute_path() {
    let _g = serial();
    use fume::core::{DareCloneRemoval, ExplainRequest, Fume, RemovalSpec};
    use fume::forest::DareForest;

    let (data, group) = planted_toy().generate_scaled(0.6, 7).unwrap();
    let (train, test) = train_test_split(&data, 0.3, 7).unwrap();
    let config = FumeConfig::default()
        .with_forest(DareConfig::small(7))
        .with_support(SupportRange::new(0.02, 0.30).unwrap());
    let forest = DareForest::fit(&train, config.forest.clone());
    let clone = DareCloneRemoval::new(&forest, &train);
    let baseline = Fume::new(config)
        .run(
            &ExplainRequest::new(&train, &test, group)
                .with_model(&forest)
                .with_removal(RemovalSpec::Shared(&clone)),
        )
        .unwrap()
        .to_json();

    // Same data, seed, and config as the one-shot run (the `engine`
    // fixture re-derives them identically).
    let got = engine(2).serve(|h| {
        report_json(h.explain(ExplainOverrides::default()).unwrap().wait().unwrap())
    });
    assert_eq!(got, baseline, "pooled engine report diverged from the clone-per-eval path");
}

/// A `checkpoint_root` changes where jobs leave their search state, not
/// what they report: each job's directory holds only `search.ckpt`, and
/// resuming it refits the engine's forest to the served report.
#[test]
fn checkpointed_jobs_report_what_plain_jobs_do() {
    let _g = serial();
    use fume::core::{checkpoint, ExplainRequest, Fume};

    let root = std::env::temp_dir().join(format!("fume-serve-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let plain = engine(1).serve(|h| {
        report_json(h.explain(ExplainOverrides::default()).unwrap().wait().unwrap())
    });
    let engine = engine_with(EngineOptions {
        workers: 1,
        checkpoint_root: Some(root.clone()),
        ..EngineOptions::default()
    });
    let served = engine.serve(|h| {
        report_json(h.explain(ExplainOverrides::default()).unwrap().wait().unwrap())
    });
    assert_eq!(served, plain, "a checkpoint root changed the served report");

    let jobs: Vec<_> = std::fs::read_dir(&root).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(jobs.len(), 1, "one directory per job, nothing else: {jobs:?}");
    let files: Vec<_> =
        std::fs::read_dir(&jobs[0]).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(files, [checkpoint::STATE_FILE]);
    // The `engine` fixture's split, re-derived.
    let (data, group) = planted_toy().generate_scaled(0.6, 7).unwrap();
    let (train, test) = train_test_split(&data, 0.3, 7).unwrap();
    let request = ExplainRequest::new(&train, &test, group);
    let resumed = Fume::resume(&jobs[0]).unwrap().run(&request).unwrap();
    assert_eq!(resumed.to_json(), plain);
    let _ = std::fs::remove_dir_all(&root);
}

/// The engine builds each session's level-1 frontier once, under its
/// base config's literal configuration. With an excluded attribute and
/// range literals, every served report, cold or warm, must equal a plain
/// `Fume::run` of the job's config: a frontier built under another
/// literal configuration ranks other subsets, or is refused.
#[test]
fn served_reports_with_exclusions_and_range_literals_match_plain_runs() {
    let _g = serial();
    use fume::core::{ExplainRequest, Fume};
    use fume::fairness::FairnessMetric;
    use fume::forest::DareForest;
    use fume::lattice::LiteralGen;
    use fume::tabular::datasets::german_credit;

    let (data, group) = german_credit().generate_scaled(0.2, 41).unwrap();
    let (train, test) = train_test_split(&data, 0.3, 41).unwrap();
    let mut base = FumeConfig::default()
        .with_forest(DareConfig::default().with_trees(5).with_seed(41))
        .with_support(SupportRange::new(0.05, 0.30).unwrap())
        .with_literal_gen(LiteralGen::WithRanges);
    base.exclude_attrs = vec![u16::try_from(group.attr).unwrap()];
    let forest = DareForest::fit(&train, base.forest.clone());
    let overrides = [
        ExplainOverrides::default(),
        ExplainOverrides {
            metric: Some(FairnessMetric::EqualizedOdds),
            ..ExplainOverrides::default()
        },
        ExplainOverrides {
            support: Some((0.10, 0.40)),
            max_literals: Some(3),
            ..ExplainOverrides::default()
        },
    ];
    let request = ExplainRequest::new(&train, &test, group).with_model(&forest);
    let plain: Vec<String> = overrides
        .iter()
        .map(|o| Fume::new(plain_config(&base, o)).run(&request).unwrap().to_json())
        .collect();

    let opts = EngineOptions { workers: 1, ..EngineOptions::default() };
    let engine = Engine::with_forest(base, train.clone(), test.clone(), group, forest.clone(), opts)
        .unwrap();
    let served: Vec<String> = engine.serve(|h| {
        overrides
            .iter()
            .chain(&overrides)
            .map(|o| report_json(h.explain(o.clone()).unwrap().wait().unwrap()))
            .collect()
    });
    for (i, got) in served.iter().enumerate() {
        assert_eq!(*got, plain[i % overrides.len()], "request {i}: served report differs");
    }
    assert!(engine.stats().cache.hits > 0, "the repeated requests hit the cache");
}

/// What a served job's config is: the engine's base config, the
/// request's overrides, one eval job.
fn plain_config(base: &FumeConfig, o: &ExplainOverrides) -> FumeConfig {
    let mut config = base.clone().with_jobs(1);
    config.metric = o.metric.unwrap_or(config.metric);
    if let Some((min, max)) = o.support {
        config.support = SupportRange::new(min, max).unwrap();
    }
    config.max_literals = o.max_literals.unwrap_or(config.max_literals);
    config
}

/// Every job of a session reads level 2 from the one pair table of the
/// engine's prepared value, filling its cells as they are first asked
/// for. Two workers answering a wave of η = 3 requests at once fill the
/// table concurrently, cold and then warm; each reply must be the plain
/// run's, byte for byte, whichever job filled the cells it read.
#[test]
fn concurrent_jobs_filling_one_pair_table_match_plain_runs() {
    let _g = serial();
    use fume::core::{ExplainRequest, Fume};
    use fume::fairness::FairnessMetric;
    use fume::forest::DareForest;
    use fume::lattice::LiteralGen;
    use fume::tabular::datasets::german_credit;

    let (data, group) = german_credit().generate_scaled(0.2, 42).unwrap();
    let (train, test) = train_test_split(&data, 0.3, 42).unwrap();
    let mut base = FumeConfig::default()
        .with_forest(DareConfig::default().with_trees(5).with_seed(42))
        .with_literal_gen(LiteralGen::WithRanges)
        .with_max_literals(3);
    base.exclude_attrs = vec![u16::try_from(group.attr).unwrap()];
    let forest = DareForest::fit(&train, base.forest.clone());
    let metrics = [FairnessMetric::StatisticalParity, FairnessMetric::EqualizedOdds];
    let overrides: Vec<ExplainOverrides> = metrics
        .into_iter()
        .flat_map(|metric| {
            [(0.05, 0.30), (0.10, 0.40)].map(|support| ExplainOverrides {
                metric: Some(metric),
                support: Some(support),
                max_literals: Some(3),
                ..ExplainOverrides::default()
            })
        })
        .collect();
    let request = ExplainRequest::new(&train, &test, group).with_model(&forest);
    let plain: Vec<String> = overrides
        .iter()
        .map(|o| Fume::new(plain_config(&base, o)).run(&request).unwrap().to_json())
        .collect();

    let opts = EngineOptions { workers: 2, ..EngineOptions::default() };
    let engine = Engine::with_forest(base, train, test, group, forest, opts).unwrap();
    let served: Vec<String> = engine.serve(|h| {
        // A cold wave, then a warm one; each wave is queued whole, so the
        // two workers run its jobs side by side.
        let mut replies = Vec::new();
        for _wave in 0..2 {
            let tickets: Vec<_> = overrides.iter().map(|o| h.explain(o.clone()).unwrap()).collect();
            replies.extend(tickets.into_iter().map(|t| report_json(t.wait().unwrap())));
        }
        replies
    });
    assert_eq!(served.len(), 2 * plain.len());
    for (i, got) in served.iter().enumerate() {
        assert_eq!(*got, plain[i % plain.len()], "request {i}: served report differs");
    }
    let levels3 = plain.iter().filter(|json| json.contains(r#""level":3"#)).count();
    assert!(levels3 > 0, "the wave must reach level 3");
}

#[test]
fn warm_repeat_performs_zero_unlearn_evals() {
    let _g = serial();
    let engine = engine(1);
    let (cold, cold_stats, warm, warm_stats) = engine.serve(|h| {
        let cold = report_json(h.explain(ExplainOverrides::default()).unwrap().wait().unwrap());
        let cold_stats = h.stats();
        let warm = report_json(h.explain(ExplainOverrides::default()).unwrap().wait().unwrap());
        (cold, cold_stats, warm, h.stats())
    });

    assert_eq!(cold, warm, "the cache must not change the canonical report");
    assert!(cold_stats.cache.misses > 0, "the cold request populates the cache");
    assert_eq!(
        warm_stats.cache.misses, cold_stats.cache.misses,
        "a warm identical request must perform zero unlearn-evals"
    );
    assert!(
        warm_stats.cache.hits > cold_stats.cache.hits,
        "the warm request must be answered from the cache"
    );
    // The warm+cold session exercises every engine lock; the lock-order
    // detector (active in debug builds) must have seen no inversion.
    assert!(
        fume::obs::sync::cycle_reports().is_empty(),
        "{:?}",
        fume::obs::sync::cycle_reports()
    );
}

#[test]
fn queue_overflow_is_a_typed_busy_error_over_the_wire() {
    let _g = serial();
    if !cfg!(debug_assertions) {
        return; // `sleep_ms` (which holds the worker busy) is debug-only
    }
    // One worker, a one-deep queue: the slow job occupies the worker, the
    // second request fills the queue, the third must be refused with a
    // typed `busy` error — and the session keeps serving afterwards. The
    // requests arrive over a pipe with pauses between them so each one is
    // parsed and submitted before the next is written.
    let engine = engine_with(EngineOptions {
        workers: 1,
        queue_depth: 1,
        ..EngineOptions::default()
    });
    let (pipe_reader, pipe_writer) = std::io::pipe().unwrap();
    let writer_slot = Mutex::new(Some(pipe_writer));
    let mut out: Vec<u8> = Vec::new();
    engine.serve(|h| {
        workers::scoped_workers(
            1,
            |_| {
                use std::io::Write as _;
                let w = writer_slot
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take();
                let mut w = w.expect("one writer thread");
                let pause = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
                let slow = r#"{"op":"explain","id":"slow","sleep_ms":500}"#;
                let queued = r#"{"op":"explain","id":"queued"}"#;
                let refused = r#"{"op":"explain","id":"refused"}"#;
                let ping = r#"{"op":"ping","id":"alive"}"#;
                writeln!(w, "{slow}").unwrap();
                pause(150); // the worker has dequeued `slow` and is inside it
                writeln!(w, "{queued}").unwrap();
                pause(100); // `queued` now fills the one-slot queue
                writeln!(w, "{refused}").unwrap();
                writeln!(w, "{ping}").unwrap();
                // dropping the writer ends the session with EOF
            },
            || serve_lines(h, std::io::BufReader::new(pipe_reader), &mut out),
        )
    });
    let out = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "{out}");
    assert!(lines[0].contains("\"id\":\"slow\"") && lines[0].contains("\"ok\":true"));
    assert!(lines[1].contains("\"id\":\"queued\"") && lines[1].contains("\"ok\":true"));
    assert!(
        lines[2].contains("\"id\":\"refused\"")
            && lines[2].contains("\"ok\":false")
            && lines[2].contains("\"kind\":\"busy\""),
        "overflow must be a typed busy error: {}",
        lines[2]
    );
    assert!(lines[3].contains("\"pong\":true"), "session must survive the rejection");
}

#[test]
fn mid_job_fault_is_a_typed_error_and_the_session_survives() {
    let _g = serial();
    if !cfg!(debug_assertions) {
        return; // fault injection only exists in debug builds
    }
    let engine = engine(1);
    let mut out: Vec<u8> = Vec::new();
    engine.serve(|h| {
        fume::obs::fault::arm("serve-mid-job", 1);
        let doomed = "{\"op\":\"explain\",\"id\":\"doomed\"}\n";
        serve_lines(h, doomed.as_bytes(), &mut out);
        fume::obs::fault::disarm();
        let retry = "{\"op\":\"explain\",\"id\":\"retry\"}\n";
        serve_lines(h, retry.as_bytes(), &mut out);
    });
    let out = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out}");
    assert!(
        lines[0].contains("\"id\":\"doomed\"")
            && lines[0].contains("\"ok\":false")
            && lines[0].contains("\"kind\":\"job_panicked\""),
        "injected fault must surface as a typed error: {}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"id\":\"retry\"") && lines[1].contains("\"ok\":true"),
        "the engine must keep serving after a job panic: {}",
        lines[1]
    );
    assert_eq!(engine.stats().jobs_failed, 1);
}

/// Faults injected *while the eval-cache and scratch-pool locks are
/// held* poison those locks; the next acquisition must recover them by
/// policy (clear the interior, count the recovery) and the engine must
/// keep answering. Asserted through the `fume.sync.*` /
/// `*.poison_recoveries` counters, which requires the recorder.
#[test]
fn poisoned_cache_and_pool_locks_recover_by_policy() {
    let _g = serial();
    if !cfg!(debug_assertions) {
        return; // fault injection only exists in debug builds
    }
    let rec = fume::obs::install();
    rec.reset();
    let engine = engine(1);
    engine.serve(|h| {
        // Phase 1: die during the first cache store — the job panics with
        // the `serve.cache` lock held, poisoning it.
        fume::obs::fault::arm("serve-cache-store", 1);
        let doomed = h.explain(ExplainOverrides::default()).unwrap().wait();
        assert!(doomed.is_err(), "fault under the cache lock must fail the job");

        // Phase 2: the next job's first cache access recovers the poison
        // (reset_cache), then dies during the first scratch-pool release —
        // poisoning `core.scratch_pool` in turn.
        fume::obs::fault::arm("scratch-pool-release", 1);
        let doomed = h.explain(ExplainOverrides::default()).unwrap().wait();
        assert!(doomed.is_err(), "fault under the pool lock must fail the job");

        // Phase 3: with faults disarmed, the next job recovers the pool
        // (reset_pool → cold clone) and completes normally.
        fume::obs::fault::disarm();
        let retry = h.explain(ExplainOverrides::default()).unwrap().wait();
        assert!(retry.is_ok(), "both locks must be usable after recovery: {retry:?}");
    });
    assert_eq!(engine.stats().jobs_failed, 2);

    assert_eq!(
        rec.counter_value("fume.serve.cache.poison_recoveries"),
        Some(1),
        "reset_cache must run exactly once for the poisoned cache lock"
    );
    assert_eq!(
        rec.counter_value("fume.scratch.poison_recoveries"),
        Some(1),
        "reset_pool must run exactly once for the poisoned pool lock"
    );
    assert_eq!(
        rec.counter_value("fume.sync.poison_recoveries"),
        Some(2),
        "each tracked-lock recovery counts once in the sync vocabulary"
    );
    // The recovery path must not have perturbed the lock order anywhere.
    assert!(
        fume::obs::sync::cycle_reports().is_empty(),
        "{:?}",
        fume::obs::sync::cycle_reports()
    );
    rec.reset();
}
