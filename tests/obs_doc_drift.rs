//! Doc-drift gate for the observability vocabulary: every span, counter,
//! gauge and histogram name an instrumented end-to-end battery emits must
//! appear in `docs/observability.md`'s tables, and every documented name
//! must either be emitted by the battery or be on the short, justified
//! list of situational names. Renaming a metric without updating the doc
//! (or vice versa) fails here.

use std::collections::BTreeMap;

use fume::core::{ExplainRequest, Fume, FumeConfig};
use fume::forest::DareConfig;
use fume::lattice::SupportRange;
use fume::tabular::datasets::planted_toy;
use fume::tabular::split::train_test_split;
use fume::tabular::Classifier;

/// Extracts `(name, kind)` pairs from the vocabulary tables. A table row
/// looks like ``| `lattice.search` | span | the whole level-wise search |``;
/// combined rows abbreviate siblings with a leading `.` or `_`:
/// ``| `forest.persist.save` / `.load` | span | ... |`` and
/// ``| `forest.instances_removed` / `_inserted` | counter | ... |``.
fn documented_names(doc: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for line in doc.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 3 {
            continue;
        }
        let kind = cells[1];
        if !matches!(kind, "span" | "counter" | "gauge" | "histogram") {
            continue;
        }
        let names: Vec<String> = cells[0]
            .split('`')
            .skip(1)
            .step_by(2) // every other fragment is inside backticks
            .map(str::to_string)
            .collect();
        let Some(first) = names.first().cloned() else { continue };
        for name in names {
            let full = if let Some(suffix) = name.strip_prefix('.') {
                // `.load` expands against the first name's parent path.
                let parent = first.rsplit_once('.').map_or("", |(p, _)| p);
                format!("{parent}.{suffix}")
            } else if name.starts_with('_') {
                // `_inserted` replaces the first name's final `_`-suffix.
                let stem = first.rsplit_once('_').map_or(first.as_str(), |(s, _)| s);
                format!("{stem}{name}")
            } else {
                name
            };
            out.insert(full, kind.to_string());
        }
    }
    out
}

/// Documented names the battery legitimately does not emit, with why.
const SITUATIONAL: &[(&str, &str)] = &[
    // Emitted only when a lease-holding worker panics mid-eval.
    ("fume.scratch.poison_recoveries", "counter"),
    // Env-gated: only under FUME_DEEPCHECK=1.
    ("forest.deepcheck_runs", "counter"),
    // Only when a lease finds the scratch pool empty; a single-threaded
    // toy run keeps its one scratch forest warm after the first lease.
    ("fume.scratch.cold_clones", "counter"),
    // Only when a level contains two subsets with identical row sets;
    // the planted toy lattice has none.
    ("fume.unlearn_evals.deduped", "counter"),
    // Only when a serve job fails or panics; the battery's jobs succeed.
    ("fume.serve.jobs_failed", "counter"),
    // Only when the serve queue overflows; the battery submits serially.
    ("fume.serve.busy_rejections", "counter"),
    // Only when the eval cache exceeds its capacity; two identical
    // requests on a toy lattice stay well under the default bound.
    ("fume.serve.cache.evictions", "counter"),
    // Only after a panicking cache-lock holder.
    ("fume.serve.cache.poison_recoveries", "counter"),
    // `fume.sync.*` is emitted only while lock tracking is active (debug
    // builds or FUME_DEEPCHECK=1); a release-mode battery run emits none,
    // and even a debug run has no contention, inversions or poisoning.
    ("fume.sync.acquisitions", "counter"),
    ("fume.sync.contended", "counter"),
    ("fume.sync.order_edges", "counter"),
    ("fume.sync.cycles", "counter"),
    ("fume.sync.poison_recoveries", "counter"),
    ("fume.sync.hold_ns", "histogram"),
];

#[test]
fn emitted_names_match_the_documented_vocabulary() {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/docs/observability.md"
    ))
    .expect("docs/observability.md exists");
    let documented = documented_names(&doc);
    assert!(
        documented.len() > 30,
        "vocabulary table extraction looks broken: only {} names",
        documented.len()
    );

    let rec = fume::obs::install();
    rec.reset();

    // The battery: checkpointed explain, resume replay, forest persistence
    // round-trip, and an incremental insertion — together they touch every
    // instrumented subsystem.
    let dir = std::env::temp_dir().join(format!("fume-doc-drift-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (data, group) = planted_toy().generate_full(99).unwrap();
    let (train, test) = train_test_split(&data, 0.3, 99).unwrap();
    let config = FumeConfig::default()
        .with_forest(DareConfig::small(99))
        .with_support(SupportRange::new(0.02, 0.30).unwrap())
        .with_checkpoint_dir(&dir);
    Fume::new(config).run(&ExplainRequest::new(&train, &test, group)).unwrap();
    // Resuming the finished run replays it: `ckpt.load` + `ckpt.resumes`.
    Fume::resume(&dir).unwrap().run(&ExplainRequest::new(&train, &test, group)).unwrap();

    let forest_path = dir.join("roundtrip.dare");
    let held_out = 8u32;
    let seed_ids: Vec<u32> = (held_out..train.num_rows() as u32).collect();
    let mut forest =
        fume::forest::DareForest::fit_on(&train, seed_ids, DareConfig::small(99));
    fume::forest::persist::save(&forest, &forest_path).unwrap();
    fume::forest::persist::load(&forest_path).unwrap();
    let wave: Vec<u32> = (0..held_out).collect();
    forest.insert(&wave, &train).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // A compiled prediction plan: `plan.recompile` +
    // `fume.plan.{compiles,bytes}` and a blocked full pass
    // (`plan.predict_block`).
    let plan = fume::forest::PredictPlan::compile(&forest);
    let _ = plan.predict_proba(&test);

    // A short serve session: two identical explain jobs, so the second is
    // answered entirely by the cross-request cache (`fume.serve.cache.hits`)
    // while the first populated it (`fume.serve.cache.misses`).
    let serve_config = FumeConfig::default()
        .with_forest(DareConfig::small(99))
        .with_support(SupportRange::new(0.02, 0.30).unwrap());
    let engine = fume::serve::Engine::new(
        serve_config,
        train.clone(),
        test.clone(),
        group,
        fume::serve::EngineOptions { workers: 1, ..Default::default() },
    )
    .unwrap();
    engine.serve(|h| {
        for _ in 0..2 {
            h.explain(fume::serve::ExplainOverrides::default())
                .unwrap()
                .wait()
                .unwrap();
        }
    });

    let emitted = rec.inventory();
    // The lattice join's span records what it did when it closes.
    let trace = rec.events_to_jsonl();
    assert!(
        trace.lines().any(|l| {
            l.contains(r#""type":"span_end","name":"lattice.expand""#)
                && l.contains(r#""fields":{"pairs":"#)
                && l.contains(r#","children":"#)
                && l.contains(r#","joined":"#)
        }),
        "no lattice.expand span_end carries its pairs, children and joined"
    );
    rec.reset();

    // 1. Nothing undocumented leaks out of an instrumented run.
    let mut undocumented = Vec::new();
    for (name, kind) in &emitted {
        match documented.get(*name) {
            Some(doc_kind) if doc_kind == kind => {}
            Some(doc_kind) => undocumented.push(format!(
                "`{name}` is documented as a {doc_kind} but emitted as a {kind}"
            )),
            None => undocumented.push(format!(
                "`{name}` ({kind}) is emitted but missing from docs/observability.md"
            )),
        }
    }
    assert!(undocumented.is_empty(), "{}", undocumented.join("\n"));

    // 2. Nothing documented is dead (unless justified above).
    let mut dead = Vec::new();
    for (name, kind) in &documented {
        let live = emitted.iter().any(|(n, k)| n == name && k == kind);
        let excused = SITUATIONAL.iter().any(|(n, k)| n == name && k == kind);
        if !live && !excused {
            dead.push(format!(
                "`{name}` ({kind}) is documented but the e2e battery never emitted it"
            ));
        }
    }
    assert!(dead.is_empty(), "{}", dead.join("\n"));
}

#[test]
fn table_extraction_understands_combined_rows() {
    let doc = "\
| name | kind | meaning |
|---|---|---|
| `forest.persist.save` / `.load` | span | round-trips |
| `forest.instances_removed` / `_inserted` | counter | both ways |
| `ckpt.state_bytes` | histogram | sizes |
";
    let names = documented_names(doc);
    for (name, kind) in [
        ("forest.persist.save", "span"),
        ("forest.persist.load", "span"),
        ("forest.instances_removed", "counter"),
        ("forest.instances_inserted", "counter"),
        ("ckpt.state_bytes", "histogram"),
    ] {
        assert_eq!(names.get(name).map(String::as_str), Some(kind), "{name}");
    }
    assert_eq!(names.len(), 5);
}
