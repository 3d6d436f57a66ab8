//! End-to-end observability: a full FUME explain run must leave a JSONL
//! trace carrying spans for every pipeline phase and counters for every
//! pruning rule and unlearning statistic.

use fume::core::{ExplainRequest, Fume, FumeConfig};
use fume::forest::DareConfig;
use fume::lattice::SupportRange;
use fume::tabular::datasets::planted_toy;
use fume::tabular::split::train_test_split;

/// Minimal recursive-descent JSON validity checker — enough to prove each
/// trace line is a well-formed object without an external parser.
mod json_checker {
    pub fn is_valid_object(s: &str) -> bool {
        let b = s.as_bytes();
        let mut i = 0usize;
        skip_ws(b, &mut i);
        if !value(b, &mut i) {
            return false;
        }
        skip_ws(b, &mut i);
        i == b.len() && s.trim_start().starts_with('{')
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> bool {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => object(b, i),
            Some(b'[') => array(b, i),
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, b"true"),
            Some(b'f') => literal(b, i, b"false"),
            Some(b'n') => literal(b, i, b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
            _ => false,
        }
    }

    fn object(b: &[u8], i: &mut usize) -> bool {
        *i += 1; // '{'
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return true;
        }
        loop {
            skip_ws(b, i);
            if !string(b, i) {
                return false;
            }
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return false;
            }
            *i += 1;
            if !value(b, i) {
                return false;
            }
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return true;
                }
                _ => return false,
            }
        }
    }

    fn array(b: &[u8], i: &mut usize) -> bool {
        *i += 1; // '['
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return true;
        }
        loop {
            if !value(b, i) {
                return false;
            }
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return true;
                }
                _ => return false,
            }
        }
    }

    fn string(b: &[u8], i: &mut usize) -> bool {
        if b.get(*i) != Some(&b'"') {
            return false;
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return true;
                }
                b'\\' => *i += 2,
                _ => *i += 1,
            }
        }
        false
    }

    fn number(b: &[u8], i: &mut usize) -> bool {
        let start = *i;
        if b.get(*i) == Some(&b'-') {
            *i += 1;
        }
        while *i < b.len()
            && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            *i += 1;
        }
        *i > start
    }

    fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> bool {
        if b.len() - *i >= lit.len() && &b[*i..*i + lit.len()] == lit {
            *i += lit.len();
            true
        } else {
            false
        }
    }
}

/// The five pruning-rule counters of the paper's §4, plus the auxiliary
/// redundancy counter.
const PRUNE_COUNTERS: [&str; 5] = [
    "lattice.pruned.rule1",
    "lattice.pruned.rule2",
    "lattice.pruned.rule3",
    "lattice.pruned.rule4",
    "lattice.pruned.rule5",
];

#[test]
fn explain_run_leaves_a_complete_trace() {
    let rec = fume::obs::install();
    rec.reset();
    rec.set_meta("seed", "85");
    fume::obs::progress::reset();
    fume::obs::progress::enable();

    let ckpt_dir = std::env::temp_dir().join(format!("fume-trace-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let (data, group) = planted_toy().generate_full(85).unwrap();
    let (train, test) = train_test_split(&data, 0.3, 85).unwrap();
    let config = FumeConfig::default()
        .with_forest(DareConfig::small(85))
        .with_support(SupportRange::new(0.02, 0.30).unwrap())
        .with_checkpoint_dir(&ckpt_dir);
    let report = Fume::new(config).run(&ExplainRequest::new(&train, &test, group)).unwrap();
    assert!(!report.top_k.is_empty());

    let jsonl = rec.events_to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() > 10, "expected a substantive trace, got {} lines", lines.len());
    for line in &lines {
        assert!(
            json_checker::is_valid_object(line),
            "trace line is not a JSON object: {line}"
        );
    }

    // --- schema v2 header: first line, versioned, carrying run metadata ---
    assert!(
        lines[0].contains("\"type\":\"header\"") && lines[0].contains("\"schema\":2"),
        "trace must open with a v2 header line, got: {}",
        lines[0]
    );
    assert!(lines[0].contains("\"seed\":\"85\""), "header must carry meta: {}", lines[0]);

    // --- spans: the whole pipeline, per phase ---
    let span_named = |name: &str| {
        lines.iter().any(|l| {
            l.contains("\"type\":\"span_end\"") && l.contains(&format!("\"name\":\"{name}\""))
        })
    };
    for name in [
        "fume.explain",
        "fume.phase.train",
        "fume.phase.violation_check",
        "fume.phase.search",
        "fume.phase.unlearn_eval",
        "fume.phase.rank",
        "lattice.search",
        "lattice.level",
        "lattice.evaluate",
        "forest.fit",
        "forest.delete",
        "ckpt.save",
    ] {
        assert!(span_named(name), "trace is missing span `{name}`\n{jsonl}");
    }

    // --- histogram and progress events stream alongside spans ---
    assert!(
        lines.iter().any(|l| {
            l.contains("\"type\":\"hist\"") && l.contains("\"name\":\"ckpt.state_bytes\"")
        }),
        "trace is missing `ckpt.state_bytes` hist events"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"type\":\"progress\"")),
        "trace is missing progress events"
    );

    // Each lattice level searched must leave its own `lattice.level` span.
    let level_spans = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"span_end\"") && l.contains("\"name\":\"lattice.level\""))
        .count();
    assert_eq!(
        level_spans,
        report.levels.len(),
        "one lattice.level span per searched level"
    );

    // --- counters: pruning rules and unlearning statistics ---
    let counter_named = |name: &str| {
        lines.iter().any(|l| {
            l.contains("\"type\":\"counter\"") && l.contains(&format!("\"name\":\"{name}\""))
        })
    };
    for name in PRUNE_COUNTERS {
        assert!(counter_named(name), "trace is missing counter `{name}`\n{jsonl}");
    }
    for name in [
        "lattice.generated",
        "lattice.explored",
        "forest.nodes_retrained",
        "forest.instances_removed",
        "fume.unlearn_evals",
        "fairness.metric_evals",
    ] {
        assert!(counter_named(name), "trace is missing counter `{name}`\n{jsonl}");
    }

    // --- aggregates agree with the report ---
    // `fume.unlearn_evals` counts evals actually executed; items satisfied
    // without forest work surface as `.deduped` (within-batch duplicates)
    // or `.memoized` (cross-run memo hits). The three always sum to the
    // report's submitted-operation count.
    let executed = rec.counter_value("fume.unlearn_evals").unwrap_or(0);
    let deduped = rec.counter_value("fume.unlearn_evals.deduped").unwrap_or(0);
    let memoized = rec.counter_value("fume.unlearn_evals.memoized").unwrap_or(0);
    assert_eq!(
        executed + deduped + memoized,
        report.unlearning_operations as u64,
        "executed + deduped + memoized unlearn-evals must match the report's \
         operation count ({executed} + {deduped} + {memoized})"
    );
    let explored: usize = report.levels.iter().map(|l| l.explored).sum();
    assert_eq!(rec.counter_value("lattice.explored"), Some(explored as u64));
    assert!(
        rec.counter_value("forest.nodes_retrained").is_some(),
        "DaRE retrain counter must be aggregated"
    );
    // The unlearn-eval phase time surfaced on the report is backed by the
    // span aggregation too.
    let stats = rec.span_stats("fume.phase.unlearn_eval").expect("span aggregated");
    assert!(stats.calls as usize <= report.unlearning_operations);
    assert!(report.unlearn_time <= report.search_time + report.training_time);

    // The profile table renders every layer for humans, with latency
    // percentile columns folded from per-span histograms.
    let table = rec.profile_table();
    for needle in [
        "fume.explain",
        "lattice.search",
        "forest.delete",
        "lattice.pruned.rule4",
        "p50",
        "p90",
        "p99",
        "ckpt.state_bytes",
    ] {
        assert!(table.contains(needle), "profile table missing `{needle}`:\n{table}");
    }

    // --- the offline analyzer agrees with the in-process aggregates ---
    let trace = fume::obs::trace::parse_trace(&jsonl).expect("trace parses");
    let problems = fume::obs::trace::check(&trace);
    assert!(problems.is_empty(), "trace fails validation: {problems:?}");
    assert_eq!(
        fume::obs::trace::summary(&trace),
        table,
        "fume-trace summary must rebuild the profile table byte-for-byte"
    );

    // Leave the trace on disk for scripts/verify.sh to re-validate through
    // the `fume-trace` binary.
    let out = std::path::Path::new("target").join("trace_e2e.jsonl");
    if std::fs::create_dir_all("target").is_ok() {
        let _ = std::fs::write(&out, &jsonl);
    }

    // A resume reads its checkpoint once, and refits the forest.
    rec.reset();
    let resumed = Fume::resume(&ckpt_dir)
        .unwrap()
        .run(&ExplainRequest::new(&train, &test, group))
        .unwrap();
    assert_eq!(resumed.to_json(), report.to_json());
    assert_eq!(rec.span_stats("ckpt.load").map(|s| s.calls), Some(1));
    assert_eq!(rec.span_stats("forest.fit").map(|s| s.calls), Some(1));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    fume::obs::progress::reset();
    rec.reset();
}
