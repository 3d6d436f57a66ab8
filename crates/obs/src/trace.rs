//! Offline trace analytics: parse a JSONL trace written by
//! [`crate::Recorder::events_to_jsonl`] and rebuild aggregates
//! (`summary`), emit folded stacks for flamegraph tools (`flame`),
//! validate schema and ordering invariants (`check`), or compare two
//! runs for perf regressions (`diff`). The `fume-trace` binary is a
//! thin argv wrapper over this module.
//!
//! A trace file may hold several *segments* — the bench `repro` binary
//! appends one [`crate::Recorder::events_to_jsonl`] block per
//! experiment, resetting in between — so every `header` line starts a
//! new segment and ordering invariants are checked per segment, while
//! aggregates accumulate across the whole file.

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::json::{parse, Json};
use crate::recorder::{render_profile, SpanStats, TRACE_SCHEMA_VERSION};

/// One parsed trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Segment header: schema version plus run metadata.
    Header {
        /// Trace schema version.
        schema: u64,
        /// Run-description keys (seed, config hash, …), source order.
        meta: Vec<(String, String)>,
    },
    /// A span opened.
    SpanStart {
        /// Span name.
        name: String,
        /// Nanoseconds since the recorder epoch.
        t_ns: u64,
        /// Thread sequence number.
        thread: u64,
    },
    /// A span closed.
    SpanEnd {
        /// Span name.
        name: String,
        /// Nanoseconds since the recorder epoch.
        t_ns: u64,
        /// Thread sequence number.
        thread: u64,
        /// Wall time, children included.
        total_ns: u64,
        /// Wall time minus child-span time.
        self_ns: u64,
    },
    /// A counter increment.
    Counter {
        /// Counter name.
        name: String,
        /// Amount added.
        delta: u64,
        /// Nanoseconds since the recorder epoch.
        t_ns: u64,
    },
    /// A gauge update.
    Gauge {
        /// Gauge name.
        name: String,
        /// New value.
        value: f64,
        /// Nanoseconds since the recorder epoch.
        t_ns: u64,
    },
    /// A histogram sample.
    Hist {
        /// Histogram name.
        name: String,
        /// The sample.
        value: u64,
        /// Nanoseconds since the recorder epoch.
        t_ns: u64,
    },
    /// A live-progress snapshot (validated but not aggregated).
    Progress {
        /// Nanoseconds since the recorder epoch.
        t_ns: u64,
    },
    /// Trailer noting events dropped past the buffer cap.
    Meta {
        /// Dropped event count.
        dropped_events: u64,
    },
}

impl TraceEvent {
    /// The event timestamp, if this event kind carries one.
    pub fn t_ns(&self) -> Option<u64> {
        match self {
            TraceEvent::SpanStart { t_ns, .. }
            | TraceEvent::SpanEnd { t_ns, .. }
            | TraceEvent::Counter { t_ns, .. }
            | TraceEvent::Gauge { t_ns, .. }
            | TraceEvent::Hist { t_ns, .. }
            | TraceEvent::Progress { t_ns } => Some(*t_ns),
            TraceEvent::Header { .. } | TraceEvent::Meta { .. } => None,
        }
    }
}

/// A parsed trace: the flat event list, with 1-based source line
/// numbers for diagnostics.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events in file order.
    pub events: Vec<(usize, TraceEvent)>,
}

impl Trace {
    /// Total events dropped (summed over segments).
    pub fn dropped_events(&self) -> u64 {
        self.events
            .iter()
            .map(|(_, e)| match e {
                TraceEvent::Meta { dropped_events } => *dropped_events,
                _ => 0,
            })
            .sum()
    }

    /// Number of segments (header lines).
    pub fn segments(&self) -> usize {
        self.events
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::Header { .. }))
            .count()
    }
}

fn field_u64(obj: &Json, key: &str, line: usize) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("line {line}: missing or non-integer `{key}`"))
}

fn field_f64(obj: &Json, key: &str, line: usize) -> Result<f64, String> {
    match obj.get(key) {
        Some(Json::Null) => Ok(f64::NAN), // writer emits null for non-finite
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("line {line}: non-numeric `{key}`")),
        None => Err(format!("line {line}: missing `{key}`")),
    }
}

fn field_str(obj: &Json, key: &str, line: usize) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("line {line}: missing or non-string `{key}`"))
}

/// Parses a full JSONL trace. Blank lines are allowed and skipped.
pub fn parse_trace(input: &str) -> Result<Trace, String> {
    let mut events = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let obj = parse(raw).map_err(|e| format!("line {line}: {e}"))?;
        let ty = field_str(&obj, "type", line).or_else(|e| {
            if obj.get("dropped_events").is_some() {
                Ok("meta".to_owned())
            } else {
                Err(e)
            }
        })?;
        let ev = match ty.as_str() {
            "header" => {
                let schema = field_u64(&obj, "schema", line)?;
                let mut meta = Vec::new();
                if let Some(Json::Obj(members)) = obj.get("meta") {
                    for (k, v) in members {
                        let v = v
                            .as_str()
                            .ok_or_else(|| format!("line {line}: non-string meta `{k}`"))?;
                        meta.push((k.clone(), v.to_owned()));
                    }
                }
                TraceEvent::Header { schema, meta }
            }
            "span_start" => TraceEvent::SpanStart {
                name: field_str(&obj, "name", line)?,
                t_ns: field_u64(&obj, "t_ns", line)?,
                thread: field_u64(&obj, "thread", line)?,
            },
            "span_end" => TraceEvent::SpanEnd {
                name: field_str(&obj, "name", line)?,
                t_ns: field_u64(&obj, "t_ns", line)?,
                thread: field_u64(&obj, "thread", line)?,
                total_ns: field_u64(&obj, "total_ns", line)?,
                self_ns: field_u64(&obj, "self_ns", line)?,
            },
            "counter" => TraceEvent::Counter {
                name: field_str(&obj, "name", line)?,
                delta: field_u64(&obj, "delta", line)?,
                t_ns: field_u64(&obj, "t_ns", line)?,
            },
            "gauge" => TraceEvent::Gauge {
                name: field_str(&obj, "name", line)?,
                value: field_f64(&obj, "value", line)?,
                t_ns: field_u64(&obj, "t_ns", line)?,
            },
            "hist" => TraceEvent::Hist {
                name: field_str(&obj, "name", line)?,
                value: field_u64(&obj, "value", line)?,
                t_ns: field_u64(&obj, "t_ns", line)?,
            },
            "progress" => TraceEvent::Progress { t_ns: field_u64(&obj, "t_ns", line)? },
            "meta" => TraceEvent::Meta {
                dropped_events: field_u64(&obj, "dropped_events", line)?,
            },
            other => return Err(format!("line {line}: unknown event type `{other}`")),
        };
        events.push((line, ev));
    }
    Ok(Trace { events })
}

/// Aggregates rebuilt from a trace — the offline mirror of the
/// recorder's in-process maps.
#[derive(Debug, Clone, Default)]
pub struct Aggregates {
    /// Per-span stats summed from `span_end` events.
    pub spans: BTreeMap<String, SpanStats>,
    /// Per-span duration histograms (same buckets as the recorder's).
    pub span_hists: BTreeMap<String, Histogram>,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Last gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Value histograms from `hist` events.
    pub hists: BTreeMap<String, Histogram>,
}

/// Folds every event in the trace into aggregate maps. Feeding
/// `span_end` durations through the same [`Histogram`] the recorder
/// uses makes the rebuilt percentiles identical, not just close.
pub fn aggregate(trace: &Trace) -> Aggregates {
    let mut agg = Aggregates::default();
    for (_, ev) in &trace.events {
        match ev {
            TraceEvent::SpanEnd { name, total_ns, self_ns, .. } => {
                let s = agg.spans.entry(name.clone()).or_default();
                s.calls += 1;
                s.total_ns += total_ns;
                s.self_ns += self_ns;
                s.max_ns = s.max_ns.max(*total_ns);
                agg.span_hists.entry(name.clone()).or_default().record(*total_ns);
            }
            TraceEvent::Counter { name, delta, .. } => {
                *agg.counters.entry(name.clone()).or_insert(0) += delta;
            }
            TraceEvent::Gauge { name, value, .. } => {
                agg.gauges.insert(name.clone(), *value);
            }
            TraceEvent::Hist { name, value, .. } => {
                agg.hists.entry(name.clone()).or_default().record(*value);
            }
            TraceEvent::Header { .. }
            | TraceEvent::SpanStart { .. }
            | TraceEvent::Progress { .. }
            | TraceEvent::Meta { .. } => {}
        }
    }
    agg
}

/// Rebuilds the profile table from a trace — byte-identical to the
/// [`crate::Recorder::profile_table`] of the run that wrote it (for a
/// single-segment trace; multi-segment traces aggregate across
/// segments).
pub fn summary(trace: &Trace) -> String {
    let agg = aggregate(trace);
    let spans: Vec<(String, SpanStats, Histogram)> = agg
        .spans
        .iter()
        .map(|(k, v)| {
            let h = agg.span_hists.get(k).cloned().unwrap_or_default();
            (k.clone(), *v, h)
        })
        .collect();
    let counters: Vec<(String, u64)> =
        agg.counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let gauges: Vec<(String, f64)> = agg.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let hists: Vec<(String, Histogram)> =
        agg.hists.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    render_profile(&spans, &counters, &gauges, &hists)
}

/// Emits folded-stack lines (`a;b;c <self_ns>`) compatible with
/// standard flamegraph tooling, weighted by span self-time and summed
/// over identical stacks. Spans that never close (dropped events) are
/// silently skipped.
pub fn flame(trace: &Trace) -> String {
    let mut stacks: BTreeMap<(u64, Vec<String>), u64> = BTreeMap::new();
    // Per-(segment, thread) open-span stack.
    let mut open: BTreeMap<(usize, u64), Vec<String>> = BTreeMap::new();
    let mut segment = 0usize;
    for (_, ev) in &trace.events {
        match ev {
            TraceEvent::Header { .. } => {
                segment += 1;
                open.clear();
            }
            TraceEvent::SpanStart { name, thread, .. } => {
                open.entry((segment, *thread)).or_default().push(name.clone());
            }
            TraceEvent::SpanEnd { name, thread, self_ns, .. } => {
                let stack = open.entry((segment, *thread)).or_default();
                if stack.last().map(String::as_str) == Some(name.as_str()) {
                    *stacks.entry((*thread, stack.clone())).or_insert(0) += self_ns;
                    stack.pop();
                }
            }
            _ => {}
        }
    }
    let mut out = String::new();
    for ((thread, stack), ns) in &stacks {
        out.push_str(&format!("thread{}", thread));
        for frame in stack {
            out.push(';');
            out.push_str(frame);
        }
        out.push_str(&format!(" {ns}\n"));
    }
    out
}

/// Validates trace invariants, returning one message per violation
/// (empty = clean):
///
/// - the file parses and starts with a `header` line
/// - every segment's schema version is 1..=[`TRACE_SCHEMA_VERSION`]
/// - `t_ns` is monotone non-decreasing within a segment
/// - per thread, `span_end` names close in LIFO order against
///   `span_start`, and every span left open is reported
/// - `self_ns ≤ total_ns` on every `span_end`
///
/// Segments that dropped events get only the schema/monotonicity
/// checks — their span streams are legitimately incomplete.
pub fn check(trace: &Trace) -> Vec<String> {
    let mut problems = Vec::new();
    if !matches!(trace.events.first(), Some((_, TraceEvent::Header { .. }))) {
        problems.push("trace does not start with a header line".to_owned());
    }
    // Pre-scan segment boundaries to know which segments dropped events.
    let mut seg_dropped = vec![false];
    for (_, ev) in &trace.events {
        match ev {
            TraceEvent::Header { .. } => seg_dropped.push(false),
            TraceEvent::Meta { dropped_events } if *dropped_events > 0 => {
                if let Some(last) = seg_dropped.last_mut() {
                    *last = true;
                }
            }
            _ => {}
        }
    }

    let mut segment = 0usize;
    let mut prev_t = 0u64;
    let mut open: BTreeMap<u64, Vec<(usize, String)>> = BTreeMap::new();
    let close_open_spans =
        |open: &mut BTreeMap<u64, Vec<(usize, String)>>, dropped: bool, problems: &mut Vec<String>| {
            if !dropped {
                for (thread, stack) in open.iter() {
                    for (line, name) in stack {
                        problems.push(format!(
                            "line {line}: span `{name}` on thread {thread} never closed"
                        ));
                    }
                }
            }
            open.clear();
        };
    for (line, ev) in &trace.events {
        if let TraceEvent::Header { schema, .. } = ev {
            if segment > 0 {
                let dropped = seg_dropped.get(segment).copied().unwrap_or(false);
                close_open_spans(&mut open, dropped, &mut problems);
            }
            segment += 1;
            prev_t = 0;
            if *schema == 0 || *schema > TRACE_SCHEMA_VERSION {
                problems.push(format!(
                    "line {line}: unsupported schema version {schema} (expected 1..={TRACE_SCHEMA_VERSION})"
                ));
            }
            continue;
        }
        if segment == 0 {
            // Already reported the missing header; still check the rest.
            segment = 1;
        }
        if let Some(t) = ev.t_ns() {
            if t < prev_t {
                problems.push(format!(
                    "line {line}: t_ns {t} goes backwards (previous {prev_t})"
                ));
            }
            prev_t = prev_t.max(t);
        }
        let dropped = seg_dropped.get(segment).copied().unwrap_or(false);
        match ev {
            TraceEvent::SpanStart { name, thread, .. } => {
                open.entry(*thread).or_default().push((*line, name.clone()));
            }
            TraceEvent::SpanEnd { name, thread, total_ns, self_ns, .. } => {
                if self_ns > total_ns {
                    problems.push(format!(
                        "line {line}: span `{name}` self_ns {self_ns} exceeds total_ns {total_ns}"
                    ));
                }
                if !dropped {
                    let stack = open.entry(*thread).or_default();
                    match stack.pop() {
                        Some((_, top)) if top == *name => {}
                        Some((start_line, top)) => problems.push(format!(
                            "line {line}: span_end `{name}` does not match innermost \
                             span_start `{top}` (line {start_line}) on thread {thread}"
                        )),
                        None => problems.push(format!(
                            "line {line}: span_end `{name}` with no open span on thread {thread}"
                        )),
                    }
                }
            }
            _ => {}
        }
    }
    let dropped = seg_dropped.get(segment).copied().unwrap_or(false);
    close_open_spans(&mut open, dropped, &mut problems);
    problems
}

/// One regression found by [`diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// What regressed, e.g. `span fume.explain total`.
    pub what: String,
    /// Baseline value.
    pub before: f64,
    /// New value.
    pub after: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ratio = if self.before > 0.0 { self.after / self.before } else { f64::INFINITY };
        write!(
            f,
            "{}: {:.0} -> {:.0} ({:+.1}%)",
            self.what,
            self.before,
            self.after,
            (ratio - 1.0) * 100.0
        )
    }
}

/// Span times below this floor are ignored by [`diff`] — nanosecond
/// noise on sub-millisecond spans is not a regression signal.
const DIFF_MIN_TOTAL_NS: u64 = 1_000_000;

/// Compares aggregates of two traces. A *regression* is: a span whose
/// summed `total_ns` or `self_ns` grew by more than `tolerance`
/// (relative, e.g. `0.15` = +15%) with at least [`DIFF_MIN_TOTAL_NS`]
/// on one side, or a span call count / counter total that moved by more
/// than `tolerance` in either direction — count drift means the two
/// runs did different work, which invalidates the comparison.
pub fn diff(base: &Trace, new: &Trace, tolerance: f64) -> Vec<Regression> {
    let a = aggregate(base);
    let b = aggregate(new);
    let mut out = Vec::new();
    let tol = tolerance.max(0.0);

    for (name, sa) in &a.spans {
        let Some(sb) = b.spans.get(name) else {
            out.push(Regression {
                what: format!("span {name} disappeared"),
                before: sa.calls as f64,
                after: 0.0,
            });
            continue;
        };
        let rel = |x: u64, y: u64| -> f64 {
            if x == 0 {
                if y == 0 { 0.0 } else { f64::INFINITY }
            } else {
                y as f64 / x as f64 - 1.0
            }
        };
        let count_drift = rel(sa.calls, sb.calls).abs();
        if count_drift > tol {
            out.push(Regression {
                what: format!("span {name} calls"),
                before: sa.calls as f64,
                after: sb.calls as f64,
            });
            // Different work: time comparison would be meaningless.
            continue;
        }
        for (kind, va, vb) in
            [("total", sa.total_ns, sb.total_ns), ("self", sa.self_ns, sb.self_ns)]
        {
            if va.max(vb) >= DIFF_MIN_TOTAL_NS && rel(va, vb) > tol {
                out.push(Regression {
                    what: format!("span {name} {kind}_ns"),
                    before: va as f64,
                    after: vb as f64,
                });
            }
        }
    }
    for (name, sb) in &b.spans {
        if !a.spans.contains_key(name) {
            out.push(Regression {
                what: format!("span {name} appeared"),
                before: 0.0,
                after: sb.calls as f64,
            });
        }
    }
    for (name, va) in &a.counters {
        let vb = b.counters.get(name).copied().unwrap_or(0);
        let drift = if *va == 0 {
            if vb == 0 { 0.0 } else { f64::INFINITY }
        } else {
            (vb as f64 / *va as f64 - 1.0).abs()
        };
        if drift > tol {
            out.push(Regression {
                what: format!("counter {name}"),
                before: *va as f64,
                after: vb as f64,
            });
        }
    }
    for (name, vb) in &b.counters {
        if !a.counters.contains_key(name) {
            out.push(Regression {
                what: format!("counter {name} appeared"),
                before: 0.0,
                after: *vb as f64,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample_trace() -> (Recorder, String) {
        let r = Recorder::new();
        r.set_meta("seed", "7");
        r.span_start("a.outer", vec![], 0);
        r.span_start("a.inner", vec![], 0);
        r.span_end("a.inner", 0, 1_000, 1_000, Vec::new());
        r.span_end("a.outer", 0, 5_000, 4_000, Vec::new());
        r.add_counter("a.count", 3);
        r.set_gauge("a.gauge", 1.25);
        r.record_hist("a.hist", 64);
        let jsonl = r.events_to_jsonl();
        (r, jsonl)
    }

    #[test]
    fn parses_recorder_output() {
        let (_r, jsonl) = sample_trace();
        let t = parse_trace(&jsonl).unwrap();
        assert_eq!(t.segments(), 1);
        assert_eq!(t.dropped_events(), 0);
        assert!(matches!(
            &t.events[0].1,
            TraceEvent::Header { schema, meta }
                if *schema == TRACE_SCHEMA_VERSION && meta == &[("seed".to_owned(), "7".to_owned())]
        ));
        assert_eq!(t.events.len(), 8);
    }

    #[test]
    fn summary_matches_profile_table_exactly() {
        let (r, jsonl) = sample_trace();
        let t = parse_trace(&jsonl).unwrap();
        assert_eq!(summary(&t), r.profile_table());
    }

    #[test]
    fn flame_emits_folded_stacks() {
        let (_r, jsonl) = sample_trace();
        let t = parse_trace(&jsonl).unwrap();
        let f = flame(&t);
        assert!(f.contains("thread0;a.outer 4000\n"), "{f}");
        assert!(f.contains("thread0;a.outer;a.inner 1000\n"), "{f}");
    }

    #[test]
    fn check_passes_on_well_formed_trace() {
        let (_r, jsonl) = sample_trace();
        let t = parse_trace(&jsonl).unwrap();
        assert_eq!(check(&t), Vec::<String>::new());
    }

    #[test]
    fn check_flags_missing_header_and_backwards_time() {
        let t = parse_trace(
            "{\"type\":\"counter\",\"name\":\"c\",\"delta\":1,\"t_ns\":50}\n\
             {\"type\":\"counter\",\"name\":\"c\",\"delta\":1,\"t_ns\":20}\n",
        )
        .unwrap();
        let problems = check(&t);
        assert!(problems.iter().any(|p| p.contains("header")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("backwards")), "{problems:?}");
    }

    #[test]
    fn check_flags_bad_nesting_and_self_time() {
        let jsonl = format!(
            "{{\"type\":\"header\",\"schema\":{TRACE_SCHEMA_VERSION}}}\n\
             {{\"type\":\"span_start\",\"name\":\"a\",\"t_ns\":1,\"thread\":0}}\n\
             {{\"type\":\"span_start\",\"name\":\"b\",\"t_ns\":2,\"thread\":0}}\n\
             {{\"type\":\"span_end\",\"name\":\"a\",\"t_ns\":3,\"thread\":0,\"total_ns\":2,\"self_ns\":9}}\n"
        );
        let t = parse_trace(&jsonl).unwrap();
        let problems = check(&t);
        assert!(problems.iter().any(|p| p.contains("does not match innermost")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("exceeds total_ns")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("never closed")), "{problems:?}");
    }

    #[test]
    fn check_relaxes_nesting_when_events_dropped() {
        let jsonl = format!(
            "{{\"type\":\"header\",\"schema\":{TRACE_SCHEMA_VERSION}}}\n\
             {{\"type\":\"span_end\",\"name\":\"a\",\"t_ns\":3,\"thread\":0,\"total_ns\":9,\"self_ns\":2}}\n\
             {{\"type\":\"meta\",\"dropped_events\":10}}\n"
        );
        let t = parse_trace(&jsonl).unwrap();
        assert_eq!(check(&t), Vec::<String>::new());
    }

    #[test]
    fn check_rejects_future_schema() {
        let jsonl = format!("{{\"type\":\"header\",\"schema\":{}}}\n", TRACE_SCHEMA_VERSION + 1);
        let t = parse_trace(&jsonl).unwrap();
        assert!(check(&t).iter().any(|p| p.contains("unsupported schema")));
    }

    #[test]
    fn multi_segment_traces_reset_ordering_state() {
        let (_r1, seg1) = sample_trace();
        let (_r2, seg2) = sample_trace();
        let joined = format!("{seg1}{seg2}");
        let t = parse_trace(&joined).unwrap();
        assert_eq!(t.segments(), 2);
        // Second segment's timestamps restart near zero: must not be
        // flagged as going backwards.
        assert_eq!(check(&t), Vec::<String>::new());
        // Aggregates accumulate across segments.
        let agg = aggregate(&t);
        assert_eq!(agg.counters.get("a.count"), Some(&6));
        assert_eq!(agg.spans.get("a.outer").map(|s| s.calls), Some(2));
    }

    fn synthetic(total_outer: u64, calls: u64, counter: u64) -> Trace {
        let r = Recorder::new();
        for _ in 0..calls {
            let ns = total_outer / calls.max(1);
            r.span_end("s.outer", 0, ns, ns, Vec::new());
        }
        r.add_counter("s.count", counter);
        parse_trace(&r.events_to_jsonl()).unwrap()
    }

    #[test]
    fn diff_flags_slowdowns_but_tolerates_noise() {
        let base = synthetic(10_000_000, 10, 100);
        let same = synthetic(10_500_000, 10, 100);
        let slow = synthetic(20_000_000, 10, 100);
        assert_eq!(diff(&base, &same, 0.15), vec![]);
        let regs = diff(&base, &slow, 0.15);
        assert!(
            regs.iter().any(|r| r.what.contains("s.outer total_ns")),
            "{regs:?}"
        );
        // Improvements are not regressions.
        assert_eq!(diff(&slow, &base, 0.15), vec![]);
    }

    #[test]
    fn diff_flags_count_and_counter_drift_both_ways() {
        let base = synthetic(10_000_000, 10, 100);
        let fewer = synthetic(10_000_000, 5, 100);
        let regs = diff(&base, &fewer, 0.15);
        assert!(regs.iter().any(|r| r.what.contains("s.outer calls")), "{regs:?}");
        let counter_up = synthetic(10_000_000, 10, 200);
        let regs = diff(&base, &counter_up, 0.15);
        assert!(regs.iter().any(|r| r.what.contains("counter s.count")), "{regs:?}");
    }

    #[test]
    fn diff_ignores_sub_floor_spans() {
        let base = synthetic(100_000, 1, 1);
        let slow = synthetic(900_000, 1, 1);
        // 9x slower but under the 1ms floor: noise, not signal.
        assert_eq!(diff(&base, &slow, 0.15), vec![]);
    }

    #[test]
    fn regression_display_is_readable() {
        let r = Regression {
            what: "span x total_ns".into(),
            before: 1_000_000.0,
            after: 2_000_000.0,
        };
        assert_eq!(r.to_string(), "span x total_ns: 1000000 -> 2000000 (+100.0%)");
    }
}
