//! The [`Recorder`]: thread-safe aggregation of spans, counters,
//! gauges and histograms, plus the bounded raw event stream behind
//! JSONL export.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::hist::Histogram;
use crate::json::{write_f64, write_key, write_str};
use crate::Value;

/// Trace schema version written in the header event. Version 2 added
/// the header itself plus `hist` and `progress` events.
pub const TRACE_SCHEMA_VERSION: u64 = 2;

/// Cap on buffered raw events; aggregates keep counting past it, and
/// the overflow is reported via [`Recorder::dropped_events`].
const MAX_EVENTS: usize = 1 << 20;

/// A live-progress snapshot from the search/eval pipeline (see
/// [`crate::progress`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProgressSnapshot {
    /// Current lattice level.
    pub level: u64,
    /// Patterns on the current level's frontier.
    pub frontier: u64,
    /// Unlearn-evals planned for this level.
    pub planned: u64,
    /// Unlearn-evals finished on this level (deduped hits included).
    pub done: u64,
    /// Unlearn-evals finished over the whole run.
    pub done_total: u64,
    /// Evals satisfied from the dedup cache over the whole run.
    pub deduped: u64,
    /// Recent evaluation rate, evals per second.
    pub rate: f64,
    /// Estimated seconds until the current level completes.
    pub eta_s: f64,
}

/// One raw trace event, timestamped relative to the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened.
    SpanStart {
        /// Dotted span name.
        name: &'static str,
        /// Structured fields attached at the call site.
        fields: Vec<(&'static str, Value)>,
        /// Nanoseconds since the recorder was created.
        t_ns: u64,
        /// Per-process thread sequence number.
        thread: u64,
    },
    /// A span closed.
    SpanEnd {
        /// Dotted span name.
        name: &'static str,
        /// Nanoseconds since the recorder was created (at close).
        t_ns: u64,
        /// Per-process thread sequence number.
        thread: u64,
        /// Wall time inside the span, children included.
        total_ns: u64,
        /// Wall time minus time spent in child spans on this thread.
        self_ns: u64,
        /// Fields recorded while the span was open
        /// ([`crate::SpanGuard::record`]).
        fields: Vec<(&'static str, Value)>,
    },
    /// A monotonic counter increment.
    Counter {
        /// Dotted counter name.
        name: &'static str,
        /// Amount added.
        delta: u64,
        /// Nanoseconds since the recorder was created.
        t_ns: u64,
    },
    /// A gauge set to an instantaneous value.
    Gauge {
        /// Dotted gauge name.
        name: &'static str,
        /// The new value.
        value: f64,
        /// Nanoseconds since the recorder was created.
        t_ns: u64,
    },
    /// One sample recorded into a named value histogram.
    Hist {
        /// Dotted histogram name.
        name: &'static str,
        /// The sample.
        value: u64,
        /// Nanoseconds since the recorder was created.
        t_ns: u64,
    },
    /// A live-progress snapshot.
    Progress {
        /// The snapshot.
        snap: ProgressSnapshot,
        /// Nanoseconds since the recorder was created.
        t_ns: u64,
    },
}

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Number of completed spans.
    pub calls: u64,
    /// Summed wall time, children included.
    pub total_ns: u64,
    /// Summed wall time minus child-span time.
    pub self_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

impl SpanStats {
    /// Summed wall time as a [`Duration`].
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_ns)
    }

    /// Mean wall time per call.
    pub fn mean(&self) -> Duration {
        Duration::from_nanos(self.total_ns.checked_div(self.calls).unwrap_or(0))
    }
}

#[derive(Default)]
struct State {
    events: Vec<Event>,
    dropped: u64,
    spans: BTreeMap<&'static str, SpanStats>,
    span_hists: BTreeMap<&'static str, Histogram>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Histogram>,
    meta: BTreeMap<&'static str, String>,
}

/// Collects trace events and aggregates from every thread of a run.
///
/// One recorder is normally installed process-wide via
/// [`crate::install`]; a standalone instance is useful in tests.
pub struct Recorder {
    epoch: Instant,
    state: crate::sync::TrackedMutex<State>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            // Quiet: this lock backs every `fume.sync.*` emission, so a
            // metric-emitting wrapper here would recurse into itself.
            state: crate::sync::TrackedMutex::new_quiet("obs.recorder", State::default()),
        }
    }

    /// Locks the aggregate state.
    ///
    /// Telemetry must never turn one panicking worker thread into a
    /// cascade: every mutation under this lock (push, BTreeMap insert,
    /// counter add) either completes or leaves the maps structurally
    /// valid, so after a poison the worst case is one lost event — the
    /// tracked lock's `Keep` recovery keeps recording rather than
    /// propagate the panic.
    fn state(&self) -> crate::sync::TrackedGuard<'_, State> {
        self.state.lock()
    }

    /// Nanoseconds since this recorder was created (saturating).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push_event(state: &mut State, event: Event) {
        if state.events.len() < MAX_EVENTS {
            state.events.push(event);
        } else {
            state.dropped += 1;
        }
    }

    /// Records a span opening.
    ///
    /// The timestamp is taken *under* the state lock so buffered events
    /// are monotone in `t_ns` — an invariant `fume-trace check`
    /// verifies offline.
    pub fn span_start(
        &self,
        name: &'static str,
        fields: Vec<(&'static str, Value)>,
        thread: u64,
    ) {
        let mut st = self.state();
        let t_ns = self.now_ns();
        Self::push_event(&mut st, Event::SpanStart { name, fields, t_ns, thread });
    }

    /// Records a span closing and folds it into the aggregates,
    /// including the per-name duration histogram.
    pub fn span_end(
        &self,
        name: &'static str,
        thread: u64,
        total_ns: u64,
        self_ns: u64,
        fields: Vec<(&'static str, Value)>,
    ) {
        let mut st = self.state();
        let t_ns = self.now_ns();
        let s = st.spans.entry(name).or_default();
        s.calls += 1;
        s.total_ns += total_ns;
        s.self_ns += self_ns;
        s.max_ns = s.max_ns.max(total_ns);
        st.span_hists.entry(name).or_default().record(total_ns);
        Self::push_event(&mut st, Event::SpanEnd { name, t_ns, thread, total_ns, self_ns, fields });
    }

    /// Adds `delta` to a monotonic counter.
    pub fn add_counter(&self, name: &'static str, delta: u64) {
        let mut st = self.state();
        let t_ns = self.now_ns();
        *st.counters.entry(name).or_insert(0) += delta;
        Self::push_event(&mut st, Event::Counter { name, delta, t_ns });
    }

    /// Sets a gauge to an instantaneous value.
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        let mut st = self.state();
        let t_ns = self.now_ns();
        st.gauges.insert(name, value);
        Self::push_event(&mut st, Event::Gauge { name, value, t_ns });
    }

    /// Records one sample into a named value histogram.
    pub fn record_hist(&self, name: &'static str, value: u64) {
        let mut st = self.state();
        let t_ns = self.now_ns();
        st.hists.entry(name).or_default().record(value);
        Self::push_event(&mut st, Event::Hist { name, value, t_ns });
    }

    /// Buffers a live-progress snapshot in the trace.
    pub fn record_progress(&self, snap: ProgressSnapshot) {
        let mut st = self.state();
        let t_ns = self.now_ns();
        Self::push_event(&mut st, Event::Progress { snap, t_ns });
    }

    /// Attaches a run-description key to the trace header (seed,
    /// config hash, dataset fingerprint, …). Last write wins.
    pub fn set_meta(&self, key: &'static str, value: impl Into<String>) {
        self.state().meta.insert(key, value.into());
    }

    /// Aggregated stats for one span name, if it ever completed.
    pub fn span_stats(&self, name: &str) -> Option<SpanStats> {
        self.state().spans.get(name).copied()
    }

    /// Duration histogram for one span name, if it ever completed.
    pub fn span_hist(&self, name: &str) -> Option<Histogram> {
        self.state().span_hists.get(name).cloned()
    }

    /// Value histogram recorded via [`crate::histogram!`], if any.
    pub fn hist(&self, name: &str) -> Option<Histogram> {
        self.state().hists.get(name).cloned()
    }

    /// Current value of a counter, if it was ever incremented.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.state().counters.get(name).copied()
    }

    /// Last value of a gauge, if it was ever set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.state().gauges.get(name).copied()
    }

    /// Every instrumentation name seen so far, as `(name, kind)` pairs
    /// with kind one of `span`/`counter`/`gauge`/`histogram`. The
    /// doc-drift test diffs this against `docs/observability.md`.
    pub fn inventory(&self) -> Vec<(&'static str, &'static str)> {
        let st = self.state();
        let mut out = Vec::new();
        out.extend(st.spans.keys().map(|n| (*n, "span")));
        out.extend(st.counters.keys().map(|n| (*n, "counter")));
        out.extend(st.gauges.keys().map(|n| (*n, "gauge")));
        out.extend(st.hists.keys().map(|n| (*n, "histogram")));
        out
    }

    /// Number of buffered raw events.
    pub fn event_count(&self) -> usize {
        self.state().events.len()
    }

    /// Raw events dropped after the buffer cap was reached.
    pub fn dropped_events(&self) -> u64 {
        self.state().dropped
    }

    /// Clears events and aggregates; the epoch and meta keep running —
    /// meta describes the process, not one segment.
    pub fn reset(&self) {
        let mut st = self.state();
        let meta = std::mem::take(&mut st.meta);
        *st = State { meta, ..State::default() };
    }

    /// Serializes the buffered event stream as JSONL: a self-describing
    /// `header` line first, then one event per line (see
    /// `docs/observability.md` for the schema).
    pub fn events_to_jsonl(&self) -> String {
        let st = self.state();
        let mut out = String::with_capacity(st.events.len() * 96 + 128);
        out.push_str(&format!("{{\"type\":\"header\",\"schema\":{TRACE_SCHEMA_VERSION}"));
        if !st.meta.is_empty() {
            out.push_str(",\"meta\":{");
            let mut first = true;
            for (k, v) in &st.meta {
                write_key(&mut out, &mut first, k);
                write_str(&mut out, v);
            }
            out.push('}');
        }
        out.push_str("}\n");
        for ev in &st.events {
            write_event(&mut out, ev);
            out.push('\n');
        }
        if st.dropped > 0 {
            out.push_str(&format!(
                "{{\"type\":\"meta\",\"dropped_events\":{}}}\n",
                st.dropped
            ));
        }
        out
    }

    /// Renders the aggregate profile: spans sorted by total time with
    /// latency percentiles, then counters, gauges and histograms, as a
    /// fixed-width text table.
    pub fn profile_table(&self) -> String {
        let st = self.state();
        let spans: Vec<(String, SpanStats, Histogram)> = st
            .spans
            .iter()
            .map(|(k, v)| {
                let h = st.span_hists.get(k).cloned().unwrap_or_default();
                ((*k).to_owned(), *v, h)
            })
            .collect();
        let counters: Vec<(String, u64)> =
            st.counters.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
        let gauges: Vec<(String, f64)> =
            st.gauges.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
        let hists: Vec<(String, Histogram)> =
            st.hists.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect();
        render_profile(&spans, &counters, &gauges, &hists)
    }
}

/// Renders the profile table from aggregate data. Shared between the
/// in-process [`Recorder::profile_table`] and `fume-trace summary`,
/// which rebuilds the same aggregates from a trace file — byte-for-byte
/// identical output is the contract between them.
pub fn render_profile(
    spans: &[(String, SpanStats, Histogram)],
    counters: &[(String, u64)],
    gauges: &[(String, f64)],
    hists: &[(String, Histogram)],
) -> String {
    let mut out = String::new();
    let mut spans: Vec<&(String, SpanStats, Histogram)> = spans.iter().collect();
    spans.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then_with(|| a.0.cmp(&b.0)));
    let name_w = spans
        .iter()
        .map(|(n, _, _)| n.len())
        .chain(counters.iter().map(|(n, _)| n.len()))
        .chain(gauges.iter().map(|(n, _)| n.len()))
        .chain(hists.iter().map(|(n, _)| n.len()))
        .max()
        .unwrap_or(4)
        .max(4);
    if !spans.is_empty() {
        out.push_str(&format!(
            "{:name_w$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
            "span", "calls", "total", "self", "mean", "p50", "p90", "p99", "max"
        ));
        for (name, s, h) in &spans {
            out.push_str(&format!(
                "{:name_w$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                name,
                s.calls,
                fmt_ns(s.total_ns),
                fmt_ns(s.self_ns),
                fmt_ns(s.total_ns.checked_div(s.calls).unwrap_or(0)),
                fmt_ns(h.quantile(0.50)),
                fmt_ns(h.quantile(0.90)),
                fmt_ns(h.quantile(0.99)),
                fmt_ns(s.max_ns),
            ));
        }
    }
    if !counters.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!("{:name_w$}  {:>12}\n", "counter", "value"));
        for (name, v) in counters {
            out.push_str(&format!("{:name_w$}  {:>12}\n", name, v));
        }
    }
    if !gauges.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!("{:name_w$}  {:>12}\n", "gauge", "value"));
        for (name, v) in gauges {
            out.push_str(&format!("{:name_w$}  {:>12.4}\n", name, v));
        }
    }
    if !hists.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!(
            "{:name_w$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>12}\n",
            "histogram", "count", "p50", "p90", "p99", "max"
        ));
        for (name, h) in hists {
            out.push_str(&format!(
                "{:name_w$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>12}\n",
                name,
                h.count(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.max(),
            ));
        }
    }
    if out.is_empty() {
        out.push_str("(no events recorded)\n");
    }
    out
}

/// Human-readable nanoseconds: `532ns`, `18.3µs`, `4.71ms`, `1.20s`.
pub(crate) fn fmt_ns(ns: u64) -> String {
    let ns_f = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns_f / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns_f / 1e6)
    } else {
        format!("{:.2}s", ns_f / 1e9)
    }
}

fn write_fields(out: &mut String, fields: &[(&'static str, Value)]) {
    out.push('{');
    let mut first = true;
    for (k, v) in fields {
        write_key(out, &mut first, k);
        match v {
            Value::U64(x) => out.push_str(&x.to_string()),
            Value::I64(x) => out.push_str(&x.to_string()),
            Value::F64(x) => write_f64(out, *x),
            Value::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
            Value::Str(s) => write_str(out, s),
        }
    }
    out.push('}');
}

fn write_event(out: &mut String, ev: &Event) {
    out.push('{');
    let mut first = true;
    match ev {
        Event::SpanStart { name, fields, t_ns, thread } => {
            write_key(out, &mut first, "type");
            out.push_str("\"span_start\"");
            write_key(out, &mut first, "name");
            write_str(out, name);
            write_key(out, &mut first, "t_ns");
            out.push_str(&t_ns.to_string());
            write_key(out, &mut first, "thread");
            out.push_str(&thread.to_string());
            if !fields.is_empty() {
                write_key(out, &mut first, "fields");
                write_fields(out, fields);
            }
        }
        Event::SpanEnd { name, t_ns, thread, total_ns, self_ns, fields } => {
            write_key(out, &mut first, "type");
            out.push_str("\"span_end\"");
            write_key(out, &mut first, "name");
            write_str(out, name);
            write_key(out, &mut first, "t_ns");
            out.push_str(&t_ns.to_string());
            write_key(out, &mut first, "thread");
            out.push_str(&thread.to_string());
            write_key(out, &mut first, "total_ns");
            out.push_str(&total_ns.to_string());
            write_key(out, &mut first, "self_ns");
            out.push_str(&self_ns.to_string());
            if !fields.is_empty() {
                write_key(out, &mut first, "fields");
                write_fields(out, fields);
            }
        }
        Event::Counter { name, delta, t_ns } => {
            write_key(out, &mut first, "type");
            out.push_str("\"counter\"");
            write_key(out, &mut first, "name");
            write_str(out, name);
            write_key(out, &mut first, "delta");
            out.push_str(&delta.to_string());
            write_key(out, &mut first, "t_ns");
            out.push_str(&t_ns.to_string());
        }
        Event::Gauge { name, value, t_ns } => {
            write_key(out, &mut first, "type");
            out.push_str("\"gauge\"");
            write_key(out, &mut first, "name");
            write_str(out, name);
            write_key(out, &mut first, "value");
            write_f64(out, *value);
            write_key(out, &mut first, "t_ns");
            out.push_str(&t_ns.to_string());
        }
        Event::Hist { name, value, t_ns } => {
            write_key(out, &mut first, "type");
            out.push_str("\"hist\"");
            write_key(out, &mut first, "name");
            write_str(out, name);
            write_key(out, &mut first, "value");
            out.push_str(&value.to_string());
            write_key(out, &mut first, "t_ns");
            out.push_str(&t_ns.to_string());
        }
        Event::Progress { snap, t_ns } => {
            write_key(out, &mut first, "type");
            out.push_str("\"progress\"");
            write_key(out, &mut first, "t_ns");
            out.push_str(&t_ns.to_string());
            write_key(out, &mut first, "level");
            out.push_str(&snap.level.to_string());
            write_key(out, &mut first, "frontier");
            out.push_str(&snap.frontier.to_string());
            write_key(out, &mut first, "planned");
            out.push_str(&snap.planned.to_string());
            write_key(out, &mut first, "done");
            out.push_str(&snap.done.to_string());
            write_key(out, &mut first, "done_total");
            out.push_str(&snap.done_total.to_string());
            write_key(out, &mut first, "deduped");
            out.push_str(&snap.deduped.to_string());
            write_key(out, &mut first, "rate");
            write_f64(out, snap.rate);
            write_key(out, &mut first, "eta_s");
            write_f64(out, snap.eta_s);
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_accumulate() {
        let r = Recorder::new();
        r.span_end("a.b", 0, 100, 60, Vec::new());
        r.span_end("a.b", 0, 300, 200, Vec::new());
        r.span_end("c", 1, 50, 50, Vec::new());
        let s = r.span_stats("a.b").unwrap();
        assert_eq!(s.calls, 2);
        assert_eq!(s.total_ns, 400);
        assert_eq!(s.self_ns, 260);
        assert_eq!(s.max_ns, 300);
        assert_eq!(s.mean(), Duration::from_nanos(200));
        assert!(r.span_stats("nope").is_none());

        r.add_counter("k", 3);
        r.add_counter("k", 4);
        assert_eq!(r.counter_value("k"), Some(7));
        r.set_gauge("g", 1.5);
        r.set_gauge("g", 2.5);
        assert_eq!(r.gauge_value("g"), Some(2.5));
    }

    #[test]
    fn span_durations_fold_into_histograms() {
        let r = Recorder::new();
        for ns in [100u64, 200, 300, 400, 10_000] {
            r.span_end("h.s", 0, ns, ns, Vec::new());
        }
        let h = r.span_hist("h.s").unwrap();
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 10_000);
        assert!(h.quantile(0.5) <= 400);
        assert!(r.span_hist("nope").is_none());
    }

    #[test]
    fn value_histograms_aggregate_and_stream() {
        let r = Recorder::new();
        r.record_hist("v.h", 7);
        r.record_hist("v.h", 9);
        let h = r.hist("v.h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 16);
        let out = r.events_to_jsonl();
        assert!(
            out.contains(r#""type":"hist","name":"v.h","value":7"#),
            "{out}"
        );
    }

    #[test]
    fn timestamps_are_monotone_under_contention() {
        let r = Recorder::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..200u64 {
                        r.add_counter("m.c", 1);
                        r.span_end("m.s", t, i, i, Vec::new());
                    }
                });
            }
        });
        let st = r.state();
        let mut prev = 0u64;
        for ev in &st.events {
            let t = match ev {
                Event::SpanStart { t_ns, .. }
                | Event::SpanEnd { t_ns, .. }
                | Event::Counter { t_ns, .. }
                | Event::Gauge { t_ns, .. }
                | Event::Hist { t_ns, .. }
                | Event::Progress { t_ns, .. } => *t_ns,
            };
            assert!(t >= prev, "event stream must be monotone in t_ns");
            prev = t;
        }
    }

    #[test]
    fn reset_clears_everything_but_meta() {
        let r = Recorder::new();
        r.add_counter("k", 1);
        r.span_end("s", 0, 10, 10, Vec::new());
        r.record_hist("h", 1);
        r.set_meta("seed", "7");
        assert!(r.event_count() > 0);
        r.reset();
        assert_eq!(r.event_count(), 0);
        assert!(r.counter_value("k").is_none());
        assert!(r.span_stats("s").is_none());
        assert!(r.hist("h").is_none());
        assert!(
            r.events_to_jsonl().contains(r#""seed":"7""#),
            "meta survives reset: it describes the process, not a segment"
        );
    }

    #[test]
    fn table_orders_spans_by_total_time() {
        let r = Recorder::new();
        r.span_end("fast", 0, 10, 10, Vec::new());
        r.span_end("slow", 0, 2_000_000_000, 1_000_000_000, Vec::new());
        r.add_counter("hits", 12);
        r.set_gauge("load", 0.7);
        let t = r.profile_table();
        let slow_at = t.find("slow").unwrap();
        let fast_at = t.find("fast").unwrap();
        assert!(slow_at < fast_at, "{t}");
        assert!(t.contains("2.00s"), "{t}");
        assert!(t.contains("hits"), "{t}");
        assert!(t.contains("0.7000"), "{t}");
        for col in ["p50", "p90", "p99"] {
            assert!(t.contains(col), "missing {col} column:\n{t}");
        }
    }

    #[test]
    fn empty_table_says_so() {
        assert_eq!(Recorder::new().profile_table(), "(no events recorded)\n");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(532), "532ns");
        assert_eq!(fmt_ns(18_300), "18.3µs");
        assert_eq!(fmt_ns(4_710_000), "4.71ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }

    #[test]
    fn jsonl_shapes() {
        let r = Recorder::new();
        r.span_start("s", vec![("level", Value::U64(2)), ("tag", Value::Str("x\"y".into()))], 3);
        r.span_end("s", 3, 40, 40, vec![("children", Value::U64(7))]);
        r.add_counter("c", 5);
        r.set_gauge("g", f64::NAN);
        let out = r.events_to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "header + 4 events: {out}");
        assert!(
            lines[0].contains(&format!(r#""type":"header","schema":{TRACE_SCHEMA_VERSION}"#)),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains(r#""fields":{"level":2,"tag":"x\"y"}"#), "{}", lines[1]);
        assert!(
            lines[2].contains(r#""total_ns":40,"self_ns":40,"fields":{"children":7}"#),
            "{}",
            lines[2]
        );
        assert!(lines[3].contains(r#""delta":5"#), "{}", lines[3]);
        assert!(lines[4].contains(r#""value":null"#), "{}", lines[4]);
    }

    #[test]
    fn header_carries_meta() {
        let r = Recorder::new();
        r.set_meta("seed", "42");
        r.set_meta("dataset", "adult");
        let out = r.events_to_jsonl();
        let header = out.lines().next().unwrap();
        assert!(
            header.contains(r#""meta":{"dataset":"adult","seed":"42"}"#),
            "{header}"
        );
    }

    #[test]
    fn progress_events_serialize() {
        let r = Recorder::new();
        r.record_progress(ProgressSnapshot {
            level: 2,
            frontier: 40,
            planned: 33,
            done: 10,
            done_total: 55,
            deduped: 4,
            rate: 125.0,
            eta_s: 0.184,
        });
        let out = r.events_to_jsonl();
        assert!(out.contains(r#""type":"progress""#), "{out}");
        assert!(out.contains(r#""level":2"#), "{out}");
        assert!(out.contains(r#""eta_s":0.184"#), "{out}");
    }
}
