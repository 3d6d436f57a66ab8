//! `fume-obs`: dependency-free observability for the FUME stack.
//!
//! Four primitives, all routed through one process-wide [`Recorder`]:
//!
//! - **Spans** — RAII wall-time timers with nesting-aware self-time,
//!   opened with [`span!`]: `let _g = span!("lattice.level", level = 2);`
//! - **Counters** — named monotonic totals: `counter!("forest.nodes_retrained", n);`
//! - **Gauges** — last-value-wins instantaneous readings:
//!   `gauge!("forest.num_instances", n as f64);`
//! - **Histograms** — log-bucketed value distributions:
//!   `histogram!("ckpt.state_bytes", n);` — span durations are
//!   histogrammed automatically per span name.
//!
//! Until [`install`] is called, every instrumentation site costs one
//! relaxed atomic load and nothing else — no clock reads, no
//! allocation, no locking. With a recorder installed, events buffer in
//! memory (bounded) and fold into per-name aggregates, which render as
//! a human-readable profile table ([`Recorder::profile_table`]) or a
//! JSONL event stream ([`Recorder::events_to_jsonl`]).
//!
//! Naming convention: dotted lowercase paths, layer first —
//! `forest.delete`, `lattice.pruned.rule4`, `fume.phase.train`. The
//! full vocabulary is catalogued in `docs/observability.md`.

pub mod clock;
pub mod fault;
pub mod hash;
pub mod hist;
pub mod json;
pub mod progress;
mod recorder;
mod span;
pub mod sync;
pub mod trace;

use std::cell::Cell;
use std::sync::OnceLock;

pub use hist::Histogram;
pub use recorder::{
    render_profile, Event, ProgressSnapshot, Recorder, SpanStats, TRACE_SCHEMA_VERSION,
};
pub use span::SpanGuard;

/// A structured field value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Owned string.
    Str(String),
}

macro_rules! value_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($v: $t) -> Self {
                $e
            }
        }
    )*};
}

value_from!(
    u16 => |v| Value::U64(u64::from(v)),
    u32 => |v| Value::U64(u64::from(v)),
    u64 => |v| Value::U64(v),
    usize => |v| Value::U64(v as u64),
    i32 => |v| Value::I64(i64::from(v)),
    i64 => |v| Value::I64(v),
    f64 => |v| Value::F64(v),
);

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();
static ENABLED: sync::Flag = sync::Flag::new(false);

/// Installs the process-wide recorder (idempotent) and returns it.
/// From this point every `span!`/`counter!`/`gauge!` site records.
pub fn install() -> &'static Recorder {
    let rec = RECORDER.get_or_init(Recorder::new);
    ENABLED.set(true);
    rec
}

/// Whether a recorder is installed — the single atomic load every
/// disabled instrumentation site pays.
#[inline]
pub fn enabled() -> bool {
    ENABLED.get()
}

/// The installed recorder, if any.
#[inline]
pub fn global() -> Option<&'static Recorder> {
    if enabled() {
        RECORDER.get()
    } else {
        None
    }
}

/// Adds to a named counter on the installed recorder (no-op when none,
/// and inside an [`audit`]). Call sites normally go through
/// [`counter!`], which skips the call entirely when disabled.
#[inline]
pub fn add_counter(name: &'static str, delta: u64) {
    if let Some(rec) = global() {
        if !AUDITING.with(Cell::get) {
            rec.add_counter(name, delta);
        }
    }
}

thread_local! {
    /// Whether this thread is inside an [`audit`].
    static AUDITING: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` as an audit: a check that recomputes work the program
/// already did (a `FUME_DEEPCHECK` comparison, say) to assert the
/// answers agree. The counters the calling thread adds while `f` runs
/// are dropped, so turning audits on leaves every count of work as it
/// was; spans still record. Only the calling thread is muted: work an
/// audit fans out to other threads still counts.
pub fn audit<T>(f: impl FnOnce() -> T) -> T {
    /// Restores the outer state, on unwind too.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            AUDITING.with(|a| a.set(self.0));
        }
    }
    let _restore = Restore(AUDITING.with(|a| a.replace(true)));
    f()
}

/// Whether deep checking (`FUME_DEEPCHECK=1`) is on for this process:
/// every crate's fast paths then recompute their answers the reference
/// way, as [`audit`]s, and assert that they agree.
///
/// Reads `FUME_DEEPCHECK` once and caches the answer, since the gate
/// sits on hot paths. Always `false` in release builds.
#[inline]
pub fn deepcheck_enabled() -> bool {
    if cfg!(debug_assertions) {
        static DEEPCHECK: OnceLock<bool> = OnceLock::new();
        *DEEPCHECK.get_or_init(|| {
            matches!(
                std::env::var("FUME_DEEPCHECK").as_deref(),
                Ok("1") | Ok("true") | Ok("TRUE")
            )
        })
    } else {
        false
    }
}

/// Sets a named gauge on the installed recorder (no-op when none).
#[inline]
pub fn set_gauge(name: &'static str, value: f64) {
    if let Some(rec) = global() {
        rec.set_gauge(name, value);
    }
}

/// Records one sample into a named histogram on the installed recorder
/// (no-op when none).
#[inline]
pub fn record_hist(name: &'static str, value: u64) {
    if let Some(rec) = global() {
        rec.record_hist(name, value);
    }
}

/// Opens a timing span for the enclosing scope. Bind the result:
///
/// ```
/// # use fume_obs::span;
/// let _span = span!("lattice.level", level = 2usize);
/// ```
///
/// Fields are `name = expr` pairs; any `Into<Value>` type works. With
/// no recorder installed this is one atomic load — the field
/// expressions are still evaluated, so keep them cheap.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter(
                $name,
                ::std::vec![$((stringify!($k), $crate::Value::from($v))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Adds to a named monotonic counter:
/// `counter!("forest.nodes_retrained", report.subtrees_retrained)`.
/// One atomic load when no recorder is installed.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        if $crate::enabled() {
            $crate::add_counter($name, $delta as u64);
        }
    };
}

/// Sets a named gauge to an instantaneous value:
/// `gauge!("forest.num_instances", forest.num_instances() as f64)`.
/// One atomic load when no recorder is installed.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::set_gauge($name, $value as f64);
        }
    };
}

/// Records one sample into a named log-bucketed histogram:
/// `histogram!("ckpt.state_bytes", bytes)`. The distribution shows up
/// in the profile table and as `hist` events in the trace.
/// One atomic load when no recorder is installed.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::record_hist($name, $value as u64);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The global recorder is process-wide state; tests touching it
    /// take this lock and reset before use.
    static GLOBAL_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_global<T>(f: impl FnOnce(&'static Recorder) -> T) -> T {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rec = install();
        rec.reset();
        f(rec)
    }

    #[test]
    fn disabled_macros_record_nothing() {
        // `enabled()` may already be true if another test installed the
        // recorder first, so assert on the *guard* behaviour instead:
        // a disabled guard must stay inert through drop.
        let g = SpanGuard::disabled();
        drop(g);
        // And the macros must be expression-position-safe.
        let _g = span!("x.y");
        counter!("x.c", 1u64);
        gauge!("x.g", 2.0);
        histogram!("x.h", 3u64);
    }

    #[test]
    fn span_nesting_computes_self_time() {
        with_global(|rec| {
            {
                let _outer = span!("t.outer");
                std::thread::sleep(std::time::Duration::from_millis(8));
                {
                    let _inner = span!("t.inner", depth = 1u64);
                    std::thread::sleep(std::time::Duration::from_millis(8));
                }
            }
            let outer = rec.span_stats("t.outer").unwrap();
            let inner = rec.span_stats("t.inner").unwrap();
            assert_eq!(outer.calls, 1);
            assert_eq!(inner.calls, 1);
            // Inner's time is fully inside outer's.
            assert!(outer.total_ns >= inner.total_ns);
            // Outer's self-time excludes inner's total.
            assert!(outer.self_ns <= outer.total_ns - inner.total_ns + 1_000_000);
            // Inner has no children: self == total.
            assert_eq!(inner.self_ns, inner.total_ns);
        });
    }

    #[test]
    fn sibling_and_grandchild_spans_attribute_time_once() {
        with_global(|rec| {
            {
                let _a = span!("n.a");
                {
                    let _b = span!("n.b");
                    let _c = span!("n.c");
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                {
                    let _b2 = span!("n.b");
                }
            }
            let a = rec.span_stats("n.a").unwrap();
            let b = rec.span_stats("n.b").unwrap();
            let c = rec.span_stats("n.c").unwrap();
            assert_eq!(b.calls, 2);
            // c is nested under b, so b's child time includes c once —
            // a's child time counts b's totals, not b + c twice.
            assert!(a.total_ns >= b.total_ns);
            assert!(b.total_ns >= c.total_ns);
            let attributed = a.self_ns + b.self_ns + c.self_ns;
            assert!(
                attributed <= a.total_ns + 1_000_000,
                "self-times over-attribute: {attributed} vs {}",
                a.total_ns
            );
        });
    }

    #[test]
    fn counters_aggregate_across_threads() {
        with_global(|rec| {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..100 {
                            counter!("t.hits", 2u64);
                        }
                    });
                }
            });
            assert_eq!(rec.counter_value("t.hits"), Some(800));
        });
    }

    #[test]
    fn audits_add_no_counts_on_their_thread() {
        with_global(|rec| {
            counter!("t.audited", 1u64);
            audit(|| {
                counter!("t.audited", 10u64);
                audit(|| counter!("t.audited", 10u64));
                // The nested audit's end leaves the outer one on.
                counter!("t.audited", 10u64);
                // Another thread is not in the audit.
                std::thread::scope(|s| {
                    s.spawn(|| counter!("t.audited", 100u64));
                });
            });
            counter!("t.audited", 1u64);
            assert_eq!(rec.counter_value("t.audited"), Some(102));
            let unwound = std::panic::catch_unwind(|| audit(|| panic!("inside an audit")));
            assert!(unwound.is_err());
            counter!("t.audited", 1u64);
            assert_eq!(rec.counter_value("t.audited"), Some(103), "an unwind ends the audit");
        });
    }

    #[test]
    fn spans_on_different_threads_do_not_nest() {
        with_global(|rec| {
            let _outer = span!("th.outer");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = span!("th.worker");
                    std::thread::sleep(std::time::Duration::from_millis(5));
                });
            });
            drop(_outer);
            let w = rec.span_stats("th.worker").unwrap();
            // Worker ran on its own thread: its self-time is its own.
            assert_eq!(w.self_ns, w.total_ns);
        });
    }

    #[test]
    fn jsonl_lines_parse_with_tiny_checker() {
        with_global(|rec| {
            {
                let _g = span!("j.s", k = "va\"lue", n = 3u64, f = 0.5, yes = true);
            }
            counter!("j.c", 9u64);
            gauge!("j.g", 1.25);
            let out = rec.events_to_jsonl();
            assert!(out.lines().count() >= 4);
            for line in out.lines() {
                assert!(json_checker::parse(line), "invalid JSON line: {line}");
            }
        });
    }

    /// A deliberately tiny recursive-descent JSON validity checker —
    /// enough to prove each emitted line is well-formed JSON.
    mod json_checker {
        pub fn parse(s: &str) -> bool {
            let b = s.as_bytes();
            let mut i = 0;
            value(b, &mut i) && {
                skip_ws(b, &mut i);
                i == b.len()
            }
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

        fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> bool {
            if b[*i..].starts_with(lit) {
                *i += lit.len();
                true
            } else {
                false
            }
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

        fn string(b: &[u8], i: &mut usize) -> bool {
            if b.get(*i) != Some(&b'"') {
                return false;
            }
            *i += 1;
            while *i < b.len() {
                match b[*i] {
                    b'"' => {
                        *i += 1;
                        return true;
                    }
                    b'\\' => *i += 2,
                    0x00..=0x1F => return false,
                    _ => *i += 1,
                }
            }
            false
        }

        fn object(b: &[u8], i: &mut usize) -> bool {
            *i += 1; // past '{'
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
            *i += 1; // past '['
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
    }
}
