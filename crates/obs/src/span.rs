//! Span guards: RAII timers with thread-local nesting so each span
//! knows how much of its wall time was spent in child spans.

use std::cell::RefCell;
use std::time::Instant;

use crate::sync::Counter;
use crate::Value;

/// Process-wide thread sequence numbers — stable small integers for the
/// trace (unlike `ThreadId`, which has no stable integer accessor).
static NEXT_THREAD_SEQ: Counter = Counter::new(0);

thread_local! {
    static THREAD_SEQ: u64 = NEXT_THREAD_SEQ.add(1);
    /// One child-time accumulator per open span on this thread.
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_seq() -> u64 {
    THREAD_SEQ.with(|s| *s)
}

/// An RAII span: created by the [`crate::span!`] macro, closed on drop.
///
/// A disabled guard (no recorder installed) is inert — it reads no
/// clock and touches no thread-local state.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    start: Instant,
    thread: u64,
    /// Fields recorded while the span was open, written at its close.
    end_fields: Vec<(&'static str, Value)>,
}

impl SpanGuard {
    /// An inert guard, used when no recorder is installed.
    pub fn disabled() -> Self {
        SpanGuard { active: None }
    }

    /// Opens a span against the installed recorder. Called by the
    /// [`crate::span!`] macro after its enabled-check; a no-op when no
    /// recorder is installed.
    pub fn enter(name: &'static str, fields: Vec<(&'static str, Value)>) -> Self {
        let Some(rec) = crate::global() else {
            return Self::disabled();
        };
        let thread = thread_seq();
        rec.span_start(name, fields, thread);
        CHILD_NS.with(|c| c.borrow_mut().push(0));
        SpanGuard {
            active: Some(ActiveSpan {
                name,
                start: Instant::now(),
                thread,
                end_fields: Vec::new(),
            }),
        }
    }

    /// Attaches a field known only once the span's work is done (a result
    /// count, say); it is written on the span's `span_end` event. A no-op
    /// on a disabled guard.
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(span) = &mut self.active {
            span.end_fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else { return };
        let total_ns =
            u64::try_from(span.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let child_ns = CHILD_NS.with(|c| {
            let mut stack = c.borrow_mut();
            let mine = stack.pop().unwrap_or(0);
            // Everything under me — children included — counts as child
            // time for my parent.
            if let Some(parent) = stack.last_mut() {
                *parent = parent.saturating_add(total_ns);
            }
            mine
        });
        if let Some(rec) = crate::global() {
            rec.span_end(
                span.name,
                span.thread,
                total_ns,
                total_ns.saturating_sub(child_ns),
                span.end_fields,
            );
        }
    }
}
