//! The workspace's sanctioned synchronization module (lint rules
//! **F009–F012**).
//!
//! The exact-unlearning contract makes scheduling bugs correctness
//! bugs: a deadlocked worker or a lock-order inversion can stall or
//! reorder evaluations that must be bit-identical run to run. Raw
//! `std::sync::{Mutex, Condvar, RwLock}` construction and explicit
//! atomic memory orderings are therefore banned outside this module
//! (and the lock-free [`crate::progress`]); everything else goes
//! through:
//!
//! - [`TrackedMutex`]/[`TrackedCondvar`] — std wrappers carrying a
//!   static site name. Poisoning is recovered *by policy* at
//!   construction ([`Recovery::Keep`] or [`Recovery::Reset`]) instead
//!   of ad-hoc `PoisonError::into_inner` at every call site.
//! - [`Flag`]/[`Counter`] — the two atomic shapes the workspace needs
//!   (enable bits and relaxed monotonic counters), so no other crate
//!   spells an `Ordering` literal.
//!
//! Under `FUME_DEEPCHECK=1` or in debug builds, every acquisition
//! records a (held-site → acquired-site) edge into a global FNV-keyed
//! lock-order graph with incremental cycle detection. Violations
//! surface as typed [`CycleReport`]s plus
//! `fume.sync.{acquisitions,contended,order_edges,cycles}` counters and
//! a `fume.sync.hold_ns` histogram through the installed recorder.
//! With tracking off (release builds without the env gate) a tracked
//! lock costs exactly what the raw primitive does plus one relaxed
//! atomic load.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, TryLockError, WaitTimeoutResult};

use crate::clock::{Duration, Stopwatch};
use crate::{counter, histogram};

// ---------------------------------------------------------------------------
// Atomic shapes
// ---------------------------------------------------------------------------

/// A set-once-read-often boolean (enable bits, shutdown flags). Stores
/// are `Release` so state written before `set(true)` is visible to any
/// thread that observes the flag; loads are `Relaxed` — the single
/// cheap load every hot-path check pays, exactly the contract the
/// recorder's enabled bit has always had.
#[derive(Debug)]
pub struct Flag(AtomicBool);

impl Flag {
    /// A flag starting at `initial`.
    #[must_use]
    pub const fn new(initial: bool) -> Self {
        Flag(AtomicBool::new(initial))
    }

    /// Publishes a new value (release store).
    #[inline]
    pub fn set(&self, value: bool) {
        self.0.store(value, Ordering::Release);
    }

    /// Reads the flag (relaxed load).
    #[inline]
    #[must_use]
    pub fn get(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A relaxed monotonic `u64` counter (statistics, sequence numbers).
/// Increments carry no synchronization — callers must not use a
/// counter to publish other memory.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at `initial`.
    #[must_use]
    pub const fn new(initial: u64) -> Self {
        Counter(AtomicU64::new(initial))
    }

    /// Adds `delta` and returns the *previous* value (so the counter
    /// doubles as a sequence-number source).
    #[inline]
    pub fn add(&self, delta: u64) -> u64 {
        self.0.fetch_add(delta, Ordering::Relaxed)
    }

    /// Current value (relaxed load).
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Tracking gate
// ---------------------------------------------------------------------------

const TRACK_UNKNOWN: u8 = 0;
const TRACK_OFF: u8 = 1;
const TRACK_ON: u8 = 2;

static TRACK: AtomicU8 = AtomicU8::new(TRACK_UNKNOWN);

/// Whether lock-order tracking (and `fume.sync.*` metric emission) is
/// active: always in debug builds, and under `FUME_DEEPCHECK=1` in
/// release builds. Cached after the first call.
#[must_use]
pub fn tracking_enabled() -> bool {
    match TRACK.load(Ordering::Relaxed) {
        TRACK_ON => true,
        TRACK_OFF => false,
        _ => {
            let on = cfg!(debug_assertions)
                || std::env::var("FUME_DEEPCHECK").map(|v| v == "1").unwrap_or(false);
            TRACK.store(if on { TRACK_ON } else { TRACK_OFF }, Ordering::Relaxed);
            on
        }
    }
}

// ---------------------------------------------------------------------------
// The lock-order graph
// ---------------------------------------------------------------------------

/// FNV-1a over a site name — the graph's node key, computable in const
/// context so site identity costs nothing at runtime.
#[must_use]
pub const fn site_key(name: &str) -> u64 {
    crate::hash::fnv1a(name.as_bytes())
}

/// One detected lock-order inversion: acquiring `to` while holding
/// `from` closed a cycle in the global order graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleReport {
    /// The site already held when the cycle-closing edge was recorded.
    pub from: &'static str,
    /// The site whose acquisition closed the cycle.
    pub to: &'static str,
    /// The pre-existing path `to → … → from` that the new edge closed
    /// into a cycle (site names, in order).
    pub path: Vec<&'static str>,
}

impl fmt::Display for CycleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lock-order cycle: acquiring `{}` while holding `{}` inverts the established order {}",
            self.to,
            self.from,
            self.path.join(" -> ")
        )
    }
}

struct Graph {
    /// Adjacency: site → sites acquired while it was held.
    edges: BTreeMap<u64, Vec<u64>>,
    /// Fast membership test for (from, to) pairs.
    edge_set: BTreeSet<(u64, u64)>,
    /// Node key → site name (first name seen wins; keys are FNV of the
    /// name, so collisions would need colliding strings).
    names: BTreeMap<u64, &'static str>,
    /// Every inversion detected so far, in detection order.
    cycles: Vec<CycleReport>,
}

impl Graph {
    const fn new() -> Self {
        Graph {
            edges: BTreeMap::new(),
            edge_set: BTreeSet::new(),
            names: BTreeMap::new(),
            cycles: Vec::new(),
        }
    }

    /// Records `from → to`; returns (edge-was-new, cycle-was-created).
    fn add_edge(&mut self, from: (u64, &'static str), to: (u64, &'static str)) -> (bool, bool) {
        if from.0 == to.0 || !self.edge_set.insert((from.0, to.0)) {
            return (false, false);
        }
        self.names.entry(from.0).or_insert(from.1);
        self.names.entry(to.0).or_insert(to.1);
        // Cycle iff `from` was already reachable from `to` *before* this
        // edge — find that path first, then commit the edge.
        let path = self.path_between(to.0, from.0);
        self.edges.entry(from.0).or_default().push(to.0);
        if let Some(path) = path {
            let path: Vec<&'static str> =
                path.iter().filter_map(|k| self.names.get(k).copied()).collect();
            self.cycles.push(CycleReport { from: from.1, to: to.1, path });
            return (true, true);
        }
        (true, false)
    }

    /// DFS path from `start` to `goal` over committed edges.
    fn path_between(&self, start: u64, goal: u64) -> Option<Vec<u64>> {
        let mut parent: BTreeMap<u64, u64> = BTreeMap::new();
        let mut stack = vec![start];
        let mut seen = BTreeSet::new();
        seen.insert(start);
        while let Some(node) = stack.pop() {
            if node == goal {
                let mut path = vec![goal];
                let mut cur = goal;
                while cur != start {
                    cur = *parent.get(&cur)?;
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            if let Some(succs) = self.edges.get(&node) {
                for &s in succs {
                    if seen.insert(s) {
                        parent.insert(s, node);
                        stack.push(s);
                    }
                }
            }
        }
        None
    }
}

static GRAPH: Mutex<Graph> = Mutex::new(Graph::new());

fn graph() -> MutexGuard<'static, Graph> {
    // The graph is diagnostic state; a panic while holding it must not
    // disable deadlock detection for the rest of the process.
    GRAPH.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Sites this thread currently holds, in acquisition order.
    static HELD: RefCell<Vec<(u64, &'static str)>> = const { RefCell::new(Vec::new()) };
}

/// Every lock-order inversion detected so far (empty when the order is
/// consistent, or when tracking is off).
#[must_use]
pub fn cycle_reports() -> Vec<CycleReport> {
    graph().cycles.clone()
}

/// Clears the global lock-order graph and its cycle reports. Test
/// facility: lets a suite isolate deliberately inverted acquisitions.
pub fn reset_lock_order_graph() {
    let mut g = graph();
    g.edges.clear();
    g.edge_set.clear();
    g.names.clear();
    g.cycles.clear();
}

/// Records edges from every currently-held site to `site`, pushes
/// `site` onto the held stack, and returns (new_edges, new_cycles).
fn register_acquire(key: u64, name: &'static str) -> (u64, u64) {
    let held: Vec<(u64, &'static str)> = HELD.with(|h| h.borrow().clone());
    let (mut new_edges, mut new_cycles) = (0u64, 0u64);
    if !held.is_empty() {
        let mut g = graph();
        for from in held {
            let (e, c) = g.add_edge(from, (key, name));
            new_edges += u64::from(e);
            new_cycles += u64::from(c);
        }
    }
    HELD.with(|h| h.borrow_mut().push((key, name)));
    (new_edges, new_cycles)
}

/// Removes the most recent occurrence of `key` from the held stack
/// (guards may drop out of LIFO order).
fn release_site(key: u64) {
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(idx) = held.iter().rposition(|(k, _)| *k == key) {
            held.remove(idx);
        }
    });
}

// ---------------------------------------------------------------------------
// TrackedMutex / TrackedCondvar
// ---------------------------------------------------------------------------

/// What to do with the protected data when a panic poisons the lock.
#[derive(Debug, Clone, Copy)]
pub enum Recovery<T> {
    /// Keep the data as the panicking thread left it — correct when
    /// every mutation is atomic at guard granularity (e.g. aggregate
    /// counters, where losing the poisoned increment is fine).
    Keep,
    /// Run a reset function over the data before reuse — correct when a
    /// half-applied mutation would be unsound (e.g. a scratch pool
    /// whose forests may be mid-rollback). The function may emit its
    /// own domain counters.
    Reset(fn(&mut T)),
}

/// A `std::sync::Mutex` carrying a static site name, a poison-recovery
/// policy, and (under deepcheck/debug) lock-order tracking. See the
/// module docs for the full contract.
#[derive(Debug)]
pub struct TrackedMutex<T> {
    name: &'static str,
    key: u64,
    /// Quiet locks participate in order tracking and poison recovery
    /// but never emit `fume.sync.*` metrics — the recorder's own state
    /// lock must be quiet or every emission would recurse into itself.
    quiet: bool,
    recovery: Recovery<T>,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// A tracked mutex that keeps data intact across poisoning.
    #[must_use]
    pub const fn new(name: &'static str, value: T) -> Self {
        Self::build(name, value, Recovery::Keep, false)
    }

    /// A tracked mutex whose data is reset by `reset` after poisoning.
    #[must_use]
    pub const fn with_recovery(name: &'static str, value: T, reset: fn(&mut T)) -> Self {
        Self::build(name, value, Recovery::Reset(reset), false)
    }

    /// A tracked mutex that never emits metrics (still tracked in the
    /// lock-order graph). For locks inside the recorder itself.
    #[must_use]
    pub const fn new_quiet(name: &'static str, value: T) -> Self {
        Self::build(name, value, Recovery::Keep, true)
    }

    const fn build(name: &'static str, value: T, recovery: Recovery<T>, quiet: bool) -> Self {
        TrackedMutex { name, key: site_key(name), quiet, recovery, inner: Mutex::new(value) }
    }

    /// The site name this lock was constructed with.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires the lock, blocking; recovers poisoning by policy.
    pub fn lock(&self) -> TrackedGuard<'_, T> {
        if !tracking_enabled() {
            let guard = match self.inner.lock() {
                Ok(g) => g,
                Err(poisoned) => self.recover(poisoned.into_inner()),
            };
            return TrackedGuard { lock: self, inner: Some(guard), held_since: None };
        }
        let mut contended = false;
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(poisoned)) => self.recover(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => {
                contended = true;
                match self.inner.lock() {
                    Ok(g) => g,
                    Err(poisoned) => self.recover(poisoned.into_inner()),
                }
            }
        };
        self.note_acquired(contended);
        TrackedGuard { lock: self, inner: Some(guard), held_since: Some(Stopwatch::start()) }
    }

    /// Applies the recovery policy to a freshly-unpoisoned guard, and
    /// clears the poison flag so the policy runs once per poisoning,
    /// not on every later acquisition.
    fn recover<'a>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.inner.clear_poison();
        if let Recovery::Reset(reset) = self.recovery {
            reset(&mut guard);
        }
        if !self.quiet {
            counter!("fume.sync.poison_recoveries", 1u64);
        }
        guard
    }

    /// Graph bookkeeping + metric emission for one acquisition. Only
    /// called with tracking on.
    fn note_acquired(&self, contended: bool) {
        let (new_edges, new_cycles) = register_acquire(self.key, self.name);
        if self.quiet {
            return;
        }
        counter!("fume.sync.acquisitions", 1u64);
        if contended {
            counter!("fume.sync.contended", 1u64);
        }
        if new_edges > 0 {
            counter!("fume.sync.order_edges", new_edges);
        }
        if new_cycles > 0 {
            counter!("fume.sync.cycles", new_cycles);
        }
    }
}

/// RAII guard for a [`TrackedMutex`]; releases the lock (and records
/// hold time) on drop.
#[must_use]
pub struct TrackedGuard<'a, T> {
    lock: &'a TrackedMutex<T>,
    /// `None` only transiently while a condvar wait has taken the inner
    /// guard, or after drop.
    inner: Option<MutexGuard<'a, T>>,
    held_since: Option<Stopwatch>,
}

impl<T> Deref for TrackedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.inner {
            Some(g) => g,
            // fume-lint: allow(F001) -- guard invariant: `inner` is Some for the guard's whole user-visible lifetime; only wait()/drop take it
            None => unreachable!("TrackedGuard used after its inner guard was taken"),
        }
    }
}

impl<T> DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            // fume-lint: allow(F001) -- guard invariant: `inner` is Some for the guard's whole user-visible lifetime; only wait()/drop take it
            None => unreachable!("TrackedGuard used after its inner guard was taken"),
        }
    }
}

impl<T> Drop for TrackedGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_none() {
            return; // consumed by a condvar wait
        }
        if tracking_enabled() {
            release_site(self.lock.key);
        }
        let held_ns = self.held_since.take().map(|sw| sw.elapsed_nanos());
        self.inner = None; // release the lock before emitting
        if let Some(ns) = held_ns {
            if !self.lock.quiet {
                histogram!("fume.sync.hold_ns", ns);
            }
        }
    }
}

/// A `std::sync::Condvar` paired with [`TrackedMutex`] guards. Waiting
/// releases the mutex's held-site entry for the duration of the wait
/// and re-registers the reacquisition (a wakeup is a fresh acquisition
/// in the order graph). Callers must re-check their predicate in a
/// `while`/`loop` around every wait — rule **F009** enforces this.
#[derive(Debug)]
pub struct TrackedCondvar {
    inner: Condvar,
}

impl TrackedCondvar {
    /// A new condition variable.
    #[must_use]
    pub const fn new() -> Self {
        TrackedCondvar { inner: Condvar::new() }
    }

    /// Blocks until notified; returns the reacquired guard.
    pub fn wait<'a, T>(&self, guard: TrackedGuard<'a, T>) -> TrackedGuard<'a, T> {
        let (lock, inner) = Self::dissolve(guard);
        // fume-lint: allow(F009) -- this IS the sanctioned wait wrapper; its callers are the ones looped
        let inner = match self.inner.wait(inner) {
            Ok(g) => g,
            Err(poisoned) => lock.recover(poisoned.into_inner()),
        };
        Self::reassemble(lock, inner)
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: TrackedGuard<'a, T>,
        timeout: Duration,
    ) -> (TrackedGuard<'a, T>, WaitTimeoutResult) {
        let (lock, inner) = Self::dissolve(guard);
        // fume-lint: allow(F009) -- this IS the sanctioned wait wrapper; its callers are the ones looped
        let (inner, timed_out) = match self.inner.wait_timeout(inner, timeout) {
            Ok(pair) => pair,
            Err(poisoned) => {
                let (g, t) = poisoned.into_inner();
                (lock.recover(g), t)
            }
        };
        (Self::reassemble(lock, inner), timed_out)
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Takes the raw guard out (the mutex is about to be released by
    /// the wait) and drops the tracked shell without metrics.
    fn dissolve<'a, T>(
        mut guard: TrackedGuard<'a, T>,
    ) -> (&'a TrackedMutex<T>, MutexGuard<'a, T>) {
        let lock = guard.lock;
        let inner = match guard.inner.take() {
            Some(g) => g,
            // fume-lint: allow(F001) -- guard invariant: a live TrackedGuard always carries its inner guard
            None => unreachable!("TrackedGuard dissolved twice"),
        };
        if tracking_enabled() {
            release_site(lock.key);
        }
        (lock, inner)
    }

    /// Re-wraps a reacquired raw guard, re-registering the site.
    fn reassemble<'a, T>(
        lock: &'a TrackedMutex<T>,
        inner: MutexGuard<'a, T>,
    ) -> TrackedGuard<'a, T> {
        if !tracking_enabled() {
            return TrackedGuard { lock, inner: Some(inner), held_since: None };
        }
        lock.note_acquired(false);
        TrackedGuard { lock, inner: Some(inner), held_since: Some(Stopwatch::start()) }
    }
}

impl Default for TrackedCondvar {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex as StdMutex;

    /// The lock-order graph is process-global; tests that assert on it
    /// run serialized and reset it first.
    static GRAPH_TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn with_clean_graph<R>(f: impl FnOnce() -> R) -> R {
        let _g = GRAPH_TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset_lock_order_graph();
        let out = f();
        reset_lock_order_graph();
        out
    }

    #[test]
    fn site_key_is_fnv1a() {
        // Independent reference: FNV-1a of "a" is well known.
        assert_eq!(site_key(""), crate::hash::Fnv1a::new().finish());
        assert_eq!(site_key("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(site_key("sync.a"), site_key("sync.b"));
    }

    #[test]
    fn tracked_mutex_guards_data() {
        let m = TrackedMutex::new("sync.test.data", 0u32);
        *m.lock() += 5;
        assert_eq!(*m.lock(), 5);
        assert_eq!(m.name(), "sync.test.data");
    }

    #[test]
    fn consistent_order_reports_no_cycle() {
        with_clean_graph(|| {
            let a = TrackedMutex::new("sync.test.consistent_a", ());
            let b = TrackedMutex::new("sync.test.consistent_b", ());
            for _ in 0..3 {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            assert!(tracking_enabled(), "debug builds always track");
            assert!(cycle_reports().is_empty(), "{:?}", cycle_reports());
        });
    }

    #[test]
    fn ab_ba_inversion_fires_the_cycle_report() {
        with_clean_graph(|| {
            let a = TrackedMutex::new("sync.test.invert_a", ());
            let b = TrackedMutex::new("sync.test.invert_b", ());
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            {
                let _gb = b.lock();
                let _ga = a.lock(); // closes the cycle
            }
            let cycles = cycle_reports();
            assert_eq!(cycles.len(), 1, "{cycles:?}");
            let c = &cycles[0];
            assert_eq!((c.from, c.to), ("sync.test.invert_b", "sync.test.invert_a"));
            assert_eq!(c.path, vec!["sync.test.invert_a", "sync.test.invert_b"]);
            let shown = c.to_string();
            assert!(shown.contains("invert_a") && shown.contains("invert_b"), "{shown}");
        });
    }

    #[test]
    fn three_party_inversion_is_detected_transitively() {
        with_clean_graph(|| {
            let a = TrackedMutex::new("sync.test.tri_a", ());
            let b = TrackedMutex::new("sync.test.tri_b", ());
            let c = TrackedMutex::new("sync.test.tri_c", ());
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            {
                let _gb = b.lock();
                let _gc = c.lock();
            }
            assert!(cycle_reports().is_empty());
            {
                let _gc = c.lock();
                let _ga = a.lock(); // a→b→c→a
            }
            let cycles = cycle_reports();
            assert_eq!(cycles.len(), 1, "{cycles:?}");
            assert_eq!(cycles[0].path.first(), Some(&"sync.test.tri_a"));
        });
    }

    #[test]
    fn reacquiring_after_release_is_not_an_edge() {
        with_clean_graph(|| {
            let a = TrackedMutex::new("sync.test.seq_a", ());
            let b = TrackedMutex::new("sync.test.seq_b", ());
            drop(a.lock());
            drop(b.lock());
            drop(a.lock()); // sequential, never nested: no edges at all
            assert!(cycle_reports().is_empty());
        });
    }

    #[test]
    fn keep_recovery_preserves_data_across_poison() {
        let m = TrackedMutex::new("sync.test.poison_keep", vec![1, 2, 3]);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock();
            panic!("poison it");
        }));
        assert!(r.is_err());
        assert_eq!(*m.lock(), vec![1, 2, 3], "Keep policy retains the data");
    }

    #[test]
    fn reset_recovery_runs_the_reset_fn() {
        let m = TrackedMutex::with_recovery("sync.test.poison_reset", vec![1, 2, 3], Vec::clear);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let mut g = m.lock();
            g.push(4);
            panic!("poison it");
        }));
        assert!(r.is_err());
        assert!(m.lock().is_empty(), "Reset policy cleared the half-mutated data");
        // And the lock keeps working after recovery.
        m.lock().push(9);
        assert_eq!(*m.lock(), vec![9]);
    }

    #[test]
    fn condvar_wait_round_trips_under_a_while_loop() {
        let gate = TrackedMutex::new("sync.test.cv_gate", false);
        let cv = TrackedCondvar::new();
        std::thread::scope(|s| {
            // fume-lint's F006 does not apply to test scopes, and this
            // file is inside fume-obs: plain scoped threads keep the
            // test free of a tabular dev-dependency cycle.
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                *gate.lock() = true;
                cv.notify_all();
            });
            let mut open = gate.lock();
            while !*open {
                open = cv.wait(open);
            }
            assert!(*open);
        });
    }

    #[test]
    fn condvar_wait_timeout_returns_on_timeout() {
        let gate = TrackedMutex::new("sync.test.cv_timeout", 0u32);
        let cv = TrackedCondvar::new();
        let mut g = gate.lock();
        let mut waits = 0;
        while *g == 0 && waits < 2 {
            let (back, timed_out) = cv.wait_timeout(g, Duration::from_millis(5));
            g = back;
            waits += 1;
            assert!(timed_out.timed_out());
        }
        assert_eq!(*g, 0);
    }

    #[test]
    fn condvar_wait_releases_the_held_site_while_blocked() {
        with_clean_graph(|| {
            let gate = TrackedMutex::new("sync.test.cv_release_gate", false);
            let other = TrackedMutex::new("sync.test.cv_release_other", ());
            let cv = TrackedCondvar::new();
            std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(10));
                    *gate.lock() = true;
                    cv.notify_all();
                });
                let mut open = gate.lock();
                while !*open {
                    open = cv.wait(open);
                }
            });
            // After the wait completes, this thread holds nothing: a
            // subsequent acquisition must not record gate → other.
            drop(other.lock());
            let g = graph();
            let gate_key = site_key("sync.test.cv_release_gate");
            let other_key = site_key("sync.test.cv_release_other");
            assert!(
                !g.edge_set.contains(&(gate_key, other_key)),
                "held stack leaked through the condvar wait"
            );
        });
    }

    #[test]
    fn flag_and_counter_behave() {
        static F: Flag = Flag::new(false);
        static C: Counter = Counter::new(7);
        assert!(!F.get());
        F.set(true);
        assert!(F.get());
        assert_eq!(C.add(2), 7, "add returns the previous value");
        assert_eq!(C.get(), 9);
    }
}
