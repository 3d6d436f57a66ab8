//! The workspace's sanctioned scoped-worker module.
//!
//! All thread creation in FUME library code funnels through these
//! helpers (lint rule **F006** bans `std::thread::{spawn, scope}`
//! anywhere else). Centralising the fan-out shape buys three guarantees:
//!
//! * **Structured concurrency** — only scoped threads, so no detached
//!   worker outlives the data it borrows;
//! * **Determinism** — results are written into pre-allocated,
//!   order-preserving slots; the output never depends on which worker
//!   finishes first;
//! * **Panic containment** — a worker panic propagates out of the scope
//!   on join rather than poisoning shared state silently.
//!
//! [`parallel_map`] balances its items: each worker claims the next
//! unclaimed index from a shared counter, so a slow item does not leave
//! the other workers idle behind a fixed share of the list. Which worker
//! runs an item is therefore not stable between runs; callers must make
//! an item's result depend only on the item (per-item seeds, pooled
//! state restored after use), never on the worker or on which items ran
//! before it on the same thread. The mutable helpers chunk work
//! contiguously (`ceil(len / jobs)` per worker).

use fume_obs::sync::Counter;

/// The machine's available parallelism, with a serial fallback when the
/// runtime cannot tell (the query itself is not a determinism hazard —
/// callers must only use it to *size* worker pools, never to seed work).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Clamps a requested job count to the actual work items, defaulting to
/// [`available_parallelism`] when unset.
pub fn resolve_jobs(n_jobs: Option<usize>, work_items: usize) -> usize {
    n_jobs.unwrap_or_else(available_parallelism).clamp(1, work_items.max(1))
}

/// Maps `f` over `items` using at most `jobs` scoped threads, preserving
/// input order. `jobs <= 1` (or a single item) runs inline with no
/// thread machinery at all. Workers claim items one at a time from a
/// shared counter, so uneven item costs keep every worker busy until the
/// list runs out.
pub fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = Counter::new(0);
    let results: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(items.len()))
            .map(|_| {
                let (f, next) = (&f, &next);
                scope.spawn(move || {
                    let mut done = Vec::with_capacity(items.len().div_ceil(jobs));
                    loop {
                        let i = usize::try_from(next.add(1)).unwrap_or(usize::MAX);
                        let Some(item) = items.get(i) else { break done };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        join_all(workers)
    });
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in results.into_iter().flatten() {
        out[i] = Some(r);
    }
    collect_slots(out)
}

/// Maps `f` over `items` mutably using at most `jobs` scoped threads,
/// preserving input order.
pub fn parallel_map_mut<T: Send, R: Send>(
    items: &mut [T],
    jobs: usize,
    f: impl Fn(&mut T) -> R + Sync,
) -> Vec<R> {
    if jobs <= 1 || items.len() <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let chunk = items.len().div_ceil(jobs);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(jobs);
        for (slot_chunk, item_chunk) in out.chunks_mut(chunk).zip(items.chunks_mut(chunk)) {
            let f = &f;
            workers.push(scope.spawn(move || {
                for (slot, item) in slot_chunk.iter_mut().zip(item_chunk) {
                    *slot = Some(f(item));
                }
            }));
        }
        join_all(workers);
    });
    collect_slots(out)
}

/// Zips `items` with owned `args` and maps `f` over the pairs mutably
/// using at most `jobs` scoped threads, preserving order. Used by
/// journal rollback, where each tree consumes its own undo log by value.
pub fn parallel_zip_map<T: Send, A: Send, R: Send>(
    items: &mut [T],
    args: Vec<A>,
    jobs: usize,
    f: impl Fn(&mut T, A) -> R + Sync,
) -> Vec<R> {
    debug_assert_eq!(items.len(), args.len());
    if jobs <= 1 || items.len() <= 1 {
        return items.iter_mut().zip(args).map(|(t, a)| f(t, a)).collect();
    }
    let chunk = items.len().div_ceil(jobs);
    let mut args: Vec<Option<A>> = args.into_iter().map(Some).collect();
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(jobs);
        for ((slot_chunk, item_chunk), arg_chunk) in
            out.chunks_mut(chunk).zip(items.chunks_mut(chunk)).zip(args.chunks_mut(chunk))
        {
            let f = &f;
            workers.push(scope.spawn(move || {
                for ((slot, item), arg) in
                    slot_chunk.iter_mut().zip(item_chunk).zip(arg_chunk)
                {
                    if let Some(arg) = arg.take() {
                        *slot = Some(f(item, arg));
                    }
                }
            }));
        }
        join_all(workers);
    });
    collect_slots(out)
}

/// Runs `main` while `n` long-lived workers execute `worker(i)` on
/// scoped threads. Unlike [`parallel_map`] there is no work list: the
/// workers are event loops (queue consumers, socket acceptors) that
/// coordinate with `main` through whatever shared state the caller
/// closes over. The scope joins every worker before returning, so
/// `main` must arrange for the workers to observe shutdown (otherwise
/// the join blocks forever — that is the caller's contract, the same
/// structured-concurrency guarantee the mapping helpers give).
/// `n == 0` runs `main` inline with no threads.
pub fn scoped_workers<T: Send>(
    n: usize,
    worker: impl Fn(usize) + Sync,
    main: impl FnOnce() -> T + Send,
) -> T {
    if n == 0 {
        return main();
    }
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(n);
        for i in 0..n {
            let worker = &worker;
            workers.push(scope.spawn(move || worker(i)));
        }
        let out = main();
        join_all(workers);
        out
    })
}

/// Joins every worker of a scope, re-raising a worker's panic with its
/// own payload. The scope alone would only wait for each worker's
/// closure to return; joining also waits for the thread to exit, so the
/// allocator has taken back the thread's arena before the next scope's
/// workers start and they reuse it instead of opening new ones.
fn join_all<T>(workers: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    workers
        .into_iter()
        .map(|worker| worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
        .collect()
}

/// Unwraps the slot vector every helper fills. Chunking, or claiming
/// indices from one counter, covers every index exactly once, so an
/// empty slot is unreachable; the expect is the single audited join
/// point for the whole worker module.
fn collect_slots<R>(out: Vec<Option<R>>) -> Vec<R> {
    out.into_iter()
        // fume-lint: allow(F001) -- slot-partition invariant: zip over chunks_mut, or a shared counter handing out each index once until the list runs out, covers every index exactly once, and a worker panic propagates from the scope before this line runs
        .map(|o| o.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..97).collect();
        let serial = parallel_map(&items, 1, |&x| x * 2);
        let parallel = parallel_map(&items, 4, |&x| x * 2);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[10], 20);
    }

    /// With item costs that differ by orders of magnitude, workers claim
    /// items out of order, and the results still come back in input
    /// order, each computed once.
    #[test]
    fn parallel_map_keeps_input_order_under_uneven_costs() {
        let items: Vec<u64> = (0..60).collect();
        let calls = Counter::new(0);
        let spin = |x: u64| {
            calls.add(1);
            // Every seventh item costs far more than the rest.
            let rounds = if x.is_multiple_of(7) { 200_000 } else { 10 };
            (0..rounds).fold(x, |acc, r| std::hint::black_box(acc.wrapping_mul(31).wrapping_add(r)))
        };
        let expected: Vec<u64> = items.iter().map(|&x| spin(x)).collect();
        for jobs in [2, 3, 8] {
            assert_eq!(parallel_map(&items, jobs, |&x| spin(x)), expected, "jobs {jobs}");
        }
        assert_eq!(calls.get(), 4 * items.len() as u64, "each item computed once per map");
    }

    #[test]
    fn parallel_map_mut_mutates_in_place() {
        let mut items: Vec<usize> = (0..50).collect();
        let out = parallel_map_mut(&mut items, 3, |x| {
            *x += 1;
            *x
        });
        assert_eq!(items[0], 1);
        assert_eq!(out, items);
    }

    #[test]
    fn parallel_zip_map_consumes_args_in_order() {
        let mut items: Vec<u32> = vec![0; 20];
        let args: Vec<u32> = (0..20).collect();
        let out = parallel_zip_map(&mut items, args, 4, |slot, a| {
            *slot = a * 10;
            *slot
        });
        assert_eq!(out, (0..20).map(|a| a * 10).collect::<Vec<u32>>());
    }

    #[test]
    fn degenerate_jobs_run_inline() {
        let items = [1, 2, 3];
        assert_eq!(parallel_map(&items, 0, |&x| x), vec![1, 2, 3]);
        assert_eq!(parallel_map(&[42], 8, |&x| x), vec![42]);
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
    }

    #[test]
    fn scoped_workers_join_before_return() {
        use fume_obs::sync::{Counter, TrackedCondvar, TrackedMutex};
        let done = Counter::new(0);
        let gate = (
            TrackedMutex::new("tabular.workers.test_gate", false),
            TrackedCondvar::new(),
        );
        let out = scoped_workers(
            3,
            |_i| {
                let (lock, cv) = &gate;
                let mut open = lock.lock();
                while !*open {
                    open = cv.wait(open);
                }
                done.add(1);
            },
            || {
                let (lock, cv) = &gate;
                *lock.lock() = true;
                cv.notify_all();
                42
            },
        );
        assert_eq!(out, 42);
        assert_eq!(done.get(), 3, "scope joins all workers");
    }

    #[test]
    fn worker_panics_keep_their_payload() {
        let items: Vec<u32> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&items, 2, |&x| {
                assert!(x != 6, "worker saw item {x}");
                x
            })
        });
        let payload = caught.expect_err("the worker panic propagates");
        let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert!(msg.contains("worker saw item 6"), "{msg:?}");
    }

    #[test]
    fn scoped_workers_zero_runs_inline() {
        assert_eq!(scoped_workers(0, |_| unreachable!(), || 7), 7);
    }

    #[test]
    fn resolve_jobs_clamps() {
        assert_eq!(resolve_jobs(Some(8), 3), 3);
        assert_eq!(resolve_jobs(Some(0), 3), 1);
        assert_eq!(resolve_jobs(Some(2), 100), 2);
        assert!(resolve_jobs(None, 100) >= 1);
    }
}
