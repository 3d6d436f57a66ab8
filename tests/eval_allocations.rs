//! Heap allocations per unlearn-eval and per scratch-forest clone.
//!
//! A global allocator local to this test binary counts every allocation
//! and free made by the calling thread (a thread-local `Cell`, so tests
//! running in parallel never mix their counts). The library itself keeps
//! the system allocator.
//!
//! The member has the shape of the `adult_default` benchmark workload:
//! Adult at 3%, 20 trees of depth 10, one forest thread. After a warm-up
//! eval, a second `bias_removed` on the same subset runs on a leased
//! scratch forest whose arrays already have the capacity the delete
//! needs, so what it allocates is the per-eval cost of journaled delete,
//! full prediction pass and rollback.
//!
//! ```text
//! cargo test --test eval_allocations -- --nocapture   # prints the counts
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fume::core::{BiasEval, DareRemoval, RemovalMethod};
use fume::fairness::FairnessMetric;
use fume::forest::{DareConfig, DareForest};
use fume::tabular::datasets::adult;
use fume::tabular::split::train_test_split;
use fume::tabular::Dataset;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting allocations (a `realloc` counts as one)
/// and frees on the calling thread.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations and frees made by the calling thread while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, f0) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let out = f();
    (out, ALLOCS.with(Cell::get) - a0, FREES.with(Cell::get) - f0)
}

/// The rows of the single-literal pattern whose support is closest to
/// 10% of `train` (ties keep the first attribute and code), like the
/// level-1 subsets FUME evaluates at the default 5-15% support.
fn pattern_near_ten_percent(train: &Dataset) -> Vec<u32> {
    let n = train.num_rows();
    let mut best: Option<(usize, usize, u16)> = None;
    for attr in 0..train.num_attributes() {
        let mut counts = vec![0usize; usize::from(u16::MAX) + 1];
        for row in 0..n {
            counts[usize::from(train.code(row, attr))] += 1;
        }
        for (code, &count) in counts.iter().enumerate() {
            let distance = count.abs_diff(n / 10);
            if count > 0 && best.is_none_or(|(d, ..)| distance < d) {
                best = Some((distance, attr, code as u16));
            }
        }
    }
    let (_, attr, code) = best.expect("the training set has rows");
    (0..n).filter(|&row| train.code(row, attr) == code).map(|row| row as u32).collect()
}

/// What one warm `bias_removed` allocated when every tree was a boxed
/// pointer tree with a heap-allocated candidate pool per greedy node and
/// id list per leaf. The node store must stay at least ten times below.
const POINTER_TREE_EVAL_ALLOCS: u64 = 8_332;
/// What one forest clone allocated with the pointer trees.
const POINTER_TREE_CLONE_ALLOCS: u64 = 10_429;

#[test]
fn a_warm_eval_and_a_clone_allocate_a_bounded_number_of_times() {
    let seed = 7;
    let (data, group) = adult().generate_scaled(0.03, seed).expect("generator spec is valid");
    let (train, test) = train_test_split(&data, 0.3, seed).expect("dataset is non-empty");
    let config = DareConfig::default().with_trees(20).with_max_depth(10).with_seed(seed).with_jobs(1);
    let forest = DareForest::fit(&train, config);
    let subset = pattern_near_ten_percent(&train);

    let removal = DareRemoval::new(&forest, &train);
    removal.warm(1);
    let eval = BiasEval { metric: FairnessMetric::StatisticalParity, test: &test, group };
    let cold = removal.bias_removed(&subset, &eval);
    let (warm, eval_allocs, eval_frees) = counted(|| removal.bias_removed(&subset, &eval));
    assert_eq!(cold.to_bits(), warm.to_bits(), "a repeated eval must give the same bias");

    let (clone, clone_allocs, clone_frees) = counted(|| forest.clone());
    assert_eq!(clone, forest);
    drop(clone);

    eprintln!(
        "subset {} rows; eval: {eval_allocs} allocations, {eval_frees} frees; \
         clone: {clone_allocs} allocations, {clone_frees} frees",
        subset.len()
    );
    assert!(
        eval_allocs * 10 <= POINTER_TREE_EVAL_ALLOCS,
        "a warm eval made {eval_allocs} allocations"
    );
    assert!(
        clone_allocs * 10 <= POINTER_TREE_CLONE_ALLOCS,
        "a forest clone made {clone_allocs} allocations"
    );
}
