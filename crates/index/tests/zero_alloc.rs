//! Counting-allocator proof of the zero-allocation hot path: once an
//! index and its query workspace are warm, ε-range queries on every
//! backend perform no heap allocations at all — the arena traversal
//! stacks, SoA leaf scans, and surrogate box bounds all run out of
//! stack buffers or reused capacity.
//!
//! The allocator wrapper counts *this thread's* allocation calls into a
//! thread-local, so concurrently running tests on other harness threads
//! cannot perturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dbdc_geom::{Dataset, Euclidean};
use dbdc_index::{build_index, IndexKind, QueryWorkspace};

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Deterministic 2-d dataset (xorshift; no RNG crate so the allocator
/// sees nothing but the code under test).
fn dataset(n: usize) -> Dataset {
    let mut d = Dataset::with_capacity(2, n);
    let mut s = 0x1234_5678_9abc_def1u64;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 1_000) as f64 / 10.0 - 50.0
    };
    for _ in 0..n {
        let p = [next(), next()];
        d.push(&p);
    }
    d
}

#[test]
fn steady_state_range_queries_allocate_nothing() {
    let data = dataset(600);
    let eps = 4.0;
    for kind in IndexKind::ALL {
        let idx = build_index(kind, &data, Euclidean, eps);
        let mut out: Vec<u32> = Vec::new();
        let mut ws = QueryWorkspace::new();
        // Warm-up: one pass over the query set grows `out`, the
        // caller's workspace, and the thread-local fallback scratch to
        // their high-water capacities.
        for i in (0..data.len() as u32).step_by(7) {
            idx.range_with(data.point(i), eps, &mut out, &mut ws);
            idx.range(data.point(i), eps, &mut out);
        }

        let before = alloc_calls();
        for _ in 0..3 {
            for i in (0..data.len() as u32).step_by(7) {
                idx.range_with(data.point(i), eps, &mut out, &mut ws);
            }
        }
        assert_eq!(
            alloc_calls() - before,
            0,
            "{kind:?}: steady-state range_with must not allocate"
        );

        let before = alloc_calls();
        for _ in 0..3 {
            for i in (0..data.len() as u32).step_by(7) {
                idx.range(data.point(i), eps, &mut out);
            }
        }
        assert_eq!(
            alloc_calls() - before,
            0,
            "{kind:?}: steady-state range (thread-local scratch) must not allocate"
        );
    }
}

#[test]
fn partition_worker_loop_allocates_nothing() {
    // The partitioned local phase gives every partition worker one
    // private index and ONE reused workspace + output buffer for all of
    // its owned points — exactly this loop. It must stay allocation-free.
    let data = dataset(600);
    let eps = 4.0;
    for kind in IndexKind::ALL {
        let idx = build_index(kind, &data, Euclidean, eps);
        let mut out: Vec<u32> = Vec::new();
        let mut ws = QueryWorkspace::new();
        for i in (0..data.len() as u32).step_by(7) {
            idx.range_with(data.point(i), eps, &mut out, &mut ws);
        }

        let before = alloc_calls();
        for _ in 0..3 {
            for i in (0..data.len() as u32).step_by(7) {
                idx.range_with(data.point(i), eps, &mut out, &mut ws);
            }
        }
        assert_eq!(
            alloc_calls() - before,
            0,
            "{kind:?}: the partition worker's query loop must not allocate"
        );
    }
}
