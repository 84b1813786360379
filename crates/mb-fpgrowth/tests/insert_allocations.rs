//! The streaming trees' write path allocates only to grow: inserting a
//! transaction whose path already exists performs zero allocations, in the
//! prefix tree and — once a boundary has fixed the frequent set — in the
//! M-CPS-tree around it.
//!
//! One test in this binary, counting only what its own thread allocates, so
//! the harness cannot add to the count.

use mb_fpgrowth::cps::StreamingPrefixTree;
use mb_fpgrowth::mcps::McpsTree;
use mb_fpgrowth::Item;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_watched() {
    // `try_with`: the allocator is also called while a thread is torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: `layout` is the caller's, passed through as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_watched();
        // SAFETY: as above.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from `System.alloc` with this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `ptr` came from `System` with this `layout`; `new_size` is the
    // caller's.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_watched();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (and reallocations) this thread makes inside `work`.
fn allocations_in(work: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|counting| counting.set(true));
    work();
    COUNTING.with(|counting| counting.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Every prefix of `0..8`, duplicates and all: item `i` is in more rows than
/// item `i + 1`, and inserting any of the rows again keeps it that way, so
/// the frequency order — and with it every row's path — never changes.
fn prefix_rows() -> Vec<Vec<Item>> {
    (1..=8)
        .map(|len| (0..len).chain([0]).collect())
        .collect()
}

#[test]
fn inserting_along_an_existing_path_allocates_nothing() {
    let rows = prefix_rows();

    let mut tree = StreamingPrefixTree::new();
    assert!(allocations_in(|| rows.iter().for_each(|row| tree.insert(row, 1.0))) > 0);
    let nodes = tree.node_count();
    let again = allocations_in(|| {
        for _ in 0..100 {
            rows.iter().for_each(|row| tree.insert(row, 0.5));
        }
    });
    assert_eq!(again, 0, "re-inserting stored paths allocated");
    assert_eq!(tree.node_count(), nodes);

    // Around it, the M-CPS-tree: the bootstrap window passes the row straight
    // through, later windows filter it into a reused buffer. Item 99 is never
    // frequent, so the filter has something to drop.
    let mut mcps = McpsTree::with_defaults();
    rows.iter().for_each(|row| mcps.insert(row));
    let bootstrap = allocations_in(|| rows.iter().for_each(|row| mcps.insert(row)));
    assert_eq!(bootstrap, 0, "bootstrap-window insert allocated");
    mcps.on_window_boundary();
    let with_rare: Vec<Vec<Item>> = rows
        .iter()
        .map(|row| row.iter().copied().chain([99]).collect())
        .collect();
    with_rare.iter().for_each(|row| mcps.insert(row));
    let nodes = mcps.node_count();
    let filtered = allocations_in(|| with_rare.iter().for_each(|row| mcps.insert(row)));
    assert_eq!(filtered, 0, "filtered insert allocated");
    assert_eq!(mcps.node_count(), nodes);
}
