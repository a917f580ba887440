//! Prints the live heap bytes per tuple of a workload's built store:
//! `footprint <workload> <seed>`.
//!
//! A counting global allocator tracks bytes allocated minus bytes freed.
//! The figure is the growth from before the inputs are generated to after
//! the store is built and the inputs are dropped, so it holds the store
//! and nothing else. It runs in its own process so the timed runs keep
//! the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use perfbench::spec::{Store, Workload};
use workloads::data::multimap_workload;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

struct Counting;

// SAFETY: every call is passed to the system allocator unchanged; the
// counter only records sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let grown = unsafe { System.realloc(ptr, layout, new_size) };
        if !grown.is_null() {
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        grown
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(workload), Some(Ok(seed))) = (
        args.first().and_then(|w| Workload::parse(w)),
        args.get(1).map(|s| s.parse::<u64>()),
    ) else {
        eprintln!("usage: footprint <workload> <seed>");
        std::process::exit(2);
    };
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    // The base relation `serving_workload` builds its store from.
    let w = multimap_workload(workload.profile(0).keys, seed);
    let store = Store::build_parallel(sharded::default_shard_count(), w.tuples.iter().copied());
    drop(w);
    let live = LIVE_BYTES.load(Ordering::Relaxed) - before;
    println!("{:?}", live as f64 / store.tuple_count() as f64);
}
