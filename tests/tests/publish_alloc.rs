//! Every epoch the resident daemon publishes clones the streamed
//! `Analysis`, and every replaced epoch drops one. Both must cost a
//! bounded number of heap allocations: a per-port allocation (one
//! device set per UDP port, as Table IV was once stored) would make
//! each publish grow with the tens of thousands of ports a run sees.
//!
//! A counting global allocator measures this. Its counters are
//! thread-local, so tests running on other threads do not disturb them.

use iotscope_core::stream::{StreamConfig, StreamingAnalyzer};
use iotscope_core::udp;
use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: a const-initialized `Cell` has no destructor, but an
    // allocation during thread teardown must never panic.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over; the counters touch
// only thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), FREES.with(Cell::get))
}

/// The most allocations one clone of a streamed `Analysis` may take.
/// It holds a fixed set of vectors (device columns, hourly series, the
/// port table) plus one or two per Table V service group; nothing in it
/// may scale with ports.
const MAX_CLONE_ALLOCS: u64 = 128;

#[test]
fn publish_clone_and_drop_allocations_do_not_grow_with_ports() {
    let built = PaperScenario::build(PaperScenarioConfig::tiny(31));
    let traffic = built.scenario.generate();
    let mut stream = StreamingAnalyzer::new(&built.inventory.db, 143, StreamConfig::default());
    let mut samples = Vec::new();
    for hour in &traffic {
        stream.push_hour(hour);
        if [24, 72, 143].contains(&hour.interval) {
            let epoch = stream.snapshot();
            let before = counts();
            let clone = black_box(epoch.clone());
            let cloned = counts();
            drop(clone);
            let dropped = counts();
            samples.push((
                udp::distinct_ports(&epoch),
                cloned.0 - before.0,
                dropped.1 - cloned.1,
            ));
        }
    }
    for &(ports, allocs, frees) in &samples {
        assert!(
            allocs <= MAX_CLONE_ALLOCS,
            "cloning an analysis over {ports} ports took {allocs} allocations"
        );
        assert_eq!(frees, allocs, "dropping the clone frees what it allocated");
    }
    let (first_ports, first_allocs, _) = samples[0];
    let (last_ports, last_allocs, _) = samples[samples.len() - 1];
    assert!(
        last_ports > first_ports && last_ports as u64 > 10 * MAX_CLONE_ALLOCS,
        "the run must see many more ports than the bound: {samples:?}"
    );
    // Later epochs may add a Table V service group, never a port's worth.
    assert!(
        last_allocs <= first_allocs + 8,
        "allocations grew with the run: {samples:?}"
    );
}
