//! The counting allocator behind `peak_heap_mb` sees a buffer's bytes
//! while it is live, and a reset starts a new peak from what is live.

use recluster_perfbench::heap::{peak_mb, reset_peak, CountingAlloc};

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc;

#[test]
fn peak_follows_live_buffers_and_resets() {
    reset_peak();
    let base = peak_mb();

    let mut grown: Vec<u8> = Vec::with_capacity(4 << 20);
    grown.resize(16 << 20, 1);
    let zeroed = vec![0u64; 1 << 20];
    let held = peak_mb() - base;
    assert!((24.0..25.0).contains(&held), "peak grew by {held} MiB");

    drop(grown);
    drop(zeroed);
    assert!(peak_mb() - base >= 24.0, "a free lowers no peak");
    reset_peak();
    assert!(peak_mb() - base < 1.0, "a reset starts at the live bytes");
}
