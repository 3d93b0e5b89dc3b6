//! Allocation discipline of DRP: the counting allocator is installed
//! for this test binary, so the deltas below are real heap traffic.
//!
//! DRP's outcome records the benefit-ratio order and the `K - 1` split
//! points, so a traced run allocates O(K) times and O(N) bytes. Copying
//! every group's members after every split would instead cost about
//! `K²/2` allocations and `8·N·K` bytes.

use dbcast_alloc::Drp;
use dbcast_perf::{allocation_counts, CountingAllocator};
use dbcast_workload::WorkloadBuilder;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const ITEMS: usize = 20_000;
const CHANNELS: usize = 128;

#[test]
fn traced_drp_allocates_o_k_times_and_o_n_bytes() {
    let db = WorkloadBuilder::new(ITEMS).seed(5).build().unwrap();

    let (count_before, bytes_before) = allocation_counts();
    let outcome = Drp::new().allocate_traced(&db, CHANNELS).unwrap();
    let (count_after, bytes_after) = allocation_counts();
    assert_eq!(outcome.allocation.channels(), CHANNELS);

    let allocs = count_after - count_before;
    let bytes = bytes_after - bytes_before;
    assert!(
        allocs < CHANNELS as u64,
        "traced DRP allocated {allocs} time(s) at K = {CHANNELS}"
    );
    assert!(
        bytes < 128 * ITEMS as u64,
        "traced DRP allocated {bytes} B at N = {ITEMS} ({} B per item)",
        bytes / ITEMS as u64
    );
}
