//! Verifies the flight recorder's bounded-overhead contract: once a
//! thread's ring exists, recording an event performs no heap
//! allocation. Lives in its own test binary (single test) because it
//! swaps in a counting global allocator. The counter is per-thread —
//! the libtest harness's main thread occasionally allocates while the
//! test body runs, and those allocations are not the recorder's.

use everest_alloc_counter::{measure, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn recording_allocates_nothing_after_ring_warmup() {
    let flight = everest_telemetry::flight();
    // First event creates this thread's preallocated ring.
    flight.marker("warmup", 0.0);

    // More events than the ring holds, so both the fill and the
    // overwrite paths are exercised.
    let (allocations, _) = measure(|| {
        for i in 0..4096 {
            flight.record(everest_telemetry::EventKind::Observe, "hot.value", i as f64);
        }
    });
    assert_eq!(allocations, 0, "flight recording must not allocate per event");

    // The events really are there (ring capacity's worth).
    let dump = flight.dump("check");
    let hot = dump.events.iter().filter(|e| e.name == "hot.value").count();
    assert_eq!(hot, everest_telemetry::recorder::DEFAULT_RING_CAPACITY);
}
