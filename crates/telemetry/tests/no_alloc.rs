//! Verifies the acceptance criterion that disabled tracing adds no heap
//! allocation per span. Lives in its own integration-test binary because
//! it swaps in a counting global allocator. The counter is per-thread —
//! the sibling `enabled_spans_do_record` test and the libtest harness's
//! main thread may allocate concurrently with the measured window, and
//! those allocations are not the span's.

use everest_alloc_counter::{measure, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn disabled_spans_allocate_nothing() {
    // The default global tracer is disabled; warm up any lazy statics
    // (thread-locals, lock internals) outside the measured window.
    {
        let mut span = everest_telemetry::span("warmup", "test");
        span.attr("k", 1);
    }

    let (allocations, _) = measure(|| {
        for _ in 0..1000 {
            let mut span = everest_telemetry::span("hot", "test");
            span.attr("iteration", 42);
            drop(span);
        }
    });
    assert_eq!(allocations, 0, "disabled spans must not allocate");
}

#[test]
fn enabled_spans_do_record() {
    // Sanity check in the same binary: recording still works (and is
    // allowed to allocate).
    let tracer = everest_telemetry::Tracer::recording();
    drop(tracer.span("op", "test"));
    assert_eq!(tracer.finish().len(), 1);
}
