//! Probes of the telemetry layer, which every workload's wall time
//! carries: what a span costs with the tracer off and on, what one
//! histogram observation and one flight-recorder event cost, and what a
//! registry snapshot costs.

use crate::harness::Metrics;
use crate::measure::{ns_per_call, timed};
use everest_telemetry::Tracer;

pub fn telemetry(m: &mut Metrics) {
    // The global tracer is disabled throughout the benchmark.
    m.set(
        "telemetry.span_disabled_ns",
        ns_per_call(1 << 20, |_| drop(everest_telemetry::span("probe", "bench"))),
    );
    let tracer = Tracer::recording();
    m.set(
        "telemetry.span_enabled_ns",
        ns_per_call(1 << 16, |_| drop(tracer.span("probe", "bench"))),
    );
    drop(tracer.finish());
    let registry = everest_telemetry::metrics();
    m.set(
        "telemetry.hist_record_ns",
        ns_per_call(1 << 18, |i| registry.observe("bench.probe_us", i as f64)),
    );
    let (snapshot, cost) = timed(|| registry.snapshot());
    std::hint::black_box(snapshot);
    m.set("telemetry.snapshot_us", cost.wall_s * 1e6);

    let flight = everest_telemetry::flight();
    m.set(
        "telemetry.flight_record_ns",
        ns_per_call(1 << 18, |i| flight.marker("bench.probe", i as f64)),
    );
}
