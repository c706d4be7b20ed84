//! Observability for the EVEREST pipeline: span tracing, metrics, and
//! Chrome-trace export.
//!
//! The crate has three layers:
//!
//! * [`trace`] — a thread-safe [`Tracer`] handing out RAII [`Span`]
//!   guards. Spans record name, category, start/end timestamps (µs),
//!   nesting (parent span ids), and `key=value` attributes. The global
//!   tracer defaults to a no-op that performs **no heap allocation per
//!   span**, so instrumented code costs nearly nothing when tracing is
//!   off.
//! * [`metrics`] — a [`MetricsRegistry`] of named counters, gauges, and
//!   HDR-style log-bucketed [`histogram`]s with percentile estimation
//!   and a serializable, mergeable [`MetricsSnapshot`].
//! * [`recorder`] — the always-on [`FlightRecorder`]: a bounded ring of
//!   recent structured events per thread, dumped on demand or when a
//!   runtime alarm fires. Reach it via [`flight`].
//! * [`export`] / [`openmetrics`] — exporters: Chrome trace-event JSON
//!   (loadable in `chrome://tracing` / Perfetto), a human-readable
//!   flame summary table, and OpenMetrics/Prometheus text.
//!
//! Instrumented crates call [`span`] / [`metrics`](fn@metrics)
//! unconditionally; a front-end (e.g. `everestc --trace`) opts in by
//! installing a recording tracer via [`install_global`].
//!
//! ```
//! use everest_telemetry as telemetry;
//!
//! telemetry::install_global(telemetry::Tracer::recording());
//! {
//!     let mut span = telemetry::span("compile", "sdk");
//!     span.attr("kernel", "fft");
//! }
//! let spans = telemetry::take_global().finish();
//! assert_eq!(spans.len(), 1);
//! let json = telemetry::export::chrome_trace_json(
//!     &telemetry::export::spans_to_events(&spans),
//! );
//! assert!(json.starts_with('['));
//! ```

pub mod export;
pub mod histogram;
pub mod metrics;
pub mod openmetrics;
pub mod recorder;
pub mod trace;

pub use export::TraceEvent;
pub use histogram::{HistogramSnapshot, LogHistogram};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use recorder::{EventKind, FlightDump, FlightEvent, FlightRecorder, DEFAULT_RING_CAPACITY};
pub use trace::{Span, SpanRecord, Tracer};

use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, Ordering};

static GLOBAL: RwLock<Tracer> = RwLock::new(Tracer::disabled());
/// Whether the tracer in [`GLOBAL`] records. Written only while the
/// write lock on `GLOBAL` is held, so it never disagrees with the tracer
/// once the lock is released; [`span`] reads it to skip the lock — two
/// atomic read-modify-writes on a cache line every thread shares —
/// whenever tracing is off, which is the common case.
static RECORDING: AtomicBool = AtomicBool::new(false);
static METRICS: MetricsRegistry = MetricsRegistry::new();
static FLIGHT: FlightRecorder = FlightRecorder::new();

/// Replaces the global tracer (usually with [`Tracer::recording`]).
pub fn install_global(tracer: Tracer) {
    let mut global = GLOBAL.write();
    // Release, pairing with the Acquire load in `span`: a thread that
    // reads the flag as set goes on to take the read lock, which cannot
    // be had before this write lock is dropped, and so finds the tracer
    // stored below (or a later one).
    RECORDING.store(tracer.is_enabled(), Ordering::Release);
    *global = tracer;
}

/// A handle to the current global tracer.
pub fn global() -> Tracer {
    GLOBAL.read().clone()
}

/// Swaps the global tracer back to disabled and returns the old one, so
/// its spans can be [`Tracer::finish`]ed exactly once.
pub fn take_global() -> Tracer {
    let mut global = GLOBAL.write();
    RECORDING.store(false, Ordering::Release);
    std::mem::take(&mut *global)
}

/// Opens a span on the global tracer. While the global tracer is
/// disabled this is one atomic load: no lock, no heap allocation. A span
/// opened after [`install_global`] returned (on this thread, or on one
/// that synchronized with it) is recorded; one opened after
/// [`take_global`] returned is not.
pub fn span(name: &str, category: &str) -> Span {
    if !RECORDING.load(Ordering::Acquire) {
        return Span::disabled();
    }
    GLOBAL.read().span(name, category)
}

/// The process-wide metrics registry.
pub fn metrics() -> &'static MetricsRegistry {
    &METRICS
}

/// The process-wide flight recorder (always on, bounded overhead).
pub fn flight() -> &'static FlightRecorder {
    &FLIGHT
}
