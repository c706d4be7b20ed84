//! The global tracer's window: `span()` answers "disabled" from a flag
//! kept by `install_global` / `take_global` instead of taking the tracer
//! lock, so this checks that the flag and the tracer never disagree where
//! it matters — a span opened after `install_global(recording)` returned
//! and before `take_global` was called is recorded, on this thread and on
//! one that synchronized with it; a span opened outside that window is
//! not. One test, alone in its binary: it owns the process-global tracer.

use everest_telemetry::{install_global, span, take_global, Tracer};
use std::sync::{Arc, Barrier};

#[test]
fn spans_are_recorded_exactly_between_install_and_take() {
    // Before: the default tracer is disabled.
    assert!(!span("before", "test").is_recording());

    // A second thread opens one span in each phase, released into every
    // phase by a barrier the main thread reaches only after the
    // corresponding install/take has returned.
    let barrier = Arc::new(Barrier::new(2));
    let worker = {
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let mut recording = Vec::new();
            for name in ["worker.before", "worker.during", "worker.after"] {
                barrier.wait();
                recording.push(span(name, "test").is_recording());
                barrier.wait();
            }
            recording
        })
    };
    let phase = || {
        barrier.wait(); // releases the worker into the phase
        barrier.wait(); // the worker's span is closed
    };

    phase();
    install_global(Tracer::recording());
    {
        let mut during = span("during", "test");
        during.attr("k", 1);
        assert!(during.is_recording());
        phase();
    }
    let tracer = take_global();
    assert!(!span("after", "test").is_recording());
    phase();

    assert_eq!(worker.join().expect("worker thread"), [false, true, false]);
    let mut names: Vec<String> = tracer.finish().into_iter().map(|s| s.name).collect();
    names.sort();
    assert_eq!(names, ["during", "worker.during"]);

    // Installing a disabled tracer keeps the fast path off, and a second
    // window works like the first.
    install_global(Tracer::disabled());
    assert!(!span("disabled", "test").is_recording());
    install_global(Tracer::recording());
    drop(span("again", "test"));
    assert_eq!(take_global().finish().len(), 1);
    assert!(take_global().finish().is_empty());
}
