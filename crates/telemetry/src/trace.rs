//! The tracer: thread-safe span collection with RAII guards.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One finished span, in tracer-relative microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the tracer.
    pub id: u64,
    /// Id of the span that was open on the same thread when this one
    /// began, if any.
    pub parent: Option<u64>,
    /// Span name, e.g. `ir.pass.cse`.
    pub name: String,
    /// Coarse grouping, e.g. `ir` or `sdk`.
    pub category: String,
    /// Start offset from the tracer epoch, µs.
    pub start_us: u64,
    /// End offset from the tracer epoch, µs.
    pub end_us: u64,
    /// Small dense id of the recording thread.
    pub tid: u32,
    /// `key=value` attributes attached via `Span::attr`.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Span duration in µs.
    pub(crate) fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

struct Core {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

// Per-thread stack of open span ids, used to assign parent links, plus a
// small dense thread id (Chrome trace tids read better than OS tids).
thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(1);

pub(crate) fn current_tid() -> u32 {
    THREAD_ID.with(|cell| {
        let mut tid = cell.get();
        if tid == 0 {
            tid = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            cell.set(tid);
        }
        tid
    })
}

/// A thread-safe span collector. Cloning yields another handle to the
/// same underlying buffer; a disabled tracer is a pure no-op.
#[derive(Clone)]
pub struct Tracer {
    core: Option<Arc<Core>>,
}

impl Tracer {
    /// A tracer that records nothing and allocates nothing per span.
    pub const fn disabled() -> Tracer {
        Tracer { core: None }
    }

    /// A tracer that records spans, with its epoch set to "now".
    pub fn recording() -> Tracer {
        Tracer {
            core: Some(Arc::new(Core {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether spans opened on this tracer are recorded.
    pub(crate) fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Opens a span. The span ends (and is recorded) when the returned
    /// guard drops. On a disabled tracer this performs no heap
    /// allocation.
    pub fn span(&self, name: &str, category: &str) -> Span {
        let Some(core) = &self.core else {
            return Span::disabled();
        };
        let id = core.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        Span {
            active: Some(Box::new(ActiveSpan {
                core: Arc::clone(core),
                id,
                parent,
                name: name.to_owned(),
                category: category.to_owned(),
                start: Instant::now(),
                attrs: Vec::new(),
            })),
        }
    }

    /// Drains every span recorded so far, ordered by start time.
    pub fn finish(&self) -> Vec<SpanRecord> {
        let Some(core) = &self.core else {
            return Vec::new();
        };
        let mut spans = std::mem::take(&mut *core.spans.lock());
        spans.sort_by_key(|s| (s.start_us, s.id));
        spans
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::disabled()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.is_enabled()).finish()
    }
}

struct ActiveSpan {
    core: Arc<Core>,
    id: u64,
    parent: Option<u64>,
    name: String,
    category: String,
    start: Instant,
    attrs: Vec<(String, String)>,
}

/// RAII guard for an open span; recording happens on drop.
pub struct Span {
    active: Option<Box<ActiveSpan>>,
}

impl Span {
    /// The guard a disabled tracer hands out: records nothing on drop.
    pub(crate) const fn disabled() -> Span {
        Span { active: None }
    }

    /// Attaches a `key=value` attribute. No-op on a disabled tracer.
    pub fn attr(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some(active) = &mut self.active {
            active.attrs.push((key.to_owned(), value.to_string()));
        }
    }

    /// Whether this span is being recorded.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let end = Instant::now();
        SPAN_STACK.with(|stack| {
            // Guards are stack-ordered per thread, so the top entry is
            // this span except when a guard crossed threads; retain()
            // keeps the stack consistent either way.
            let mut stack = stack.borrow_mut();
            if stack.last() == Some(&active.id) {
                stack.pop();
            } else {
                stack.retain(|&id| id != active.id);
            }
        });
        let epoch = active.core.epoch;
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            category: active.category,
            start_us: active.start.duration_since(epoch).as_micros() as u64,
            end_us: end.duration_since(epoch).as_micros() as u64,
            tid: current_tid(),
            attrs: active.attrs,
        };
        active.core.spans.lock().push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_via_parent_ids() {
        let tracer = Tracer::recording();
        {
            let _outer = tracer.span("outer", "test");
            {
                let _inner = tracer.span("inner", "test");
            }
            let _sibling = tracer.span("sibling", "test");
        }
        let spans = tracer.finish();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let sibling = spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(sibling.parent, Some(outer.id));
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.end_us <= outer.end_us);
    }

    #[test]
    fn attrs_are_recorded_in_order() {
        let tracer = Tracer::recording();
        {
            let mut span = tracer.span("op", "test");
            span.attr("kernel", "fft");
            span.attr("variants", 4);
        }
        let spans = tracer.finish();
        assert_eq!(
            spans[0].attrs,
            vec![("kernel".to_owned(), "fft".to_owned()), ("variants".to_owned(), "4".to_owned())]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        {
            let mut span = tracer.span("op", "test");
            span.attr("ignored", 1);
            assert!(!span.is_recording());
        }
        assert!(tracer.finish().is_empty());
    }

    #[test]
    fn finish_drains_once() {
        let tracer = Tracer::recording();
        drop(tracer.span("op", "test"));
        assert_eq!(tracer.finish().len(), 1);
        assert!(tracer.finish().is_empty());
    }

    #[test]
    fn concurrent_spans_get_distinct_ids_and_tids() {
        let tracer = Tracer::recording();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tracer = tracer.clone();
                std::thread::spawn(move || {
                    let _span = tracer.span(&format!("worker-{i}"), "test");
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let spans = tracer.finish();
        assert_eq!(spans.len(), 4);
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        // Each spawned thread gets its own tid and an empty stack, so no
        // cross-thread parent links appear.
        assert!(spans.iter().all(|s| s.parent.is_none()));
    }
}
