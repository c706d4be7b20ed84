//! The always-on flight recorder: a bounded ring of recent structured
//! events per thread, dumpable on demand or when an alarm fires.
//!
//! Full span tracing is either off or on; the flight recorder fills the
//! gap between them. Every thread that records events owns a private
//! fixed-capacity ring buffer (its mutex is touched by no other thread
//! outside of dumps, so the hot path is an uncontended lock — one CAS —
//! plus a slot write). Old events are overwritten in place, bounding
//! both memory and time: the recorder never allocates per event after
//! its ring is created, and setting the capacity to zero reduces
//! [`FlightRecorder::record`] to a single relaxed atomic load. What an
//! event costs is mostly the clock read, so a caller with several events
//! for one instant — an offload call's begin, attempts, faults and end —
//! hands them over as one group ([`FlightRecorder::record_all`]): one
//! clock read and one lock for all of them, one shared timestamp. A ring
//! outlives its thread, so what a worker did just before it exited stays
//! dumpable; but only the [`RETIRED_RINGS_KEPT`] most recently used such
//! rings are kept, and a new thread adopts the oldest beyond that
//! instead of allocating. The number of rings is therefore bounded by
//! the peak number of threads recording at once plus that constant, not
//! by how many threads ever recorded. The workspace's own fan-outs run on
//! the parked workers of `everest_workflow::pool`, which never exit; the
//! bound is for threads that callers and tests start and join themselves,
//! so an embedding application that starts a thread per request recycles
//! the same few rings instead of growing the registry.
//!
//! [`FlightRecorder::dump`] merges every thread's ring into one
//! time-ordered [`FlightDump`] — a post-hoc "what just happened" trace.
//! [`FlightRecorder::alarm`] additionally captures a dump automatically
//! so the events *leading up to* a `RuntimeMonitor` alarm survive even
//! if nobody was watching; [`FlightRecorder::take_alarm_dump`] retrieves
//! the most recent one.

use crate::trace::current_tid;
use parking_lot::Mutex;
use std::cell::OnceCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// How many rings of exited threads stay registered (and dumpable)
/// before new threads start adopting the oldest of them. It bounds the
/// memory that threads started and joined by callers and tests leave
/// behind.
pub const RETIRED_RINGS_KEPT: usize = 16;

/// What a [`FlightEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span began (value = nesting depth, when known).
    SpanBegin,
    /// A span ended (value = duration in µs).
    SpanEnd,
    /// A counter was bumped (value = delta).
    CounterAdd,
    /// A gauge was set (value = new value).
    GaugeSet,
    /// A histogram observation (value = observed value).
    Observe,
    /// An alarm fired (value = alarm payload, e.g. latency µs).
    Alarm,
    /// A free-form marker (value is event-specific).
    Marker,
}

impl EventKind {
    /// Stable lowercase name used in dumps.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::CounterAdd => "counter_add",
            EventKind::GaugeSet => "gauge_set",
            EventKind::Observe => "observe",
            EventKind::Alarm => "alarm",
            EventKind::Marker => "marker",
        }
    }
}

/// One recorded event. `name` is `&'static str` by design: recording
/// must not allocate, and every instrumentation site names its events
/// with literals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    /// Microseconds since the recorder epoch (first event process-wide).
    pub ts_us: u64,
    /// Dense id of the recording thread (shared with span records).
    pub tid: u32,
    /// Event kind.
    pub kind: EventKind,
    /// Event name, e.g. `offload.fault`.
    pub name: &'static str,
    /// Kind-specific payload.
    pub value: f64,
}

struct RingBuf {
    slots: Vec<FlightEvent>,
    capacity: usize,
    /// Next overwrite position once full (the oldest slot). Tracked
    /// directly so the hot path never divides.
    head: usize,
    /// Total events ever pushed; `written - slots.len()` were overwritten.
    written: u64,
}

impl RingBuf {
    fn push(&mut self, event: FlightEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(event);
        } else {
            self.slots[self.head] = event;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
        self.written += 1;
    }

    /// Events oldest-first.
    fn ordered(&self) -> Vec<FlightEvent> {
        if self.slots.len() < self.capacity || self.capacity == 0 {
            return self.slots.clone();
        }
        let mut out = Vec::with_capacity(self.capacity);
        out.extend_from_slice(&self.slots[self.head..]);
        out.extend_from_slice(&self.slots[..self.head]);
        out
    }
}

type Ring = Mutex<RingBuf>;

thread_local! {
    /// The calling thread's dense id and its ring. Dropped when the
    /// thread exits, which leaves the recorder as the ring's only owner:
    /// that is what marks it retired.
    static THREAD_RING: OnceCell<(u32, Arc<Ring>)> = const { OnceCell::new() };
}

/// The process-wide flight recorder. Use [`crate::flight`] to reach the
/// global instance; constructing more is possible but they would share
/// the per-thread rings, so don't.
pub struct FlightRecorder {
    capacity: AtomicUsize,
    rings: Mutex<Vec<Arc<Ring>>>,
    epoch: OnceLock<Instant>,
    last_alarm: Mutex<Option<FlightDump>>,
}

impl FlightRecorder {
    pub(crate) const fn new() -> FlightRecorder {
        FlightRecorder {
            capacity: AtomicUsize::new(DEFAULT_RING_CAPACITY),
            rings: Mutex::new(Vec::new()),
            epoch: OnceLock::new(),
            last_alarm: Mutex::new(None),
        }
    }

    /// Current per-thread ring capacity; 0 means disabled.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Resizes every ring (existing events are dropped) and sets the
    /// capacity for rings created later. `0` disables recording:
    /// [`record`](FlightRecorder::record) becomes one atomic load.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        for ring in self.rings.lock().iter() {
            let mut buf = ring.lock();
            buf.slots = Vec::with_capacity(capacity);
            buf.capacity = capacity;
            buf.head = 0;
            buf.written = 0;
        }
    }

    #[inline]
    fn now_us(&self) -> u64 {
        let epoch = *self.epoch.get_or_init(Instant::now);
        // u64 arithmetic instead of `as_micros` — the u128 division is
        // measurable on the record fast path.
        let elapsed = epoch.elapsed();
        elapsed.as_secs() * 1_000_000 + u64::from(elapsed.subsec_micros())
    }

    /// Records one event into the calling thread's ring. Allocation-free
    /// after the thread's first event; near-free when disabled.
    #[inline]
    pub fn record(&self, kind: EventKind, name: &'static str, value: f64) {
        self.record_all(&[(kind, name, value)]);
    }

    /// Records a group of events that belong to one instant — everything
    /// one offload call did, say — into the calling thread's ring: the
    /// clock is read once and the ring locked once for the whole group,
    /// so each event after the first costs a slot write. The events keep
    /// their order and share one timestamp; a dump, which orders by
    /// `(ts_us, tid)` with a stable sort, shows them in the order given.
    ///
    /// Deliberately not `#[inline]`: a caller pays a call, and its own
    /// code is generated as if the recorder were not there. With the ring
    /// logic inlined into it, the PTDR miss path — whose kernel is
    /// inlined beside its one marker — read ≈ 1 µs (10 %) slower.
    pub fn record_all(&self, events: &[(EventKind, &'static str, f64)]) {
        let capacity = self.capacity.load(Ordering::Relaxed);
        if capacity == 0 {
            return;
        }
        let ts_us = self.now_us();
        THREAD_RING.with(|cell| {
            let (tid, ring) = cell.get_or_init(|| (current_tid(), self.claim_ring(capacity)));
            let mut ring = ring.lock();
            for &(kind, name, value) in events {
                ring.push(FlightEvent { ts_us, tid: *tid, kind, name, value });
            }
        });
    }

    /// Counts `events` events that the calling thread leaves unrecorded
    /// because events it records next would overwrite them in its ring
    /// anyway: they add to the ring's written total, so
    /// [`FlightDump::dropped`] reads as if they had been recorded and
    /// overwritten. A batch fold that knows most of its calls' events
    /// cannot survive it skips them this way: one lock for the lot,
    /// instead of a clock read, a lock and a slot write each. Returns the
    /// calling thread's written total (0 while recording is disabled).
    pub fn record_overwritten(&self, events: u64) -> u64 {
        let capacity = self.capacity.load(Ordering::Relaxed);
        if capacity == 0 {
            return 0;
        }
        THREAD_RING.with(|cell| {
            let (_, ring) = cell.get_or_init(|| (current_tid(), self.claim_ring(capacity)));
            let mut ring = ring.lock();
            ring.written += events;
            ring.written
        })
    }

    /// A ring for a thread recording its first event. A ring is retired
    /// once its thread has exited, which leaves the recorder holding the
    /// only reference. While no more than [`RETIRED_RINGS_KEPT`] are
    /// retired the thread gets a new ring; beyond that it adopts the
    /// retired ring that has gone unclaimed longest (claims move a ring to
    /// the back of the registry). An adopted ring keeps the dead thread's
    /// events — each carries its own `tid` — until the new owner
    /// overwrites them. The registry lock serializes claims, so two
    /// threads never adopt the same ring.
    fn claim_ring(&self, capacity: usize) -> Arc<Ring> {
        let mut rings = self.rings.lock();
        let is_retired = |ring: &Arc<Ring>| Arc::strong_count(ring) == 1;
        let ring = if rings.iter().filter(|r| is_retired(r)).count() > RETIRED_RINGS_KEPT {
            let oldest = rings.iter().position(is_retired).expect("counted above");
            rings.remove(oldest)
        } else {
            Arc::new(Mutex::new(RingBuf {
                slots: Vec::with_capacity(capacity),
                capacity,
                head: 0,
                written: 0,
            }))
        };
        rings.push(Arc::clone(&ring));
        ring
    }

    /// Shorthand for a [`EventKind::Marker`] event.
    #[inline]
    pub fn marker(&self, name: &'static str, value: f64) {
        self.record(EventKind::Marker, name, value);
    }

    /// Records an [`EventKind::Alarm`] event and, when no alarm dump is
    /// already pending, captures a dump of everything currently in the
    /// rings, retrievable via
    /// [`take_alarm_dump`](FlightRecorder::take_alarm_dump). Retaining
    /// the *first* un-taken dump (rather than replacing it) keeps the
    /// events closest to the root cause and bounds the cost of an alarm
    /// storm: follow-up alarms record one ring event each instead of
    /// re-merging every ring.
    pub fn alarm(&self, name: &'static str, value: f64) {
        self.record(EventKind::Alarm, name, value);
        if self.capacity() == 0 {
            return;
        }
        let mut pending = self.last_alarm.lock();
        if pending.is_none() {
            *pending = Some(self.dump(name));
        }
    }

    /// The dump captured by the most recent [`alarm`](FlightRecorder::alarm),
    /// if any, leaving `None` behind.
    pub fn take_alarm_dump(&self) -> Option<FlightDump> {
        self.last_alarm.lock().take()
    }

    /// Merges every thread's ring into one time-ordered dump.
    pub fn dump(&self, reason: &str) -> FlightDump {
        let rings = self.rings.lock();
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for ring in rings.iter() {
            let buf = ring.lock();
            dropped += buf.written.saturating_sub(buf.slots.len() as u64);
            events.extend(buf.ordered());
        }
        let threads = rings.len();
        drop(rings);
        events.sort_by_key(|e| (e.ts_us, e.tid));
        FlightDump { reason: reason.to_owned(), threads, dropped, events }
    }

    /// Clears every ring and any retained alarm dump. Thread
    /// registrations survive so live threads keep recording.
    pub fn reset(&self) {
        for ring in self.rings.lock().iter() {
            let mut buf = ring.lock();
            buf.slots.clear();
            buf.head = 0;
            buf.written = 0;
        }
        *self.last_alarm.lock() = None;
    }
}

/// A merged, time-ordered copy of every thread's recent events.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Why the dump was taken (alarm name, `"cli"`, ...).
    pub reason: String,
    /// Number of per-thread rings merged: those of live threads plus at
    /// most [`RETIRED_RINGS_KEPT`] (and any being torn down) of threads
    /// that have exited.
    pub threads: usize,
    /// Events overwritten before the dump (total across threads).
    pub dropped: u64,
    /// Surviving events, ordered by `(ts_us, tid)`.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// Serializes the dump as JSON (events as objects with `ts_us`,
    /// `tid`, `kind`, `name`, `value`).
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        fn uint(v: u64) -> Value {
            if v <= i64::MAX as u64 {
                Value::Int(v as i64)
            } else {
                Value::Float(v as f64)
            }
        }
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|e| {
                Value::Object(vec![
                    ("ts_us".to_owned(), uint(e.ts_us)),
                    ("tid".to_owned(), Value::Int(e.tid as i64)),
                    ("kind".to_owned(), Value::Str(e.kind.as_str().to_owned())),
                    ("name".to_owned(), Value::Str(e.name.to_owned())),
                    ("value".to_owned(), Value::Float(e.value)),
                ])
            })
            .collect();
        let root = Value::Object(vec![
            ("reason".to_owned(), Value::Str(self.reason.clone())),
            ("threads".to_owned(), uint(self.threads as u64)),
            ("dropped".to_owned(), uint(self.dropped)),
            ("events".to_owned(), Value::Array(events)),
        ]);
        serde_json::to_string_pretty(&root).expect("value serializes")
    }
}
