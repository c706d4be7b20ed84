//! Behavioral tests for the global flight recorder. The recorder is a
//! process-wide singleton, so every test serializes on one lock and
//! tags its events with test-unique names.

use everest_telemetry::recorder::{DEFAULT_RING_CAPACITY, RETIRED_RINGS_KEPT};
use everest_telemetry::EventKind;

static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn with_recorder(capacity: usize, f: impl FnOnce(&everest_telemetry::FlightRecorder)) {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let flight = everest_telemetry::flight();
    flight.set_capacity(capacity);
    flight.reset();
    f(flight);
    flight.set_capacity(DEFAULT_RING_CAPACITY);
    flight.reset();
}

#[test]
fn events_dump_in_time_order_with_payloads() {
    with_recorder(64, |flight| {
        flight.record(EventKind::SpanBegin, "t1.call", 0.0);
        flight.record(EventKind::Observe, "t1.lat", 42.5);
        flight.marker("t1.done", 3.0);
        let dump = flight.dump("test");
        let mine: Vec<_> = dump.events.iter().filter(|e| e.name.starts_with("t1.")).collect();
        assert_eq!(mine.len(), 3);
        assert_eq!(mine[0].kind, EventKind::SpanBegin);
        assert_eq!(mine[1].value, 42.5);
        assert_eq!(mine[2].kind, EventKind::Marker);
        assert!(mine.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert_eq!(dump.reason, "test");
        assert_eq!(dump.dropped, 0);
    });
}

#[test]
fn a_group_shares_one_timestamp_and_dumps_in_push_order() {
    with_recorder(64, |flight| {
        flight.marker("t9.alone", 0.0);
        // Same thread, same timestamp: only push order can order these
        // in the dump, against a kind/name/value order that would not.
        flight.record_all(&[
            (EventKind::SpanBegin, "t9.call", 7.0),
            (EventKind::Marker, "t9.attempt", 1.0),
            (EventKind::CounterAdd, "t9.faults", 1.0),
            (EventKind::Marker, "t9.attempt", 0.0),
            (EventKind::SpanEnd, "t9.call", 250.0),
        ]);
        let dump = flight.dump("test");
        let mine: Vec<_> = dump.events.iter().filter(|e| e.name.starts_with("t9.")).collect();
        assert_eq!(mine.len(), 6);
        let group = &mine[1..];
        assert!(group.iter().all(|e| e.ts_us == group[0].ts_us && e.tid == group[0].tid));
        assert!(mine[0].ts_us <= group[0].ts_us);
        let seen: Vec<_> = group.iter().map(|e| (e.kind, e.name, e.value)).collect();
        assert_eq!(
            seen,
            [
                (EventKind::SpanBegin, "t9.call", 7.0),
                (EventKind::Marker, "t9.attempt", 1.0),
                (EventKind::CounterAdd, "t9.faults", 1.0),
                (EventKind::Marker, "t9.attempt", 0.0),
                (EventKind::SpanEnd, "t9.call", 250.0),
            ]
        );
    });
}

#[test]
fn ring_overwrites_oldest_and_accounts_drops() {
    with_recorder(8, |flight| {
        for i in 0..20 {
            flight.marker("t2.ev", i as f64);
        }
        let dump = flight.dump("test");
        let mine: Vec<_> = dump.events.iter().filter(|e| e.name == "t2.ev").collect();
        assert_eq!(mine.len(), 8, "ring keeps exactly its capacity");
        let values: Vec<f64> = mine.iter().map(|e| e.value).collect();
        assert_eq!(values, (12..20).map(|i| i as f64).collect::<Vec<_>>(), "newest survive");
        assert_eq!(dump.dropped, 12);
    });
}

#[test]
fn events_counted_as_overwritten_leave_the_ring_of_recorded_ones() {
    with_recorder(8, |flight| {
        // Twenty events, the first twelve of which the ring would drop:
        // counted instead of recorded, they leave the ring and `dropped`
        // that recording all twenty leaves.
        assert_eq!(flight.record_overwritten(12), 12);
        for i in 12..20 {
            flight.marker("t10.ev", i as f64);
        }
        assert_eq!(flight.record_overwritten(0), 20, "the written total");
        let dump = flight.dump("test");
        let values: Vec<f64> =
            dump.events.iter().filter(|e| e.name == "t10.ev").map(|e| e.value).collect();
        assert_eq!(values, (12..20).map(f64::from).collect::<Vec<_>>());
        assert_eq!(dump.dropped, 12);
    });
}

#[test]
fn zero_capacity_disables_recording() {
    with_recorder(0, |flight| {
        flight.marker("t3.ev", 1.0);
        flight.alarm("t3.alarm", 2.0);
        let dump = flight.dump("test");
        assert!(dump.events.iter().all(|e| !e.name.starts_with("t3.")));
        assert!(flight.take_alarm_dump().is_none());
        assert_eq!(flight.record_overwritten(7), 0, "nothing counts while off");
        assert_eq!(flight.dump("test").dropped, 0);
    });
}

#[test]
fn alarm_captures_a_dump_of_preceding_events() {
    with_recorder(64, |flight| {
        flight.marker("t4.before", 1.0);
        flight.alarm("t4.alarm", 99.0);
        let dump = flight.take_alarm_dump().expect("alarm captured a dump");
        assert_eq!(dump.reason, "t4.alarm");
        assert!(dump.events.iter().any(|e| e.name == "t4.before"));
        let alarm = dump.events.iter().find(|e| e.name == "t4.alarm").unwrap();
        assert_eq!(alarm.kind, EventKind::Alarm);
        assert_eq!(alarm.value, 99.0);
        assert!(flight.take_alarm_dump().is_none(), "take drains");
    });
}

#[test]
fn alarm_storm_retains_the_first_dump() {
    with_recorder(64, |flight| {
        flight.marker("t7.root_cause", 1.0);
        flight.alarm("t7.first", 1.0);
        // Cascade: follow-up alarms record events but must not replace
        // the pending dump (nor pay for re-merging the rings).
        for _ in 0..10 {
            flight.alarm("t7.cascade", 2.0);
        }
        let dump = flight.take_alarm_dump().expect("first alarm captured");
        assert_eq!(dump.reason, "t7.first", "earliest un-taken alarm wins");
        assert!(dump.events.iter().any(|e| e.name == "t7.root_cause"));
        assert!(
            !dump.events.iter().any(|e| e.name == "t7.cascade"),
            "the retained dump predates the cascade"
        );
        // Once drained, the next alarm captures again.
        flight.alarm("t7.later", 3.0);
        assert_eq!(flight.take_alarm_dump().expect("re-armed").reason, "t7.later");
    });
}

#[test]
fn threads_merge_into_one_sorted_dump() {
    with_recorder(64, |flight| {
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for i in 0..10 {
                        everest_telemetry::flight().marker("t5.ev", (t * 100 + i) as f64);
                    }
                });
            }
        });
        let dump = flight.dump("test");
        let mine: Vec<_> = dump.events.iter().filter(|e| e.name == "t5.ev").collect();
        assert_eq!(mine.len(), 40);
        assert!(mine.windows(2).all(|w| w[0].ts_us <= w[1].ts_us), "time-ordered");
        let tids: std::collections::HashSet<u32> = mine.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4, "each thread kept its own tid");
    });
}

#[test]
fn dump_serializes_to_json() {
    with_recorder(16, |flight| {
        flight.record(EventKind::CounterAdd, "t6.count", 2.0);
        let json = flight.dump("json-test").to_json();
        assert!(json.contains("\"reason\": \"json-test\""));
        assert!(json.contains("\"kind\": \"counter_add\""));
        assert!(json.contains("\"name\": \"t6.count\""));
    });
}

#[test]
fn short_lived_threads_recycle_retired_rings() {
    with_recorder(64, |flight| {
        // This thread stays alive throughout: its ring is never retired,
        // so nothing a newcomer records can overwrite its events.
        flight.marker("t8.live", 1.0);
        let rings_before = flight.dump("test").threads;
        for i in 0..1_000 {
            // `join` returns once the thread is gone, thread-locals and
            // all, so each ring is retired before the next thread starts.
            std::thread::spawn(move || everest_telemetry::flight().marker("t8.worker", i as f64))
                .join()
                .unwrap();
        }
        let dump = flight.dump("test");
        assert!(
            dump.threads <= rings_before + RETIRED_RINGS_KEPT + 1,
            "1000 sequential threads grew the recorder from {rings_before} to {} rings",
            dump.threads
        );
        assert!(dump.events.iter().any(|e| e.name == "t8.live"), "a live thread lost its event");
        let workers: Vec<_> = dump.events.iter().filter(|e| e.name == "t8.worker").collect();
        assert_eq!(workers.last().map(|e| e.value), Some(999.0), "the newest event survives");
        let tids: std::collections::HashSet<u32> = workers.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), workers.len(), "an adopted ring records under its new thread's id");
    });
}
