//! Where the trace lives: in the lane buffers the fold wrote it to.
//!
//! A batch's lanes each push their calls' events into a buffer of their
//! own. The manager keeps those buffers as they are — one [`Segment`] a
//! batch — and reads the trace back in invocation order through the
//! dealing formula (`round_robin_slots`), so a batch never copies its
//! events into one invocation-ordered vector. Calls made one at a time by
//! `execute` append to a trailing segment of one buffer.

use super::event::OffloadEvent;
use super::manager::round_robin_slots;

/// One lane's events of a segment, and where each of its tasks' events
/// end (a task's events begin where the previous task's end).
#[derive(Debug, Clone, Default)]
pub(super) struct LaneTrace {
    pub(super) events: Vec<OffloadEvent>,
    ends: Vec<u32>,
}

impl LaneTrace {
    pub(super) fn with_capacity(tasks: usize, events: usize) -> LaneTrace {
        LaneTrace { events: Vec::with_capacity(events), ends: Vec::with_capacity(tasks) }
    }

    /// Closes the task whose events were pushed since the last close.
    pub(super) fn end_task(&mut self) {
        let end = u32::try_from(self.events.len()).expect("a lane buffer holds < 2^32 events");
        self.ends.push(end);
    }

    /// The events of the buffer's `k`-th task.
    fn task(&self, k: usize) -> &[OffloadEvent] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] as usize };
        &self.events[start..self.ends[k] as usize]
    }
}

/// A run of consecutive invocations from `first_task` on: one batch,
/// whose first call was dealt to the buffer `first_lane` and each next
/// call to the next buffer round-robin, or calls made one at a time (one
/// buffer).
#[derive(Debug, Clone)]
struct Segment {
    first_task: u64,
    first_lane: usize,
    lanes: Vec<LaneTrace>,
}

impl Segment {
    fn events(&self) -> impl Iterator<Item = (u64, &OffloadEvent)> {
        let calls = self.lanes.iter().map(|lane| lane.ends.len()).sum();
        let slots = round_robin_slots(self.first_lane, self.lanes.len()).take(calls);
        (self.first_task..).zip(slots).flat_map(|(task, (lane, k))| {
            self.lanes[lane].task(k).iter().map(move |event| (task, event))
        })
    }
}

/// The trace of every invocation so far, as segments in invocation order.
#[derive(Debug, Clone, Default)]
pub(super) struct Trace {
    segments: Vec<Segment>,
}

impl Trace {
    /// Keeps the lane buffers of a batch starting at `first_task` as its
    /// segment.
    pub(super) fn push_batch(&mut self, first_task: u64, first_lane: usize, lanes: Vec<LaneTrace>) {
        self.segments.push(Segment { first_task, first_lane, lanes });
    }

    /// The buffer the call `task`, made on its own, appends to: the last
    /// segment's when it has one buffer (round-robin over one buffer is
    /// invocation order, and `task` follows the last segment's calls),
    /// else a new segment's.
    pub(super) fn single(&mut self, task: u64) -> &mut LaneTrace {
        if self.segments.last().is_none_or(|segment| segment.lanes.len() != 1) {
            let lanes = vec![LaneTrace::default()];
            self.segments.push(Segment { first_task: task, first_lane: 0, lanes });
        }
        &mut self.segments.last_mut().expect("pushed above").lanes[0]
    }

    /// Every event with its invocation, in invocation order.
    pub(super) fn events(&self) -> impl ExactSizeIterator<Item = (u64, &OffloadEvent)> {
        let len = self.segments.iter().flat_map(|s| &s.lanes).map(|l| l.events.len()).sum();
        Counted { inner: self.segments.iter().flat_map(Segment::events), len }
    }
}

/// An iterator that knows how many items it has left.
struct Counted<I> {
    inner: I,
    len: usize,
}

impl<I: Iterator> Iterator for Counted<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next()?;
        self.len -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl<I: Iterator> ExactSizeIterator for Counted<I> {}
