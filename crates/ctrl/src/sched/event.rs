//! A deterministic discrete-event queue.
//!
//! The scheduler frontend is a classic event-driven simulator: the only
//! things that happen are *arrivals* (a transaction is offered to a bank
//! queue) and *completions* (a bank finishes serving a transaction), and
//! each one is processed at an exact simulated timestamp. Determinism is
//! non-negotiable here — the whole `stt-ctrl` test strategy leans on
//! bit-identical replay — so the queue breaks timestamp ties by insertion
//! sequence number: two events at the same instant always pop in the order
//! they were scheduled, independent of heap internals or float quirks.
//!
//! Storage is std's [`BinaryHeap`] over entries whose order is the reverse
//! of `(time, seq)`, so the max-heap pops the earliest event first. `seq` is
//! unique, so no two entries compare equal and the pop order is a function
//! of the keys alone. Once the frontend has reserved the run's worst-case
//! event count up front, scheduling and popping never allocate.
//!
//! A loop that keeps at most one pending event per slot (a source, each
//! bank) needs no heap at all: it holds one `SlotKey` per slot, assigns
//! `seq` where it would have called [`EventQueue::schedule`], and pops the
//! least key with `SlotKey::earliest`, in exactly the heap's order. The
//! frontend's fast path and the chip's channel loop both run that way.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry: a timestamp, a tie-breaking sequence number and the
/// payload.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time_ns: f64,
    seq: u64,
    event: E,
}

impl<E> Ord for Scheduled<E> {
    /// Reversed `(time, seq)`: the greatest entry is the earliest event,
    /// ties broken by insertion order.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time_ns
            .total_cmp(&self.time_ns)
            .then(other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Scheduled<E> {}

/// One slot's pending event in a heap-free loop: its instant and the
/// sequence number the equivalent [`EventQueue`] entry would carry.
///
/// Packed as `(time_ns.to_bits() << 64) | seq`: every instant such a loop
/// schedules is non-negative and non-NaN, and over those floats IEEE-754
/// bit order equals numeric order — so a single `u128` compare reproduces
/// the heap's `(time, seq)` lexicographic pop order branchlessly. An idle
/// slot holds [`SlotKey::IDLE`], above every pending key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SlotKey {
    key: u128,
}

impl SlotKey {
    /// No pending event: after every key a loop schedules.
    pub(crate) const IDLE: Self = Self { key: u128::MAX };

    /// An event at `time_ns`, scheduled `seq`-th.
    #[inline]
    pub(crate) fn new(time_ns: f64, seq: u64) -> Self {
        debug_assert!(time_ns >= 0.0, "event instants are non-negative");
        Self {
            key: (u128::from(time_ns.to_bits()) << 64) | u128::from(seq),
        }
    }

    /// The event's instant.
    #[inline]
    pub(crate) fn time_ns(self) -> f64 {
        f64::from_bits((self.key >> 64) as u64)
    }

    /// The least of `source` and `slots`: `None` for `source`, else the
    /// index of the slot; ties cannot happen, since `seq` is unique.
    #[inline]
    pub(crate) fn earliest(source: Self, slots: &[Self]) -> (Option<usize>, Self) {
        let mut found = None;
        let mut best = source;
        for (index, &slot) in slots.iter().enumerate() {
            if slot < best {
                found = Some(index);
                best = slot;
            }
        }
        (found, best)
    }
}

/// A min-heap of timestamped events with deterministic tie-breaking.
///
/// # Examples
///
/// ```
/// use stt_ctrl::sched::EventQueue;
///
/// let mut queue = EventQueue::new();
/// queue.schedule(25.0, "late");
/// queue.schedule(10.0, "early");
/// queue.schedule(10.0, "early-but-second");
/// assert_eq!(queue.pop(), Some((10.0, "early")));
/// assert_eq!(queue.pop(), Some((10.0, "early-but-second")));
/// assert_eq!(queue.pop(), Some((25.0, "late")));
/// assert_eq!(queue.pop(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// An empty event queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty event queue with room for `capacity` pending events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Schedules `event` at `time_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `time_ns` is NaN — a NaN timestamp would silently corrupt
    /// the heap order.
    pub fn schedule(&mut self, time_ns: f64, event: E) {
        assert!(!time_ns.is_nan(), "event timestamps must be numbers");
        self.heap.push(Scheduled {
            time_ns,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Removes and returns the earliest pending event (ties in scheduling
    /// order).
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|entry| (entry.time_ns, entry.event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut queue = EventQueue::new();
        assert!(queue.is_empty());
        for &t in &[5.0, 1.0, 3.0, 2.0, 4.0] {
            queue.schedule(t, t as u64);
        }
        assert_eq!(queue.len(), 5);
        assert!(!queue.is_empty());
        let mut popped = Vec::new();
        while let Some((t, e)) = queue.pop() {
            assert_eq!(t as u64, e);
            popped.push(t);
        }
        assert_eq!(popped, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(queue.is_empty());
    }

    #[test]
    fn ties_pop_in_scheduling_order() {
        let mut queue = EventQueue::new();
        for label in 0..100u64 {
            queue.schedule(7.0, label);
        }
        let order: Vec<u64> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut queue = EventQueue::with_capacity(8);
        queue.schedule(10.0, 10u64);
        queue.schedule(30.0, 30);
        assert_eq!(queue.pop(), Some((10.0, 10)));
        queue.schedule(20.0, 20);
        queue.schedule(5.0, 5);
        assert_eq!(queue.pop(), Some((5.0, 5)));
        assert_eq!(queue.pop(), Some((20.0, 20)));
        assert_eq!(queue.pop(), Some((30.0, 30)));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn reserved_queue_does_not_regrow_within_capacity() {
        let mut queue = EventQueue::with_capacity(64);
        let cap = queue.heap.capacity();
        for round in 0..10 {
            for i in 0..64u64 {
                queue.schedule((i % 7) as f64, round * 64 + i);
            }
            while queue.pop().is_some() {}
        }
        assert_eq!(queue.heap.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "timestamps must be numbers")]
    fn nan_timestamps_are_rejected() {
        EventQueue::new().schedule(f64::NAN, ());
    }

    proptest! {
        /// The heap against a naive reference: a `Vec` of pending
        /// `(time, seq)` pairs, popped by a linear scan for the least pair.
        /// Each op is a pop (`op % 3 == 0`) or a schedule at one of four
        /// instants (including -0.0 and 0.0), so ties dominate.
        #[test]
        fn prop_pops_match_a_linear_scan_reference(
            ops in proptest::collection::vec(0u32..12, 0..200),
        ) {
            const TIMES: [f64; 4] = [-0.0, 0.0, 1.5, 3.0];
            let mut queue = EventQueue::new();
            let mut reference: Vec<(f64, u64)> = Vec::new();
            let mut seq = 0u64;
            for op in ops {
                if op % 3 == 0 {
                    let least = (0..reference.len()).min_by(|&a, &b| {
                        let (ta, sa) = reference[a];
                        let (tb, sb) = reference[b];
                        ta.total_cmp(&tb).then(sa.cmp(&sb))
                    });
                    let expected = least.map(|i| reference.remove(i));
                    let popped = queue.pop();
                    prop_assert_eq!(
                        popped.map(|(t, s)| (t.to_bits(), s)),
                        expected.map(|(t, s)| (t.to_bits(), s))
                    );
                } else {
                    let time = TIMES[(op / 3) as usize];
                    queue.schedule(time, seq);
                    reference.push((time, seq));
                    seq += 1;
                }
                prop_assert_eq!(queue.len(), reference.len());
            }
        }

        /// The heap-free loop against the heap: a source and four bank
        /// slots, each holding at most one pending [`SlotKey`], popped by
        /// [`SlotKey::earliest`]. Each op pops (`word % 3 == 0`) or
        /// schedules into one slot, if it is idle, at one of four instants,
        /// so ties dominate; both sides must pop the same slot at the same
        /// instant every time.
        #[test]
        fn prop_slot_scan_pops_in_heap_order(
            ops in proptest::collection::vec(0u64..u64::MAX, 0..200),
        ) {
            const TIMES: [f64; 4] = [0.0, 1.5, 3.0, 4.5];
            const SOURCE: usize = 4;
            let mut queue = EventQueue::new();
            let mut source = SlotKey::IDLE;
            let mut slots = [SlotKey::IDLE; 4];
            let mut seq = 0u64;
            for word in ops {
                if word % 3 == 0 {
                    let (found, key) = SlotKey::earliest(source, &slots);
                    let popped = queue.pop().map(|(t, slot)| (t.to_bits(), slot));
                    if key == SlotKey::IDLE {
                        prop_assert_eq!(popped, None);
                        continue;
                    }
                    match found {
                        Some(slot) => slots[slot] = SlotKey::IDLE,
                        None => source = SlotKey::IDLE,
                    }
                    let slot = found.unwrap_or(SOURCE);
                    prop_assert_eq!(popped, Some((key.time_ns().to_bits(), slot)));
                } else {
                    let slot = (word >> 8) as usize % 5;
                    let time = TIMES[(word >> 16) as usize % 4];
                    let pending = if slot == SOURCE {
                        &mut source
                    } else {
                        &mut slots[slot]
                    };
                    if *pending == SlotKey::IDLE {
                        *pending = SlotKey::new(time, seq);
                        seq += 1;
                        queue.schedule(time, slot);
                    }
                }
            }
        }
    }
}
