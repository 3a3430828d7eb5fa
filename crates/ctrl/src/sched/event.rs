//! The deterministic event core every transaction loop runs on.
//!
//! The scheduler frontend and the chip's channel loops are classic
//! event-driven simulators: each thing that happens (an arrival, a bank
//! finishing, a daemon's tick) is processed at an exact simulated instant.
//! Determinism is non-negotiable here — the whole `stt-ctrl` test strategy
//! leans on bit-identical replay — so events pop by `(time, seq)`: two
//! events at the same instant always pop in the order they were scheduled.
//!
//! No loop needs a heap for that. Each keeps at most one pending event per
//! source of events — its traffic source, and per bank a fixed set of slots
//! — so [`EventSlots`] holds one packed key per slot and pops the least by
//! a linear scan. The one source with several pending events, the re-offers
//! of [`Backpressure::Retry`](super::Backpressure::Retry), goes in a
//! preallocated list scanned the same way. `EventSlots` hands out every
//! `seq` itself, in scheduling order, so its pop order is exactly that of a
//! min-heap over `(time, seq)`; the tests check it against one.

/// One pending event: its instant and its scheduling sequence number.
///
/// Packed as `(time_ns.to_bits() << 64) | seq`: every instant a loop
/// schedules is non-negative and non-NaN, and over those floats IEEE-754
/// bit order equals numeric order — so a single `u128` compare reproduces
/// the `(time, seq)` lexicographic pop order branchlessly. An idle slot
/// holds [`SlotKey::IDLE`], above every pending key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SlotKey {
    key: u128,
}

impl SlotKey {
    /// No pending event: after every key a loop schedules.
    const IDLE: Self = Self { key: u128::MAX };

    /// The event's instant.
    #[inline]
    fn time_ns(self) -> f64 {
        f64::from_bits((self.key >> 64) as u64)
    }
}

/// Which pending event [`EventSlots::pop`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Due {
    /// The source slot's event.
    Source,
    /// The event in slot `index`.
    Slot(usize),
    /// An extra event, with the payload it was scheduled with.
    Extra(u32),
}

/// A source slot, a fixed number of event slots holding at most one
/// pending event each, a list of extra events, and the one sequence
/// counter they all draw from.
#[derive(Debug)]
pub(crate) struct EventSlots {
    source: SlotKey,
    slots: Vec<SlotKey>,
    extras: Vec<(SlotKey, u32)>,
    next_seq: u64,
}

impl EventSlots {
    /// `slots` idle slots, an idle source and room for `extras` pending
    /// extra events before the list has to grow.
    pub(crate) fn new(slots: usize, extras: usize) -> Self {
        Self {
            source: SlotKey::IDLE,
            slots: vec![SlotKey::IDLE; slots],
            extras: Vec::with_capacity(extras),
            next_seq: 0,
        }
    }

    /// The key of an event scheduled now at `time_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `time_ns` is NaN or negative — either would pop out of
    /// time order.
    #[inline]
    fn key(&mut self, time_ns: f64) -> SlotKey {
        assert!(time_ns >= 0.0, "event timestamps must be numbers ≥ 0");
        let key = SlotKey {
            key: (u128::from(time_ns.to_bits()) << 64) | u128::from(self.next_seq),
        };
        self.next_seq += 1;
        key
    }

    /// Schedules the source's event at `time_ns`; the source must be idle.
    #[inline]
    pub(crate) fn schedule_source(&mut self, time_ns: f64) {
        debug_assert_eq!(self.source, SlotKey::IDLE, "source already pending");
        self.source = self.key(time_ns);
    }

    /// Schedules slot `index`'s event at `time_ns`; the slot must be idle.
    #[inline]
    pub(crate) fn schedule(&mut self, index: usize, time_ns: f64) {
        debug_assert!(!self.is_pending(index), "slot {index} already pending");
        self.slots[index] = self.key(time_ns);
    }

    /// Schedules an extra event carrying `payload` at `time_ns`.
    pub(crate) fn schedule_extra(&mut self, time_ns: f64, payload: u32) {
        let key = self.key(time_ns);
        self.extras.push((key, payload));
    }

    /// `true` while slot `index` holds a pending event.
    #[inline]
    pub(crate) fn is_pending(&self, index: usize) -> bool {
        self.slots[index] != SlotKey::IDLE
    }

    /// Removes and returns the earliest pending event and its instant:
    /// least time first, ties in scheduling order.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(f64, Due)> {
        let mut best = self.source;
        let mut slot = None;
        for (index, &key) in self.slots.iter().enumerate() {
            if key < best {
                slot = Some(index);
                best = key;
            }
        }
        let mut extra = None;
        for (index, &(key, _)) in self.extras.iter().enumerate() {
            if key < best {
                extra = Some(index);
                best = key;
            }
        }
        if best == SlotKey::IDLE {
            return None;
        }
        // `seq` is unique, so the least key is unique too.
        let due = if let Some(index) = extra {
            Due::Extra(self.extras.swap_remove(index).1)
        } else if let Some(index) = slot {
            self.slots[index] = SlotKey::IDLE;
            Due::Slot(index)
        } else {
            self.source = SlotKey::IDLE;
            Due::Source
        };
        Some((best.time_ns(), due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// One [`EventQueue`] entry: a timestamp, a tie-breaking sequence
    /// number and the payload.
    struct Scheduled<E> {
        time_ns: f64,
        seq: u64,
        event: E,
    }

    impl<E> Ord for Scheduled<E> {
        /// Reversed `(time, seq)`: the greatest entry is the earliest
        /// event, ties broken by insertion order.
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

    /// The reference model: a min-heap of timestamped events that breaks
    /// ties by insertion order, with no bound on pending events per
    /// source.
    struct EventQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        seq: u64,
    }

    impl<E> EventQueue<E> {
        fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }

        fn schedule(&mut self, time_ns: f64, event: E) {
            self.heap.push(Scheduled {
                time_ns,
                seq: self.seq,
                event,
            });
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(f64, E)> {
            self.heap.pop().map(|entry| (entry.time_ns, entry.event))
        }
    }

    fn drain(events: &mut EventSlots) -> Vec<(f64, Due)> {
        std::iter::from_fn(|| events.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut events = EventSlots::new(2, 0);
        assert_eq!(events.pop(), None);
        events.schedule(1, 5.0);
        events.schedule_extra(1.0, 10);
        events.schedule_source(3.0);
        events.schedule(0, 2.0);
        events.schedule_extra(4.0, 40);
        assert!(events.is_pending(0) && events.is_pending(1));
        assert_eq!(
            drain(&mut events),
            vec![
                (1.0, Due::Extra(10)),
                (2.0, Due::Slot(0)),
                (3.0, Due::Source),
                (4.0, Due::Extra(40)),
                (5.0, Due::Slot(1)),
            ]
        );
        assert!(!events.is_pending(0) && !events.is_pending(1));
    }

    #[test]
    fn ties_pop_in_scheduling_order() {
        let mut events = EventSlots::new(50, 100);
        for label in 0..100u32 {
            events.schedule_extra(7.0, label);
            if label % 2 == 1 {
                events.schedule((label / 2) as usize, 7.0);
            }
        }
        let expected: Vec<_> = (0..100u32)
            .flat_map(|label| {
                let slot = (label % 2 == 1).then_some((7.0, Due::Slot((label / 2) as usize)));
                std::iter::once((7.0, Due::Extra(label))).chain(slot)
            })
            .collect();
        assert_eq!(drain(&mut events), expected);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut events = EventSlots::new(2, 0);
        events.schedule(0, 10.0);
        events.schedule(1, 30.0);
        assert_eq!(events.pop(), Some((10.0, Due::Slot(0))));
        events.schedule_source(20.0);
        events.schedule(0, 5.0);
        assert_eq!(events.pop(), Some((5.0, Due::Slot(0))));
        assert_eq!(events.pop(), Some((20.0, Due::Source)));
        assert_eq!(events.pop(), Some((30.0, Due::Slot(1))));
        assert_eq!(events.pop(), None);
    }

    #[test]
    fn reserved_queue_does_not_regrow_within_capacity() {
        let mut events = EventSlots::new(4, 64);
        let cap = events.extras.capacity();
        for round in 0..10 {
            for i in 0..64u32 {
                events.schedule_extra(f64::from(i % 7), round * 64 + i);
            }
            while events.pop().is_some() {}
        }
        assert_eq!(events.extras.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "timestamps must be numbers")]
    fn nan_timestamps_are_rejected() {
        EventSlots::new(0, 0).schedule_source(f64::NAN);
    }

    proptest! {
        /// The reference heap against a naive one: a `Vec` of pending
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
                prop_assert_eq!(queue.heap.len(), reference.len());
            }
        }

        /// [`EventSlots`] against the reference heap, in the general
        /// frontend loop's layout: a source plus four slots per bank at 1
        /// to 40 banks, each holding at most one pending event, and any
        /// number of pending extras (the retry re-offers). Each op pops
        /// (`word % 4 == 0`), schedules an extra (`word % 4 == 1`), or
        /// schedules the source or a slot if it is idle, at one of four
        /// instants, so ties dominate; both sides must pop the same event
        /// at the same instant every time, and drain equally at the end.
        #[test]
        fn prop_slot_scan_pops_in_heap_order(
            banks in 1usize..41,
            ops in proptest::collection::vec(0u64..u64::MAX, 0..400),
        ) {
            const TIMES: [f64; 4] = [0.0, 1.5, 3.0, 4.5];
            let slots = 4 * banks;
            let mut queue = EventQueue::new();
            let mut events = EventSlots::new(slots, 0);
            let mut source_pending = false;
            for word in ops {
                let time = TIMES[(word >> 40) as usize % 4];
                match word % 4 {
                    0 => {
                        let popped = events.pop();
                        if matches!(popped, Some((_, Due::Source))) {
                            source_pending = false;
                        }
                        prop_assert_eq!(
                            popped.map(|(t, due)| (t.to_bits(), due)),
                            queue.pop().map(|(t, due)| (t.to_bits(), due))
                        );
                    }
                    1 => {
                        let payload = (word >> 8) as u32;
                        events.schedule_extra(time, payload);
                        queue.schedule(time, Due::Extra(payload));
                    }
                    _ => {
                        let slot = (word >> 8) as usize % (slots + 1);
                        if slot == slots {
                            if !source_pending {
                                source_pending = true;
                                events.schedule_source(time);
                                queue.schedule(time, Due::Source);
                            }
                        } else if !events.is_pending(slot) {
                            events.schedule(slot, time);
                            queue.schedule(time, Due::Slot(slot));
                        }
                    }
                }
            }
            prop_assert_eq!(
                drain(&mut events).into_iter().map(|(t, due)| (t.to_bits(), due)).collect::<Vec<_>>(),
                std::iter::from_fn(|| queue.pop()).map(|(t, due)| (t.to_bits(), due)).collect::<Vec<_>>()
            );
        }
    }
}
