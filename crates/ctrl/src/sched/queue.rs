//! Bounded per-bank transaction queues with per-address ordering.
//!
//! Each bank owns one [`BankQueue`] of admitted-but-not-yet-served
//! transactions. Scheduling policies may serve the queue out of order, but
//! never reorder two transactions that touch the **same cell**: a read must
//! observe the writes admitted before it, and two writes must land in
//! admission order, or replay stops being meaningful. The queue encodes
//! that rule once — [`BankQueue::eligible`] yields exactly the entries a
//! policy may legally pick — so every policy inherits it for free.
//!
//! Storage is one `VecDeque<Queued>` in admission order (DESIGN.md §12):
//! admitting is a push at the back, serving the head is an O(1)
//! `pop_front`, an out-of-order pick shifts at most the queue's depth, and
//! — after the preallocation the frontend requests via
//! [`BankQueue::with_capacity_hint`] — the steady state allocates nothing.

use std::collections::VecDeque;

use crate::bank::Bank;
use crate::telemetry::QueueTelemetry;
use crate::txn::Transaction;

use super::policy::{Daemon, Policy};

/// One admitted transaction waiting in a bank queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Queued {
    /// The transaction itself.
    pub txn: Transaction,
    /// Its index in the original trace (stable identity for tests/logs).
    pub trace_index: usize,
    /// Original arrival timestamp (nanoseconds) — the clock sojourn time is
    /// measured from, even when admission stalled or retried.
    pub arrival_ns: f64,
    /// When the transaction entered this queue (nanoseconds).
    pub admit_ns: f64,
}

/// A bounded FIFO of waiting transactions for one bank.
#[derive(Debug, Clone)]
pub struct BankQueue {
    /// Waiting entries in admission order.
    entries: VecDeque<Queued>,
    capacity: usize,
    /// Write-drain hysteresis flag for the read-priority policy: set when
    /// queued writes reach the high-water mark, cleared when they drain to
    /// zero.
    pub(crate) draining: bool,
}

impl BankQueue {
    /// An empty queue holding at most `capacity` waiting transactions
    /// (`usize::MAX` for effectively unbounded).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-depth queue cannot absorb any
    /// burst and every admission would backpressure.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_capacity_hint(capacity, 0)
    }

    /// Like [`BankQueue::new`], but preallocates `hint` slots so a run whose
    /// queue never exceeds that depth performs no allocation after setup.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity_hint(capacity: usize, hint: usize) -> Self {
        assert!(
            capacity > 0,
            "bank queues need capacity for at least one entry"
        );
        Self {
            entries: VecDeque::with_capacity(hint),
            capacity,
            draining: false,
        }
    }

    /// Number of waiting transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when the queue cannot admit another transaction.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// The waiting transaction at queue position `index` (admission order;
    /// position 0 is the head).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    pub fn entry(&self, index: usize) -> &Queued {
        &self.entries[index]
    }

    /// Iterates the waiting transactions in admission order.
    pub fn iter(&self) -> impl Iterator<Item = &Queued> + '_ {
        self.entries.iter()
    }

    /// Number of waiting writes.
    #[must_use]
    pub fn queued_writes(&self) -> usize {
        self.iter().filter(|q| !q.txn.op.is_read()).count()
    }

    /// Admits a transaction at the tail.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — backpressure is the frontend's job;
    /// by the time an entry reaches the queue the decision is already made.
    pub fn admit(&mut self, queued: Queued) {
        assert!(!self.is_full(), "admit() on a full queue");
        self.entries.push_back(queued);
    }

    /// Indices of entries a policy may legally serve next: an entry is
    /// eligible iff no *earlier-admitted* entry targets the same address.
    /// The head of the queue is therefore always eligible.
    pub fn eligible(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.iter().enumerate().filter_map(move |(i, q)| {
            let blocked = self
                .entries
                .iter()
                .take(i)
                .any(|p| p.txn.addr == q.txn.addr);
            (!blocked).then_some(i)
        })
    }

    /// Removes and returns the entry at queue position `index`, preserving
    /// the relative order of the rest. Position 0 (the FCFS head) is O(1).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn take(&mut self, index: usize) -> Queued {
        self.entries
            .remove(index)
            .expect("queue position in bounds")
    }
}

/// A transaction currently occupying a bank's service stage.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InService {
    pub(crate) queued: Queued,
    pub(crate) start_ns: f64,
}

/// A transaction parked by [`Backpressure::Retry`](super::Backpressure)
/// after its poll found the queue full: it waits off-queue (FIFO per lane)
/// until a slot frees, then re-enters on its original polling grid. See
/// DESIGN.md §12 — parking replaces the old poll-event churn, with the
/// skipped polls reconstructed arithmetically.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ParkedRetry {
    pub(crate) trace_index: u32,
    /// The next instant on the transaction's `delay_ns` polling grid.
    pub(crate) next_poll_ns: f64,
}

/// Per-bank run state shared by the scheduler frontend and the hierarchy
/// chip engine: the waiting queue, what occupies the service stage and this
/// run's queueing counters. The frontend keys lanes by bank index in a flat
/// controller; the chip engine materialises them lazily per touched bank —
/// the bookkeeping and the service step are identical either way, so they
/// live here once. Each loop schedules its own event at the completion
/// instant these methods return.
pub(crate) struct Lane {
    pub(crate) queue: BankQueue,
    pub(crate) in_service: Option<InService>,
    /// The daemon whose operation occupies the service stage (mutually
    /// exclusive with `in_service`; background work is non-preemptive once
    /// started, like a demand access).
    pub(crate) background: Option<Daemon>,
    pub(crate) last_change_ns: f64,
    pub(crate) stats: QueueTelemetry,
    /// Retry-backpressure waitlist (empty except under `Retry`).
    pub(crate) parked: VecDeque<ParkedRetry>,
}

impl Lane {
    pub(crate) fn with_capacity_hint(queue_depth: usize, hint: usize) -> Self {
        Self {
            queue: BankQueue::with_capacity_hint(queue_depth, hint),
            in_service: None,
            background: None,
            last_change_ns: 0.0,
            stats: QueueTelemetry::default(),
            parked: VecDeque::new(),
        }
    }

    /// `true` while demand or background work occupies the service stage.
    pub(crate) fn busy(&self) -> bool {
        self.in_service.is_some() || self.background.is_some()
    }

    /// Accumulates the depth integral up to `now` (call before any queue
    /// length change).
    pub(crate) fn flush_occupancy(&mut self, now: f64) {
        self.stats.depth_time_ns += self.queue.len() as f64 * (now - self.last_change_ns);
        self.last_change_ns = now;
    }

    /// Takes the finished demand transaction out of service at `now` and
    /// counts its completion and sojourn.
    pub(crate) fn retire(&mut self, now: f64) -> InService {
        let served = self.in_service.take().expect("completion without service");
        self.stats.completed += 1;
        self.stats.sojourn.observe(now - served.queued.arrival_ns);
        served
    }

    /// Admits `queued` at `now`: straight into service when the lane is
    /// idle with nothing waiting (returning the completion instant),
    /// otherwise at the queue tail. The caller checked the queue has room.
    pub(crate) fn admit(&mut self, bank: &mut Bank, queued: Queued, now: f64) -> Option<f64> {
        self.stats.admitted += 1;
        if !self.busy() && self.queue.is_empty() {
            return Some(self.start_service(bank, queued, now));
        }
        self.flush_occupancy(now);
        self.queue.admit(queued);
        self.stats.max_depth = self.stats.max_depth.max(self.queue.len() as u64);
        None
    }

    /// If the lane is idle and has waiting work, picks the next transaction
    /// per `policy`, starts serving it and returns the completion instant.
    pub(crate) fn try_dispatch(
        &mut self,
        bank: &mut Bank,
        policy: Policy,
        now: f64,
    ) -> Option<f64> {
        if self.busy() {
            return None;
        }
        let index = policy.choose(&mut self.queue)?;
        self.flush_occupancy(now);
        let queued = self.queue.take(index);
        Some(self.start_service(bank, queued, now))
    }

    /// The service step: records the wait since admission, runs
    /// `Bank::execute`, records `queued` in flight and returns the
    /// completion instant `now + service time`. The service time is
    /// whatever the bank actually charged (attempt-dependent), read off its
    /// busy clock as after − before.
    fn start_service(&mut self, bank: &mut Bank, queued: Queued, now: f64) -> f64 {
        self.stats.wait_ns.push(now - queued.admit_ns);
        let busy_before = bank.telemetry().busy_time;
        bank.execute(&queued.txn);
        self.in_service = Some(InService {
            queued,
            start_ns: now,
        });
        now + (bank.telemetry().busy_time - busy_before).get() * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stt_array::Address;

    fn queued(trace_index: usize, txn: Transaction) -> Queued {
        Queued {
            txn,
            trace_index,
            arrival_ns: trace_index as f64,
            admit_ns: trace_index as f64,
        }
    }

    #[test]
    fn capacity_is_enforced() {
        let mut queue = BankQueue::new(2);
        queue.admit(queued(0, Transaction::read(0, Address::new(0, 0))));
        assert!(!queue.is_full());
        queue.admit(queued(1, Transaction::read(0, Address::new(0, 1))));
        assert!(queue.is_full());
        assert_eq!(queue.len(), 2);
    }

    #[test]
    #[should_panic(expected = "full queue")]
    fn admitting_past_capacity_panics() {
        let mut queue = BankQueue::new(1);
        queue.admit(queued(0, Transaction::read(0, Address::new(0, 0))));
        queue.admit(queued(1, Transaction::read(0, Address::new(0, 1))));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_is_rejected() {
        let _ = BankQueue::new(0);
    }

    #[test]
    fn same_address_entries_are_ineligible_behind_their_elder() {
        let hot = Address::new(1, 1);
        let mut queue = BankQueue::new(8);
        queue.admit(queued(0, Transaction::write(0, hot, true)));
        queue.admit(queued(1, Transaction::read(0, Address::new(2, 2))));
        queue.admit(queued(2, Transaction::read(0, hot)));
        queue.admit(queued(3, Transaction::read(0, Address::new(3, 3))));
        let eligible: Vec<usize> = queue.eligible().collect();
        // Entry 2 reads the cell entry 0 is still waiting to write.
        assert_eq!(eligible, vec![0, 1, 3]);
    }

    #[test]
    fn taking_an_entry_unblocks_its_successor() {
        let hot = Address::new(1, 1);
        let mut queue = BankQueue::new(8);
        queue.admit(queued(0, Transaction::write(0, hot, true)));
        queue.admit(queued(1, Transaction::read(0, hot)));
        let first = queue.take(0);
        assert_eq!(first.trace_index, 0);
        let eligible: Vec<usize> = queue.eligible().collect();
        assert_eq!(eligible, vec![0]);
        assert_eq!(queue.entry(0).trace_index, 1);
    }

    #[test]
    fn take_from_the_middle_preserves_order() {
        let mut queue = BankQueue::new(8);
        for i in 0..4 {
            queue.admit(queued(i, Transaction::read(0, Address::new(i, 0))));
        }
        let mid = queue.take(2);
        assert_eq!(mid.trace_index, 2);
        let remaining: Vec<usize> = queue.iter().map(|q| q.trace_index).collect();
        assert_eq!(remaining, vec![0, 1, 3]);
        // A later admission lands behind the survivors.
        queue.admit(queued(9, Transaction::read(0, Address::new(9, 0))));
        assert_eq!(queue.entry(3).trace_index, 9);
    }

    #[test]
    fn queued_writes_counts_only_writes() {
        let mut queue = BankQueue::new(8);
        queue.admit(queued(0, Transaction::write(0, Address::new(0, 0), true)));
        queue.admit(queued(1, Transaction::read(0, Address::new(0, 1))));
        queue.admit(queued(2, Transaction::write(0, Address::new(0, 2), false)));
        assert_eq!(queue.queued_writes(), 2);
    }

    proptest! {
        /// The queue against a naive reference: a plain `Vec<Queued>` in
        /// admission order. Each op admits (`op % 3 != 0`, a read or write
        /// to one of three cells, so same-address blocking is common) or
        /// takes the entry at position `op / 3 % len`; after every op the
        /// contents, eligibility and write count must agree.
        #[test]
        fn prop_matches_a_vec_reference(
            ops in proptest::collection::vec(0u32..48, 0..160),
        ) {
            const DEPTH: usize = 6;
            let mut queue = BankQueue::new(DEPTH);
            let mut reference: Vec<Queued> = Vec::new();
            for (step, op) in ops.into_iter().enumerate() {
                let cell = Address::new(0, (op / 3 % 3) as usize);
                if op % 3 != 0 {
                    prop_assert_eq!(queue.is_full(), reference.len() == DEPTH);
                    if reference.len() < DEPTH {
                        let txn = if op / 9 % 2 == 0 {
                            Transaction::read(0, cell)
                        } else {
                            Transaction::write(0, cell, op % 2 == 0)
                        };
                        queue.admit(queued(step, txn));
                        reference.push(queued(step, txn));
                    }
                } else if !reference.is_empty() {
                    let index = (op / 3) as usize % reference.len();
                    prop_assert_eq!(queue.take(index), reference.remove(index));
                }
                prop_assert_eq!(queue.iter().copied().collect::<Vec<_>>(), reference.clone());
                let eligible: Vec<usize> = (0..reference.len())
                    .filter(|&i| {
                        let addr = reference[i].txn.addr;
                        !reference[..i].iter().any(|p| p.txn.addr == addr)
                    })
                    .collect();
                prop_assert_eq!(queue.eligible().collect::<Vec<_>>(), eligible);
                let writes = reference.iter().filter(|q| !q.txn.op.is_read()).count();
                prop_assert_eq!(queue.queued_writes(), writes);
            }
        }
    }
}
