//! Scheduling policies: which waiting transaction a bank serves next.
//!
//! Every policy chooses among the queue's *eligible* entries (see
//! [`BankQueue::eligible`]), so per-address ordering is preserved no matter
//! how aggressive the reordering is. Two policies cover the classic
//! controller trade-off:
//!
//! * [`Policy::Fcfs`] — strict admission order. With an unbounded queue
//!   this reproduces serial replay bit-for-bit (the frontend's anchor
//!   property).
//! * [`Policy::ReadPriority`] — reads jump ahead of writes, the standard
//!   latency play for read-mostly traffic; queued writes are *drained* in
//!   batch once they pile past a high-water mark (hysteresis: drain runs
//!   until the write queue empties), so writes cannot starve.

use super::queue::BankQueue;

/// The traffic classes a bank lane arbitrates between.
///
/// Demand traffic is the host's reads and writes; test traffic is the
/// March harness's lowered operations (see
/// [`MarchConfig`](crate::sched::MarchConfig)); background traffic is the
/// maintenance daemons' work: the scrub daemon's word re-reads (see
/// [`ScrubConfig`](crate::reliability::ScrubConfig)) and the calibration
/// daemon's reference-read bursts (see [`CalibConfig`](crate::CalibConfig)).
/// The ordering is strict: every built-in [`Policy`] is work-conserving for
/// demand, test work runs in lane-idle gaps, and background work runs only
/// when neither demand nor test work waits — an in-progress operation of
/// any class finishes (the service stage is not interruptible, like a real
/// array access), but no lower-class one starts while a higher class waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityClass {
    /// Host reads and writes.
    Demand,
    /// Manufacturing-test traffic (March operations).
    Test,
    /// Best-effort maintenance traffic (scrub and calibration).
    Background,
}

/// The frontend's background traffic sources: each one offers work to a
/// lane in its own [`PriorityClass`] and, once granted, occupies the lane
/// until its operation completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Daemon {
    /// One word-scrub per periodic tick.
    Scrub,
    /// The next March-test operation, offered whenever the lane idles.
    March,
    /// A periodic trip check; a tripped check runs a burst and refit.
    Calib,
}

impl Daemon {
    /// The class this daemon's work arbitrates as.
    pub(crate) fn class(self) -> PriorityClass {
        match self {
            Daemon::March => PriorityClass::Test,
            Daemon::Scrub | Daemon::Calib => PriorityClass::Background,
        }
    }
}

/// How a bank picks the next transaction to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// First come, first served (admission order).
    Fcfs,
    /// Serve reads before writes; drain writes in batch above a high-water
    /// mark.
    ReadPriority {
        /// Queued-write count that triggers a write drain.
        write_high_water: usize,
    },
}

impl Policy {
    /// Short machine-readable name for table/CSV rows.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Fcfs => "fcfs",
            Policy::ReadPriority { .. } => "read-priority",
        }
    }

    /// Which class an idle lane should serve next, given whether demand
    /// and test work are waiting. Every built-in policy is strict: demand
    /// always wins, test work runs in demand-idle gaps, and
    /// [`PriorityClass::Background`] is chosen only when neither waits. The
    /// hook is on `Policy` so a future policy can trade differently (e.g.
    /// guarantee scrub bandwidth under sustained load).
    #[must_use]
    pub fn arbitrate(&self, demand_waiting: bool, test_waiting: bool) -> PriorityClass {
        if demand_waiting {
            PriorityClass::Demand
        } else if test_waiting {
            PriorityClass::Test
        } else {
            PriorityClass::Background
        }
    }

    /// Picks the index of the queue entry to serve next, or `None` when the
    /// queue is empty. Always returns an *eligible* index.
    pub(crate) fn choose(&self, queue: &mut BankQueue) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        match *self {
            // The head of the queue is always eligible.
            Policy::Fcfs => Some(0),
            Policy::ReadPriority { write_high_water } => {
                let writes = queue.queued_writes();
                if writes >= write_high_water.max(1) {
                    queue.draining = true;
                } else if writes == 0 {
                    queue.draining = false;
                }
                let want_read = !queue.draining;
                queue
                    .eligible()
                    .find(|&i| queue.entry(i).txn.op.is_read() == want_read)
                    .or(Some(0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::queue::Queued;
    use crate::txn::Transaction;
    use stt_array::Address;

    fn queued(trace_index: usize, arrival_ns: f64, txn: Transaction) -> Queued {
        Queued {
            txn,
            trace_index,
            arrival_ns,
            admit_ns: arrival_ns,
        }
    }

    fn queue_of(entries: Vec<Queued>) -> BankQueue {
        let mut queue = BankQueue::new(64);
        for entry in entries {
            queue.admit(entry);
        }
        queue
    }

    #[test]
    fn fcfs_serves_the_head() {
        let mut queue = queue_of(vec![
            queued(0, 0.0, Transaction::write(0, Address::new(0, 0), true)),
            queued(1, 1.0, Transaction::read(0, Address::new(0, 1))),
        ]);
        assert_eq!(Policy::Fcfs.choose(&mut queue), Some(0));
        assert_eq!(Policy::Fcfs.choose(&mut BankQueue::new(4)), None);
    }

    #[test]
    fn read_priority_jumps_reads_over_older_writes() {
        let mut queue = queue_of(vec![
            queued(0, 0.0, Transaction::write(0, Address::new(0, 0), true)),
            queued(1, 1.0, Transaction::read(0, Address::new(0, 1))),
        ]);
        let policy = Policy::ReadPriority {
            write_high_water: 8,
        };
        assert_eq!(policy.choose(&mut queue), Some(1));
    }

    #[test]
    fn read_priority_respects_same_address_ordering() {
        let hot = Address::new(0, 0);
        let mut queue = queue_of(vec![
            queued(0, 0.0, Transaction::write(0, hot, true)),
            queued(1, 1.0, Transaction::read(0, hot)),
        ]);
        let policy = Policy::ReadPriority {
            write_high_water: 8,
        };
        // The read targets the written cell, so the write must go first.
        assert_eq!(policy.choose(&mut queue), Some(0));
    }

    #[test]
    fn read_priority_drains_writes_above_high_water_until_empty() {
        let policy = Policy::ReadPriority {
            write_high_water: 2,
        };
        let mut queue = queue_of(vec![
            queued(0, 0.0, Transaction::write(0, Address::new(0, 0), true)),
            queued(1, 1.0, Transaction::read(0, Address::new(9, 9))),
            queued(2, 2.0, Transaction::write(0, Address::new(0, 1), false)),
        ]);
        // Two queued writes hit the mark: drain mode picks the oldest write.
        assert_eq!(policy.choose(&mut queue), Some(0));
        queue.take(0);
        // Hysteresis: still draining with one write left.
        assert_eq!(policy.choose(&mut queue), Some(1));
        queue.take(1);
        // Writes empty: back to read priority.
        assert!(policy.choose(&mut queue).is_some());
        assert!(!queue.draining);
    }

    #[test]
    fn arbitration_is_demand_work_conserving() {
        for policy in [
            Policy::Fcfs,
            Policy::ReadPriority {
                write_high_water: 4,
            },
        ] {
            assert_eq!(policy.arbitrate(true, false), PriorityClass::Demand);
            assert_eq!(policy.arbitrate(false, false), PriorityClass::Background);
        }
    }

    #[test]
    fn three_way_arbitration_is_strict() {
        let policy = Policy::Fcfs;
        assert_eq!(policy.arbitrate(true, true), PriorityClass::Demand);
        assert_eq!(policy.arbitrate(true, false), PriorityClass::Demand);
        assert_eq!(policy.arbitrate(false, true), PriorityClass::Test);
        assert_eq!(policy.arbitrate(false, false), PriorityClass::Background);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Policy::Fcfs.name(), "fcfs");
        assert_eq!(
            Policy::ReadPriority {
                write_high_water: 4
            }
            .name(),
            "read-priority"
        );
    }
}
