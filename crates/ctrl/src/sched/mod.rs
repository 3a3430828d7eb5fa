//! `sched` — the event-driven request scheduler frontend.
//!
//! [`Controller::run`](crate::Controller::run) replays a trace with zero
//! queueing: every transaction starts the instant its predecessor finishes.
//! That is the right tool for accuracy questions (disturbance, retries,
//! audits) but says nothing about *system-level* behaviour — what the
//! DATE 2010 paper's Table III argues about, where the destructive
//! self-reference scheme's restore-inflated read occupies a bank for 25 ns
//! against the nondestructive scheme's 14 ns and the difference compounds
//! into queueing delay under load.
//!
//! This module supplies the missing piece as a classic discrete-event
//! simulation:
//!
//! * `event` — the deterministic event core: a source slot, a fixed set of
//!   per-bank event slots and the one sequence counter, popped in exact
//!   `(time, insertion order)` order by a linear scan. The frontend's loops
//!   and the chip's channel loops all run on it.
//! * [`BankQueue`] — bounded per-bank admission queues over a `VecDeque`
//!   that encode the per-address ordering rule every policy must obey.
//! * [`Policy`] — pluggable dispatch: FCFS, read-priority with write
//!   draining, oldest-first anti-starvation — plus the [`PriorityClass`]
//!   arbitration hook among demand, test and background traffic.
//! * [`Frontend`] — the engine tying them together over a
//!   [`Controller`](crate::Controller), with [`Backpressure`] (stall, drop,
//!   retry) when queues fill, up to three background daemons sharing one
//!   offer-and-complete path — scrub
//!   ([`ScrubConfig`](crate::reliability::ScrubConfig)) repairing
//!   correctable errors in lane-idle gaps, a March manufacturing-test
//!   source ([`MarchConfig`]) driving [`march`](crate::march) programs
//!   through the banks between demand and the other daemons in priority,
//!   and β recalibration ([`CalibConfig`](crate::CalibConfig)) — and
//!   queueing telemetry ([`QueueTelemetry`](crate::QueueTelemetry)) the
//!   serial replay path cannot measure.
//!
//! The frontend reuses [`Bank`](crate::Bank) as its service stage, so under
//! FCFS at unbounded depth it is *bit-identical* to serial replay — same
//! stored state, same audit counters — while additionally reporting sojourn
//! quantiles, occupancy and backpressure counts.

pub(crate) mod event;
pub mod frontend;
pub mod policy;
pub mod queue;

pub use frontend::{
    Backpressure, Completion, CompletionIter, CompletionLog, Frontend, FrontendConfig, MarchConfig,
    SchedRun,
};
pub use policy::{Policy, PriorityClass};
pub use queue::{BankQueue, Queued};
