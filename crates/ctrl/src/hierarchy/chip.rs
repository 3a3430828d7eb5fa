//! The full-chip engine: per-channel event loops over a
//! channels × ranks × bank groups × banks topology.
//!
//! Structurally this is the scheduler frontend lifted one level: each
//! *channel* runs its own discrete-event loop (own event slots, own lanes,
//! own bus bookkeeping, own traffic source stream), and channels share
//! **nothing** — which is exactly the property that lets
//! [`ShardDispatch::Sharded`] put one worker thread on each channel and
//! still produce results **bit-identical** to [`ShardDispatch::Serial`].
//! Within a channel, the levels below it exist as *shared resources*:
//! banks in a bank group share a group data bus, and every transfer in the
//! channel crosses the channel bus, so a completed array access still
//! queues for its buses before the data is really delivered (the
//! serialization delay that makes cheap reads buy bus headroom at scale).
//! Each bank's lane serves its queue first-come, first-served.
//!
//! A channel never has more than one pending source event (the next trace
//! arrival or closed-loop issue) and one pending event per bank (its array
//! access finishing, or its transfer completing), so its loop runs on the
//! scheduler's event slots: the source slot plus one slot per local bank,
//! popped by time, ties by scheduling order.
//!
//! Banks are materialised **lazily**: a multi-GB address space is fully
//! addressable through the topology, but a bank allocates its array, truth
//! mirror and RNG streams only when the first transaction touches it.
//! Because every bank's streams derive from `(chip seed, global bank
//! index)`, the materialisation *order* is irrelevant — a bank behaves
//! identically whether it was built first or last, on this thread or that.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use stt_array::ArraySpec;
use stt_sense::SchemeKind;

use crate::bank::Bank;
use crate::engine::{on_workers, ControllerConfig};
use crate::faults::{DriftPlan, FaultPlan};
use crate::reliability::EccMode;
use crate::retry::RetryPolicy;
use crate::sched::event::{Due, EventSlots};
use crate::sched::policy::Policy;
use crate::sched::queue::{Lane, Queued};
use crate::telemetry::{BankTelemetry, ChannelTelemetry, QueueTelemetry};
use crate::txn::{Transaction, TxnSource};

use super::source::ClosedLoopSource;
use super::topology::{BankCoord, Geometry, Topology};

/// Data-bus timing for the shared levels of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusTiming {
    /// Time a completed access occupies its bank group's data bus
    /// (nanoseconds).
    pub group_bus_ns: f64,
    /// Time the same transfer occupies the channel bus (nanoseconds);
    /// the two phases are back-to-back, so a transfer holds both buses for
    /// `group_bus_ns + channel_bus_ns`.
    pub channel_bus_ns: f64,
}

impl BusTiming {
    /// Default burst timing: 4 ns on the group bus, 2 ns on the channel
    /// bus — small against the paper's 14–25 ns array reads, so the bus
    /// only becomes the bottleneck once several banks complete together
    /// (which is the regime the topology sweep hunts for).
    #[must_use]
    pub fn date2010() -> Self {
        Self {
            group_bus_ns: 4.0,
            channel_bus_ns: 2.0,
        }
    }

    fn validate(&self) {
        assert!(
            self.group_bus_ns.is_finite()
                && self.group_bus_ns >= 0.0
                && self.channel_bus_ns.is_finite()
                && self.channel_bus_ns >= 0.0,
            "bus timings must be finite and non-negative, got {self:?}"
        );
    }
}

/// How [`Chip::run_closed_loop`] / [`Chip::run_trace`] drive the channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardDispatch {
    /// Channels served one after another on the calling thread.
    Serial,
    /// One scoped worker thread per channel (bit-identical to serial:
    /// channels share nothing).
    Sharded,
}

/// Everything needed to build a [`Chip`]. How host addresses map onto
/// the hierarchy is not part of it: a chip serves physical transactions,
/// and the interleave is chosen when a trace is generated (see
/// [`Workload::generate_physical`](crate::Workload::generate_physical)).
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// The hierarchy's level counts.
    pub topology: Topology,
    /// Per-bank array recipe.
    pub spec: ArraySpec,
    /// Sensing scheme serving every read.
    pub kind: SchemeKind,
    /// Read-retry policy.
    pub retry: RetryPolicy,
    /// Faults to inject while serving; each bank is built with its own
    /// slice of the plan, keyed by global bank index.
    pub faults: FaultPlan,
    /// Master seed; global bank `k` derives its streams from `(seed, k)`.
    pub seed: u64,
    /// Error-correction layer over bank reads.
    pub ecc: EccMode,
    /// Shared-bus timing.
    pub bus: BusTiming,
}

impl ChipConfig {
    /// Paper-scale banks (16 kb each) arranged in `topology`, no faults,
    /// no ECC, the default bus timing.
    #[must_use]
    pub fn date2010(kind: SchemeKind, topology: Topology) -> Self {
        Self {
            topology,
            spec: ArraySpec::date2010_chip(),
            kind,
            retry: RetryPolicy::date2010(),
            faults: FaultPlan::none(),
            seed: 2010,
            ecc: EccMode::None,
            bus: BusTiming::date2010(),
        }
    }

    /// Small 8×8 banks for fast tests.
    #[must_use]
    pub fn small(kind: SchemeKind, topology: Topology) -> Self {
        Self {
            spec: ArraySpec::small_test_array(),
            ..Self::date2010(kind, topology)
        }
    }

    /// Overrides the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the ECC layer.
    #[must_use]
    pub fn with_ecc(mut self, ecc: EccMode) -> Self {
        self.ecc = ecc;
        self
    }

    /// Overrides the bus timing.
    #[must_use]
    pub fn with_bus(mut self, bus: BusTiming) -> Self {
        self.bus = bus;
        self
    }

    /// The linear address space this chip exposes.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        Geometry::new(self.topology, self.spec.rows, self.spec.cols)
    }

    /// The flat controller configuration banks are built from (global bank
    /// index = flat topology index, so bank streams are a function of
    /// *position*, never of materialisation order or serving thread).
    fn bank_config(&self) -> ControllerConfig {
        ControllerConfig {
            banks: self.topology.total_banks(),
            spec: self.spec.clone(),
            kind: self.kind,
            retry: self.retry,
            faults: self.faults.clone(),
            seed: self.seed,
            ecc: self.ecc,
            drift: DriftPlan::quiet(),
        }
    }
}

/// Hierarchy-wide telemetry: every *resident* (materialised) bank with its
/// coordinate, per-channel engine counters, and the integrity audit.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipTelemetry {
    /// The topology the chip ran.
    pub topology: Topology,
    /// One entry per resident bank, in global bank order. Banks never
    /// touched by traffic do not exist and therefore do not appear.
    pub banks: Vec<(BankCoord, BankTelemetry)>,
    /// Per-channel engine counters, in channel order.
    pub channels: Vec<ChannelTelemetry>,
    /// Cells whose stored state disagrees with the host's view, summed over
    /// resident banks.
    pub audit_corrupted_bits: u64,
}

impl ChipTelemetry {
    /// Number of banks that have actually allocated state — on a sparse
    /// workload this stays at the number of *touched* banks, not the
    /// topology's total.
    #[must_use]
    pub fn resident_banks(&self) -> usize {
        self.banks.len()
    }

    /// Chip-level roll-up: every resident bank merged into one set of
    /// counters.
    #[must_use]
    pub fn aggregate(&self) -> BankTelemetry {
        crate::telemetry::aggregate(self.banks.iter().map(|(_, telemetry)| telemetry))
    }

    /// Per-channel roll-up of the resident banks' counters.
    #[must_use]
    pub fn by_channel(&self) -> BTreeMap<usize, BankTelemetry> {
        crate::telemetry::rollup_by(self.banks.iter().map(|(c, t)| (c.channel, t)))
    }

    /// Per-rank roll-up, keyed `(channel, rank)`.
    #[must_use]
    pub fn by_rank(&self) -> BTreeMap<(usize, usize), BankTelemetry> {
        crate::telemetry::rollup_by(self.banks.iter().map(|(c, t)| ((c.channel, c.rank), t)))
    }

    /// Per-bank-group roll-up, keyed `(channel, rank, group)`.
    #[must_use]
    pub fn by_group(&self) -> BTreeMap<(usize, usize, usize), BankTelemetry> {
        crate::telemetry::rollup_by(
            self.banks
                .iter()
                .map(|(c, t)| ((c.channel, c.rank, c.group), t)),
        )
    }

    /// Total transactions served by resident banks.
    #[must_use]
    pub fn transactions(&self) -> u64 {
        self.banks.iter().map(|(_, b)| b.reads + b.writes).sum()
    }
}

/// The outcome of one chip run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipRun {
    /// Full hierarchy telemetry (accumulated across runs, like
    /// [`Controller::run`](crate::Controller::run)).
    pub telemetry: ChipTelemetry,
    /// Transactions completed by *this* run.
    pub completed: u64,
    /// Time of this run's last completion, maximised over channels
    /// (nanoseconds); 0 for an empty run.
    pub makespan_ns: f64,
}

impl ChipRun {
    /// Achieved throughput in transactions per second (0 for an empty run).
    #[must_use]
    pub fn ops_per_second(&self) -> f64 {
        if self.makespan_ns > 0.0 {
            self.completed as f64 / (self.makespan_ns * 1e-9)
        } else {
            0.0
        }
    }
}

/// Per-channel persistent state.
struct ChannelState {
    /// Resident banks, indexed by local bank (global index less the
    /// channel's first); `None` until traffic first touches a bank.
    banks: Vec<Option<Box<Bank>>>,
    /// Accumulated per-bank queueing counters, indexed like `banks`.
    queues: Vec<Option<QueueTelemetry>>,
    /// Accumulated channel engine counters.
    stats: ChannelTelemetry,
    /// Makespan of the most recent run (nanoseconds).
    last_end_ns: f64,
    /// Completions of the most recent run.
    last_completed: u64,
}

impl ChannelState {
    fn new(banks: usize) -> Self {
        Self {
            banks: (0..banks).map(|_| None).collect(),
            queues: vec![None; banks],
            stats: ChannelTelemetry::default(),
            last_end_ns: 0.0,
            last_completed: 0,
        }
    }
}

/// What one channel's event loop is asked to serve.
enum ChannelWork<'a> {
    /// Open-loop replay of this channel's slice of a trace, pre-sorted by
    /// `(arrival, trace index)`; entries carry their original trace index.
    Trace(Vec<(usize, Transaction)>),
    /// Closed-loop generation from a window-limited source.
    Closed(&'a ClosedLoopSource),
}

/// A built chip. State (resident banks, telemetry) persists across runs,
/// exactly like [`Controller`](crate::Controller).
///
/// # Examples
///
/// ```
/// use stt_ctrl::hierarchy::{Chip, ChipConfig, ClosedLoopSource, ShardDispatch, Topology};
/// use stt_sense::SchemeKind;
///
/// let topology = Topology::new(2, 1, 2, 2);
/// let config = ChipConfig::small(SchemeKind::Nondestructive, topology);
/// let source = ClosedLoopSource::read_mostly(500, 4);
/// let mut serial = Chip::new(config.clone());
/// let mut sharded = Chip::new(config);
/// let a = serial.run_closed_loop(&source, ShardDispatch::Serial);
/// let b = sharded.run_closed_loop(&source, ShardDispatch::Sharded);
/// // Channels share nothing: one worker thread per channel is
/// // bit-identical to serving them one after another.
/// assert_eq!(a, b);
/// assert_eq!(a.completed, 2 * 500);
/// ```
pub struct Chip {
    config: ChipConfig,
    bank_config: ControllerConfig,
    channels: Vec<ChannelState>,
}

impl Chip {
    /// Builds an empty chip: the whole address space is addressable, no
    /// bank is resident yet.
    ///
    /// # Panics
    ///
    /// Panics if the bus timing is invalid.
    #[must_use]
    pub fn new(config: ChipConfig) -> Self {
        config.bus.validate();
        let bank_config = config.bank_config();
        let per_channel = config.topology.banks_per_channel();
        let channels = (0..config.topology.channels)
            .map(|_| ChannelState::new(per_channel))
            .collect();
        Self {
            config,
            bank_config,
            channels,
        }
    }

    /// The configuration this chip was built from.
    #[must_use]
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Number of banks currently resident (materialised by traffic).
    #[must_use]
    pub fn resident_banks(&self) -> usize {
        self.resident().count()
    }

    /// Every resident bank with its global index and its accumulated
    /// queueing counters, in global bank order.
    fn resident(&self) -> impl Iterator<Item = (usize, &Bank, Option<&QueueTelemetry>)> + '_ {
        let per_channel = self.config.topology.banks_per_channel();
        self.channels
            .iter()
            .enumerate()
            .flat_map(move |(channel, state)| {
                let slots = state.banks.iter().zip(&state.queues).enumerate();
                slots.filter_map(move |(local, (bank, queue))| {
                    Some((
                        channel * per_channel + local,
                        bank.as_deref()?,
                        queue.as_ref(),
                    ))
                })
            })
    }

    /// The stored bits of every resident bank, keyed by global bank index
    /// (global bank order) — the state the sharded ≡ serial bit-identity
    /// property compares.
    #[must_use]
    pub fn stored_state(&self) -> Vec<(usize, Vec<bool>)> {
        self.resident()
            .map(|(index, bank, _)| (index, bank.stored_bits()))
            .collect()
    }

    /// A telemetry snapshot of everything accumulated so far.
    #[must_use]
    pub fn telemetry(&self) -> ChipTelemetry {
        let banks = self
            .resident()
            .map(|(index, bank, queue)| {
                let mut telemetry = bank.telemetry().clone();
                if let Some(queue) = queue {
                    telemetry.queue = queue.clone();
                }
                (self.config.topology.coord(index), telemetry)
            })
            .collect();
        ChipTelemetry {
            topology: self.config.topology,
            banks,
            channels: self.channels.iter().map(|c| c.stats.clone()).collect(),
            audit_corrupted_bits: self
                .resident()
                .map(|(_, bank, _)| bank.audit_corrupted_bits())
                .sum(),
        }
    }

    /// Drives every channel's closed-loop source to exhaustion
    /// (`ops_per_channel` each, window-limited) and returns the run's
    /// telemetry.
    pub fn run_closed_loop(
        &mut self,
        source: &ClosedLoopSource,
        dispatch: ShardDispatch,
    ) -> ChipRun {
        source.validate();
        let work = (0..self.config.topology.channels)
            .map(|_| ChannelWork::Closed(source))
            .collect();
        self.dispatch(work, dispatch)
    }

    /// Replays a physical trace (transactions target global bank indices,
    /// as produced by
    /// [`Workload::generate_physical`](crate::Workload::generate_physical)),
    /// sharded by channel. Admission is unbounded — flow control is the
    /// closed-loop source's job; replay measures what a fixed offered
    /// stream costs.
    ///
    /// Generic over [`TxnSource`], so an owned [`Trace`](crate::Trace) and
    /// a zero-copy [`TraceView`](crate::TraceView) shard into the same
    /// per-channel work lists and replay bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if a transaction addresses a bank outside the topology.
    pub fn run_trace<S: TxnSource + ?Sized>(
        &mut self,
        trace: &S,
        dispatch: ShardDispatch,
    ) -> ChipRun {
        let total_banks = self.config.topology.total_banks();
        let per_channel = self.config.topology.banks_per_channel();
        let mut order: Vec<usize> = (0..trace.len()).collect();
        order.sort_by_key(|&i| (trace.get(i).arrival_ns, i));
        let mut work: Vec<Vec<(usize, Transaction)>> =
            vec![Vec::new(); self.config.topology.channels];
        for index in order {
            let txn = trace.get(index);
            assert!(
                txn.bank < total_banks,
                "transaction targets bank {} of a {total_banks}-bank chip",
                txn.bank
            );
            work[txn.bank / per_channel].push((index, txn));
        }
        self.dispatch(work.into_iter().map(ChannelWork::Trace).collect(), dispatch)
    }

    fn dispatch(&mut self, work: Vec<ChannelWork<'_>>, dispatch: ShardDispatch) -> ChipRun {
        let config = &self.config;
        let bank_config = &self.bank_config;
        let workers = match dispatch {
            ShardDispatch::Serial => 1,
            ShardDispatch::Sharded => work.len(),
        };
        let mut jobs: Vec<_> = self.channels.iter_mut().zip(work).enumerate().collect();
        on_workers(&mut jobs, workers, |(channel, (state, work))| {
            run_channel(config, bank_config, *channel, work, state);
        });
        ChipRun {
            telemetry: self.telemetry(),
            completed: self.channels.iter().map(|c| c.last_completed).sum(),
            makespan_ns: self
                .channels
                .iter()
                .map(|c| c.last_end_ns)
                .fold(0.0, f64::max),
        }
    }
}

/// Everything one channel's event loop owns while it runs.
struct ChannelSim<'a> {
    config: &'a ChipConfig,
    bank_config: &'a ControllerConfig,
    geometry: Geometry,
    channel: usize,
    /// Global index of the channel's first bank.
    first_bank: usize,
    /// Per-run lanes, indexed by local bank; `None` until first offered.
    lanes: Vec<Option<Lane>>,
    /// Each local bank's bus slot in `group_bus_free`.
    group_of: Vec<usize>,
    /// The source slot holds the next trace arrival or closed-loop issue;
    /// slot `local` holds that bank's array access finishing, or, while
    /// `on_bus`, its transfer completing.
    events: EventSlots,
    on_bus: Vec<bool>,
    stats: ChannelTelemetry,
    /// Bus-free times: one per (rank, group) pair, plus the channel bus.
    group_bus_free: Vec<f64>,
    channel_bus_free: f64,
    outstanding: usize,
    end_ns: f64,
}

impl<'a> ChannelSim<'a> {
    fn new(config: &'a ChipConfig, bank_config: &'a ControllerConfig, channel: usize) -> Self {
        let topology = config.topology;
        let per_channel = topology.banks_per_channel();
        Self {
            config,
            bank_config,
            geometry: config.geometry(),
            channel,
            first_bank: channel * per_channel,
            lanes: (0..per_channel).map(|_| None).collect(),
            // Local banks run rank-major, then group, then bank.
            group_of: (0..per_channel)
                .map(|local| local / topology.banks)
                .collect(),
            events: EventSlots::new(per_channel, 0),
            on_bus: vec![false; per_channel],
            stats: ChannelTelemetry::default(),
            group_bus_free: vec![0.0; topology.ranks * topology.groups],
            channel_bus_free: 0.0,
            outstanding: 0,
            end_ns: 0.0,
        }
    }

    /// Schedules local bank `local`'s next event at `time_ns`: its
    /// transfer completing when `on_bus`, else its access finishing.
    fn schedule_bank(&mut self, local: usize, time_ns: f64, on_bus: bool) {
        self.events.schedule(local, time_ns);
        self.on_bus[local] = on_bus;
    }

    /// Offers one transaction to its bank at `now`: materialises the bank
    /// if this is its first touch, then serves or queues.
    fn offer(
        &mut self,
        banks: &mut [Option<Box<Bank>>],
        txn: Transaction,
        trace_index: usize,
        now: f64,
    ) {
        debug_assert_eq!(
            self.config.topology.coord(txn.bank).channel,
            self.channel,
            "transaction crossed channels"
        );
        let local = txn.bank - self.first_bank;
        self.stats.issued += 1;
        self.outstanding += 1;
        self.stats.max_outstanding = self.stats.max_outstanding.max(self.outstanding as u64);
        let bank =
            banks[local].get_or_insert_with(|| Box::new(Bank::new(txn.bank, self.bank_config)));
        let lane = self.lanes[local].get_or_insert_with(|| Lane::with_capacity_hint(usize::MAX, 0));
        let queued = Queued {
            txn,
            trace_index,
            arrival_ns: now,
            admit_ns: now,
        };
        let done = lane.admit(bank, queued, now);
        if let Some(done) = done {
            self.schedule_bank(local, done, false);
        }
    }

    /// A finished array access claims its group and channel buses: the
    /// transfer starts when both are free, holds both for the full burst,
    /// and completes the transaction when it ends.
    fn claim_buses(&mut self, local: usize, now: f64) {
        let group_slot = self.group_of[local];
        let start = now
            .max(self.group_bus_free[group_slot])
            .max(self.channel_bus_free);
        let burst_ns = self.config.bus.group_bus_ns + self.config.bus.channel_bus_ns;
        let done = start + burst_ns;
        self.stats.bus_wait_ns += start - now;
        self.stats.bus_busy_ns += burst_ns;
        self.group_bus_free[group_slot] = done;
        self.channel_bus_free = done;
        self.schedule_bank(local, done, true);
    }

    /// Retires the completed transaction and starts the bank's next one.
    fn complete(&mut self, banks: &mut [Option<Box<Bank>>], local: usize, now: f64) {
        let lane = self.lanes[local].as_mut().expect("completion without lane");
        lane.retire(now);
        self.stats.completed += 1;
        self.outstanding -= 1;
        self.end_ns = self.end_ns.max(now);
        let bank = banks[local].as_mut().expect("completion without bank");
        let done = lane.try_dispatch(bank, Policy::Fcfs, now);
        if let Some(done) = done {
            self.schedule_bank(local, done, false);
        }
    }

    /// Flushes per-lane occupancy integrals and folds this run's counters
    /// into the channel's persistent state.
    fn finish(mut self, state: &mut ChannelState) {
        for (lane, queue) in self.lanes.iter_mut().zip(&mut state.queues) {
            let Some(lane) = lane else {
                continue;
            };
            debug_assert!(lane.queue.is_empty() && lane.in_service.is_none());
            lane.flush_occupancy(self.end_ns);
            lane.stats.horizon_ns = self.end_ns;
            queue
                .get_or_insert_with(QueueTelemetry::default)
                .merge(&lane.stats);
        }
        self.stats.horizon_ns = self.end_ns;
        state.stats.merge(&self.stats);
        state.last_end_ns = self.end_ns;
        state.last_completed = self.stats.completed;
    }
}

/// One channel's event loop, serial or on its own worker thread — the code
/// path is the same either way, which is the whole determinism argument.
fn run_channel(
    config: &ChipConfig,
    bank_config: &ControllerConfig,
    channel: usize,
    work: &ChannelWork<'_>,
    state: &mut ChannelState,
) {
    let mut sim = ChannelSim::new(config, bank_config, channel);
    let banks = &mut state.banks;

    let (trace, source): (&[(usize, Transaction)], Option<&ClosedLoopSource>) = match work {
        ChannelWork::Trace(txns) => (txns.as_slice(), None),
        ChannelWork::Closed(source) => (&[], Some(source)),
    };
    let mut source_rng: Option<StdRng> = source.map(|s| s.rng(channel));
    let mut cursor = 0usize;
    let mut issued = 0usize;
    let mut throttled = false;

    if let Some((_, first)) = trace.first() {
        sim.events.schedule_source(first.arrival_ns as f64);
    }
    if source.is_some_and(|s| s.ops_per_channel > 0) {
        sim.events.schedule_source(0.0);
    }

    while let Some((now, due)) = sim.events.pop() {
        match due {
            // The next open-loop trace transaction arrives.
            Due::Source if source.is_none() => {
                let (trace_index, txn) = trace[cursor];
                cursor += 1;
                sim.offer(banks, txn, trace_index, now);
                if let Some((_, next)) = trace.get(cursor) {
                    // Arrivals are pre-sorted; the max() only guards float
                    // identity for equal timestamps.
                    sim.events
                        .schedule_source((next.arrival_ns as f64).max(now));
                }
            }
            // The closed-loop source attempts to issue.
            Due::Source => {
                let source = source.expect("issue event without a source");
                let rng = source_rng.as_mut().expect("issue event without a stream");
                if sim.outstanding >= source.window {
                    // Window full: the source goes quiet and waits for a
                    // completion to wake it — backpressure throttles issue.
                    throttled = true;
                    sim.stats.source_throttled += 1;
                    continue;
                }
                let txn = source.next_txn(&sim.geometry, channel, rng);
                sim.offer(banks, txn, issued, now);
                issued += 1;
                if issued < source.ops_per_channel {
                    sim.events.schedule_source(now + source.next_think_ns(rng));
                }
            }
            // A bank's array access finished; the transfer now claims its
            // buses.
            Due::Slot(local) if !sim.on_bus[local] => sim.claim_buses(local, now),
            // The transfer crossed both buses; the transaction is complete
            // and the bank is free.
            Due::Slot(local) => {
                sim.complete(banks, local, now);
                if throttled {
                    let source = source.expect("throttled without a source");
                    if issued < source.ops_per_channel {
                        throttled = false;
                        let rng = source_rng.as_mut().expect("throttled without a stream");
                        sim.events.schedule_source(now + source.next_think_ns(rng));
                    }
                }
            }
            Due::Extra(_) => unreachable!("a channel schedules no extra events"),
        }
    }
    sim.finish(state);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::InterleavePolicy;
    use crate::txn::Trace;
    use crate::workload::Workload;
    use rand::SeedableRng;

    fn small_chip(kind: SchemeKind) -> Chip {
        Chip::new(ChipConfig::small(kind, Topology::new(2, 1, 2, 2)).with_seed(7))
    }

    #[test]
    fn closed_loop_serves_every_issue_and_respects_the_window() {
        let source = ClosedLoopSource::read_mostly(400, 3);
        let mut chip = small_chip(SchemeKind::Nondestructive);
        let run = chip.run_closed_loop(&source, ShardDispatch::Serial);
        assert_eq!(run.completed, 2 * 400);
        assert!(run.makespan_ns > 0.0);
        assert!(run.ops_per_second() > 0.0);
        for channel in &run.telemetry.channels {
            assert_eq!(channel.issued, 400);
            assert_eq!(channel.completed, 400);
            assert!(
                channel.max_outstanding <= 3,
                "window must bound outstanding, saw {}",
                channel.max_outstanding
            );
        }
    }

    #[test]
    fn sharded_equals_serial_closed_loop() {
        for kind in SchemeKind::ALL {
            let config = ChipConfig::small(kind, Topology::new(3, 1, 2, 2)).with_seed(11);
            let source = ClosedLoopSource::read_mostly(300, 4);
            let mut serial = Chip::new(config.clone());
            let mut sharded = Chip::new(config);
            let a = serial.run_closed_loop(&source, ShardDispatch::Serial);
            let b = sharded.run_closed_loop(&source, ShardDispatch::Sharded);
            assert_eq!(a, b, "{kind}");
            assert_eq!(serial.stored_state(), sharded.stored_state(), "{kind}");
        }
    }

    #[test]
    fn trace_replay_is_sharded_deterministically() {
        let config = ChipConfig::small(SchemeKind::Nondestructive, Topology::new(2, 1, 2, 2));
        let geometry = config.geometry();
        let trace = Workload::Uniform { read_fraction: 0.7 }.generate_physical(
            &geometry,
            InterleavePolicy::ChannelStriped,
            800,
            &mut StdRng::seed_from_u64(3),
        );
        let mut serial = Chip::new(config.clone());
        let mut sharded = Chip::new(config);
        let a = serial.run_trace(&trace, ShardDispatch::Serial);
        let b = sharded.run_trace(&trace, ShardDispatch::Sharded);
        assert_eq!(a, b);
        assert_eq!(a.completed, 800);
        assert_eq!(a.telemetry.transactions(), 800);
    }

    #[test]
    fn lazy_materialisation_allocates_only_touched_banks() {
        // 64 banks addressable, traffic pinned to channel 0 bank 0.
        let config = ChipConfig::small(SchemeKind::Nondestructive, Topology::new(4, 2, 4, 2));
        let mut chip = Chip::new(config);
        let mut trace = Trace::new();
        for _ in 0..10 {
            trace.push(Transaction::read(0, stt_array::Address::new(0, 0)));
        }
        let run = chip.run_trace(&trace, ShardDispatch::Serial);
        assert_eq!(chip.resident_banks(), 1);
        assert_eq!(run.telemetry.resident_banks(), 1);
        assert_eq!(run.telemetry.topology.total_banks(), 64);
    }

    #[test]
    fn zero_bus_time_means_completion_at_bank_done() {
        let config =
            ChipConfig::small(SchemeKind::Nondestructive, Topology::flat(2)).with_bus(BusTiming {
                group_bus_ns: 0.0,
                channel_bus_ns: 0.0,
            });
        let mut chip = Chip::new(config);
        let run = chip.run_closed_loop(
            &ClosedLoopSource::read_mostly(100, 2),
            ShardDispatch::Serial,
        );
        assert_eq!(run.completed, 100);
        assert_eq!(run.telemetry.channels[0].bus_busy_ns, 0.0);
        assert_eq!(run.telemetry.channels[0].bus_wait_ns, 0.0);
    }

    #[test]
    fn bus_contention_delays_completions() {
        // One bank group, bus burst comparable to service time, a wide-open
        // window: several banks finish together and serialize on the bus.
        let config = ChipConfig::small(SchemeKind::Nondestructive, Topology::new(1, 1, 1, 4))
            .with_bus(BusTiming {
                group_bus_ns: 10.0,
                channel_bus_ns: 5.0,
            });
        let source = ClosedLoopSource::read_mostly(400, 16).with_mean_think_ns(1.0);
        let mut chip = Chip::new(config);
        let run = chip.run_closed_loop(&source, ShardDispatch::Serial);
        let channel = &run.telemetry.channels[0];
        assert!(
            channel.bus_wait_ns > 0.0,
            "saturating four banks over one bus must queue transfers"
        );
        assert!(channel.mean_bus_wait_ns() > 0.0);
    }

    #[test]
    fn per_level_rollups_partition_the_chip() {
        let source = ClosedLoopSource::read_mostly(200, 4);
        let mut chip = small_chip(SchemeKind::Nondestructive);
        let run = chip.run_closed_loop(&source, ShardDispatch::Serial);
        let total = run.telemetry.aggregate();
        let by_channel = run.telemetry.by_channel();
        let by_rank = run.telemetry.by_rank();
        let by_group = run.telemetry.by_group();
        for rollup in [
            by_channel.values().map(|b| b.reads).sum::<u64>(),
            by_rank.values().map(|b| b.reads).sum::<u64>(),
            by_group.values().map(|b| b.reads).sum::<u64>(),
        ] {
            assert_eq!(rollup, total.reads, "every level must partition the chip");
        }
        assert_eq!(by_channel.len(), 2);
        assert_eq!(by_group.len(), 4);
    }

    #[test]
    fn state_persists_across_runs() {
        let source = ClosedLoopSource::read_mostly(100, 2);
        let mut chip = small_chip(SchemeKind::Nondestructive);
        chip.run_closed_loop(&source, ShardDispatch::Serial);
        let second = chip.run_closed_loop(&source, ShardDispatch::Serial);
        assert_eq!(second.completed, 200, "run counters are per-run");
        assert_eq!(
            second.telemetry.transactions(),
            400,
            "telemetry accumulates"
        );
    }

    #[test]
    #[should_panic(expected = "targets bank")]
    fn out_of_range_bank_panics() {
        let mut chip = small_chip(SchemeKind::Nondestructive);
        let mut trace = Trace::new();
        trace.push(Transaction::read(64, stt_array::Address::new(0, 0)));
        chip.run_trace(&trace, ShardDispatch::Serial);
    }
}
