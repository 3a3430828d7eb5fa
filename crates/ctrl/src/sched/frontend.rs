//! The event-driven request frontend: admission, queueing, dispatch.
//!
//! [`Frontend`] wraps a [`Controller`] and replaces its zero-queueing
//! serial replay with a discrete-event loop: transactions are *offered* at
//! their arrival timestamps, admitted into bounded per-bank queues (a full
//! queue stalls the arrival stream), dispatched by a scheduling
//! [`Policy`], and completed out of order across banks while per-address
//! ordering is preserved within each bank. The service stage is the exact same
//! [`Bank`] logic serial replay uses — the frontend only
//! decides *when* and *in which order* `Bank::execute` runs — which is what
//! makes the anchor property hold:
//!
//! > For the same seed and a trace with non-decreasing arrivals, FCFS
//! > dispatch at unbounded queue depth executes the exact per-bank
//! > instruction-and-RNG sequence of [`Controller::run`], so final stored
//! > state and audit counters are **bit-identical** — only the queueing
//! > telemetry (which serial replay cannot measure) differs from zero.
//!
//! That identity is asserted by the integration suite the same way the
//! `Serial ≡ Parallel` dispatch property already is.

use crate::alloc_probe;
use crate::bank::Bank;
use crate::calib::CalibConfig;
use crate::engine::{census, serve_banks, BankLists, Controller, Dispatch};
use crate::march::{DataBackground, MarchAlgorithm, MarchStep};
use crate::reliability::ScrubConfig;
use crate::telemetry::{QueueTelemetry, Telemetry};
use crate::txn::{Op, Transaction, TxnSource};

use super::event::{Due, EventSlots};
#[cfg(doc)]
use super::policy::PriorityClass;
use super::policy::{Daemon, Policy};
use super::queue::{Lane, Queued};

/// What admission does when a transaction's bank queue is full. Stalling
/// is the only behaviour: the type and
/// [`FrontendConfig::with_backpressure`] remain because the benchmark
/// package names them, and leave with its next change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backpressure {
    /// Block the arrival stream until the queue frees a slot (a blocking
    /// host interface: later arrivals are pushed back in time too).
    Stall,
}

/// Configuration of the March manufacturing-test traffic source.
///
/// When present, [`Frontend::run`] lowers the algorithm once and drives the
/// schedule through every bank as [`PriorityClass::Test`] traffic: test
/// operations run only in demand-idle gaps (demand always outranks the
/// tester), outrank the scrub and calibration daemons, and are
/// non-preemptive once started — an in-flight test op finishes before a
/// newly arrived demand transaction is served. The full test re-runs on
/// every `run` call; verdicts accumulate in each bank's
/// [`MarchTelemetry`](crate::telemetry::MarchTelemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarchConfig {
    /// Which March algorithm to run.
    pub algorithm: MarchAlgorithm,
    /// Data background the notation's `0`/`1` is lowered against
    /// (defaults to [`DataBackground::Solid`], the textbook lowering).
    pub background: DataBackground,
    /// Raw-array test mode: March reads bypass the SECDED codec and
    /// observe the bare cell, so single-cell defects the codec would
    /// absorb are caught at every protection level. No effect without ECC.
    pub raw: bool,
}

impl MarchConfig {
    /// A test pass of `algorithm` over every bank (solid background,
    /// host-visible reads).
    #[must_use]
    pub fn new(algorithm: MarchAlgorithm) -> Self {
        Self {
            algorithm,
            background: DataBackground::Solid,
            raw: false,
        }
    }

    /// Lowers against `background` instead of the solid pattern.
    #[must_use]
    pub fn with_background(mut self, background: DataBackground) -> Self {
        self.background = background;
        self
    }

    /// Sets the raw-array (codec-bypass) read mode.
    #[must_use]
    pub fn with_raw(mut self, raw: bool) -> Self {
        self.raw = raw;
        self
    }
}

/// Configuration of the scheduler frontend.
///
/// No setting changes what the run measures: every run keeps fixed-memory
/// streaming sojourn quantiles in its telemetry (see
/// [`SojournStats`](crate::SojournStats)) and every completion in
/// [`SchedRun::completions`], from which exact order statistics follow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontendConfig {
    /// Per-bank waiting-queue capacity (`usize::MAX` for unbounded).
    pub queue_depth: usize,
    /// Dispatch policy.
    pub policy: Policy,
    /// What to do when a bank queue is full (always a stall).
    pub backpressure: Backpressure,
    /// Background scrub daemon (see [`ScrubConfig`]): a
    /// [`PriorityClass::Background`] traffic source offering one word-scrub
    /// per bank per interval, served only in lane-idle gaps. Requires the
    /// wrapped controller to run with ECC.
    pub scrub: Option<ScrubConfig>,
    /// March manufacturing-test traffic source (see [`MarchConfig`]): a
    /// [`PriorityClass::Test`] citizen between demand and the background
    /// daemons.
    pub march: Option<MarchConfig>,
    /// Per-bank calibration daemon (see [`CalibConfig`]): a periodic
    /// [`PriorityClass::Background`] check of each bank's misread /
    /// retry-exhaustion rate; a tripped check runs a reference-read burst
    /// and β refit in a lane-idle gap, never delaying or reordering demand.
    /// The only mount of the daemon: a bank never checks itself.
    pub calib: Option<CalibConfig>,
}

impl FrontendConfig {
    /// FCFS at unbounded depth — the configuration under which the frontend
    /// reproduces serial replay bit-for-bit (backpressure can never fire).
    #[must_use]
    pub fn fcfs_unbounded() -> Self {
        Self {
            queue_depth: usize::MAX,
            policy: Policy::Fcfs,
            backpressure: Backpressure::Stall,
            scrub: None,
            march: None,
            calib: None,
        }
    }

    /// Enables the background scrub daemon.
    #[must_use]
    pub fn with_scrub(mut self, scrub: ScrubConfig) -> Self {
        self.scrub = Some(scrub);
        self
    }

    /// Enables the March manufacturing-test traffic source.
    #[must_use]
    pub fn with_march(mut self, march: MarchConfig) -> Self {
        self.march = Some(march);
        self
    }

    /// Enables the per-bank calibration daemon.
    #[must_use]
    pub fn with_calib(mut self, calib: CalibConfig) -> Self {
        self.calib = Some(calib);
        self
    }

    /// Overrides the dispatch policy.
    #[must_use]
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the per-bank queue depth.
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Sets the backpressure behaviour; [`Backpressure::Stall`] is both the
    /// default and the only one.
    #[must_use]
    pub fn with_backpressure(mut self, backpressure: Backpressure) -> Self {
        self.backpressure = backpressure;
        self
    }

    fn validate(&self) {
        assert!(
            self.queue_depth > 0,
            "queue depth must be at least 1 (got 0)"
        );
        for (daemon, name) in [(Daemon::Scrub, "scrub"), (Daemon::Calib, "calibration")] {
            if let Some(interval_ns) = self.period(daemon) {
                assert!(
                    interval_ns.is_finite() && interval_ns > 0.0,
                    "{name} interval must be positive, got {interval_ns}"
                );
            }
        }
        if let Some(calib) = self.calib {
            assert!(
                calib.trip_rate > 0.0 && calib.trip_rate <= 1.0,
                "calibration trip rate must be in (0, 1], got {}",
                calib.trip_rate
            );
            assert!(
                calib.burst_reads > 0,
                "a calibration burst needs at least one read"
            );
        }
    }

    /// Tick interval of a mounted periodic daemon. The March source has
    /// none: it is offered work whenever a lane idles.
    fn period(&self, daemon: Daemon) -> Option<f64> {
        match daemon {
            Daemon::Scrub => self.scrub.map(|scrub| scrub.interval_ns),
            Daemon::Calib => self.calib.map(|calib| calib.interval_ns),
            Daemon::March => None,
        }
    }
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self::fcfs_unbounded()
    }
}

/// One served transaction, as observed at the frontend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Index of the transaction in the offered trace.
    pub trace_index: usize,
    /// Bank that served it.
    pub bank: usize,
    /// The operation.
    pub op: Op,
    /// Original arrival timestamp (nanoseconds).
    pub arrival_ns: f64,
    /// When it entered the bank queue (≥ arrival under stalls).
    pub admit_ns: f64,
    /// When the bank started serving it.
    pub start_ns: f64,
    /// When service finished.
    pub complete_ns: f64,
}

impl Completion {
    /// Arrival-to-completion time — what a host actually waits.
    #[must_use]
    pub fn sojourn_ns(&self) -> f64 {
        self.complete_ns - self.arrival_ns
    }

    /// Admission-to-service waiting time.
    #[must_use]
    pub fn wait_ns(&self) -> f64 {
        self.start_ns - self.admit_ns
    }
}

/// Struct-of-arrays completion log: one column per [`Completion`] field.
///
/// The frontend appends one row per served transaction; columnar storage
/// keeps the hot-loop push down to seven independent `Vec` writes (all
/// preallocated to the trace length, so steady state never reallocates) and
/// lets post-run analysis scan a single column without striding over the
/// rest. Rows decode back into [`Completion`] on demand via
/// [`CompletionLog::get`] / [`CompletionLog::iter`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompletionLog {
    trace_index: Vec<u32>,
    bank: Vec<u32>,
    op: Vec<Op>,
    arrival_ns: Vec<f64>,
    admit_ns: Vec<f64>,
    start_ns: Vec<f64>,
    complete_ns: Vec<f64>,
}

impl CompletionLog {
    /// An empty log with room for `capacity` rows in every column.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            trace_index: Vec::with_capacity(capacity),
            bank: Vec::with_capacity(capacity),
            op: Vec::with_capacity(capacity),
            arrival_ns: Vec::with_capacity(capacity),
            admit_ns: Vec::with_capacity(capacity),
            start_ns: Vec::with_capacity(capacity),
            complete_ns: Vec::with_capacity(capacity),
        }
    }

    /// Number of completions recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.complete_ns.len()
    }

    /// `true` when nothing completed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.complete_ns.is_empty()
    }

    /// Appends one completion row.
    ///
    /// # Panics
    /// Panics when `trace_index` or `bank` exceeds `u32::MAX` (the columns
    /// store them as 32-bit words).
    pub fn push(&mut self, completion: Completion) {
        self.trace_index
            .push(u32::try_from(completion.trace_index).expect("trace index fits u32"));
        self.bank
            .push(u32::try_from(completion.bank).expect("bank index fits u32"));
        self.op.push(completion.op);
        self.arrival_ns.push(completion.arrival_ns);
        self.admit_ns.push(completion.admit_ns);
        self.start_ns.push(completion.start_ns);
        self.complete_ns.push(completion.complete_ns);
    }

    /// Decodes row `index` back into a [`Completion`].
    ///
    /// # Panics
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn get(&self, index: usize) -> Completion {
        Completion {
            trace_index: self.trace_index[index] as usize,
            bank: self.bank[index] as usize,
            op: self.op[index],
            arrival_ns: self.arrival_ns[index],
            admit_ns: self.admit_ns[index],
            start_ns: self.start_ns[index],
            complete_ns: self.complete_ns[index],
        }
    }

    /// Iterates the rows as [`Completion`] values, in completion order.
    pub fn iter(&self) -> impl Iterator<Item = Completion> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The completion-timestamp column (nanoseconds, completion order).
    #[must_use]
    pub fn complete_ns(&self) -> &[f64] {
        &self.complete_ns
    }
}

impl<'a> IntoIterator for &'a CompletionLog {
    type Item = Completion;
    type IntoIter = CompletionIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        CompletionIter { log: self, next: 0 }
    }
}

/// Iterator over a [`CompletionLog`]'s decoded rows.
#[derive(Debug)]
pub struct CompletionIter<'a> {
    log: &'a CompletionLog,
    next: usize,
}

impl Iterator for CompletionIter<'_> {
    type Item = Completion;

    fn next(&mut self) -> Option<Completion> {
        if self.next >= self.log.len() {
            return None;
        }
        let row = self.log.get(self.next);
        self.next += 1;
        Some(row)
    }
}

/// The outcome of one [`Frontend::run`]: telemetry (with the queueing
/// section filled in), the per-transaction completion log in completion
/// order, and the run's makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedRun {
    /// Controller telemetry with [`QueueTelemetry`] populated per bank.
    pub telemetry: Telemetry,
    /// Every served transaction, in completion order (deterministic),
    /// stored column-wise.
    pub completions: CompletionLog,
    /// Time of the last completion (nanoseconds); 0 for an empty trace.
    pub makespan_ns: f64,
    /// Heap allocations observed *inside* the event loop, via
    /// [`alloc_probe`] — on the FCFS fast path, the bank-major service
    /// pass included (and with it, above the parallel cutoff, a fixed
    /// amount per worker spawned). Always 0 unless the process installed a counting
    /// allocator (`tests/integration_alloc.rs::the_event_loop_does_not_allocate`
    /// does, and asserts 0 for both policies, with and without stalls).
    pub steady_state_allocs: u64,
}

impl SchedRun {
    /// Achieved throughput in transactions per second (0 for an empty run).
    #[must_use]
    pub fn ops_per_second(&self) -> f64 {
        if self.makespan_ns > 0.0 {
            self.completions.len() as f64 / (self.makespan_ns * 1e-9)
        } else {
            0.0
        }
    }
}

/// Event slots per bank in the general loop: the lane's completion
/// (demand or background) at offset 0, then one offer slot per daemon. A
/// daemon's offer gives the bank one operation — a periodic scrub or
/// calibration tick, or the March source's next test op — served only when
/// the lane is idle and the policy arbitrates the daemon's
/// [`PriorityClass`], deferred (and counted) otherwise. A calibration check
/// that does not trip is free and leaves the lane idle.
const BANK_SLOTS: usize = 4;

/// The daemons in declaration order, so `DAEMONS[daemon as usize]` is
/// `daemon`; the offer slot of `DAEMONS[i]` sits at offset `1 + i`.
const DAEMONS: [Daemon; 3] = [Daemon::Scrub, Daemon::March, Daemon::Calib];

/// `bank`'s completion slot in the general loop.
fn completion_slot(bank: usize) -> usize {
    bank * BANK_SLOTS
}

/// `bank`'s offer slot for `daemon` in the general loop.
fn offer_slot(bank: usize, daemon: Daemon) -> usize {
    bank * BANK_SLOTS + 1 + daemon as usize
}

/// Run state of the March traffic source: one lowered schedule shared by
/// every bank, plus per-bank progress cursors. The schedule is lowered once
/// per [`Frontend::run`] call, so every run replays the full test.
struct MarchSource {
    /// The lowered program (empty when no [`MarchConfig`] is set).
    steps: Vec<MarchStep>,
    /// Next step index per bank.
    cursor: Vec<usize>,
    /// Steps not yet executed across all banks; the periodic daemons stay
    /// alive — and the event loop keeps running — while this is non-zero.
    remaining: usize,
    /// Raw-array read mode (see [`MarchConfig::raw`]).
    raw: bool,
}

impl MarchSource {
    fn new(
        config: Option<MarchConfig>,
        capacity_bits: usize,
        cols: usize,
        bank_count: usize,
    ) -> Self {
        let steps = match config {
            Some(march) => {
                let cells = u32::try_from(capacity_bits)
                    .expect("bank capacity must fit March cell indices");
                let cols = u32::try_from(cols).expect("bank width must fit March cell indices");
                march
                    .algorithm
                    .program()
                    .lower_with_background(cells, cols, march.background)
            }
            None => Vec::new(),
        };
        Self {
            remaining: steps.len() * bank_count,
            cursor: vec![0; bank_count],
            steps,
            raw: config.is_some_and(|march| march.raw),
        }
    }

    /// `true` while the bank has March steps left to run.
    fn waiting(&self, bank: usize) -> bool {
        self.cursor[bank] < self.steps.len()
    }
}

/// Schedules `bank`'s next March offer at `now` if steps remain, none is
/// already pending, and the lane is idle — called wherever the lane may
/// have just gone idle (the shared completion tail). A ready test op that
/// finds the lane re-occupied (demand won arbitration at this completion)
/// counts as one deferral.
fn kick_march(
    march: &MarchSource,
    lane: &mut Lane,
    events: &mut EventSlots,
    bank: usize,
    now: f64,
) {
    let slot = offer_slot(bank, Daemon::March);
    if !march.waiting(bank) || events.is_pending(slot) {
        return;
    }
    if lane.busy() {
        lane.stats.march_deferred += 1;
        return;
    }
    events.schedule(slot, now);
}

/// An admission blocked on a full queue.
#[derive(Debug, Clone, Copy)]
struct StalledAdmission {
    trace_index: usize,
    /// When the blocked offer was made (stall time accrues from here).
    offered_ns: f64,
}

/// The event-driven scheduler frontend over a [`Controller`].
///
/// State persists across [`Frontend::run`] calls exactly like
/// [`Controller::run`]: cell arrays, RNG streams and telemetry accumulate,
/// so a trace can be offered in chunks.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use stt_ctrl::sched::{Frontend, FrontendConfig, Policy};
/// use stt_ctrl::{Controller, ControllerConfig, Workload};
/// use stt_sense::SchemeKind;
///
/// let config = ControllerConfig::small(SchemeKind::Nondestructive, 2);
/// let trace = Workload::ReadMostly
///     .generate(config.footprint(), 200, &mut StdRng::seed_from_u64(7))
///     .with_poisson_arrivals(20.0, &mut StdRng::seed_from_u64(8));
/// let mut frontend = Frontend::new(
///     Controller::new(config),
///     FrontendConfig::fcfs_unbounded().with_policy(Policy::ReadPriority {
///         write_high_water: 8,
///     }),
/// );
/// let run = frontend.run(&trace);
/// assert_eq!(run.completions.len(), 200);
/// let queue = run.telemetry.aggregate().queue;
/// assert_eq!(queue.completed, 200);
/// assert!(queue.sojourn_p99() >= queue.sojourn_p50());
/// ```
pub struct Frontend {
    controller: Controller,
    config: FrontendConfig,
    /// Queueing telemetry accumulated across runs, one entry per bank.
    accumulated: Vec<QueueTelemetry>,
}

impl Frontend {
    /// Wraps `controller` with the scheduling frontend `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero queue depth,
    /// non-positive scrub or calibration interval, a calibration burst of
    /// zero reads), if scrub is enabled on a controller without ECC (scrub
    /// re-reads words through the codec; without check bits there is
    /// nothing to correct).
    #[must_use]
    pub fn new(controller: Controller, config: FrontendConfig) -> Self {
        config.validate();
        assert!(
            config.scrub.is_none() || controller.config().ecc.is_enabled(),
            "the scrub daemon requires ECC (see ControllerConfig::with_ecc)"
        );
        let banks = controller.config().banks;
        Self {
            controller,
            config,
            accumulated: vec![QueueTelemetry::default(); banks],
        }
    }

    /// The frontend configuration.
    #[must_use]
    pub fn config(&self) -> &FrontendConfig {
        &self.config
    }

    /// The wrapped controller (for state inspection: stored bits, audit).
    #[must_use]
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// A telemetry snapshot with the queueing section filled in from the
    /// runs so far.
    #[must_use]
    pub fn telemetry(&self) -> Telemetry {
        let mut telemetry = self.controller.telemetry();
        for (bank, queue) in telemetry.banks.iter_mut().zip(&self.accumulated) {
            bank.queue = queue.clone();
        }
        telemetry
    }

    /// Offers every transaction of `trace` at its arrival time and runs the
    /// event loop to completion (all queues drained, all banks idle).
    ///
    /// Generic over [`TxnSource`], so an owned [`Trace`](crate::Trace) and a
    /// zero-copy [`TraceView`](crate::TraceView) replay through identical
    /// code and produce bit-identical results.
    ///
    /// The simulated clock restarts at zero for each call; accumulated
    /// telemetry (including queueing horizons) sums across calls.
    ///
    /// All working storage (event slots, lane queues, completion columns;
    /// on the FCFS fast path the bank-major offer lists and service times)
    /// is preallocated from the trace length before the event loop
    /// starts, so the fault-free steady state performs no heap
    /// allocation — [`SchedRun::steady_state_allocs`] reports what a
    /// counting allocator observed inside the loop (and the fast path's
    /// service pass), when one is installed. The one exception: a fast-path
    /// trace of 16,384 transactions or more serves its banks on parallel
    /// workers, and spawning them allocates a fixed amount per worker.
    ///
    /// # Panics
    ///
    /// Panics if a transaction addresses a bank the controller does not
    /// have.
    pub fn run<S: TxnSource + ?Sized>(&mut self, trace: &S) -> SchedRun {
        let config = self.config;
        let FrontendConfig {
            queue_depth,
            policy,
            backpressure: _,
            scrub,
            march,
            calib,
        } = config;
        let bank_count = self.controller.config().banks;
        let capacity_bits = self.controller.config().spec.capacity_bits();
        let cols = self.controller.config().spec.cols;
        let n = trace.len();

        // One validation pass tripling as a monotonicity probe (so the
        // offer-order sort below is skipped for the common case of a
        // generator- or converter-produced trace with non-decreasing
        // arrivals) and a per-bank census (so each lane preallocates
        // exactly the entries that could ever wait in it, instead of the
        // whole trace length per bank).
        let (bank_load, monotone) = census(trace, bank_count);

        // Offer order: by arrival time, trace order breaking ties — so a
        // monotonically-timed (or untimed) trace is offered in trace order.
        let mut order: Vec<u32> = (0..n as u32).collect();
        if !monotone {
            order.sort_by_key(|&i| (trace.get(i as usize).arrival_ns, i));
        }

        let banks = self.controller.banks_mut();
        // FCFS at unbounded depth with no background daemon is the hot
        // configuration (it is also the serial-replay anchor): backpressure
        // can never fire, banks never interact and each bank serves exactly
        // its own transactions in offer order. The fast path therefore runs
        // every `Bank::execute` up front, one bank at a time, and then
        // replays only the timing: a sorted-arrival cursor in the source
        // slot merged against one pending-completion slot per bank, in the
        // general loop's exact `(time, seq)` pop order — see DESIGN.md §12.
        let fast_path = matches!(policy, Policy::Fcfs)
            && queue_depth == usize::MAX
            && scrub.is_none()
            && march.is_none()
            && calib.is_none();
        // Lane queues sized to the deepest each can get this run (a lane
        // can only ever hold its own bank's transactions). The fast path
        // queues by cursor into its per-bank lists, so its lane queues stay
        // unallocated.
        let mut lanes: Vec<Lane> = bank_load
            .iter()
            .map(|&load| {
                let hint = if fast_path { 0 } else { queue_depth.min(load) };
                Lane::with_capacity_hint(queue_depth, hint)
            })
            .collect();
        let mut completions = CompletionLog::with_capacity(n);
        let mut end_ns = 0.0f64;

        if fast_path {
            // Each bank's transactions in offer order, and their service
            // times (nanoseconds), both bank-major.
            let lists = BankLists::partition(trace, &bank_load, order.iter().copied());
            let mut service = vec![0.0f64; n];
            let mut fast: Vec<FastLane> = lists.bounds[..bank_count]
                .iter()
                .map(|&first| FastLane {
                    admitted: first,
                    started: first,
                    start_ns: 0.0,
                })
                .collect();
            let mut events = EventSlots::new(bank_count);
            let dispatch = if n >= PARALLEL_SERVICE_MIN_TXNS {
                Dispatch::Parallel
            } else {
                Dispatch::Serial
            };
            let allocs_before = alloc_probe::count();
            // Bank-major service pass: one bank's cells stay hot at a time,
            // and banks share nothing, so long traces serve them on parallel
            // workers. The service time is whatever the bank charged
            // (attempt-dependent), read off its busy clock as after − before.
            serve_banks(
                banks,
                &lists,
                &mut service,
                dispatch.workers(bank_count),
                |bank, indices, service| {
                    for (&i, service_ns) in indices.iter().zip(service) {
                        let busy_before = bank.telemetry().busy_time;
                        bank.execute(&trace.get(i as usize));
                        *service_ns = (bank.telemetry().busy_time - busy_before).get() * 1e9;
                    }
                },
            );
            end_ns = fcfs_unbounded_loop(
                trace,
                &order,
                &lists.indices,
                &service,
                &mut lanes,
                &mut fast,
                &mut events,
                &mut completions,
            );
            let steady_state_allocs = alloc_probe::count() - allocs_before;
            return self.finish_run(lanes, completions, end_ns, steady_state_allocs);
        }

        // Pending at any instant: one fresh arrival in the source slot; per
        // bank one completion (demand or background), one March offer and
        // one tick per periodic daemon in its `BANK_SLOTS` slots.
        let mut events = EventSlots::new(BANK_SLOTS * bank_count);
        let mut cursor = 0usize;
        let mut stalled: Option<StalledAdmission> = None;
        // Demand transactions not yet completed. The periodic daemons'
        // ticks reschedule themselves only while this (or the March
        // backlog) is non-zero, so the event loop terminates as soon as
        // demand and test traffic drain.
        let mut unfinished = n;
        let mut march = MarchSource::new(march, capacity_bits, cols, bank_count);

        schedule_fresh(&mut events, &order, trace, &mut cursor, 0.0);
        for (bank, lane) in lanes.iter_mut().enumerate() {
            kick_march(&march, lane, &mut events, bank, 0.0);
        }
        for daemon in [Daemon::Scrub, Daemon::Calib] {
            if let Some(interval_ns) = config.period(daemon) {
                if unfinished > 0 || march.remaining > 0 {
                    for bank in 0..bank_count {
                        events.schedule(offer_slot(bank, daemon), interval_ns);
                    }
                }
            }
        }

        let allocs_before = alloc_probe::count();
        while let Some((now, due)) = events.pop() {
            match due {
                // The source slot offers the next trace transaction to its
                // bank.
                Due::Source => {
                    let trace_index = order[cursor - 1] as usize;
                    end_ns = end_ns.max(now);
                    let txn = trace.get(trace_index);
                    let lane = &mut lanes[txn.bank];
                    if lane.queue.is_full() {
                        // A stalled admission blocks the host: no further
                        // fresh arrivals until it lands.
                        lane.stats.stalls += 1;
                        stalled = Some(StalledAdmission {
                            trace_index,
                            offered_ns: now,
                        });
                    } else {
                        let queued = queued(txn, trace_index, now);
                        if let Some(done) = lane.admit(&mut banks[txn.bank], queued, now) {
                            events.schedule(completion_slot(txn.bank), done);
                        }
                        schedule_fresh(&mut events, &order, trace, &mut cursor, now);
                    }
                }
                // A bank finished the demand or background work occupying
                // its lane.
                Due::Slot(slot) if slot % BANK_SLOTS == 0 => {
                    let bank = slot / BANK_SLOTS;
                    end_ns = end_ns.max(now);
                    let lane = &mut lanes[bank];
                    if lane.background.take().is_none() {
                        let served = lane.retire(now);
                        unfinished -= 1;
                        completions.push(Completion {
                            trace_index: served.queued.trace_index,
                            bank,
                            op: served.queued.txn.op,
                            arrival_ns: served.queued.arrival_ns,
                            admit_ns: served.queued.admit_ns,
                            start_ns: served.start_ns,
                            complete_ns: now,
                        });
                    }
                    // Every completion shares this tail: the lane just went
                    // idle, so serve the next demand, land a stalled
                    // admission and re-kick the March source.
                    let bank_state = &mut banks[bank];
                    if let Some(done) = lane.try_dispatch(bank_state, policy, now) {
                        events.schedule(slot, done);
                    }
                    // Dispatch freed a slot (or the queue was empty): a
                    // stalled admission targeting this bank can land now.
                    if let Some(blocked) = stalled {
                        let txn = trace.get(blocked.trace_index);
                        if txn.bank == bank && !lane.queue.is_full() {
                            stalled = None;
                            lane.stats.stall_time_ns += now - blocked.offered_ns;
                            let queued = queued(txn, blocked.trace_index, now);
                            if let Some(done) = lane.admit(bank_state, queued, now) {
                                events.schedule(slot, done);
                            }
                            // The host unblocks: resume the arrival stream,
                            // no earlier than now.
                            schedule_fresh(&mut events, &order, trace, &mut cursor, now);
                        }
                    }
                    kick_march(&march, lane, &mut events, bank, now);
                }
                // A daemon offers the bank one operation.
                Due::Slot(slot) => {
                    let bank = slot / BANK_SLOTS;
                    let daemon = DAEMONS[slot % BANK_SLOTS - 1];
                    if daemon == Daemon::March {
                        if !march.waiting(bank) {
                            continue;
                        }
                    } else if unfinished == 0 && march.remaining == 0 {
                        // The periodic daemons die with the demand and test
                        // streams: no reschedule once everything completed,
                        // so the loop drains. (An idle tick
                        // also leaves the makespan alone.)
                        continue;
                    }
                    let lane = &mut lanes[bank];
                    if lane.busy()
                        || policy.arbitrate(!lane.queue.is_empty(), march.waiting(bank))
                            != daemon.class()
                    {
                        // The lane is occupied or a higher class waits:
                        // skip this offer. A periodic daemon retries at its
                        // next tick; whatever occupies the lane re-kicks
                        // the March source when it completes (a non-empty
                        // queue implies a busy lane, so a completion is
                        // always pending).
                        match daemon {
                            Daemon::Scrub => lane.stats.scrub_deferred += 1,
                            Daemon::March => lane.stats.march_deferred += 1,
                            Daemon::Calib => lane.stats.calib_deferred += 1,
                        }
                    } else if let Some(service_ns) =
                        serve_daemon(daemon, &mut banks[bank], &mut march, calib)
                    {
                        lane.background = Some(daemon);
                        events.schedule(completion_slot(bank), now + service_ns);
                    }
                    if let Some(interval_ns) = config.period(daemon) {
                        events.schedule(slot, now + interval_ns);
                    }
                }
            }
        }
        let steady_state_allocs = alloc_probe::count() - allocs_before;

        debug_assert_eq!(
            march.remaining, 0,
            "event loop drained with March steps pending"
        );

        debug_assert!(
            stalled.is_none(),
            "event loop drained with a stalled admission"
        );
        self.finish_run(lanes, completions, end_ns, steady_state_allocs)
    }

    /// Shared epilogue of both loop flavours: seals per-lane telemetry at
    /// the run horizon, folds it into the accumulated totals and assembles
    /// the [`SchedRun`].
    fn finish_run(
        &mut self,
        mut lanes: Vec<Lane>,
        completions: CompletionLog,
        end_ns: f64,
        steady_state_allocs: u64,
    ) -> SchedRun {
        for lane in &mut lanes {
            debug_assert!(lane.queue.is_empty() && !lane.busy());
            lane.flush_occupancy(end_ns);
            lane.stats.horizon_ns = end_ns;
        }
        for (accumulated, lane) in self.accumulated.iter_mut().zip(&lanes) {
            accumulated.merge(&lane.stats);
        }
        SchedRun {
            telemetry: self.telemetry(),
            completions,
            makespan_ns: end_ns,
            steady_state_allocs,
        }
    }
}

/// Schedules the next not-yet-offered trace transaction in the source
/// slot, no earlier than `floor_ns` (a stall pushes later arrivals back in
/// time). Its index is `order[cursor - 1]` while it is pending.
fn schedule_fresh<S: TxnSource + ?Sized>(
    events: &mut EventSlots,
    order: &[u32],
    trace: &S,
    cursor: &mut usize,
    floor_ns: f64,
) {
    if let Some(&next) = order.get(*cursor) {
        *cursor += 1;
        events.schedule_source((trace.get(next as usize).arrival_ns as f64).max(floor_ns));
    }
}

/// Shortest trace whose fast-path service pass runs on parallel workers.
/// Measured on a 2-core host: a scoped spawn plus join of 2 workers costs
/// 36 µs at best and about 88 µs on average, and paper-scale bank work
/// costs about 250 ns per transaction. Two workers halve the pass, so
/// they break even near 700 transactions; at 16,384 the pass's ~4 ms
/// dwarfs the spawn on slower hosts and cheaper banks too. Shorter traces
/// (the 2,000-op traces of
/// `tests/integration_alloc.rs::the_event_loop_does_not_allocate` among
/// them) stay serial and allocation-free.
const PARALLEL_SERVICE_MIN_TXNS: usize = 16_384;

/// Fast-path per-bank timing state: cursors into the bank-major offer
/// lists. `offered[started..admitted]` is the bank's waiting queue and,
/// while its completion slot is non-idle, `offered[started - 1]` is in
/// service since `start_ns`.
#[derive(Debug, Clone, Copy)]
struct FastLane {
    admitted: usize,
    started: usize,
    start_ns: f64,
}

/// The timing half of the FCFS fast path (DESIGN.md §12): every
/// `Bank::execute` already ran, bank-major, and left its service time in
/// `service`, parallel to `offered`; this loop only places those services
/// on the timeline.
///
/// Under FCFS at unbounded depth with no background daemon, backpressure
/// can never fire and the only event kinds are fresh arrivals — already
/// sorted in `order` — and bank completions, of which at most one per bank
/// is pending. `events` therefore holds just the source slot and one
/// completion slot per bank, scheduled at exactly the points where the
/// general loop schedules. Pop order, per-lane telemetry, completion-log
/// order and bank state are bit-identical to the general loop — the
/// integration suite asserts it by replaying the same traces down both
/// paths. Returns the run horizon.
///
/// The merge cannot shrink to a per-bank recurrence `done = max(arrival,
/// prev_done) + service`: when an arrival ties a completion in time, their
/// sequence numbers decide whether the arrival queues or starts directly,
/// which moves `max_depth`, the split points of the `depth_time_ns` float
/// sum, and the completion-log order across banks.
// The arguments are the loop's working set, preallocated by the caller so
// the loop itself stays allocation-free; a bundling struct would only
// rename the problem.
#[allow(clippy::too_many_arguments)]
fn fcfs_unbounded_loop<S: TxnSource + ?Sized>(
    trace: &S,
    order: &[u32],
    offered: &[u32],
    service: &[f64],
    lanes: &mut [Lane],
    fast: &mut [FastLane],
    events: &mut EventSlots,
    completions: &mut CompletionLog,
) -> f64 {
    let Some(&first) = order.first() else {
        return 0.0;
    };
    let mut end_ns = 0.0f64;
    // The pending fresh arrival in the source slot (mirrors
    // `schedule_fresh`). The transaction itself is cached so the handler
    // does not decode it a second time.
    let mut arr_index = first as usize;
    let mut arr_txn = trace.get(arr_index);
    events.schedule_source(arr_txn.arrival_ns as f64);
    let mut cursor = 1usize;
    while let Some((now, due)) = events.pop() {
        // Events pop in time order, so the horizon only ever advances.
        end_ns = now;
        match due {
            Due::Source => {
                // Fresh arrival. Offer order is sorted, so it pops at its
                // own stamp: admit_ns = arrival.
                debug_assert_eq!(now, arr_txn.arrival_ns as f64);
                let b = arr_txn.bank;
                let lane = &mut lanes[b];
                let fl = &mut fast[b];
                debug_assert_eq!(offered[fl.admitted] as usize, arr_index);
                lane.stats.admitted += 1;
                // Slot idle ⟺ the bank is not serving (fast-path invariant),
                // and the slot is already hot from the scan in `pop`.
                if !events.is_pending(b) && fl.started == fl.admitted {
                    // Idle bank, empty queue: straight into service.
                    lane.stats.wait_ns.push(0.0);
                    events.schedule(b, now + service[fl.admitted]);
                    fl.admitted += 1;
                    fl.started += 1;
                    fl.start_ns = now;
                } else {
                    // `Lane::admit` at the queue tail: same counter and
                    // depth-integral updates.
                    let waiting = (fl.admitted - fl.started) as f64;
                    lane.stats.depth_time_ns += waiting * (now - lane.last_change_ns);
                    lane.last_change_ns = now;
                    fl.admitted += 1;
                    let depth = (fl.admitted - fl.started) as u64;
                    lane.stats.max_depth = lane.stats.max_depth.max(depth);
                }
                // schedule_fresh: offer the next trace transaction (its stamp
                // is ≥ now, so the general loop's `max(now)` floor is a no-op).
                if let Some(&next) = order.get(cursor) {
                    cursor += 1;
                    arr_index = next as usize;
                    arr_txn = trace.get(arr_index);
                    events.schedule_source(arr_txn.arrival_ns as f64);
                }
            }
            Due::Slot(bank) => {
                // A bank completes.
                let lane = &mut lanes[bank];
                let fl = &mut fast[bank];
                let trace_index = offered[fl.started - 1] as usize;
                let txn = trace.get(trace_index);
                let arrival_ns = txn.arrival_ns as f64;
                lane.stats.completed += 1;
                lane.stats.sojourn.observe(now - arrival_ns);
                completions.push(Completion {
                    trace_index,
                    bank,
                    op: txn.op,
                    arrival_ns,
                    admit_ns: arrival_ns,
                    start_ns: fl.start_ns,
                    complete_ns: now,
                });
                // try_dispatch under FCFS: the head is the choice.
                let waiting = (fl.admitted - fl.started) as f64;
                lane.stats.depth_time_ns += waiting * (now - lane.last_change_ns);
                lane.last_change_ns = now;
                if fl.started < fl.admitted {
                    let head = offered[fl.started] as usize;
                    let admit_ns = trace.get(head).arrival_ns as f64;
                    lane.stats.wait_ns.push(now - admit_ns);
                    events.schedule(bank, now + service[fl.started]);
                    fl.started += 1;
                    fl.start_ns = now;
                }
            }
        }
    }
    end_ns
}

/// A trace transaction entering its lane at `now`.
fn queued(txn: Transaction, trace_index: usize, now: f64) -> Queued {
    Queued {
        txn,
        trace_index,
        arrival_ns: txn.arrival_ns as f64,
        admit_ns: now,
    }
}

/// Runs one operation of `daemon` on `bank` and returns
/// the time it occupies the lane — the daemon's own busy clock, after −
/// before — or `None` for a calibration check that did not trip (a check
/// is counter inspection, no array access, so it is free).
fn serve_daemon(
    daemon: Daemon,
    bank: &mut Bank,
    march: &mut MarchSource,
    calib: Option<CalibConfig>,
) -> Option<f64> {
    let busy_ns = |bank: &Bank| {
        let telemetry = bank.telemetry();
        match daemon {
            Daemon::Scrub => telemetry.ecc.scrub_busy_time,
            Daemon::March => telemetry.march.busy_time,
            Daemon::Calib => telemetry.calib.busy_time,
        }
    };
    let busy_before = busy_ns(bank);
    match daemon {
        Daemon::Scrub => {
            bank.scrub_next();
        }
        Daemon::March => {
            let step = march.steps[march.cursor[bank.index()]];
            march.cursor[bank.index()] += 1;
            march.remaining -= 1;
            bank.execute_march_op(step.cell, step.op, step.element, march.raw);
        }
        Daemon::Calib => {
            let config = calib.expect("calibration offer without calib config");
            if !bank.calibration_tick(&config) {
                return None;
            }
        }
    }
    Some((busy_ns(bank) - busy_before).get() * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ControllerConfig;
    use crate::reliability::EccMode;
    use crate::txn::Trace;
    use crate::workload::Workload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stt_sense::SchemeKind;

    fn timed_trace(config: &ControllerConfig, ops: usize, gap_ns: f64) -> Trace {
        Workload::Uniform { read_fraction: 0.7 }
            .generate(config.footprint(), ops, &mut StdRng::seed_from_u64(11))
            .with_poisson_arrivals(gap_ns, &mut StdRng::seed_from_u64(12))
    }

    fn frontend_run(config: FrontendConfig, gap_ns: f64) -> SchedRun {
        let controller_config = ControllerConfig::small(SchemeKind::Nondestructive, 3);
        let trace = timed_trace(&controller_config, 600, gap_ns);
        Frontend::new(Controller::new(controller_config), config).run(&trace)
    }

    #[test]
    fn every_offered_transaction_completes_without_bounds() {
        let run = frontend_run(FrontendConfig::fcfs_unbounded(), 10.0);
        assert_eq!(run.completions.len(), 600);
        let queue = run.telemetry.aggregate().queue;
        assert_eq!(queue.completed, 600);
        assert_eq!(queue.admitted, 600);
        assert_eq!(queue.stalls, 0);
        assert!(run.makespan_ns > 0.0);
        assert!(run.ops_per_second() > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let config = FrontendConfig::fcfs_unbounded().with_policy(Policy::ReadPriority {
            write_high_water: 4,
        });
        let a = frontend_run(config, 5.0);
        let b = frontend_run(config, 5.0);
        assert_eq!(a, b);
    }

    #[test]
    fn completions_are_causally_ordered() {
        let run = frontend_run(FrontendConfig::fcfs_unbounded(), 8.0);
        for completion in &run.completions {
            assert!(completion.admit_ns >= completion.arrival_ns);
            assert!(completion.start_ns >= completion.admit_ns);
            assert!(completion.complete_ns >= completion.start_ns);
            assert!(completion.sojourn_ns() >= completion.wait_ns());
        }
        // Completion log is in completion-time order.
        assert!(run
            .completions
            .complete_ns()
            .windows(2)
            .all(|w| w[0] <= w[1]));
        // Columns decode back to the same rows the iterator yields.
        assert_eq!(
            run.completions.get(0),
            run.completions.iter().next().unwrap()
        );
    }

    #[test]
    fn stall_backpressure_completes_everything_late() {
        let config = FrontendConfig::fcfs_unbounded()
            .with_queue_depth(4)
            .with_backpressure(Backpressure::Stall);
        let run = frontend_run(config, 1.0);
        let queue = run.telemetry.aggregate().queue;
        assert_eq!(queue.completed, 600, "stalling loses nothing");
        assert!(queue.stalls > 0);
        assert!(queue.stall_time_ns > 0.0);
        assert!(queue.max_depth <= 4);
    }

    #[test]
    fn occupancy_accounting_is_consistent() {
        let run = frontend_run(FrontendConfig::fcfs_unbounded(), 2.0);
        let queue = run.telemetry.aggregate().queue;
        assert!(queue.mean_depth() > 0.0, "overload must queue");
        assert!(queue.horizon_ns > 0.0);
        assert!(queue.max_depth as f64 >= queue.mean_depth() / 3.0);
    }

    #[test]
    fn empty_trace_is_a_no_op() {
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 2);
        let mut frontend = Frontend::new(Controller::new(config), FrontendConfig::default());
        let run = frontend.run(&Trace::new());
        assert_eq!(run.completions.len(), 0);
        assert_eq!(run.makespan_ns, 0.0);
        assert_eq!(run.ops_per_second(), 0.0);
    }

    #[test]
    fn state_persists_across_runs() {
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 2);
        let trace = timed_trace(&config, 100, 20.0);
        let mut frontend = Frontend::new(Controller::new(config), FrontendConfig::default());
        frontend.run(&trace);
        let second = frontend.run(&trace);
        assert_eq!(second.telemetry.transactions(), 200);
        assert_eq!(second.telemetry.aggregate().queue.completed, 200);
    }

    #[test]
    #[should_panic(expected = "targets bank")]
    fn out_of_range_bank_panics() {
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 2);
        let mut frontend = Frontend::new(Controller::new(config), FrontendConfig::default());
        let mut trace = Trace::new();
        trace.push(Transaction::read(9, stt_array::Address::new(0, 0)));
        frontend.run(&trace);
    }

    #[test]
    fn scrub_runs_in_idle_gaps() {
        let controller_config =
            ControllerConfig::small(SchemeKind::Nondestructive, 2).with_ecc(EccMode::Secded);
        let trace = timed_trace(&controller_config, 60, 2000.0);
        let config = FrontendConfig::fcfs_unbounded().with_scrub(ScrubConfig::every_ns(500.0));
        let run = Frontend::new(Controller::new(controller_config), config).run(&trace);
        assert_eq!(run.completions.len(), 60);
        let aggregate = run.telemetry.aggregate();
        assert!(
            aggregate.ecc.scrub_words_scanned > 0,
            "sparse traffic leaves idle gaps the daemon must use"
        );
        assert!(
            aggregate.ecc.scrub_passes > 0,
            "small banks get full passes"
        );
    }

    #[test]
    fn scrub_defers_to_demand_under_saturation() {
        let controller_config =
            ControllerConfig::small(SchemeKind::Nondestructive, 2).with_ecc(EccMode::Secded);
        // 1 ns gaps against ~14 ns reads: a demand transaction is always
        // waiting, so arbitration never picks the background class.
        let trace = timed_trace(&controller_config, 400, 1.0);
        let config = FrontendConfig::fcfs_unbounded().with_scrub(ScrubConfig::every_ns(20.0));
        let run = Frontend::new(Controller::new(controller_config), config).run(&trace);
        let aggregate = run.telemetry.aggregate();
        assert_eq!(aggregate.queue.completed, 400, "scrub must not lose demand");
        assert!(
            aggregate.queue.scrub_deferred > 0,
            "saturation must defer scrub ticks"
        );
    }

    #[test]
    fn scrub_with_no_faults_leaves_demand_traffic_bit_identical() {
        let controller_config =
            ControllerConfig::small(SchemeKind::Nondestructive, 2).with_ecc(EccMode::Secded);
        let trace = timed_trace(&controller_config, 200, 40.0);
        let mut plain = Frontend::new(
            Controller::new(controller_config.clone()),
            FrontendConfig::fcfs_unbounded(),
        );
        let mut scrubbed = Frontend::new(
            Controller::new(controller_config),
            FrontendConfig::fcfs_unbounded().with_scrub(ScrubConfig::every_ns(100.0)),
        );
        let a = plain.run(&trace);
        let b = scrubbed.run(&trace);
        assert_eq!(
            plain.controller().stored_state(),
            scrubbed.controller().stored_state(),
            "a healthy-array scrub must not disturb stored bits"
        );
        let (qa, qb) = (a.telemetry.aggregate(), b.telemetry.aggregate());
        assert_eq!(qa.misreads, qb.misreads);
        assert_eq!(qa.read_retries, qb.read_retries);
        assert!(qb.ecc.scrub_words_scanned > 0, "the daemon did run");
    }

    #[test]
    #[should_panic(expected = "scrub daemon requires ECC")]
    fn scrub_without_ecc_is_rejected() {
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 1);
        let _ = Frontend::new(
            Controller::new(config),
            FrontendConfig::fcfs_unbounded().with_scrub(ScrubConfig::every_ns(100.0)),
        );
    }

    #[test]
    fn background_completion_lands_a_stalled_admission() {
        // One bank, depth 1: the scrub tick at 100 ns occupies the lane, the
        // read at 101 ns fills the queue and the read at 102 ns stalls. The
        // scrub completion starts the first read and frees the slot, so the
        // blocked host must be admitted right then — not a service time
        // later at the first read's completion.
        let controller_config =
            ControllerConfig::small(SchemeKind::Nondestructive, 1).with_ecc(EccMode::Secded);
        let mut trace = Trace::new();
        trace.push(Transaction::read(0, stt_array::Address::new(0, 0)).at(101));
        trace.push(Transaction::read(0, stt_array::Address::new(1, 1)).at(102));
        let config = FrontendConfig::fcfs_unbounded()
            .with_queue_depth(1)
            .with_backpressure(Backpressure::Stall)
            .with_scrub(ScrubConfig::every_ns(100.0));
        let run = Frontend::new(Controller::new(controller_config), config).run(&trace);
        let (first, second) = (run.completions.get(0), run.completions.get(1));
        assert_eq!((first.trace_index, second.trace_index), (0, 1));
        assert!(
            first.start_ns > 101.0,
            "the first read waited for the scrub"
        );
        assert_eq!(
            second.admit_ns, first.start_ns,
            "the stalled read lands when the scrub completion frees the slot"
        );
        let queue = run.telemetry.aggregate().queue;
        assert_eq!(queue.stalls, 1);
        assert_eq!(queue.stall_time_ns, first.start_ns - 102.0);
    }

    #[test]
    fn march_source_drains_with_an_empty_trace() {
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 2).with_seed(5);
        let cells = config.spec.capacity_bits() as u64;
        let mut frontend = Frontend::new(
            Controller::new(config),
            FrontendConfig::fcfs_unbounded().with_march(MarchConfig::new(MarchAlgorithm::CMinus)),
        );
        let run = frontend.run(&Trace::new());
        let aggregate = run.telemetry.aggregate();
        assert_eq!(aggregate.march.ops, 2 * 10 * cells, "both banks, 10n each");
        assert_eq!(aggregate.march.mismatches, 0, "healthy cells must pass");
        assert!(run.makespan_ns > 0.0, "test time is the makespan");
        assert_eq!(run.completions.len(), 0, "no demand was offered");
    }

    #[test]
    fn a_healthy_bank_passes_march_at_textbook_cost() {
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 1).with_seed(3);
        let cells = config.spec.capacity_bits() as u64;
        let run = Frontend::new(
            Controller::new(config),
            FrontendConfig::fcfs_unbounded().with_march(MarchConfig::new(MarchAlgorithm::CMinus)),
        )
        .run(&Trace::new());
        let march = &run.telemetry.banks[0].march;
        assert_eq!(march.ops, 10 * cells, "March C- is a 10n test");
        assert_eq!(march.mismatches, 0, "healthy cells must pass");
        assert!(march.failing_cells.is_empty());
        assert!(march.busy_time.get() > 0.0);
    }

    #[test]
    fn march_defers_to_demand_and_still_finishes() {
        let controller_config = ControllerConfig::small(SchemeKind::Nondestructive, 2).with_seed(5);
        let cells = controller_config.spec.capacity_bits() as u64;
        // 1 ns gaps against ~14 ns reads: a demand transaction is always
        // waiting, so every test op runs strictly in a demand-idle gap.
        let trace = timed_trace(&controller_config, 200, 1.0);
        let mut frontend = Frontend::new(
            Controller::new(controller_config),
            FrontendConfig::fcfs_unbounded().with_march(MarchConfig::new(MarchAlgorithm::CMinus)),
        );
        let run = frontend.run(&trace);
        let aggregate = run.telemetry.aggregate();
        assert_eq!(aggregate.queue.completed, 200, "test must not lose demand");
        assert_eq!(
            aggregate.march.ops,
            2 * 10 * cells,
            "the full test still ran"
        );
        assert!(
            aggregate.queue.march_deferred > 0,
            "saturation must defer test ops"
        );
    }

    #[test]
    fn march_outranks_scrub_in_idle_gaps() {
        let controller_config = ControllerConfig::small(SchemeKind::Nondestructive, 2)
            .with_ecc(EccMode::Secded)
            .with_seed(5);
        let config = FrontendConfig::fcfs_unbounded()
            .with_scrub(ScrubConfig::every_ns(50.0))
            .with_march(MarchConfig::new(MarchAlgorithm::Ss));
        let run = Frontend::new(Controller::new(controller_config), config).run(&Trace::new());
        let aggregate = run.telemetry.aggregate();
        assert!(aggregate.march.ops > 0, "the test ran");
        assert!(
            aggregate.queue.scrub_deferred > 0,
            "back-to-back test ops leave scrub no gap"
        );
    }

    use crate::calib::CalibConfig as Calib;
    use crate::faults::{DriftPlan, ThermalTransient};

    /// A 2-bank controller with a standing +60 K hot-spot on bank 0 — the
    /// same operating point the bank-level calibration tests use: static β
    /// misreads every stored 1 on bank 0, a refit β restores correctness.
    fn hot_controller_config() -> ControllerConfig {
        ControllerConfig::small(SchemeKind::Nondestructive, 2)
            .with_seed(77)
            .with_drift(DriftPlan::quiet().with_transient(ThermalTransient {
                bank: 0,
                start_ns: 0.0,
                ramp_ns: 0.0,
                hold_ns: 1e12,
                fall_ns: 0.0,
                amplitude_k: 60.0,
            }))
    }

    #[test]
    fn calibration_daemon_trips_in_idle_gaps_and_recovers_misreads() {
        let controller_config = hot_controller_config();
        let trace = timed_trace(&controller_config, 400, 200.0);
        let static_run = Frontend::new(
            Controller::new(controller_config.clone()),
            FrontendConfig::fcfs_unbounded(),
        )
        .run(&trace);
        let calibrated_run = Frontend::new(
            Controller::new(controller_config),
            FrontendConfig::fcfs_unbounded().with_calib(Calib::date2010()),
        )
        .run(&trace);
        assert_eq!(calibrated_run.completions.len(), 400);
        let calibrated = calibrated_run.telemetry.aggregate();
        let statics = static_run.telemetry.aggregate();
        assert!(calibrated.calib.trips >= 1, "drifted bank 0 must trip");
        assert_eq!(calibrated.calib.bursts, calibrated.calib.trips);
        assert_eq!(calibrated.calib.refits, calibrated.calib.trips);
        assert!(calibrated.calib.busy_time.get() > 0.0);
        assert!(
            calibrated.calib.last_beta > 1.9 && calibrated.calib.last_beta < 2.3,
            "refit beta near the paper's operating point, got {}",
            calibrated.calib.last_beta
        );
        assert!(
            calibrated.misreads * 2 < statics.misreads,
            "the daemon must recover most of the misread rate \
             (static {}, calibrated {})",
            statics.misreads,
            calibrated.misreads
        );
    }

    #[test]
    fn calibration_defers_to_demand_under_saturation() {
        let controller_config = hot_controller_config();
        // 1 ns gaps against ~14 ns reads: a demand transaction is always
        // waiting, so arbitration never grants the calibration class a slot.
        let trace = timed_trace(&controller_config, 400, 1.0);
        let run = Frontend::new(
            Controller::new(controller_config),
            FrontendConfig::fcfs_unbounded().with_calib(Calib::date2010()),
        )
        .run(&trace);
        let aggregate = run.telemetry.aggregate();
        assert_eq!(
            aggregate.queue.completed, 400,
            "calibration must not lose demand"
        );
        assert!(
            aggregate.queue.calib_deferred > 0,
            "saturation must defer calibration checks"
        );
    }

    #[test]
    fn calibration_bursts_never_reorder_or_drop_demand() {
        let controller_config = hot_controller_config();
        let trace = timed_trace(&controller_config, 400, 200.0);
        let plain = Frontend::new(
            Controller::new(controller_config.clone()),
            FrontendConfig::fcfs_unbounded(),
        )
        .run(&trace);
        let calibrated = Frontend::new(
            Controller::new(controller_config),
            FrontendConfig::fcfs_unbounded().with_calib(Calib::date2010()),
        )
        .run(&trace);
        assert_eq!(calibrated.completions.len(), plain.completions.len());
        // Same transactions served, and within each bank in the same order:
        // a burst may delay a completion, never displace or drop one.
        for bank in 0..2 {
            let order = |run: &SchedRun| {
                run.completions
                    .iter()
                    .filter(|completion| completion.bank == bank)
                    .map(|completion| completion.trace_index)
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                order(&plain),
                order(&calibrated),
                "bank {bank}: per-bank demand order must survive bursts"
            );
        }
    }

    #[test]
    fn calibration_on_a_quiet_plan_leaves_demand_bit_identical() {
        // Process variation leaves a few cells inside the guard band even
        // without drift, so the daemon may trip — but a quiet-plan refit
        // lands back on the nominal design, and the burst draws from its
        // own RNG stream, so demand traffic must be unaffected either way.
        let controller_config = ControllerConfig::small(SchemeKind::Nondestructive, 2);
        let trace = timed_trace(&controller_config, 200, 100.0);
        let mut plain = Frontend::new(
            Controller::new(controller_config.clone()),
            FrontendConfig::fcfs_unbounded(),
        );
        let mut calibrated = Frontend::new(
            Controller::new(controller_config),
            FrontendConfig::fcfs_unbounded().with_calib(Calib::date2010()),
        );
        let a = plain.run(&trace);
        let b = calibrated.run(&trace);
        let (qa, qb) = (a.telemetry.aggregate(), b.telemetry.aggregate());
        assert_eq!(qb.queue.completed, 200);
        assert_eq!(qa.misreads, qb.misreads);
        assert_eq!(qa.read_retries, qb.read_retries);
        assert_eq!(
            plain.controller().stored_state(),
            calibrated.controller().stored_state(),
            "calibration bursts are read-only"
        );
        if qb.calib.refits > 0 {
            let drift = (qb.calib.last_beta - 2.1301).abs();
            assert!(
                drift < 1e-3,
                "a quiet-plan refit must land on the nominal beta, got {}",
                qb.calib.last_beta
            );
        }
    }
}
