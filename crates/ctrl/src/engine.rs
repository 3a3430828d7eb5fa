//! The controller engine: N banks, one trace, serial or parallel dispatch.
//!
//! Transactions are partitioned per bank in trace order; each bank then
//! serves its slice against its own array with its own RNG. Because banks
//! share nothing, the parallel dispatch (scoped workers, each serving a run
//! of consecutive banks) executes the exact same per-bank
//! instruction-and-RNG sequence as the serial one — [`Controller::run`]
//! returns **equal** [`Telemetry`] either way, which the test suite asserts
//! outright.

use serde::{Deserialize, Serialize};
use stt_array::ArraySpec;
use stt_sense::SchemeKind;

use crate::bank::Bank;
use crate::faults::{DriftPlan, FaultPlan};
use crate::reliability::EccMode;
use crate::retry::RetryPolicy;
use crate::telemetry::Telemetry;
use crate::txn::TxnSource;
use crate::workload::Footprint;

/// How [`Controller::run`] drives its banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dispatch {
    /// One bank after another, on the calling thread.
    Serial,
    /// `min(available_parallelism, banks)` scoped workers, each serving a
    /// run of consecutive banks; a worker's panic resurfaces on the caller
    /// with its own message.
    Parallel,
}

impl Dispatch {
    /// How many workers this dispatch serves `banks` banks on.
    pub(crate) fn workers(self, banks: usize) -> usize {
        match self {
            Self::Serial => 1,
            Self::Parallel => std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(banks),
        }
    }
}

/// Per-bank transaction counts of `trace`, and whether its arrivals never
/// decrease.
///
/// # Panics
///
/// Panics if a transaction addresses a bank beyond `banks`.
pub(crate) fn census<S: TxnSource + ?Sized>(trace: &S, banks: usize) -> (Vec<usize>, bool) {
    let mut load = vec![0usize; banks];
    let mut monotone = true;
    let mut prev_arrival = 0u64;
    for i in 0..trace.len() {
        let txn = trace.get(i);
        assert!(
            txn.bank < banks,
            "transaction targets bank {} of a {banks}-bank controller",
            txn.bank
        );
        load[txn.bank] += 1;
        monotone &= txn.arrival_ns >= prev_arrival;
        prev_arrival = txn.arrival_ns;
    }
    (load, monotone)
}

/// Trace indices grouped by bank: bank `b` serves
/// `indices[bounds[b]..bounds[b + 1]]`, in the order they were offered.
pub(crate) struct BankLists {
    pub(crate) indices: Vec<u32>,
    pub(crate) bounds: Vec<usize>,
}

impl BankLists {
    /// Buckets `order` by bank, where `load[b]` counts bank `b`'s entries.
    pub(crate) fn partition<S: TxnSource + ?Sized>(
        trace: &S,
        load: &[usize],
        order: impl IntoIterator<Item = u32>,
    ) -> Self {
        let mut bounds = vec![0; load.len() + 1];
        for (b, &n) in load.iter().enumerate() {
            bounds[b + 1] = bounds[b] + n;
        }
        let mut next = bounds.clone();
        let mut indices = vec![0; bounds[load.len()]];
        for i in order {
            let slot = &mut next[trace.get(i as usize).bank];
            indices[*slot] = i;
            *slot += 1;
        }
        Self { indices, bounds }
    }
}

/// Runs `serve(bank, indices, service)` for every bank with its list from
/// `lists` and its own slice of `service` (empty, or bank-major like
/// `lists.indices`), on at most `workers` scoped workers that each take a
/// run of consecutive banks. One worker serves in place, without spawning
/// or allocating. Kept out of line so the spawn code stays out of its
/// callers' hot bodies. Callers: the frontend's FCFS fast path and
/// [`Controller::run`].
///
/// # Panics
///
/// Joins every worker, then re-raises the first panicking one's payload.
#[inline(never)]
pub(crate) fn serve_banks<F>(
    banks: &mut [Bank],
    lists: &BankLists,
    mut service: &mut [f64],
    workers: usize,
    serve: F,
) where
    F: Fn(&mut Bank, &[u32], &mut [f64]) + Sync,
{
    let record = !service.is_empty();
    let jobs = banks.iter_mut().enumerate().map(|(b, bank)| {
        let span = lists.bounds[b]..lists.bounds[b + 1];
        let take = if record { span.len() } else { 0 };
        let (mine, rest) = std::mem::take(&mut service).split_at_mut(take);
        service = rest;
        (bank, &lists.indices[span], mine)
    });
    if workers <= 1 || jobs.len() <= 1 {
        return jobs.for_each(|(bank, indices, service)| serve(bank, indices, service));
    }
    let mut jobs: Vec<_> = jobs.collect();
    on_workers(&mut jobs, workers, |(bank, indices, service)| {
        serve(bank, indices, service);
    });
}

/// Runs `serve` on every job, on at most `workers` scoped workers that
/// each take a run of consecutive jobs; one worker serves in place,
/// without spawning. The one spawn site of the crate's bank and channel
/// dispatch.
///
/// # Panics
///
/// Joins every worker, then re-raises the first panicking one's payload,
/// so a worker's own message reaches the caller.
pub(crate) fn on_workers<T, F>(jobs: &mut [T], workers: usize, serve: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let run = jobs.len().div_ceil(workers.max(1));
    if run >= jobs.len() {
        return jobs.iter_mut().for_each(serve);
    }
    let panicked = std::thread::scope(|scope| {
        let serve = &serve;
        let workers: Vec<_> = jobs
            .chunks_mut(run)
            .map(|run| scope.spawn(move || run.iter_mut().for_each(serve)))
            .collect();
        workers
            .into_iter()
            .fold(None, |first, worker| first.or(worker.join().err()))
    });
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
}

/// Everything needed to build a controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Number of banks.
    pub banks: usize,
    /// Per-bank array recipe.
    pub spec: ArraySpec,
    /// Sensing scheme serving every read.
    pub kind: SchemeKind,
    /// Read-retry policy.
    pub retry: RetryPolicy,
    /// Faults to inject while serving; each bank is built with its own
    /// slice of the plan.
    pub faults: FaultPlan,
    /// Master seed; bank `k` derives its stream from `(seed, k)`.
    pub seed: u64,
    /// Error-correction layer over bank reads (defaults to none, the seed
    /// behaviour: every misread is silent).
    #[serde(default)]
    pub ecc: EccMode,
    /// Dynamic thermal/aging drift applied on each bank's busy clock
    /// (defaults to quiet: no drift, bit-identical to pre-drift builds).
    #[serde(default)]
    pub drift: DriftPlan,
}

impl ControllerConfig {
    /// Paper-scale banks (16 kb each) under `kind`, no faults.
    #[must_use]
    pub fn date2010(kind: SchemeKind, banks: usize) -> Self {
        Self {
            banks,
            spec: ArraySpec::date2010_chip(),
            kind,
            retry: RetryPolicy::date2010(),
            faults: FaultPlan::none(),
            seed: 2010,
            ecc: EccMode::None,
            drift: DriftPlan::quiet(),
        }
    }

    /// Small 8×8 banks for fast tests.
    #[must_use]
    pub fn small(kind: SchemeKind, banks: usize) -> Self {
        Self {
            spec: ArraySpec::small_test_array(),
            ..Self::date2010(kind, banks)
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

    /// Overrides the drift plan.
    #[must_use]
    pub fn with_drift(mut self, drift: DriftPlan) -> Self {
        self.drift = drift;
        self
    }

    /// The address space this configuration exposes, for workload
    /// generation.
    #[must_use]
    pub fn footprint(&self) -> Footprint {
        Footprint {
            banks: self.banks,
            rows: self.spec.rows,
            cols: self.spec.cols,
        }
    }
}

/// A built multi-bank controller. State (cell arrays, RNG streams,
/// telemetry) persists across [`Controller::run`] calls, so a trace can be
/// replayed in chunks.
pub struct Controller {
    config: ControllerConfig,
    banks: Vec<Bank>,
}

impl Controller {
    /// Samples all banks (in parallel — bank construction preloads every
    /// cell) and returns a ready controller.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero banks.
    #[must_use]
    pub fn new(config: ControllerConfig) -> Self {
        assert!(config.banks > 0, "a controller needs at least one bank");
        let banks = stt_stats::fill_indexed(config.banks, |index| Bank::new(index, &config));
        Self { config, banks }
    }

    /// The configuration this controller was built from.
    #[must_use]
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Direct mutable access to the banks, for the scheduler frontend: it
    /// drives the exact same service stage as serial replay, just in a
    /// different order.
    pub(crate) fn banks_mut(&mut self) -> &mut [Bank] {
        &mut self.banks
    }

    /// The stored bits of every bank right now (bank order, row-major) —
    /// the state the scheduler frontend's bit-identity tests compare.
    #[must_use]
    pub fn stored_state(&self) -> Vec<Vec<bool>> {
        self.banks.iter().map(Bank::stored_bits).collect()
    }

    /// Serves every transaction of `trace` and returns the run's telemetry
    /// (including the post-run integrity audit).
    ///
    /// Generic over [`TxnSource`]: an owned [`Trace`](crate::Trace) and a
    /// zero-copy
    /// [`TraceView`](crate::TraceView) partition into the same per-bank
    /// slices and replay bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if a transaction addresses a bank the controller does not
    /// have, or re-raises a bank's own panic (such as an out-of-range
    /// address) with its message under either dispatch.
    pub fn run<S: TxnSource + ?Sized>(&mut self, trace: &S, dispatch: Dispatch) -> Telemetry {
        let banks = &mut self.banks;
        let (load, _) = census(trace, banks.len());
        let lists = BankLists::partition(trace, &load, 0..trace.len() as u32);
        let workers = dispatch.workers(banks.len());
        serve_banks(banks, &lists, &mut [], workers, |bank, indices, _| {
            for &i in indices {
                bank.execute(&trace.get(i as usize));
            }
        });
        self.telemetry()
    }

    /// A fresh telemetry snapshot (per-bank counters plus audit) without
    /// serving anything.
    #[must_use]
    pub fn telemetry(&self) -> Telemetry {
        Telemetry {
            banks: self.banks.iter().map(|b| b.telemetry().clone()).collect(),
            audit_corrupted_bits: self.banks.iter().map(Bank::audit_corrupted_bits).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{Trace, Transaction};
    use crate::workload::Workload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_trace(config: &ControllerConfig, count: usize) -> Trace {
        Workload::Uniform { read_fraction: 0.7 }.generate(
            config.footprint(),
            count,
            &mut StdRng::seed_from_u64(5),
        )
    }

    #[test]
    fn every_transaction_is_served() {
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 3);
        let trace = small_trace(&config, 600);
        let telemetry = Controller::new(config).run(&trace, Dispatch::Serial);
        assert_eq!(telemetry.transactions(), 600);
        assert_eq!(telemetry.banks.len(), 3);
        assert_eq!(telemetry.aggregate().reads, trace.reads() as u64);
    }

    #[test]
    fn state_persists_across_runs() {
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 2);
        let trace = small_trace(&config, 100);
        let mut controller = Controller::new(config);
        controller.run(&trace, Dispatch::Serial);
        let telemetry = controller.run(&trace, Dispatch::Serial);
        assert_eq!(telemetry.transactions(), 200);
    }

    #[test]
    fn any_worker_grouping_serves_the_same_banks() {
        // Five banks over 1, 2, 3 and 6 workers: one in-place run, uneven
        // runs of 3 + 2 and 2 + 2 + 1, and more workers than banks —
        // exercised whatever the host's core count.
        let config = ControllerConfig::small(SchemeKind::Destructive, 5)
            .with_faults(FaultPlan::none().with_power_cut_every(7));
        let trace = small_trace(&config, 700);
        let (load, _) = census(&trace, 5);
        let lists = BankLists::partition(&trace, &load, 0..trace.len() as u32);
        for (b, span) in lists.bounds.windows(2).enumerate() {
            let indices = &lists.indices[span[0]..span[1]];
            assert!(indices.iter().all(|&i| trace.get(i as usize).bank == b));
        }
        let serve_on = |workers| {
            let mut controller = Controller::new(config.clone());
            let mut service = vec![0.0; trace.len()];
            serve_banks(
                &mut controller.banks,
                &lists,
                &mut service,
                workers,
                |bank, indices, service| {
                    for (&i, busy) in indices.iter().zip(service) {
                        bank.execute(&trace.get(i as usize));
                        *busy = bank.telemetry().busy_time.get();
                    }
                },
            );
            (controller.stored_state(), controller.telemetry(), service)
        };
        let reference = serve_on(1);
        assert!(reference.2.iter().all(|&busy| busy > 0.0));
        for workers in [2, 3, 6] {
            assert_eq!(serve_on(workers), reference, "{workers} workers");
        }
    }

    #[test]
    #[should_panic(expected = "targets bank")]
    fn out_of_range_bank_panics() {
        let config = ControllerConfig::small(SchemeKind::Conventional, 2);
        let mut controller = Controller::new(config);
        let mut trace = Trace::new();
        trace.push(Transaction::read(5, stt_array::Address::new(0, 0)));
        controller.run(&trace, Dispatch::Serial);
    }
}
