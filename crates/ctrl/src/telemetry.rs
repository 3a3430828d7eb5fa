//! Per-bank and aggregate traffic telemetry.
//!
//! Counters are exact integers and the latency/energy accumulators are
//! filled in a fixed per-bank order, so two runs of the same configuration
//! — serial or parallel, any thread count — produce **equal** telemetry.
//! The engine's determinism test leans on the `PartialEq` here.

use stt_stats::{quantile, Histogram, P2Quantile, Summary};
use stt_units::{Joules, Seconds};

/// How many leading samples streaming mode folds into the P² estimators
/// at full rate before decimation starts.
pub const STREAMING_WARMUP: u64 = 64;

/// Post-warm-up decimation stride of streaming mode: every `STRIDE`-th
/// sample is folded, the rest only counted.
pub const STREAMING_STRIDE: u64 = 8;

/// Sojourn-time statistics for one bank queue — columnar accumulators, not
/// per-transaction rows.
///
/// The default [`SojournStats::Streaming`] mode estimates p50/p95/p99 with
/// three fixed-memory P² estimators, so telemetry stays O(1) per bank no
/// matter how many transactions flow through — the raw-speed contract of
/// DESIGN.md §12. Folding a sample into all three estimators costs ~50 ns
/// on the reference host — alone more than the frontend's whole per-txn
/// overhead budget — so streaming mode feeds them on a deterministic
/// schedule instead of per sample: the first [`STREAMING_WARMUP`] samples
/// of a stream are folded at full rate, after which every
/// [`STREAMING_STRIDE`]-th sample is folded and the rest are only counted.
/// Systematic (fixed-stride) subsampling of a stationary stream is an
/// unbiased quantile estimate; the added error shrinks with stream length
/// and is documented in DESIGN.md §12. [`SojournStats::Exact`] retains
/// every sample for true order-statistic quantiles; tests and sweeps that
/// assert on exact sample quantiles opt in via
/// [`FrontendConfig::with_exact_sojourn`](crate::sched::FrontendConfig).
///
/// Both modes are pure functions of the observation sequence, so
/// deterministic replays still compare equal with `==`.
// The large variant is the default one, live in every lane of every run;
// boxing it would buy nothing but a pointer chase on the per-completion
// observe path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum SojournStats {
    /// Fixed-memory streaming estimators (the default).
    Streaming {
        /// Number of sojourn samples observed.
        count: u64,
        /// Streaming median estimator.
        p50: P2Quantile,
        /// Streaming 95th-percentile estimator.
        p95: P2Quantile,
        /// Streaming 99th-percentile estimator.
        p99: P2Quantile,
    },
    /// Raw per-completion samples (opt-in; exact quantiles, unbounded
    /// memory).
    Exact {
        /// Sojourn samples in completion order (nanoseconds).
        samples: Vec<f64>,
    },
}

impl SojournStats {
    /// An empty streaming accumulator.
    #[must_use]
    pub fn streaming() -> Self {
        SojournStats::Streaming {
            count: 0,
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
        }
    }

    /// An empty exact-sample accumulator.
    #[must_use]
    pub fn exact() -> Self {
        SojournStats::Exact {
            samples: Vec::new(),
        }
    }

    /// Folds one sojourn sample (nanoseconds) in.
    ///
    /// Streaming mode counts every sample but folds only the deterministic
    /// warm-up/stride subsequence into the P² estimators (see the type
    /// docs); exact mode stores everything.
    pub fn observe(&mut self, sojourn_ns: f64) {
        match self {
            SojournStats::Streaming {
                count,
                p50,
                p95,
                p99,
            } => {
                *count += 1;
                let n = *count;
                if n <= STREAMING_WARMUP
                    || (n - STREAMING_WARMUP - 1).is_multiple_of(STREAMING_STRIDE)
                {
                    p50.observe(sojourn_ns);
                    p95.observe(sojourn_ns);
                    p99.observe(sojourn_ns);
                }
            }
            SojournStats::Exact { samples } => samples.push(sojourn_ns),
        }
    }

    /// Number of samples observed.
    #[must_use]
    pub fn count(&self) -> u64 {
        match self {
            SojournStats::Streaming { count, .. } => *count,
            SojournStats::Exact { samples } => samples.len() as u64,
        }
    }

    /// The `q`-quantile, or `None` before any sample. Exact mode serves any
    /// `q` as an order statistic; streaming mode serves the *nearest tracked*
    /// quantile (0.50, 0.95, 0.99) — the only ones the frontend reports.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        match self {
            SojournStats::Exact { samples } => {
                if samples.is_empty() {
                    None
                } else {
                    Some(quantile(samples, q))
                }
            }
            SojournStats::Streaming { p50, p95, p99, .. } => {
                let nearest = [p50, p95, p99]
                    .into_iter()
                    .min_by(|a, b| (a.q() - q).abs().total_cmp(&(b.q() - q).abs()))
                    .expect("three candidates");
                nearest.estimate()
            }
        }
    }

    /// Folds another accumulator in. Same-mode merges are natural (estimator
    /// merge / sample concatenation). When the modes differ, an *empty* side
    /// adopts the other's mode — so aggregating exact-mode banks into a
    /// default accumulator stays exact — and two non-empty sides degrade to
    /// streaming by re-observing the exact side's samples.
    pub fn merge(&mut self, other: &SojournStats) {
        if other.count() == 0 {
            return;
        }
        if self.count() == 0 && std::mem::discriminant(self) != std::mem::discriminant(other) {
            *self = other.clone();
            return;
        }
        // Mixed-mode with an exact left side: degrade to streaming by
        // replaying our samples into a copy of the streaming right side.
        if matches!(self, SojournStats::Exact { .. })
            && matches!(other, SojournStats::Streaming { .. })
        {
            let own = std::mem::replace(self, other.clone());
            if let SojournStats::Exact { samples } = own {
                for x in samples {
                    self.observe(x);
                }
            }
            return;
        }
        match (self, other) {
            (
                SojournStats::Streaming {
                    count,
                    p50,
                    p95,
                    p99,
                },
                SojournStats::Streaming {
                    count: oc,
                    p50: o50,
                    p95: o95,
                    p99: o99,
                },
            ) => {
                *count += oc;
                p50.merge(o50);
                p95.merge(o95);
                p99.merge(o99);
            }
            (SojournStats::Exact { samples }, SojournStats::Exact { samples: os }) => {
                samples.extend_from_slice(os);
            }
            (
                SojournStats::Streaming {
                    count,
                    p50,
                    p95,
                    p99,
                },
                SojournStats::Exact { samples },
            ) => {
                // Re-observe on the same warm-up/stride schedule observe()
                // uses, so the result is a pure function of the sequence.
                for &x in samples {
                    *count += 1;
                    let n = *count;
                    if n <= STREAMING_WARMUP
                        || (n - STREAMING_WARMUP - 1).is_multiple_of(STREAMING_STRIDE)
                    {
                        p50.observe(x);
                        p95.observe(x);
                        p99.observe(x);
                    }
                }
            }
            (SojournStats::Exact { .. }, SojournStats::Streaming { .. }) => {
                unreachable!("handled above")
            }
        }
    }
}

impl Default for SojournStats {
    fn default() -> Self {
        Self::streaming()
    }
}

/// Upper edge (ns) of the read-latency histogram, which starts at 0 ns.
/// Destructive reads with retries run to ~3×25 ns, so 100 ns covers every
/// scheme's *service* latency; slower samples land in the histogram's
/// explicit overflow bucket (see [`Histogram::overflow`]), which every
/// report surfaces instead of letting them vanish into the top bin.
const LATENCY_HIGH_NS: f64 = 100.0;

/// Number of read-latency histogram bins: 2 ns each.
const LATENCY_BINS: usize = 50;

/// Declares a telemetry struct once, as a field table. Each entry gives
/// the field's doc comment, name and type, an optional initial value
/// (`= expr`, else `Default::default()`) and its merge rule:
///
/// - `sum` adds the other side's value;
/// - `max` keeps the larger value;
/// - `merge` calls the field's own `merge` (statistics, nested telemetry);
/// - `by_hand` leaves the field to the struct's hand-written fold, named
///   after the table as `by_hand: path;` and run after the table's rules.
///
/// The table generates the struct (every field public, in table order, so
/// the table also fixes the `Debug` text), its `Default` and its `merge`.
macro_rules! telemetry_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field:ident: $ty:ty $(= $init:expr)? => $rule:ident,
            )*
        }
        $(by_hand: $fold:path;)?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $(
                $(#[$field_meta])*
                pub $field: $ty,
            )*
        }

        impl Default for $name {
            fn default() -> Self {
                Self {
                    $($field: telemetry_table!(@init $($init)?),)*
                }
            }
        }

        impl $name {
            /// Folds another value into this one, each field by its rule in
            /// the telemetry table.
            pub fn merge(&mut self, other: &$name) {
                $(telemetry_table!(@merge $rule, self.$field, other.$field);)*
                $($fold(self, other);)?
            }
        }
    };
    (@init) => { Default::default() };
    (@init $init:expr) => { $init };
    (@merge sum, $mine:expr, $theirs:expr) => { $mine += $theirs };
    (@merge max, $mine:expr, $theirs:expr) => { $mine = $mine.max($theirs) };
    (@merge merge, $mine:expr, $theirs:expr) => { $mine.merge(&$theirs) };
    (@merge by_hand, $mine:expr, $theirs:expr) => {};
}

telemetry_table! {
    /// Queueing counters for one bank, filled only by the event-driven
    /// [`sched`](crate::sched) frontend (serial replay has no queues, so these
    /// stay zero there).
    ///
    /// Sojourn time is measured from a transaction's *arrival* (its timestamp in
    /// the trace) to its completion, so it includes admission stalls, queueing
    /// delay and service; waiting time is measured from admission into the bank
    /// queue to the start of service. Depth integrals and horizons add under
    /// `merge`, so the merged [`Self::mean_depth`] is the per-bank average
    /// occupancy.
    pub struct QueueTelemetry {
        /// Transactions admitted into the bank queue (or started directly).
        admitted: u64 => sum,
        /// Transactions served to completion.
        completed: u64 => sum,
        /// Transactions dropped on a full queue under
        /// [`Backpressure::Drop`](crate::sched::Backpressure).
        dropped: u64 => sum,
        /// Admissions that stalled on a full queue under
        /// [`Backpressure::Stall`](crate::sched::Backpressure).
        stalls: u64 => sum,
        /// Total time admission spent stalled (nanoseconds).
        stall_time_ns: f64 => sum,
        /// Re-offered admissions under
        /// [`Backpressure::Retry`](crate::sched::Backpressure).
        retried_admissions: u64 => sum,
        /// Largest waiting-queue depth ever observed.
        max_depth: u64 => max,
        /// Time integral of waiting-queue depth (nanoseconds × entries); divide
        /// by [`QueueTelemetry::horizon_ns`] for the time-averaged occupancy.
        depth_time_ns: f64 => sum,
        /// Observed horizon (nanoseconds) over which the depth integral ran.
        horizon_ns: f64 => sum,
        /// Waiting time from admission to start of service (nanoseconds).
        wait_ns: Summary => merge,
        /// Columnar sojourn-time statistics: fixed-memory streaming quantiles by
        /// default, raw samples when the run opted into exact mode.
        sojourn: SojournStats => merge,
        /// Scrub ticks that found the bank busy or demand waiting and yielded
        /// (background priority: demand always preempts at arbitration).
        scrub_deferred: u64 => sum,
        /// March-test dispatch attempts that found the bank busy or demand
        /// waiting and yielded (test priority: below demand, above scrub).
        march_deferred: u64 => sum,
        /// Calibration-daemon ticks that found the bank busy or higher-class
        /// work waiting and yielded (background priority, like scrub).
        calib_deferred: u64 => sum,
    }
}

impl QueueTelemetry {
    /// Time-averaged waiting-queue depth (0 when nothing was observed).
    #[must_use]
    pub fn mean_depth(&self) -> f64 {
        if self.horizon_ns > 0.0 {
            self.depth_time_ns / self.horizon_ns
        } else {
            0.0
        }
    }

    /// The `q`-quantile of completed-transaction sojourn time, or `None`
    /// when nothing completed. Exact in exact-sample mode; in the default
    /// streaming mode this serves the nearest tracked quantile (see
    /// [`SojournStats::quantile`]).
    fn sojourn_quantile(&self, q: f64) -> Option<f64> {
        self.sojourn.quantile(q)
    }

    /// Median sojourn time in nanoseconds (0 when nothing completed).
    #[must_use]
    pub fn sojourn_p50(&self) -> f64 {
        self.sojourn_quantile(0.50).unwrap_or(0.0)
    }

    /// 95th-percentile sojourn time in nanoseconds (0 when nothing
    /// completed).
    #[must_use]
    pub fn sojourn_p95(&self) -> f64 {
        self.sojourn_quantile(0.95).unwrap_or(0.0)
    }

    /// 99th-percentile sojourn time in nanoseconds (0 when nothing
    /// completed).
    #[must_use]
    pub fn sojourn_p99(&self) -> f64 {
        self.sojourn_quantile(0.99).unwrap_or(0.0)
    }
}

/// Cap on per-bank error-address log entries; overflow is counted in
/// [`EccTelemetry::error_log_dropped`] so heavy fault campaigns stay
/// bounded in memory without losing the totals.
pub const ERROR_LOG_CAP: usize = 64;

/// Appends `entries` to `log` while it holds fewer than [`ERROR_LOG_CAP`]
/// entries, and returns how many did not fit.
fn append_capped<T: Copy>(log: &mut Vec<T>, entries: &[T]) -> u64 {
    let taken = ERROR_LOG_CAP.saturating_sub(log.len()).min(entries.len());
    log.extend_from_slice(&entries[..taken]);
    (entries.len() - taken) as u64
}

/// What kind of ECC event an [`EccEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccEventKind {
    /// A demand read corrected a single-bit error.
    DemandCe,
    /// A demand read detected an uncorrectable (double-bit) error.
    DemandUe,
    /// A demand read passed the codec but delivered a wrong word.
    DemandSilent,
    /// A scrub scan corrected (and rewrote) a single-bit error.
    ScrubCe,
    /// A scrub scan found an uncorrectable word it could not repair.
    ScrubUe,
}

/// One entry of a bank's error-address log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccEvent {
    /// ECC word index within the bank.
    pub word: u32,
    /// What happened there.
    pub kind: EccEventKind,
}

telemetry_table! {
    /// ECC and scrub counters for one bank, filled only when the controller
    /// runs with [`EccMode::Secded`](crate::reliability::EccMode) (all zero
    /// otherwise, exactly like the queueing section under serial replay).
    ///
    /// Demand-read classifications are mutually exclusive and sum to the
    /// ECC-served read count: `clean_reads + corrected_ce + detected_ue +
    /// silent_errors`. *Silent* means the codec reported clean-or-corrected
    /// but the delivered word still disagreed with the host's truth mirror —
    /// the residue (≥3-bit flips, miscorrections) that survives SECDED.
    pub struct EccTelemetry {
        /// Demand reads whose word decoded clean and matched the truth mirror.
        clean_reads: u64 => sum,
        /// Demand reads whose single-bit error was corrected to the truth.
        corrected_ce: u64 => sum,
        /// Demand reads whose word decoded uncorrectable (host is warned).
        detected_ue: u64 => sum,
        /// Demand reads the codec passed but whose delivered word was wrong.
        silent_errors: u64 => sum,
        /// Words scanned by the background scrub daemon.
        scrub_words_scanned: u64 => sum,
        /// Scrub scans that corrected a CE.
        scrub_ce_corrected: u64 => sum,
        /// Scrub scans that found an uncorrectable word.
        scrub_ue_found: u64 => sum,
        /// Cells the scrub physically rewrote (repairs of persistent damage).
        scrub_cells_rewritten: u64 => sum,
        /// Completed full scrub passes over the bank.
        scrub_passes: u64 => sum,
        /// Bank-occupancy time spent scrubbing (senses and repair writes).
        /// Deliberately separate from [`BankTelemetry::busy_time`]: demand
        /// busy time doubles as the retention-failure clock, and folding scrub
        /// work into it would make scrubbing accelerate the decay it repairs —
        /// and give protection levels mismatched fault exposure at matched
        /// traffic.
        scrub_busy_time: Seconds => sum,
        /// ECC words in this bank (coverage-gauge denominator; 0 = ECC off).
        words_total: u64 => sum,
        /// Error-address log, capped at [`ERROR_LOG_CAP`] entries per bank.
        error_log: Vec<EccEvent> => by_hand,
        /// Events that no longer fit in the log.
        error_log_dropped: u64 => by_hand,
    }
    by_hand: merge_error_log;
}

/// [`EccTelemetry::merge`]'s hand-written part: the other log's entries
/// fill the capped log, and whatever does not fit counts as dropped.
fn merge_error_log(this: &mut EccTelemetry, other: &EccTelemetry) {
    this.error_log_dropped +=
        other.error_log_dropped + append_capped(&mut this.error_log, &other.error_log);
}

impl EccTelemetry {
    /// Scrub-coverage gauge: words scanned per word of capacity. `1.0`
    /// means one full pass; values above count repeat passes; `0.0` when
    /// ECC is off or scrub never ran.
    #[must_use]
    pub fn scrub_coverage(&self) -> f64 {
        if self.words_total == 0 {
            0.0
        } else {
            self.scrub_words_scanned as f64 / self.words_total as f64
        }
    }

    /// Uncorrectable-plus-silent rate over classified demand reads — the
    /// campaign's graceful-degradation metric (0 when nothing classified).
    #[must_use]
    pub fn hazard_rate(&self) -> f64 {
        let classified =
            self.clean_reads + self.corrected_ce + self.detected_ue + self.silent_errors;
        if classified == 0 {
            0.0
        } else {
            (self.detected_ue + self.silent_errors) as f64 / classified as f64
        }
    }

    /// Appends an event to the log, honouring the cap.
    pub fn log_event(&mut self, word: usize, kind: EccEventKind) {
        let event = EccEvent {
            word: word as u32,
            kind,
        };
        self.error_log_dropped += append_capped(&mut self.error_log, &[event]);
    }
}

/// One entry of a bank's March-test fail log: a read element whose
/// delivered bit disagreed with the value the algorithm expected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarchFail {
    /// Row-major cell index within the bank.
    pub cell: u32,
    /// Index of the March element (0-based) whose read caught the fault.
    pub element: u8,
    /// The bit the element expected.
    pub expected: bool,
    /// The bit the sensing path delivered.
    pub got: bool,
}

telemetry_table! {
    /// March-test verdicts for one bank, filled only while a
    /// [`MarchProgram`](crate::march::MarchProgram) runs against it (all zero
    /// otherwise). Every verdict comes from the real sensing path —
    /// [`Bank`](crate::bank) serves each March read through the configured
    /// scheme (and ECC word path when enabled), so a mismatch here is a fault
    /// the production read path actually delivered to the tester.
    pub struct MarchTelemetry {
        /// March operations executed (reads + writes).
        ops: u64 => sum,
        /// March read operations executed.
        reads: u64 => sum,
        /// March write operations executed.
        writes: u64 => sum,
        /// Read elements whose delivered bit disagreed with the expectation.
        mismatches: u64 => sum,
        /// Distinct cells (row-major indices) with at least one mismatch — the
        /// tester's fail bitmap, deduplicated.
        failing_cells: std::collections::BTreeSet<u32> => by_hand,
        /// Per-mismatch detail log, capped at [`ERROR_LOG_CAP`] entries.
        fail_log: Vec<MarchFail> => by_hand,
        /// Mismatches that no longer fit in the log.
        fail_log_dropped: u64 => by_hand,
        /// Bank-occupancy time spent on March operations. Separate from
        /// [`BankTelemetry::busy_time`] for the same reason scrub time is: the
        /// demand busy clock doubles as the retention-decay clock, and test
        /// traffic must not accelerate the decay it is screening for.
        busy_time: Seconds => sum,
    }
    by_hand: merge_fail_log;
}

/// [`MarchTelemetry::merge`]'s hand-written part: the fail bitmaps unite,
/// and the fail log fills like the ECC error log.
fn merge_fail_log(this: &mut MarchTelemetry, other: &MarchTelemetry) {
    this.failing_cells
        .extend(other.failing_cells.iter().copied());
    this.fail_log_dropped +=
        other.fail_log_dropped + append_capped(&mut this.fail_log, &other.fail_log);
}

impl MarchTelemetry {
    /// Records one read-verdict mismatch.
    pub fn record_mismatch(&mut self, cell: u32, element: u8, expected: bool, got: bool) {
        self.mismatches += 1;
        self.failing_cells.insert(cell);
        let fail = MarchFail {
            cell,
            element,
            expected,
            got,
        };
        self.fail_log_dropped += append_capped(&mut self.fail_log, &[fail]);
    }
}

telemetry_table! {
    /// Calibration-daemon counters for one bank, filled only when a
    /// [`CalibConfig`](crate::calib::CalibConfig) is active (all zero
    /// otherwise). The trip → burst → refit protocol is documented in
    /// [`calib`](crate::calib) and DESIGN.md §15.
    pub struct CalibTelemetry {
        /// Trip-condition evaluations that crossed the threshold.
        trips: u64 => sum,
        /// Calibration bursts issued (one per trip that reached the bank).
        bursts: u64 => sum,
        /// Reference-cell senses performed across all bursts.
        burst_reads: u64 => sum,
        /// β refits that swapped a new operating point into the read path.
        refits: u64 => sum,
        /// The β the bank's sensing scheme currently runs at (0 until the
        /// first refit reports one; self-referenced schemes only).
        last_beta: f64 => by_hand,
        /// Bank-occupancy time spent on calibration bursts. Separate from
        /// [`BankTelemetry::busy_time`] for the same reason scrub and March
        /// time are: the demand busy clock doubles as the retention-decay and
        /// drift clock, and maintenance traffic must not accelerate the drift
        /// it compensates for.
        busy_time: Seconds => sum,
    }
    by_hand: merge_last_beta;
}

/// [`CalibTelemetry::merge`]'s hand-written part: the other side's β wins
/// only if it was ever refitted.
fn merge_last_beta(this: &mut CalibTelemetry, other: &CalibTelemetry) {
    if other.refits > 0 {
        this.last_beta = other.last_beta;
    }
}

telemetry_table! {
    /// Counters for one bank.
    pub struct BankTelemetry {
        /// Reads served (including those aborted by a power cut).
        reads: u64 => sum,
        /// Writes served.
        writes: u64 => sum,
        /// Extra sense attempts beyond the first, across all reads.
        read_retries: u64 => sum,
        /// Reads resolved by the fallback (no attempt cleared the guard band).
        unconfident_reads: u64 => sum,
        /// Reads whose delivered bit disagreed with the host's last write.
        misreads: u64 => sum,
        /// Extra programming pulses beyond the first, across all writes.
        write_retries: u64 => sum,
        /// Writes whose cell never switched within the pulse budget.
        write_failures: u64 => sum,
        /// Power cuts injected mid-read.
        power_cuts: u64 => sum,
        /// Cells whose stored state a power cut changed.
        corrupted_bits: u64 => sum,
        /// Cells flipped by retention failures (time-dependent decay between
        /// accesses, see [`FaultPlan::retention_rate_per_ns`](crate::FaultPlan)).
        retention_flips: u64 => sum,
        /// Cells flipped by read disturb (per-read victim-word flips, see
        /// [`FaultPlan::read_disturb_prob`](crate::FaultPlan)).
        read_disturb_flips: u64 => sum,
        /// Writes silently swallowed by a write transition fault (see
        /// [`TransitionFault`](crate::TransitionFault)).
        write_transition_faults: u64 => sum,
        /// Completed writes undone by a backhopping flip (see
        /// [`BackhopCell`](crate::BackhopCell)).
        backhop_flips: u64 => sum,
        /// Victim-cell overwrites triggered by intra-word coupling defects (see
        /// [`CouplingFault`](crate::CouplingFault)).
        coupling_triggers: u64 => sum,
        /// Completed-read latency in nanoseconds (retries included).
        read_latency_ns: Summary = Summary::new() => merge,
        /// Completed-read latency histogram over 0–100 ns in 2 ns bins;
        /// out-of-range samples are counted in its explicit
        /// underflow/overflow buckets.
        read_latency_hist: Histogram = Histogram::new(0.0, LATENCY_HIGH_NS, LATENCY_BINS) => merge,
        /// Total busy time across served transactions.
        busy_time: Seconds => sum,
        /// Total energy across served transactions.
        energy: Joules => sum,
        /// Queueing counters, filled by the [`sched`](crate::sched) frontend
        /// (all zero under serial replay).
        queue: QueueTelemetry => merge,
        /// ECC and scrub counters, filled only under
        /// [`EccMode::Secded`](crate::reliability::EccMode) (all zero when ECC
        /// is off).
        ecc: EccTelemetry => merge,
        /// March-test verdicts, filled only while a March program runs against
        /// this bank (all zero otherwise).
        march: MarchTelemetry => merge,
        /// Calibration-daemon counters, filled only when a calibration config
        /// is active (all zero otherwise).
        calib: CalibTelemetry => merge,
    }
}

impl BankTelemetry {
    /// Records one completed read's total latency.
    pub fn record_read_latency(&mut self, latency: Seconds) {
        let nanos = latency.get() * 1e9;
        self.read_latency_ns.push(nanos);
        self.read_latency_hist.push(nanos);
    }

    /// Misread rate over served reads (0 when no reads ran).
    #[must_use]
    pub fn misread_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.misreads as f64 / self.reads as f64
        }
    }
}

telemetry_table! {
    /// Engine counters for one hierarchy channel, filled by the
    /// [`hierarchy`](crate::hierarchy) chip engine: source activity, shared-bus
    /// contention and outstanding-window behaviour that no single bank can see.
    pub struct ChannelTelemetry {
        /// Transactions the channel's source issued (or was offered).
        issued: u64 => sum,
        /// Transactions served to completion (data transferred off-chip).
        completed: u64 => sum,
        /// Closed-loop issue attempts gated by a full outstanding window — the
        /// backpressure signal that makes the source's rate *react* to load.
        source_throttled: u64 => sum,
        /// Largest number of simultaneously outstanding transactions observed.
        max_outstanding: u64 => max,
        /// Total time completed transfers waited for a busy group or channel
        /// bus (nanoseconds) — the serialization cost the hierarchy exists to
        /// expose.
        bus_wait_ns: f64 => sum,
        /// Total time the channel's buses spent transferring (nanoseconds).
        bus_busy_ns: f64 => sum,
        /// Observed horizon (nanoseconds) of the channel's event loop.
        horizon_ns: f64 => sum,
    }
}

impl ChannelTelemetry {
    /// Mean bus wait per completed transfer (0 when nothing completed).
    #[must_use]
    pub fn mean_bus_wait_ns(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.bus_wait_ns / self.completed as f64
        }
    }
}

/// Rolls per-bank telemetry up to an arbitrary hierarchy level: entries are
/// merged per key (bank group, rank, channel — any projection of a bank's
/// coordinate), in key order, so the result is deterministic. This is the
/// one aggregation primitive behind every bank → group → rank → channel →
/// chip roll-up the hierarchy reports: the first entry of a key is cloned,
/// the rest merge into it in order.
pub fn rollup_by<'a, K: Ord>(
    entries: impl IntoIterator<Item = (K, &'a BankTelemetry)>,
) -> std::collections::BTreeMap<K, BankTelemetry> {
    let mut levels: std::collections::BTreeMap<K, BankTelemetry> =
        std::collections::BTreeMap::new();
    for (key, telemetry) in entries {
        match levels.entry(key) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(telemetry.clone());
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                slot.get_mut().merge(telemetry);
            }
        }
    }
    levels
}

/// Merges every bank into one set of counters, in iteration order: the
/// [`rollup_by`] fold under a single key (all-default telemetry when
/// there are no banks).
pub(crate) fn aggregate<'a>(banks: impl IntoIterator<Item = &'a BankTelemetry>) -> BankTelemetry {
    rollup_by(banks.into_iter().map(|bank| ((), bank)))
        .remove(&())
        .unwrap_or_default()
}

/// Telemetry for a full controller run: per-bank breakdown plus the final
/// integrity audit.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    /// One entry per bank, in bank order.
    pub banks: Vec<BankTelemetry>,
    /// Cells whose post-trace stored state disagrees with the host's view
    /// of what it wrote (summed over banks).
    pub audit_corrupted_bits: u64,
}

impl Telemetry {
    /// Sums every bank into one set of counters (bank order, so the result
    /// is deterministic).
    #[must_use]
    pub fn aggregate(&self) -> BankTelemetry {
        aggregate(&self.banks)
    }

    /// Total transactions served.
    #[must_use]
    pub fn transactions(&self) -> u64 {
        self.banks.iter().map(|b| b.reads + b.writes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn telemetry_with(reads: u64, misreads: u64) -> BankTelemetry {
        let mut t = BankTelemetry {
            reads,
            misreads,
            ..BankTelemetry::default()
        };
        for i in 0..reads {
            t.record_read_latency(Seconds::from_nano(14.0 + i as f64));
        }
        t
    }

    #[test]
    fn merge_sums_counters_and_accumulators() {
        let a = telemetry_with(10, 1);
        let b = telemetry_with(20, 3);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.reads, 30);
        assert_eq!(merged.misreads, 4);
        assert_eq!(merged.read_latency_ns.len(), 30);
        assert_eq!(merged.read_latency_hist.total(), 30);
    }

    #[test]
    fn aggregate_is_order_of_banks() {
        let telemetry = Telemetry {
            banks: vec![telemetry_with(5, 0), telemetry_with(7, 2)],
            audit_corrupted_bits: 0,
        };
        let total = telemetry.aggregate();
        assert_eq!(total.reads, 12);
        assert_eq!(total.misreads, 2);
        assert_eq!(telemetry.transactions(), 12);
    }

    #[test]
    fn misread_rate_handles_empty() {
        assert_eq!(BankTelemetry::default().misread_rate(), 0.0);
        assert!((telemetry_with(10, 1).misread_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn queueing_scale_latencies_land_in_the_overflow_bucket() {
        // Sojourn-scale samples lie past the 100 ns ceiling: they must stay
        // visible in the overflow count, not vanish into the top bin.
        let mut telemetry = BankTelemetry::default();
        for latency_ns in [40.0, 250.0, 900.0] {
            telemetry.record_read_latency(Seconds::from_nano(latency_ns));
        }
        assert_eq!(telemetry.read_latency_hist.overflow(), 2);
        assert_eq!(telemetry.read_latency_hist.total(), 3);
    }

    #[test]
    fn queue_telemetry_quantiles_and_merge() {
        let mut exact = SojournStats::exact();
        for x in [10.0, 20.0, 30.0, 40.0] {
            exact.observe(x);
        }
        let mut q = QueueTelemetry {
            completed: 4,
            sojourn: exact,
            depth_time_ns: 50.0,
            horizon_ns: 100.0,
            max_depth: 3,
            ..QueueTelemetry::default()
        };
        assert!((q.sojourn_p50() - 25.0).abs() < 1e-12);
        assert!((q.mean_depth() - 0.5).abs() < 1e-12);
        let mut one = SojournStats::exact();
        one.observe(100.0);
        let other = QueueTelemetry {
            completed: 1,
            sojourn: one,
            depth_time_ns: 10.0,
            horizon_ns: 100.0,
            max_depth: 5,
            ..QueueTelemetry::default()
        };
        q.merge(&other);
        assert_eq!(q.completed, 5);
        assert_eq!(q.max_depth, 5);
        assert_eq!(q.sojourn.count(), 5);
        assert!((q.mean_depth() - 0.3).abs() < 1e-12);
        assert_eq!(QueueTelemetry::default().sojourn_quantile(0.99), None);
        assert_eq!(QueueTelemetry::default().sojourn_p99(), 0.0);
    }

    #[test]
    fn streaming_sojourn_matches_exact_on_small_streams() {
        // Below five samples the P² warm-up phase is exact, so streaming and
        // exact modes agree to the bit.
        let mut streaming = SojournStats::streaming();
        let mut exact = SojournStats::exact();
        for x in [30.0, 10.0, 20.0] {
            streaming.observe(x);
            exact.observe(x);
        }
        assert_eq!(streaming.quantile(0.5), exact.quantile(0.5));
        assert_eq!(streaming.count(), exact.count());
    }

    #[test]
    fn mixed_mode_sojourn_merge_degrades_to_streaming() {
        let mut streaming = SojournStats::streaming();
        streaming.observe(50.0);
        let mut exact = SojournStats::exact();
        exact.observe(10.0);
        exact.observe(90.0);

        let mut a = streaming.clone();
        a.merge(&exact);
        assert!(matches!(a, SojournStats::Streaming { .. }));
        assert_eq!(a.count(), 3);

        let mut b = exact.clone();
        b.merge(&streaming);
        assert!(matches!(b, SojournStats::Streaming { .. }));
        assert_eq!(b.count(), 3);
        // Same multiset, same warm-up exactness → same median.
        assert_eq!(a.quantile(0.5), Some(50.0));
    }

    #[test]
    fn rollup_by_merges_per_key_in_key_order() {
        let banks = [
            (1usize, telemetry_with(5, 1)),
            (0, telemetry_with(2, 0)),
            (1, telemetry_with(3, 1)),
        ];
        let levels = rollup_by(banks.iter().map(|(k, t)| (*k, t)));
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[&0].reads, 2);
        assert_eq!(levels[&1].reads, 8);
        assert_eq!(levels[&1].misreads, 2);
        assert_eq!(levels[&1].read_latency_ns.len(), 8);
    }

    #[test]
    fn channel_telemetry_merges_and_averages() {
        let mut a = ChannelTelemetry {
            issued: 10,
            completed: 10,
            source_throttled: 2,
            max_outstanding: 4,
            bus_wait_ns: 50.0,
            bus_busy_ns: 60.0,
            horizon_ns: 100.0,
        };
        assert!((a.mean_bus_wait_ns() - 5.0).abs() < 1e-12);
        let b = ChannelTelemetry {
            issued: 5,
            completed: 5,
            max_outstanding: 7,
            ..ChannelTelemetry::default()
        };
        a.merge(&b);
        assert_eq!(a.issued, 15);
        assert_eq!(a.max_outstanding, 7);
        assert_eq!(ChannelTelemetry::default().mean_bus_wait_ns(), 0.0);
    }

    #[test]
    fn ecc_gauges_handle_empty_and_filled() {
        let mut ecc = EccTelemetry::default();
        assert_eq!(ecc.scrub_coverage(), 0.0);
        assert_eq!(ecc.hazard_rate(), 0.0);
        ecc.clean_reads = 90;
        ecc.corrected_ce = 6;
        ecc.detected_ue = 3;
        ecc.silent_errors = 1;
        ecc.words_total = 256;
        ecc.scrub_words_scanned = 512;
        assert!((ecc.hazard_rate() - 0.04).abs() < 1e-12);
        assert!((ecc.scrub_coverage() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ecc_error_log_caps_and_merge_counts_drops() {
        let mut a = EccTelemetry::default();
        for word in 0..ERROR_LOG_CAP + 5 {
            a.log_event(word, EccEventKind::DemandCe);
        }
        assert_eq!(a.error_log.len(), ERROR_LOG_CAP);
        assert_eq!(a.error_log_dropped, 5);
        let mut b = EccTelemetry::default();
        b.log_event(7, EccEventKind::ScrubUe);
        a.merge(&b);
        assert_eq!(a.error_log.len(), ERROR_LOG_CAP);
        assert_eq!(a.error_log_dropped, 6, "merge must count the overflow");
        let mut c = EccTelemetry::default();
        c.merge(&b);
        assert_eq!(c.error_log, b.error_log);
        assert_eq!(c.error_log_dropped, 0);
    }

    // Random telemetry for the merge property: every counter non-zero, every
    // statistic non-empty, every log non-empty, all bounded so sums cannot
    // overflow.

    fn count(rng: &mut StdRng) -> u64 {
        rng.gen_range(1..1_000_000)
    }

    fn amount(rng: &mut StdRng) -> f64 {
        rng.gen_range(1.0..1e6)
    }

    fn seconds(rng: &mut StdRng) -> Seconds {
        Seconds::new(rng.gen_range(1e-9..1e-3))
    }

    fn summary(rng: &mut StdRng) -> Summary {
        let n = rng.gen_range(1..20);
        (0..n).map(|_| amount(rng)).collect()
    }

    fn log<T>(rng: &mut StdRng, entry: impl Fn(&mut StdRng) -> T) -> Vec<T> {
        let n = rng.gen_range(1..ERROR_LOG_CAP + 1);
        (0..n).map(|_| entry(rng)).collect()
    }

    fn queue(rng: &mut StdRng) -> QueueTelemetry {
        let mut sojourn = SojournStats::streaming();
        for _ in 0..rng.gen_range(1..100) {
            sojourn.observe(amount(rng));
        }
        QueueTelemetry {
            admitted: count(rng),
            completed: count(rng),
            dropped: count(rng),
            stalls: count(rng),
            stall_time_ns: amount(rng),
            retried_admissions: count(rng),
            max_depth: count(rng),
            depth_time_ns: amount(rng),
            horizon_ns: amount(rng),
            wait_ns: summary(rng),
            sojourn,
            scrub_deferred: count(rng),
            march_deferred: count(rng),
            calib_deferred: count(rng),
        }
    }

    fn ecc(rng: &mut StdRng) -> EccTelemetry {
        EccTelemetry {
            clean_reads: count(rng),
            corrected_ce: count(rng),
            detected_ue: count(rng),
            silent_errors: count(rng),
            scrub_words_scanned: count(rng),
            scrub_ce_corrected: count(rng),
            scrub_ue_found: count(rng),
            scrub_cells_rewritten: count(rng),
            scrub_passes: count(rng),
            scrub_busy_time: seconds(rng),
            words_total: count(rng),
            error_log: log(rng, |rng| EccEvent {
                word: rng.gen(),
                kind: EccEventKind::ScrubCe,
            }),
            error_log_dropped: count(rng),
        }
    }

    fn march(rng: &mut StdRng) -> MarchTelemetry {
        MarchTelemetry {
            ops: count(rng),
            reads: count(rng),
            writes: count(rng),
            mismatches: count(rng),
            failing_cells: log(rng, |rng| rng.gen_range(0..256)).into_iter().collect(),
            fail_log: log(rng, |rng| MarchFail {
                cell: rng.gen(),
                element: rng.gen(),
                expected: rng.gen(),
                got: rng.gen(),
            }),
            fail_log_dropped: count(rng),
            busy_time: seconds(rng),
        }
    }

    fn calib(rng: &mut StdRng) -> CalibTelemetry {
        CalibTelemetry {
            trips: count(rng),
            bursts: count(rng),
            burst_reads: count(rng),
            refits: count(rng),
            last_beta: amount(rng),
            busy_time: seconds(rng),
        }
    }

    fn bank(rng: &mut StdRng) -> BankTelemetry {
        let mut read_latency_hist = Histogram::new(0.0, LATENCY_HIGH_NS, LATENCY_BINS);
        for _ in 0..rng.gen_range(1..100) {
            read_latency_hist.push(rng.gen_range(0.0..2.0 * LATENCY_HIGH_NS));
        }
        BankTelemetry {
            reads: count(rng),
            writes: count(rng),
            read_retries: count(rng),
            unconfident_reads: count(rng),
            misreads: count(rng),
            write_retries: count(rng),
            write_failures: count(rng),
            power_cuts: count(rng),
            corrupted_bits: count(rng),
            retention_flips: count(rng),
            read_disturb_flips: count(rng),
            write_transition_faults: count(rng),
            backhop_flips: count(rng),
            coupling_triggers: count(rng),
            read_latency_ns: summary(rng),
            read_latency_hist,
            busy_time: seconds(rng),
            energy: Joules::new(rng.gen_range(1e-15..1e-9)),
            queue: queue(rng),
            ecc: ecc(rng),
            march: march(rng),
            calib: calib(rng),
        }
    }

    fn channel(rng: &mut StdRng) -> ChannelTelemetry {
        ChannelTelemetry {
            issued: count(rng),
            completed: count(rng),
            source_throttled: count(rng),
            max_outstanding: count(rng),
            bus_wait_ns: amount(rng),
            bus_busy_ns: amount(rng),
            horizon_ns: amount(rng),
        }
    }

    // The merge rules, written out field by field: the reference the
    // telemetry table is checked against.

    fn merged<T: Clone>(a: &T, b: &T, merge: fn(&mut T, &T)) -> T {
        let mut out = a.clone();
        merge(&mut out, b);
        out
    }

    /// `a`'s entries, then `b`'s while fewer than the cap are kept, and how
    /// many of `b`'s did not fit.
    fn capped<T: Copy>(a: &[T], b: &[T]) -> (Vec<T>, u64) {
        let all: Vec<T> = a.iter().chain(b).copied().collect();
        let kept = all.len().min(ERROR_LOG_CAP);
        (all[..kept].to_vec(), (all.len() - kept) as u64)
    }

    fn queue_rule(a: &QueueTelemetry, b: &QueueTelemetry) -> QueueTelemetry {
        QueueTelemetry {
            admitted: a.admitted + b.admitted,
            completed: a.completed + b.completed,
            dropped: a.dropped + b.dropped,
            stalls: a.stalls + b.stalls,
            stall_time_ns: a.stall_time_ns + b.stall_time_ns,
            retried_admissions: a.retried_admissions + b.retried_admissions,
            max_depth: a.max_depth.max(b.max_depth),
            depth_time_ns: a.depth_time_ns + b.depth_time_ns,
            horizon_ns: a.horizon_ns + b.horizon_ns,
            wait_ns: merged(&a.wait_ns, &b.wait_ns, Summary::merge),
            sojourn: merged(&a.sojourn, &b.sojourn, SojournStats::merge),
            scrub_deferred: a.scrub_deferred + b.scrub_deferred,
            march_deferred: a.march_deferred + b.march_deferred,
            calib_deferred: a.calib_deferred + b.calib_deferred,
        }
    }

    fn ecc_rule(a: &EccTelemetry, b: &EccTelemetry) -> EccTelemetry {
        let (error_log, overflow) = capped(&a.error_log, &b.error_log);
        EccTelemetry {
            clean_reads: a.clean_reads + b.clean_reads,
            corrected_ce: a.corrected_ce + b.corrected_ce,
            detected_ue: a.detected_ue + b.detected_ue,
            silent_errors: a.silent_errors + b.silent_errors,
            scrub_words_scanned: a.scrub_words_scanned + b.scrub_words_scanned,
            scrub_ce_corrected: a.scrub_ce_corrected + b.scrub_ce_corrected,
            scrub_ue_found: a.scrub_ue_found + b.scrub_ue_found,
            scrub_cells_rewritten: a.scrub_cells_rewritten + b.scrub_cells_rewritten,
            scrub_passes: a.scrub_passes + b.scrub_passes,
            scrub_busy_time: a.scrub_busy_time + b.scrub_busy_time,
            words_total: a.words_total + b.words_total,
            error_log,
            error_log_dropped: a.error_log_dropped + b.error_log_dropped + overflow,
        }
    }

    fn march_rule(a: &MarchTelemetry, b: &MarchTelemetry) -> MarchTelemetry {
        let (fail_log, overflow) = capped(&a.fail_log, &b.fail_log);
        MarchTelemetry {
            ops: a.ops + b.ops,
            reads: a.reads + b.reads,
            writes: a.writes + b.writes,
            mismatches: a.mismatches + b.mismatches,
            failing_cells: a.failing_cells.union(&b.failing_cells).copied().collect(),
            fail_log,
            fail_log_dropped: a.fail_log_dropped + b.fail_log_dropped + overflow,
            busy_time: a.busy_time + b.busy_time,
        }
    }

    fn calib_rule(a: &CalibTelemetry, b: &CalibTelemetry) -> CalibTelemetry {
        CalibTelemetry {
            trips: a.trips + b.trips,
            bursts: a.bursts + b.bursts,
            burst_reads: a.burst_reads + b.burst_reads,
            refits: a.refits + b.refits,
            last_beta: if b.refits > 0 {
                b.last_beta
            } else {
                a.last_beta
            },
            busy_time: a.busy_time + b.busy_time,
        }
    }

    fn bank_rule(a: &BankTelemetry, b: &BankTelemetry) -> BankTelemetry {
        BankTelemetry {
            reads: a.reads + b.reads,
            writes: a.writes + b.writes,
            read_retries: a.read_retries + b.read_retries,
            unconfident_reads: a.unconfident_reads + b.unconfident_reads,
            misreads: a.misreads + b.misreads,
            write_retries: a.write_retries + b.write_retries,
            write_failures: a.write_failures + b.write_failures,
            power_cuts: a.power_cuts + b.power_cuts,
            corrupted_bits: a.corrupted_bits + b.corrupted_bits,
            retention_flips: a.retention_flips + b.retention_flips,
            read_disturb_flips: a.read_disturb_flips + b.read_disturb_flips,
            write_transition_faults: a.write_transition_faults + b.write_transition_faults,
            backhop_flips: a.backhop_flips + b.backhop_flips,
            coupling_triggers: a.coupling_triggers + b.coupling_triggers,
            read_latency_ns: merged(&a.read_latency_ns, &b.read_latency_ns, Summary::merge),
            read_latency_hist: merged(&a.read_latency_hist, &b.read_latency_hist, Histogram::merge),
            busy_time: a.busy_time + b.busy_time,
            energy: a.energy + b.energy,
            queue: queue_rule(&a.queue, &b.queue),
            ecc: ecc_rule(&a.ecc, &b.ecc),
            march: march_rule(&a.march, &b.march),
            calib: calib_rule(&a.calib, &b.calib),
        }
    }

    fn channel_rule(a: &ChannelTelemetry, b: &ChannelTelemetry) -> ChannelTelemetry {
        ChannelTelemetry {
            issued: a.issued + b.issued,
            completed: a.completed + b.completed,
            source_throttled: a.source_throttled + b.source_throttled,
            max_outstanding: a.max_outstanding.max(b.max_outstanding),
            bus_wait_ns: a.bus_wait_ns + b.bus_wait_ns,
            bus_busy_ns: a.bus_busy_ns + b.bus_busy_ns,
            horizon_ns: a.horizon_ns + b.horizon_ns,
        }
    }

    /// Draws two values, merges them, and compares with the written-out rule.
    fn check<T: Clone + PartialEq + std::fmt::Debug>(
        rng: &mut StdRng,
        draw: fn(&mut StdRng) -> T,
        merge: fn(&mut T, &T),
        rule: fn(&T, &T) -> T,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let (a, b) = (draw(rng), draw(rng));
        prop_assert_eq!(merged(&a, &b, merge), rule(&a, &b));
        Ok(())
    }

    proptest! {
        /// Each table-generated `merge` folds every field by the rule the
        /// reference above writes out by hand.
        #[test]
        fn prop_merge_follows_each_fields_rule(seed in 0..u64::MAX) {
            let rng = &mut StdRng::seed_from_u64(seed);
            check(rng, queue, QueueTelemetry::merge, queue_rule)?;
            check(rng, ecc, EccTelemetry::merge, ecc_rule)?;
            check(rng, march, MarchTelemetry::merge, march_rule)?;
            check(rng, calib, CalibTelemetry::merge, calib_rule)?;
            check(rng, bank, BankTelemetry::merge, bank_rule)?;
            check(rng, channel, ChannelTelemetry::merge, channel_rule)?;
            // A side that never refitted leaves the merged β alone.
            let (a, mut b) = (calib(rng), calib(rng));
            b.refits = 0;
            prop_assert_eq!(merged(&a, &b, CalibTelemetry::merge), calib_rule(&a, &b));
        }
    }
}
