//! Per-bank and aggregate traffic telemetry.
//!
//! Counters are exact integers and the latency/energy accumulators are
//! filled in a fixed per-bank order, so two runs of the same configuration
//! — serial or parallel, any thread count — produce **equal** telemetry.
//! The engine's determinism test leans on the `PartialEq` here.

use serde::{Deserialize, Serialize};
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Queueing counters for one bank, filled only by the event-driven
/// [`sched`](crate::sched) frontend (serial replay has no queues, so these
/// stay zero there).
///
/// Sojourn time is measured from a transaction's *arrival* (its timestamp in
/// the trace) to its completion, so it includes admission stalls, queueing
/// delay and service; waiting time is measured from admission into the bank
/// queue to the start of service.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct QueueTelemetry {
    /// Transactions admitted into the bank queue (or started directly).
    pub admitted: u64,
    /// Transactions served to completion.
    pub completed: u64,
    /// Transactions dropped on a full queue under
    /// [`Backpressure::Drop`](crate::sched::Backpressure).
    pub dropped: u64,
    /// Admissions that stalled on a full queue under
    /// [`Backpressure::Stall`](crate::sched::Backpressure).
    pub stalls: u64,
    /// Total time admission spent stalled (nanoseconds).
    pub stall_time_ns: f64,
    /// Re-offered admissions under
    /// [`Backpressure::Retry`](crate::sched::Backpressure).
    pub retried_admissions: u64,
    /// Largest waiting-queue depth ever observed.
    pub max_depth: u64,
    /// Time integral of waiting-queue depth (nanoseconds × entries); divide
    /// by [`QueueTelemetry::horizon_ns`] for the time-averaged occupancy.
    pub depth_time_ns: f64,
    /// Observed horizon (nanoseconds) over which the depth integral ran.
    pub horizon_ns: f64,
    /// Waiting time from admission to start of service (nanoseconds).
    pub wait_ns: Summary,
    /// Columnar sojourn-time statistics: fixed-memory streaming quantiles by
    /// default, raw samples when the run opted into exact mode.
    #[serde(default)]
    pub sojourn: SojournStats,
    /// Scrub ticks that found the bank busy or demand waiting and yielded
    /// (background priority: demand always preempts at arbitration).
    #[serde(default)]
    pub scrub_deferred: u64,
    /// March-test dispatch attempts that found the bank busy or demand
    /// waiting and yielded (test priority: below demand, above scrub).
    #[serde(default)]
    pub march_deferred: u64,
    /// Calibration-daemon ticks that found the bank busy or higher-class
    /// work waiting and yielded (background priority, like scrub).
    #[serde(default)]
    pub calib_deferred: u64,
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
    #[must_use]
    pub fn sojourn_quantile(&self, q: f64) -> Option<f64> {
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

    /// Folds another bank's queueing counters into this one. Depth
    /// integrals and horizons add, so the merged [`Self::mean_depth`] is the
    /// per-bank average occupancy.
    pub fn merge(&mut self, other: &QueueTelemetry) {
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.dropped += other.dropped;
        self.stalls += other.stalls;
        self.stall_time_ns += other.stall_time_ns;
        self.retried_admissions += other.retried_admissions;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.depth_time_ns += other.depth_time_ns;
        self.horizon_ns += other.horizon_ns;
        self.wait_ns.merge(&other.wait_ns);
        self.sojourn.merge(&other.sojourn);
        self.scrub_deferred += other.scrub_deferred;
        self.march_deferred += other.march_deferred;
        self.calib_deferred += other.calib_deferred;
    }
}

/// Cap on per-bank error-address log entries; overflow is counted in
/// [`EccTelemetry::error_log_dropped`] so heavy fault campaigns stay
/// bounded in memory without losing the totals.
pub const ERROR_LOG_CAP: usize = 64;

/// What kind of ECC event an [`EccEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EccEvent {
    /// ECC word index within the bank.
    pub word: u32,
    /// What happened there.
    pub kind: EccEventKind,
}

/// ECC and scrub counters for one bank, filled only when the controller
/// runs with [`EccMode::Secded`](crate::reliability::EccMode) (all zero
/// otherwise, exactly like the queueing section under serial replay).
///
/// Demand-read classifications are mutually exclusive and sum to the
/// ECC-served read count: `clean_reads + corrected_ce + detected_ue +
/// silent_errors`. *Silent* means the codec reported clean-or-corrected
/// but the delivered word still disagreed with the host's truth mirror —
/// the residue (≥3-bit flips, miscorrections) that survives SECDED.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EccTelemetry {
    /// Demand reads whose word decoded clean and matched the truth mirror.
    pub clean_reads: u64,
    /// Demand reads whose single-bit error was corrected to the truth.
    pub corrected_ce: u64,
    /// Demand reads whose word decoded uncorrectable (host is warned).
    pub detected_ue: u64,
    /// Demand reads the codec passed but whose delivered word was wrong.
    pub silent_errors: u64,
    /// Words scanned by the background scrub daemon.
    pub scrub_words_scanned: u64,
    /// Scrub scans that corrected a CE.
    pub scrub_ce_corrected: u64,
    /// Scrub scans that found an uncorrectable word.
    pub scrub_ue_found: u64,
    /// Cells the scrub physically rewrote (repairs of persistent damage).
    pub scrub_cells_rewritten: u64,
    /// Completed full scrub passes over the bank.
    pub scrub_passes: u64,
    /// Bank-occupancy time spent scrubbing (senses and repair writes).
    /// Deliberately separate from [`BankTelemetry::busy_time`]: demand
    /// busy time doubles as the retention-failure clock, and folding scrub
    /// work into it would make scrubbing accelerate the decay it repairs —
    /// and give protection levels mismatched fault exposure at matched
    /// traffic.
    #[serde(default)]
    pub scrub_busy_time: Seconds,
    /// ECC words in this bank (coverage-gauge denominator; 0 = ECC off).
    pub words_total: u64,
    /// Error-address log, capped at [`ERROR_LOG_CAP`] entries per bank.
    pub error_log: Vec<EccEvent>,
    /// Events that no longer fit in the log.
    pub error_log_dropped: u64,
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
        if self.error_log.len() < ERROR_LOG_CAP {
            self.error_log.push(EccEvent {
                word: word as u32,
                kind,
            });
        } else {
            self.error_log_dropped += 1;
        }
    }

    /// Folds another bank's ECC counters into this one.
    pub fn merge(&mut self, other: &EccTelemetry) {
        self.clean_reads += other.clean_reads;
        self.corrected_ce += other.corrected_ce;
        self.detected_ue += other.detected_ue;
        self.silent_errors += other.silent_errors;
        self.scrub_words_scanned += other.scrub_words_scanned;
        self.scrub_ce_corrected += other.scrub_ce_corrected;
        self.scrub_ue_found += other.scrub_ue_found;
        self.scrub_cells_rewritten += other.scrub_cells_rewritten;
        self.scrub_passes += other.scrub_passes;
        self.scrub_busy_time += other.scrub_busy_time;
        self.words_total += other.words_total;
        let room = ERROR_LOG_CAP.saturating_sub(self.error_log.len());
        let taken = room.min(other.error_log.len());
        self.error_log.extend_from_slice(&other.error_log[..taken]);
        self.error_log_dropped += other.error_log_dropped + (other.error_log.len() - taken) as u64;
    }
}

/// One entry of a bank's March-test fail log: a read element whose
/// delivered bit disagreed with the value the algorithm expected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// March-test verdicts for one bank, filled only while a
/// [`MarchProgram`](crate::march::MarchProgram) runs against it (all zero
/// otherwise). Every verdict comes from the real sensing path —
/// [`Bank`](crate::bank) serves each March read through the configured
/// scheme (and ECC word path when enabled), so a mismatch here is a fault
/// the production read path actually delivered to the tester.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MarchTelemetry {
    /// March operations executed (reads + writes).
    pub ops: u64,
    /// March read operations executed.
    pub reads: u64,
    /// March write operations executed.
    pub writes: u64,
    /// Read elements whose delivered bit disagreed with the expectation.
    pub mismatches: u64,
    /// Distinct cells (row-major indices) with at least one mismatch — the
    /// tester's fail bitmap, deduplicated.
    pub failing_cells: std::collections::BTreeSet<u32>,
    /// Per-mismatch detail log, capped at [`ERROR_LOG_CAP`] entries.
    pub fail_log: Vec<MarchFail>,
    /// Mismatches that no longer fit in the log.
    pub fail_log_dropped: u64,
    /// Bank-occupancy time spent on March operations. Separate from
    /// [`BankTelemetry::busy_time`] for the same reason scrub time is: the
    /// demand busy clock doubles as the retention-decay clock, and test
    /// traffic must not accelerate the decay it is screening for.
    pub busy_time: Seconds,
}

impl MarchTelemetry {
    /// Records one read-verdict mismatch.
    pub fn record_mismatch(&mut self, cell: u32, element: u8, expected: bool, got: bool) {
        self.mismatches += 1;
        self.failing_cells.insert(cell);
        if self.fail_log.len() < ERROR_LOG_CAP {
            self.fail_log.push(MarchFail {
                cell,
                element,
                expected,
                got,
            });
        } else {
            self.fail_log_dropped += 1;
        }
    }

    /// Folds another bank's March verdicts into this one.
    pub fn merge(&mut self, other: &MarchTelemetry) {
        self.ops += other.ops;
        self.reads += other.reads;
        self.writes += other.writes;
        self.mismatches += other.mismatches;
        self.failing_cells
            .extend(other.failing_cells.iter().copied());
        let room = ERROR_LOG_CAP.saturating_sub(self.fail_log.len());
        let taken = room.min(other.fail_log.len());
        self.fail_log.extend_from_slice(&other.fail_log[..taken]);
        self.fail_log_dropped += other.fail_log_dropped + (other.fail_log.len() - taken) as u64;
        self.busy_time += other.busy_time;
    }
}

/// Calibration-daemon counters for one bank, filled only when a
/// [`CalibConfig`](crate::calib::CalibConfig) is active (all zero
/// otherwise). The trip → burst → refit protocol is documented in
/// [`calib`](crate::calib) and DESIGN.md §15.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CalibTelemetry {
    /// Trip-condition evaluations that crossed the threshold.
    pub trips: u64,
    /// Calibration bursts issued (one per trip that reached the bank).
    pub bursts: u64,
    /// Reference-cell senses performed across all bursts.
    pub burst_reads: u64,
    /// β refits that swapped a new operating point into the read path.
    pub refits: u64,
    /// The β the bank's sensing scheme currently runs at (0 until the
    /// first refit reports one; self-referenced schemes only).
    pub last_beta: f64,
    /// Bank-occupancy time spent on calibration bursts. Separate from
    /// [`BankTelemetry::busy_time`] for the same reason scrub and March
    /// time are: the demand busy clock doubles as the retention-decay and
    /// drift clock, and maintenance traffic must not accelerate the drift
    /// it compensates for.
    pub busy_time: Seconds,
}

impl CalibTelemetry {
    /// Folds another bank's calibration counters into this one.
    pub fn merge(&mut self, other: &CalibTelemetry) {
        self.trips += other.trips;
        self.bursts += other.bursts;
        self.burst_reads += other.burst_reads;
        self.refits += other.refits;
        if other.refits > 0 {
            self.last_beta = other.last_beta;
        }
        self.busy_time += other.busy_time;
    }
}

/// Counters for one bank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BankTelemetry {
    /// Reads served (including those aborted by a power cut).
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
    /// Extra sense attempts beyond the first, across all reads.
    pub read_retries: u64,
    /// Reads resolved by the fallback (no attempt cleared the guard band).
    pub unconfident_reads: u64,
    /// Reads whose delivered bit disagreed with the host's last write.
    pub misreads: u64,
    /// Extra programming pulses beyond the first, across all writes.
    pub write_retries: u64,
    /// Writes whose cell never switched within the pulse budget.
    pub write_failures: u64,
    /// Power cuts injected mid-read.
    pub power_cuts: u64,
    /// Cells whose stored state a power cut changed.
    pub corrupted_bits: u64,
    /// Cells flipped by retention failures (time-dependent decay between
    /// accesses, see [`FaultPlan::retention_rate_per_ns`](crate::FaultPlan)).
    #[serde(default)]
    pub retention_flips: u64,
    /// Cells flipped by read disturb (per-read victim-word flips, see
    /// [`FaultPlan::read_disturb_prob`](crate::FaultPlan)).
    #[serde(default)]
    pub read_disturb_flips: u64,
    /// Writes silently swallowed by a write transition fault (see
    /// [`TransitionFault`](crate::TransitionFault)).
    #[serde(default)]
    pub write_transition_faults: u64,
    /// Completed writes undone by a backhopping flip (see
    /// [`BackhopCell`](crate::BackhopCell)).
    #[serde(default)]
    pub backhop_flips: u64,
    /// Victim-cell overwrites triggered by intra-word coupling defects (see
    /// [`CouplingFault`](crate::CouplingFault)).
    #[serde(default)]
    pub coupling_triggers: u64,
    /// Completed-read latency in nanoseconds (retries included).
    pub read_latency_ns: Summary,
    /// Completed-read latency histogram (nanoseconds); out-of-range samples
    /// are counted in its explicit underflow/overflow buckets.
    pub read_latency_hist: Histogram,
    /// Total busy time across served transactions.
    pub busy_time: Seconds,
    /// Total energy across served transactions.
    pub energy: Joules,
    /// Queueing counters, filled by the [`sched`](crate::sched) frontend
    /// (all zero under serial replay).
    pub queue: QueueTelemetry,
    /// ECC and scrub counters, filled only under
    /// [`EccMode::Secded`](crate::reliability::EccMode) (all zero when ECC
    /// is off).
    #[serde(default)]
    pub ecc: EccTelemetry,
    /// March-test verdicts, filled only while a March program runs against
    /// this bank (all zero otherwise).
    #[serde(default)]
    pub march: MarchTelemetry,
    /// Calibration-daemon counters, filled only when a calibration config
    /// is active (all zero otherwise).
    #[serde(default)]
    pub calib: CalibTelemetry,
}

impl BankTelemetry {
    /// Fresh, all-zero telemetry, with the read-latency histogram over
    /// 0–100 ns in 2 ns bins.
    #[must_use]
    pub fn new() -> Self {
        Self {
            reads: 0,
            writes: 0,
            read_retries: 0,
            unconfident_reads: 0,
            misreads: 0,
            write_retries: 0,
            write_failures: 0,
            power_cuts: 0,
            corrupted_bits: 0,
            retention_flips: 0,
            read_disturb_flips: 0,
            write_transition_faults: 0,
            backhop_flips: 0,
            coupling_triggers: 0,
            read_latency_ns: Summary::new(),
            read_latency_hist: Histogram::new(0.0, LATENCY_HIGH_NS, LATENCY_BINS),
            busy_time: Seconds::ZERO,
            energy: Joules::ZERO,
            queue: QueueTelemetry::default(),
            ecc: EccTelemetry::default(),
            march: MarchTelemetry::default(),
            calib: CalibTelemetry::default(),
        }
    }

    /// Records one completed read's total latency.
    pub fn record_read_latency(&mut self, latency: Seconds) {
        let nanos = latency.get() * 1e9;
        self.read_latency_ns.push(nanos);
        self.read_latency_hist.push(nanos);
    }

    /// Folds another bank's counters into this one.
    pub fn merge(&mut self, other: &BankTelemetry) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_retries += other.read_retries;
        self.unconfident_reads += other.unconfident_reads;
        self.misreads += other.misreads;
        self.write_retries += other.write_retries;
        self.write_failures += other.write_failures;
        self.power_cuts += other.power_cuts;
        self.corrupted_bits += other.corrupted_bits;
        self.retention_flips += other.retention_flips;
        self.read_disturb_flips += other.read_disturb_flips;
        self.write_transition_faults += other.write_transition_faults;
        self.backhop_flips += other.backhop_flips;
        self.coupling_triggers += other.coupling_triggers;
        self.read_latency_ns.merge(&other.read_latency_ns);
        self.read_latency_hist.merge(&other.read_latency_hist);
        self.busy_time += other.busy_time;
        self.energy += other.energy;
        self.queue.merge(&other.queue);
        self.ecc.merge(&other.ecc);
        self.march.merge(&other.march);
        self.calib.merge(&other.calib);
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

impl Default for BankTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// Engine counters for one hierarchy channel, filled by the
/// [`hierarchy`](crate::hierarchy) chip engine: source activity, shared-bus
/// contention and outstanding-window behaviour that no single bank can see.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChannelTelemetry {
    /// Transactions the channel's source issued (or was offered).
    pub issued: u64,
    /// Transactions served to completion (data transferred off-chip).
    pub completed: u64,
    /// Closed-loop issue attempts gated by a full outstanding window — the
    /// backpressure signal that makes the source's rate *react* to load.
    pub source_throttled: u64,
    /// Largest number of simultaneously outstanding transactions observed.
    pub max_outstanding: u64,
    /// Total time completed transfers waited for a busy group or channel
    /// bus (nanoseconds) — the serialization cost the hierarchy exists to
    /// expose.
    pub bus_wait_ns: f64,
    /// Total time the channel's buses spent transferring (nanoseconds).
    pub bus_busy_ns: f64,
    /// Observed horizon (nanoseconds) of the channel's event loop.
    pub horizon_ns: f64,
}

impl ChannelTelemetry {
    /// Folds another channel's counters into this one.
    pub fn merge(&mut self, other: &ChannelTelemetry) {
        self.issued += other.issued;
        self.completed += other.completed;
        self.source_throttled += other.source_throttled;
        self.max_outstanding = self.max_outstanding.max(other.max_outstanding);
        self.bus_wait_ns += other.bus_wait_ns;
        self.bus_busy_ns += other.bus_busy_ns;
        self.horizon_ns += other.horizon_ns;
    }

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
/// chip roll-up the hierarchy reports.
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

/// Telemetry for a full controller run: per-bank breakdown plus the final
/// integrity audit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
        let mut banks = self.banks.iter();
        let mut total = banks.next().cloned().unwrap_or_default();
        for bank in banks {
            total.merge(bank);
        }
        total
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

    fn telemetry_with(reads: u64, misreads: u64) -> BankTelemetry {
        let mut t = BankTelemetry::new();
        t.reads = reads;
        t.misreads = misreads;
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
        assert_eq!(BankTelemetry::new().misread_rate(), 0.0);
        assert!((telemetry_with(10, 1).misread_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn queueing_scale_latencies_land_in_the_overflow_bucket() {
        // Sojourn-scale samples lie past the 100 ns ceiling: they must stay
        // visible in the overflow count, not vanish into the top bin.
        let mut telemetry = BankTelemetry::new();
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
}
