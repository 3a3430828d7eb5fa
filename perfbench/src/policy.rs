//! `policy-ecc-bg`: four paper-scale nondestructive banks behind (72,64)
//! SECDED with a thermal hot spot on bank 0, uniform 50/50 traffic under
//! `ReadPriority { write_high_water: 8 }` at queue depth 16 with stalling
//! backpressure, and all three background classes mounted on the frontend:
//! scrub, raw-mode March C− and calibration.
//!
//! The only workload on the general heap loop, class arbitration, the ECC
//! word path and each daemon. With writes beside reads the write-drain path
//! fires, so a change that helps reads at the writes' expense shows in
//! `sim_p99_ns`.
//!
//! Arrivals come in bursts. Background work is served only in lane-idle
//! gaps and in strict class order (demand > March > scrub/calibration), so
//! under steady heavy load the March test would hold every gap and the
//! calibration daemon would never run while demand lasts. Short bursts just
//! above the service rate fill the queues (stalls, write drains); the quiet
//! stretches between them let March finish part-way through the run, after
//! which the daemon trips repeatedly on the hot bank.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stt_ctrl::{
    Backpressure, CalibConfig, CompletionLog, Controller, ControllerConfig, DataBackground,
    Dispatch, DriftPlan, EccMode, Footprint, Frontend, FrontendConfig, MarchAlgorithm, MarchConfig,
    Policy, SchedRun, ScrubConfig, Telemetry, ThermalTransient, Trace, TxnSource,
    Workload as Traffic,
};
use stt_sense::SchemeKind;

use crate::measure::{
    failed_over_passes, scaled_of, scaled_time, setup_and_passes, time, Ledger, Metric, Outcome,
};
use crate::replay::{sched_digest, serve_serial, sim_p99, ARRIVAL_SALT};
use crate::Scale;

/// Banks in the controller.
pub const BANKS: usize = 4;
const READ_FRACTION: f64 = 0.5;
/// Arrivals repeat a burst of `BURST_NS` at mean gap `BURST_GAP_NS` (about
/// 1.2× the banks' service rate) then quiet until `PERIOD_NS` at mean gap
/// `QUIET_GAP_NS`; gaps are exponential within each stretch.
const PERIOD_NS: f64 = 100_000.0;
const BURST_NS: f64 = 20_000.0;
const BURST_GAP_NS: f64 = 5.0;
const QUIET_GAP_NS: f64 = 80.0;
const QUEUE_DEPTH: usize = 16;
const WRITE_HIGH_WATER: usize = 8;
/// Gap between two scrub word-reads on one bank (ns).
const SCRUB_INTERVAL_NS: f64 = 1_000.0;
/// Background classes mounted on the full stack, in mounting order.
const CLASSES: usize = 3;

struct Params {
    ops: usize,
    setup_reps: usize,
    stage_reps: usize,
}

impl Params {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                ops: 200_000,
                setup_reps: 7,
                stage_reps: 7,
            },
            Scale::Probe => Self {
                ops: 20_000,
                setup_reps: 1,
                stage_reps: 1,
            },
            Scale::Smoke => Self {
                ops: 2_000,
                setup_reps: 2,
                stage_reps: 1,
            },
        }
    }
}

/// A 60 K heat pulse on bank 0's busy clock. It starts while the March test
/// still holds the idle gaps, so misreads pile up until the test finishes
/// and the calibration daemon starts refitting β.
fn hot_bank() -> DriftPlan {
    DriftPlan::quiet().with_transient(ThermalTransient {
        bank: 0,
        start_ns: 400_000.0,
        ramp_ns: 200_000.0,
        hold_ns: 120_000.0,
        fall_ns: 200_000.0,
        amplitude_k: 60.0,
    })
}

fn controller_config(seed: u64, ecc: EccMode) -> ControllerConfig {
    ControllerConfig::date2010(SchemeKind::Nondestructive, BANKS)
        .with_seed(seed)
        .with_ecc(ecc)
        .with_drift(hot_bank())
}

/// The frontend with the first `classes` background classes mounted
/// (scrub, then March, then calibration).
fn frontend_config(classes: usize) -> FrontendConfig {
    let mut config = FrontendConfig::fcfs_unbounded()
        .with_policy(Policy::ReadPriority {
            write_high_water: WRITE_HIGH_WATER,
        })
        .with_queue_depth(QUEUE_DEPTH)
        .with_backpressure(Backpressure::Stall);
    if classes >= 1 {
        config = config.with_scrub(ScrubConfig::every_ns(SCRUB_INTERVAL_NS));
    }
    if classes >= 2 {
        // Raw mode: March reads bypass the codec. Codec-mode March would make
        // test traffic most of the host time and swamp everything else.
        config = config.with_march(MarchConfig::new(MarchAlgorithm::CMinus).with_raw(true));
    }
    if classes >= 3 {
        config = config.with_calib(CalibConfig::date2010());
    }
    config
}

fn trace(config: &ControllerConfig, ops: usize, seed: u64) -> Trace {
    let untimed = Traffic::Uniform {
        read_fraction: READ_FRACTION,
    }
    .generate(config.footprint(), ops, &mut StdRng::seed_from_u64(seed));
    let mut rng = StdRng::seed_from_u64(seed ^ ARRIVAL_SALT);
    let mut now = 0.0f64;
    let timed = untimed
        .transactions()
        .iter()
        .map(|txn| {
            let gap = if now % PERIOD_NS < BURST_NS {
                BURST_GAP_NS
            } else {
                QUIET_GAP_NS
            };
            let u: f64 = rng.gen();
            now += -(1.0 - u).ln() * gap;
            txn.at(now.round() as u64)
        })
        .collect();
    Trace::from_transactions(timed)
}

/// Every demand transaction must complete exactly once, as itself, and two
/// transactions on one cell must complete in trace (admission) order.
/// Returns the number of transactions that broke either rule.
#[must_use]
pub fn check_completions<S: TxnSource + ?Sized>(
    completions: &CompletionLog,
    trace: &S,
    footprint: Footprint,
) -> u64 {
    const NONE: usize = usize::MAX;
    let n = trace.len();
    let (cells_per_bank, cols) = (footprint.rows * footprint.cols, footprint.cols);
    let mut seen = vec![0u32; n];
    let mut last = vec![NONE; footprint.cells()];
    let mut failed = 0u64;
    for c in completions {
        let Some(count) = seen.get_mut(c.trace_index) else {
            failed += 1;
            continue;
        };
        *count += 1;
        let txn = trace.get(c.trace_index);
        let cell = txn.bank * cells_per_bank + txn.addr.row * cols + txn.addr.col;
        let out_of_order = last[cell] != NONE && last[cell] > c.trace_index;
        if out_of_order || c.bank != txn.bank || c.op != txn.op {
            failed += 1;
        }
        last[cell] = c.trace_index;
    }
    failed += seen.iter().filter(|&&count| count != 1).count() as u64;
    failed.min(n as u64)
}

/// Untraced run.
#[must_use]
pub fn run(scale: Scale, seed: u64, seconds: f64) -> Outcome {
    let params = Params::at(scale);
    let config = controller_config(seed, EccMode::Secded);
    // The first pass is verified as it finishes; later passes must match its
    // digest.
    let mut first: Option<(Telemetry, u64)> = None;
    let mut digests = Vec::new();
    let setup = || {
        let trace = trace(&config, params.ops, seed);
        // Warm-up pass through the full stack.
        let controller = Controller::new(config.clone());
        black_box(Frontend::new(controller, frontend_config(CLASSES)).run(&trace));
        trace
    };
    let measured = setup_and_passes(seconds, params.setup_reps, setup, |trace| {
        let controller = Controller::new(config.clone());
        // The frontend leaves the closure with its run, so dropping it is
        // not timed.
        let ((frontend, run), secs) = time(|| {
            let mut frontend = Frontend::new(controller, frontend_config(CLASSES));
            let run = frontend.run(trace);
            (frontend, run)
        });
        drop(frontend);
        digests.push(sched_digest(&run));
        if first.is_none() {
            let failed = check_completions(&run.completions, trace, config.footprint())
                + run.telemetry.aggregate().queue.dropped;
            first = Some((run.telemetry, failed));
        }
        secs
    });
    let peak_heap_bytes = crate::alloc::peak_bytes();

    let (telemetry, first_failed) = first.expect("at least one pass");
    let aggregate = telemetry.aggregate();
    let ops = params.ops as u64;
    Outcome {
        input: format!(
            "{} demand txns over {BANKS} x 16 kb SECDED banks, uniform {:.0} % reads, \
             bursty arrivals (gap {BURST_GAP_NS} ns for {BURST_NS} of every {PERIOD_NS} ns, \
             else {QUIET_GAP_NS} ns), hot bank 0, scrub + raw March C- + calibration",
            params.ops,
            READ_FRACTION * 100.0
        ),
        ops_per_pass: ops,
        failed: failed_over_passes(&digests, first_failed, ops),
        passes: measured.passes,
        setups: measured.setups,
        peak_heap_bytes,
        sim: vec![
            sim_p99(&telemetry),
            Metric::new(
                "sim_bad_read_frac",
                (aggregate.ecc.silent_errors + aggregate.ecc.detected_ue) as f64
                    / aggregate.reads.max(1) as f64,
                "ratio",
            ),
        ],
        digest: digests[0],
    }
}

/// Serial replay without and with ECC, then the policy frontend with zero,
/// one, two and three background classes mounted.
#[must_use]
pub fn ledger(scale: Scale, seed: u64) -> Ledger {
    let params = Params::at(scale);
    let reps = params.stage_reps;
    let ops = params.ops as f64;
    let raw = controller_config(seed, EccMode::None);
    let ecc = controller_config(seed, EccMode::Secded);

    let (trace, generate_s) = scaled_time(1, || trace(&ecc, params.ops, seed));
    let (_, new_s) = scaled_time(reps, || Controller::new(ecc.clone()));
    let cells = u32::try_from(ecc.spec.capacity_bits()).expect("bank fits u32 cells");
    let cols = u32::try_from(ecc.spec.cols).expect("bank width fits u32");
    let (_, lower_s) = scaled_time(reps, || {
        MarchAlgorithm::CMinus
            .program()
            .lower_with_background(cells, cols, DataBackground::Solid)
    });

    let serial_s = serve_serial(&raw, &trace, Dispatch::Serial, reps);
    let ecc_s = serve_serial(&ecc, &trace, Dispatch::Serial, reps);
    // stages[k]: the frontend with k background classes, and its last run.
    let stages: Vec<(f64, SchedRun)> = (0..=CLASSES)
        .map(|classes| {
            let mut last = None;
            let secs = scaled_of(reps, || {
                let controller = Controller::new(ecc.clone());
                let ((frontend, run), secs) = time(|| {
                    let mut frontend = Frontend::new(controller, frontend_config(classes));
                    let run = frontend.run(&trace);
                    (frontend, run)
                });
                drop(frontend);
                last = Some(run);
                secs
            });
            (secs, last.expect("at least one stage repetition"))
        })
        .collect();
    let [(sched_s, _), (scrub_s, scrub_run), (march_s, march_run), (calib_s, full)] =
        <[_; 4]>::try_from(stages).unwrap_or_else(|_| unreachable!("CLASSES + 1 stages"));
    let scrub_words = scrub_run.telemetry.aggregate().ecc.scrub_words_scanned;
    let march_ops = march_run.telemetry.aggregate().march.ops;
    let total = full.telemetry.aggregate();
    let queue = &total.queue;
    let per = |secs: f64, count: u64| secs / count.max(1) as f64 * 1e9;

    Ledger {
        metrics: vec![
            Metric::new("workload.generate_ns_per_txn", generate_s / ops * 1e9, "ns"),
            Metric::new("engine.new_ms", new_s * 1e3, "ms"),
            Metric::new("bank.ns_per_txn", serial_s / ops * 1e9, "ns"),
            Metric::new("bank.ecc_ns_per_txn", (ecc_s - serial_s) / ops * 1e9, "ns"),
            Metric::new(
                "retry.attempts_per_read",
                1.0 + total.read_retries as f64 / total.reads.max(1) as f64,
                "ratio",
            ),
            Metric::new("sched.self_ns_per_txn", (sched_s - ecc_s) / ops * 1e9, "ns"),
            Metric::new("sched.over_serial", ecc_s / sched_s, "ratio"),
            Metric::new("sched.wait_ns_mean", queue.wait_ns.mean(), "ns"),
            Metric::new("sched.stall_ns", queue.stall_time_ns, "ns"),
            Metric::new("sched.max_depth", queue.max_depth as f64, "count"),
            Metric::new("scrub.words", total.ecc.scrub_words_scanned as f64, "count"),
            Metric::new(
                "scrub.self_ns_per_word",
                per(scrub_s - sched_s, scrub_words),
                "ns",
            ),
            Metric::new("march.lower_ms", lower_s * 1e3, "ms"),
            Metric::new("march.ops", total.march.ops as f64, "count"),
            Metric::new(
                "march.self_ns_per_op",
                per(march_s - scrub_s, march_ops),
                "ns",
            ),
            Metric::new("calib.bursts", total.calib.bursts as f64, "count"),
            Metric::new(
                "calib.self_ns_per_burst",
                per(calib_s - march_s, total.calib.bursts),
                "ns",
            ),
            Metric::new("sched.scrub_deferred", queue.scrub_deferred as f64, "count"),
            Metric::new("sched.march_deferred", queue.march_deferred as f64, "count"),
            Metric::new("sched.calib_deferred", queue.calib_deferred as f64, "count"),
            Metric::new("ecc.ce", total.ecc.corrected_ce as f64, "count"),
            Metric::new("ecc.ue", total.ecc.detected_ue as f64, "count"),
            Metric::new("ecc.silent", total.ecc.silent_errors as f64, "count"),
        ],
        self_ns_per_op: vec![
            ("bank", serial_s / ops * 1e9),
            ("ecc", (ecc_s - serial_s) / ops * 1e9),
            ("sched", (sched_s - ecc_s) / ops * 1e9),
            ("scrub", (scrub_s - sched_s) / ops * 1e9),
            ("march", (march_s - scrub_s) / ops * 1e9),
            ("calib", (calib_s - march_s) / ops * 1e9),
        ],
    }
}
