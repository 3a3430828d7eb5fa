//! `replay-fcfs`: open-loop Poisson demand at ~0.9 of the service rate over
//! four paper-scale nondestructive banks (uniform addresses, 70 % reads),
//! replayed zero-copy from an STTR [`TraceView`] through the FCFS frontend at
//! unbounded depth — the specialised fast path and the serial-replay anchor.
//!
//! Bypassed: ECC, the background classes, the hierarchy and MNA.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stt_ctrl::{
    Controller, ControllerConfig, Dispatch, Frontend, FrontendConfig, Op, SchedRun, Telemetry,
    Trace, TraceView, TxnSource, Workload as Traffic,
};
use stt_sense::SchemeKind;

use crate::measure::{
    failed_over_passes, scaled_of, scaled_time, setup_and_passes, time, Digest, Ledger, Metric,
    Outcome,
};
use crate::{nproc, Scale};

/// Banks in the controller.
pub const BANKS: usize = 4;
const READ_FRACTION: f64 = 0.7;
/// Mean host-visible service time of one transaction on a paper-scale
/// nondestructive bank (ns), which sets the Poisson arrival rate.
const SERVICE_NS: f64 = 14.0;
/// Offered load as a share of the banks' service rate.
const LOAD: f64 = 0.9;
/// Salt separating the arrival-time stream from the address stream.
pub(crate) const ARRIVAL_SALT: u64 = 0xa77e_5a17;

struct Params {
    ops: usize,
    setup_reps: usize,
    stage_reps: usize,
}

impl Params {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                ops: 100_000,
                setup_reps: 15,
                stage_reps: 9,
            },
            Scale::Probe => Self {
                ops: 40_000,
                setup_reps: 1,
                stage_reps: 3,
            },
            Scale::Smoke => Self {
                ops: 2_000,
                setup_reps: 2,
                stage_reps: 1,
            },
        }
    }
}

fn config(seed: u64, banks: usize) -> ControllerConfig {
    ControllerConfig::date2010(SchemeKind::Nondestructive, banks).with_seed(seed)
}

fn trace(config: &ControllerConfig, ops: usize, seed: u64) -> Trace {
    let gap_ns = SERVICE_NS / LOAD / config.banks as f64;
    Traffic::Uniform {
        read_fraction: READ_FRACTION,
    }
    .generate(config.footprint(), ops, &mut StdRng::seed_from_u64(seed))
    .with_poisson_arrivals(gap_ns, &mut StdRng::seed_from_u64(seed ^ ARRIVAL_SALT))
}

/// Digest of everything a frontend run simulated: telemetry (queueing,
/// audit) and the full completion log.
pub(crate) fn sched_digest(run: &SchedRun) -> u64 {
    let mut digest = Digest::default();
    digest.debug(&run.telemetry).f64(run.makespan_ns);
    for c in &run.completions {
        digest
            .u64(c.trace_index as u64)
            .u64(c.bank as u64)
            .u64(match c.op {
                Op::Read => 2,
                Op::Write(bit) => u64::from(bit),
            })
            .f64(c.arrival_ns)
            .f64(c.admit_ns)
            .f64(c.start_ns)
            .f64(c.complete_ns);
    }
    digest.finish()
}

/// p99 demand sojourn (ns) from the queueing telemetry.
pub(crate) fn sim_p99(telemetry: &Telemetry) -> Metric {
    Metric::new(
        "sim_p99_ns",
        telemetry.aggregate().queue.sojourn_p99(),
        "ns",
    )
}

/// Demand transactions per bank.
pub(crate) fn bank_ops<S: TxnSource + ?Sized>(trace: &S, banks: usize) -> Vec<u64> {
    let mut ops = vec![0u64; banks];
    for i in 0..trace.len() {
        ops[trace.get(i).bank] += 1;
    }
    ops
}

/// The serial-replay anchor: FCFS at unbounded depth must leave every bank
/// in exactly the state `Controller::run(Serial)` leaves it, with a clean
/// audit. A bank whose state differs fails all its ops; a dirty audit or a
/// lost completion fails the whole pass.
#[must_use]
pub fn check_against_serial(
    frontend_state: &[Vec<bool>],
    serial_state: &[Vec<bool>],
    audit_corrupted_bits: u64,
    completed: u64,
    bank_ops: &[u64],
) -> u64 {
    let total: u64 = bank_ops.iter().sum();
    if audit_corrupted_bits != 0 || completed != total {
        return total;
    }
    bank_ops
        .iter()
        .enumerate()
        .filter(|&(bank, _)| frontend_state.get(bank) != serial_state.get(bank))
        .map(|(_, ops)| ops)
        .sum()
}

/// What the verification needs from the first pass (its completion log is
/// dropped like every other pass's).
struct FirstPass {
    telemetry: Telemetry,
    completed: u64,
    stored: Vec<Vec<bool>>,
}

/// Untraced run.
#[must_use]
pub fn run(scale: Scale, seed: u64, seconds: f64) -> Outcome {
    let params = Params::at(scale);
    let config = config(seed, BANKS);
    let mut first: Option<FirstPass> = None;
    let mut digests = Vec::new();
    let setup = || {
        let binary = trace(&config, params.ops, seed).to_binary();
        let view = TraceView::new(&binary).expect("generated trace is valid");
        // Warm-up pass: pages in the banks, the trace and the frontend's
        // working storage before anything is timed.
        let mut frontend = Frontend::new(
            Controller::new(config.clone()),
            FrontendConfig::fcfs_unbounded(),
        );
        black_box(frontend.run(&view));
        binary
    };
    let measured = setup_and_passes(seconds, params.setup_reps, setup, |binary| {
        let view = TraceView::new(binary).expect("generated trace is valid");
        let controller = Controller::new(config.clone());
        let (frontend_run, secs) = time(|| {
            let mut frontend = Frontend::new(controller, FrontendConfig::fcfs_unbounded());
            let run = frontend.run(&view);
            (frontend, run)
        });
        let (frontend, run) = frontend_run;
        digests.push(sched_digest(&run));
        if first.is_none() {
            first = Some(FirstPass {
                stored: frontend.controller().stored_state(),
                completed: run.completions.len() as u64,
                telemetry: run.telemetry,
            });
        }
        secs
    });
    let peak_heap_bytes = crate::alloc::peak_bytes();

    let first = first.expect("at least one pass");
    let view = TraceView::new(&measured.state).expect("generated trace is valid");
    let mut reference = Controller::new(config.clone());
    let serial = reference.run(&view, Dispatch::Serial);
    let per_bank = bank_ops(&view, BANKS);
    let first_failed = check_against_serial(
        &first.stored,
        &reference.stored_state(),
        first.telemetry.audit_corrupted_bits + serial.audit_corrupted_bits,
        first.completed,
        &per_bank,
    );
    let ops = params.ops as u64;
    let aggregate = first.telemetry.aggregate();
    Outcome {
        input: format!(
            "{} txns over {BANKS} x 16 kb banks, uniform {:.0} % reads, Poisson at {LOAD} load",
            params.ops,
            READ_FRACTION * 100.0
        ),
        ops_per_pass: ops,
        failed: failed_over_passes(&digests, first_failed, ops),
        passes: measured.passes,
        setups: measured.setups,
        peak_heap_bytes,
        sim: vec![
            sim_p99(&first.telemetry),
            Metric::new(
                "sim_bad_read_frac",
                aggregate.misreads as f64 / aggregate.reads.max(1) as f64,
                "ratio",
            ),
        ],
        digest: digests[0],
    }
}

/// Serial replay, then the FCFS frontend on the same trace; plus the input
/// layers, construction, and parallel dispatch on a `nproc`-bank twin.
#[must_use]
pub fn ledger(scale: Scale, seed: u64) -> Ledger {
    let params = Params::at(scale);
    let reps = params.stage_reps;
    let ops = params.ops as f64;
    let config = config(seed, BANKS);

    let (owned, generate_s) = scaled_time(1, || trace(&config, params.ops, seed));
    let (binary, to_binary_s) = scaled_time(1, || {
        let binary = owned.to_binary();
        TraceView::new(&binary).expect("generated trace is valid");
        binary
    });
    let view = TraceView::new(&binary).expect("generated trace is valid");
    let (_, new_s) = scaled_time(reps, || Controller::new(config.clone()));

    let serial_s = serve_serial(&config, &view, Dispatch::Serial, reps);
    let mut run = None;
    let frontend_s = scaled_of(reps, || {
        let controller = Controller::new(config.clone());
        let ((frontend, out), secs) = time(|| {
            let mut frontend = Frontend::new(controller, FrontendConfig::fcfs_unbounded());
            let out = frontend.run(&view);
            (frontend, out)
        });
        drop(frontend);
        run = Some(out);
        secs
    });
    let run = run.expect("at least one stage repetition");

    // Parallel dispatch spawns one thread per bank, so compare it on a twin
    // with no more banks than cores.
    let twin = self::config(seed, BANKS.min(nproc()));
    let twin_binary = trace(&twin, params.ops, seed).to_binary();
    let twin_view = TraceView::new(&twin_binary).expect("generated trace is valid");
    let twin_serial = serve_serial(&twin, &twin_view, Dispatch::Serial, reps);
    let twin_parallel = serve_serial(&twin, &twin_view, Dispatch::Parallel, reps);

    Ledger {
        metrics: vec![
            Metric::new("workload.generate_ns_per_txn", generate_s / ops * 1e9, "ns"),
            Metric::new("txn.to_binary_ns_per_txn", to_binary_s / ops * 1e9, "ns"),
            Metric::new("engine.new_ms", new_s * 1e3, "ms"),
            Metric::new("bank.ns_per_txn", serial_s / ops * 1e9, "ns"),
            Metric::new(
                "engine.parallel_over_serial",
                twin_serial / twin_parallel,
                "ratio",
            ),
            Metric::new(
                "sched.self_ns_per_txn",
                (frontend_s - serial_s) / ops * 1e9,
                "ns",
            ),
            Metric::new("sched.over_serial", serial_s / frontend_s, "ratio"),
            Metric::new("sched.loop_allocs", run.steady_state_allocs as f64, "count"),
        ],
        self_ns_per_op: vec![
            ("bank", serial_s / ops * 1e9),
            ("sched", (frontend_s - serial_s) / ops * 1e9),
        ],
    }
}

/// Median seconds of `Controller::run` over fresh controllers.
pub(crate) fn serve_serial<S: TxnSource + ?Sized>(
    config: &ControllerConfig,
    trace: &S,
    dispatch: Dispatch,
    reps: usize,
) -> f64 {
    scaled_of(reps, || {
        let mut controller = Controller::new(config.clone());
        let (telemetry, secs) = time(|| controller.run(trace, dispatch));
        black_box(telemetry);
        secs
    })
}
