//! Integration tests for the `stt-ctrl` scheduler frontend.
//!
//! The properties the frontend stakes its design on:
//!
//! 1. **Anchor identity** — event-driven FCFS dispatch at unbounded queue
//!    depth reproduces [`Controller::run`] serial replay bit-for-bit: same
//!    stored state, same audit, same telemetry except the queueing section
//!    serial replay cannot measure.
//! 2. **Per-address ordering survives reordering** — whatever the policy
//!    and queue bounds, two transactions touching the same cell complete in
//!    admission order (checked as a proptest).
//! 3. **Backpressure engages under saturation** — offered load beyond the
//!    service rate must stall admission, never silently grow state.
//! 4. **The paper's system-level argument** — at the same offered load the
//!    destructive scheme's restore-inflated 25 ns read queues harder than
//!    the nondestructive scheme's 14 ns read.
//! 5. **Drift preserves the anchor** — thermal drift on the busy
//!    clock stays bit-identical across serial replay, parallel dispatch and
//!    the frontend (checked as a proptest over transient shapes).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stt_ctrl::{
    Backpressure, CalibConfig, Controller, ControllerConfig, Dispatch, DriftPlan, EccMode,
    FaultPlan, Frontend, FrontendConfig, MarchAlgorithm, MarchConfig, Policy, QueueTelemetry,
    ScrubConfig, ThermalTransient, Trace, Workload,
};
use stt_sense::SchemeKind;
use stt_stats::quantile;

fn timed_trace(config: &ControllerConfig, workload: Workload, ops: usize, gap_ns: f64) -> Trace {
    workload
        .generate(config.footprint(), ops, &mut StdRng::seed_from_u64(40))
        .with_poisson_arrivals(gap_ns, &mut StdRng::seed_from_u64(41))
}

/// Serial replay and an FCFS frontend at unbounded depth over the same
/// trace and config: stored state, audit and all non-queueing telemetry
/// must be bit-identical.
fn assert_anchor_identity(config: ControllerConfig, trace: &Trace) {
    let kind = config.kind;
    let mut serial = Controller::new(config.clone());
    let serial_telemetry = serial.run(trace, Dispatch::Serial);
    let mut frontend = Frontend::new(Controller::new(config), FrontendConfig::fcfs_unbounded());
    let run = frontend.run(trace);

    assert_eq!(
        frontend.controller().stored_state(),
        serial.stored_state(),
        "{kind}: FCFS event dispatch must store the exact bits serial replay stores"
    );
    assert_eq!(
        run.telemetry.audit_corrupted_bits, serial_telemetry.audit_corrupted_bits,
        "{kind}: audits must agree"
    );
    // Scrub the queueing section (zero under serial replay by construction):
    // every other counter, histogram and accumulator must be equal.
    let mut scrubbed = run.telemetry.clone();
    for bank in &mut scrubbed.banks {
        bank.queue = QueueTelemetry::default();
    }
    assert_eq!(
        scrubbed, serial_telemetry,
        "{kind}: frontend telemetry must only add queueing data"
    );
    assert_eq!(run.completions.len(), trace.len());
}

#[test]
fn fcfs_unbounded_is_bit_identical_to_serial_replay() {
    for kind in SchemeKind::ALL {
        let config = ControllerConfig::small(kind, 4).with_seed(314);
        let trace = timed_trace(
            &config,
            Workload::Uniform { read_fraction: 0.6 },
            2_000,
            6.0,
        );
        assert_anchor_identity(config, &trace);
    }
}

#[test]
fn fcfs_unbounded_is_bit_identical_to_serial_replay_under_faults() {
    // Power cuts follow per-bank read counters; FCFS preserves per-bank
    // execute order, so the cuts land on the same reads.
    let faults = FaultPlan::none().with_power_cut_every(40);
    for kind in [SchemeKind::Destructive, SchemeKind::Nondestructive] {
        let config = ControllerConfig::small(kind, 3)
            .with_seed(271)
            .with_faults(faults.clone());
        let trace = timed_trace(&config, Workload::ReadMostly, 1_500, 4.0);
        assert_anchor_identity(config, &trace);
    }
}

#[test]
fn fast_path_matches_the_general_event_loop_exactly() {
    // FCFS at unbounded depth with no scrub runs the specialised
    // cursor-and-slots loop; the same config plus a scrub daemon whose
    // first tick lands ~31 years into the run is forced onto the general
    // loop while remaining behaviourally inert (demand drains long
    // before the tick, which then dies without rescheduling). The two
    // runs must agree bit-for-bit: stored state, telemetry, completion
    // log, makespan.
    // The 24-bank input is wider than any benchmark loop: the fast path
    // serves every bank count.
    for (kind, banks) in [
        (SchemeKind::Destructive, 4),
        (SchemeKind::Nondestructive, 4),
        (SchemeKind::Nondestructive, 24),
    ] {
        let config = ControllerConfig::small(kind, banks)
            .with_seed(58)
            .with_ecc(EccMode::Secded);
        let trace = timed_trace(
            &config,
            Workload::Uniform { read_fraction: 0.7 },
            2_000,
            4.0,
        );

        let mut fast = Frontend::new(
            Controller::new(config.clone()),
            FrontendConfig::fcfs_unbounded(),
        );
        let fast_run = fast.run(&trace);
        let mut general = Frontend::new(
            Controller::new(config),
            FrontendConfig::fcfs_unbounded().with_scrub(ScrubConfig::every_ns(1e18)),
        );
        let general_run = general.run(&trace);

        assert_eq!(
            fast.controller().stored_state(),
            general.controller().stored_state(),
            "{kind}, {banks} banks: both loop flavours must store the same bits"
        );
        assert_eq!(
            fast_run, general_run,
            "{kind}, {banks} banks: telemetry, completions and makespan must be bit-identical"
        );
    }
}

#[test]
fn fast_path_matches_the_general_event_loop_on_ties_and_unsorted_arrivals() {
    // Two traces the monotone 4 ns one above cannot exercise. At a 0.4 ns
    // mean gap most arrivals share a nanosecond, so banks start together
    // and their completions tie, and only the events' sequence order
    // decides which pops first. Reversing the arrival stamps within
    // chunks of 7 makes the trace non-monotone, so both loops take the
    // offer-order sort.
    for kind in [SchemeKind::Destructive, SchemeKind::Nondestructive] {
        let config = ControllerConfig::small(kind, 4)
            .with_seed(59)
            .with_ecc(EccMode::Secded);
        let tied = timed_trace(
            &config,
            Workload::Uniform { read_fraction: 0.7 },
            2_000,
            0.4,
        );
        let mut shuffled = tied.transactions().to_vec();
        for chunk in shuffled.chunks_mut(7) {
            let stamps: Vec<u64> = chunk.iter().rev().map(|t| t.arrival_ns).collect();
            for (txn, stamp) in chunk.iter_mut().zip(stamps) {
                txn.arrival_ns = stamp;
            }
        }
        let unsorted = Trace::from_transactions(shuffled);
        assert!(
            unsorted
                .transactions()
                .windows(2)
                .any(|w| w[1].arrival_ns < w[0].arrival_ns),
            "the reversed trace must be non-monotone"
        );

        for (label, trace) in [("tied", &tied), ("unsorted", &unsorted)] {
            let mut fast = Frontend::new(
                Controller::new(config.clone()),
                FrontendConfig::fcfs_unbounded(),
            );
            let fast_run = fast.run(trace);
            let mut general = Frontend::new(
                Controller::new(config.clone()),
                FrontendConfig::fcfs_unbounded().with_scrub(ScrubConfig::every_ns(1e18)),
            );
            let general_run = general.run(trace);

            assert_eq!(
                fast.controller().stored_state(),
                general.controller().stored_state(),
                "{kind}, {label}: both loop flavours must store the same bits"
            );
            assert_eq!(
                fast_run, general_run,
                "{kind}, {label}: telemetry, completions and makespan must be bit-identical"
            );
        }
    }
}

#[test]
fn parallel_fast_path_matches_serial_replay_and_the_general_loop() {
    // Past 16,384 transactions the fast path serves its banks on parallel
    // workers; every other identity test stays below that cutoff. The
    // same long trace must leave serial replay, the fast path and the
    // general loop (forced by the inert scrub tick above) bit-identical,
    // for every scheme and once with power cuts landing mid-read.
    let cases = SchemeKind::ALL
        .map(|kind| (kind, FaultPlan::none()))
        .into_iter()
        .chain([(
            SchemeKind::Destructive,
            FaultPlan::none().with_power_cut_every(40),
        )]);
    for (kind, faults) in cases {
        let config = ControllerConfig::small(kind, 4)
            .with_seed(60)
            .with_ecc(EccMode::Secded)
            .with_faults(faults);
        let trace = timed_trace(
            &config,
            Workload::Uniform { read_fraction: 0.7 },
            20_000,
            4.0,
        );
        assert_anchor_identity(config.clone(), &trace);

        let mut fast = Frontend::new(
            Controller::new(config.clone()),
            FrontendConfig::fcfs_unbounded(),
        );
        let fast_run = fast.run(&trace);
        let mut general = Frontend::new(
            Controller::new(config),
            FrontendConfig::fcfs_unbounded().with_scrub(ScrubConfig::every_ns(1e18)),
        );
        let general_run = general.run(&trace);
        assert_eq!(
            fast.controller().stored_state(),
            general.controller().stored_state(),
            "{kind}: both loop flavours must store the same bits"
        );
        assert_eq!(
            fast_run, general_run,
            "{kind}: telemetry, completions and makespan must be bit-identical"
        );
    }
}

#[test]
fn drift_holds_the_anchor_identity() {
    // A standing hot-spot on bank 0: drift rebuilds run inside each bank on
    // its busy clock, so serial replay, parallel dispatch and the frontend
    // must all see the identical sequence.
    let plan = DriftPlan::quiet().with_transient(ThermalTransient {
        bank: 0,
        start_ns: 0.0,
        ramp_ns: 0.0,
        hold_ns: 1e12,
        fall_ns: 0.0,
        amplitude_k: 60.0,
    });
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 2)
        .with_seed(77)
        .with_drift(plan);
    let trace = timed_trace(&config, Workload::ReadMostly, 1_200, 6.0);
    let parallel = Controller::new(config.clone()).run(&trace, Dispatch::Parallel);
    let serial = Controller::new(config.clone()).run(&trace, Dispatch::Serial);
    assert_eq!(serial, parallel, "drift must not break bank isolation");
    assert!(
        parallel.banks[0].misreads > parallel.banks[1].misreads,
        "the hot-spot must actually degrade bank 0's reads"
    );
    assert_anchor_identity(config, &trace);
}

#[test]
fn untimed_traces_run_through_the_frontend_too() {
    // Arrival 0 everywhere: the whole trace is offered at t=0 and drains
    // through the queues — still identical to serial replay under FCFS.
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 3).with_seed(99);
    let trace = Workload::Zipf {
        theta: 0.9,
        read_fraction: 0.8,
    }
    .generate(config.footprint(), 1_000, &mut StdRng::seed_from_u64(4));
    assert!(!trace.is_timed());
    assert_anchor_identity(config, &trace);
}

#[test]
fn stall_backpressure_engages_beyond_the_service_rate() {
    // ~14 ns nondestructive reads offered every ~2 ns per bank: offered
    // load is ~7x the service rate, so admission must stall and achieved
    // throughput must cap out below the offered rate.
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 2).with_seed(7);
    let trace = timed_trace(&config, Workload::ReadMostly, 2_000, 1.0);
    let offered_ops_per_second = 1e9 / 1.0;
    let mut frontend = Frontend::new(
        Controller::new(config),
        FrontendConfig::fcfs_unbounded()
            .with_queue_depth(8)
            .with_backpressure(Backpressure::Stall),
    );
    let run = frontend.run(&trace);
    let queue = run.telemetry.aggregate().queue;
    assert_eq!(queue.completed, 2_000, "stalling loses nothing");
    assert!(queue.stalls > 100, "saturation must stall admission");
    assert!(queue.stall_time_ns > 0.0);
    assert!(queue.max_depth <= 8);
    assert!(
        run.ops_per_second() < 0.5 * offered_ops_per_second,
        "achieved rate {} must cap out well below offered {}",
        run.ops_per_second(),
        offered_ops_per_second
    );
}

#[test]
fn destructive_reads_queue_harder_than_nondestructive_at_the_same_load() {
    // The paper's Table III argument, queue-shaped: at an offered load the
    // 14 ns nondestructive read absorbs (~0.9 utilization per bank), the
    // destructive scheme's restore-inflated 25 ns read saturates, and tail
    // sojourn explodes.
    let mut p99 = std::collections::HashMap::new();
    for kind in [SchemeKind::Nondestructive, SchemeKind::Destructive] {
        let config = ControllerConfig::small(kind, 2).with_seed(2010);
        let trace = timed_trace(&config, Workload::ReadMostly, 2_000, 8.0);
        let mut frontend = Frontend::new(Controller::new(config), FrontendConfig::fcfs_unbounded());
        let run = frontend.run(&trace);
        // A true order-statistic tail from the completion log, not the
        // telemetry's streaming estimate.
        let sojourn: Vec<f64> = run.completions.iter().map(|c| c.sojourn_ns()).collect();
        p99.insert(kind, quantile(&sojourn, 0.99));
    }
    assert!(
        p99[&SchemeKind::Destructive] > 2.0 * p99[&SchemeKind::Nondestructive],
        "destructive p99 sojourn {} must exceed nondestructive {}",
        p99[&SchemeKind::Destructive],
        p99[&SchemeKind::Nondestructive]
    );
}

/// FNV-1a over a byte string: a small, dependency-free fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins the interleaving of all three background classes against demand
/// under both policies, with admission stalling on full queues.
///
/// A SECDED controller with a standing hot-spot on bank 0 runs each policy
/// at depth 4 with scrub, raw March C− and the frontend calibration daemon
/// mounted together. Bursts of 48 transactions 3 ns apart overload the
/// queues, so admission stalls; the quiet gaps between bursts are where
/// test, scrub and calibration work runs.
/// The fingerprint covers the whole [`SchedRun`](stt_ctrl::SchedRun) —
/// telemetry, completion log, makespan — plus the final stored bits. It
/// moves only with an intended change to simulated results; a refactor of
/// the scheduler must leave every value below untouched.
#[test]
fn cross_class_interleaving_is_pinned_under_every_backpressure_mode() {
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 2)
        .with_seed(1313)
        .with_ecc(EccMode::Secded)
        .with_drift(DriftPlan::quiet().with_transient(ThermalTransient {
            bank: 0,
            start_ns: 0.0,
            ramp_ns: 0.0,
            hold_ns: 1e12,
            fall_ns: 0.0,
            amplitude_k: 60.0,
        }));
    let trace = Trace::from_transactions(
        Workload::Uniform { read_fraction: 0.5 }
            .generate(config.footprint(), 960, &mut StdRng::seed_from_u64(42))
            .transactions()
            .iter()
            .enumerate()
            .map(|(i, txn)| txn.at((i / 48) as u64 * 4_000 + (i % 48) as u64 * 3))
            .collect(),
    );
    let read_priority = Policy::ReadPriority {
        write_high_water: 4,
    };
    let pins = [
        (Policy::Fcfs, Backpressure::Stall, 0x3c3b_0a15_c830_dce0),
        (read_priority, Backpressure::Stall, 0x4d35_b8e8_12c7_3407),
    ];
    for (policy, backpressure, expected) in pins {
        let mut frontend = Frontend::new(
            Controller::new(config.clone()),
            FrontendConfig::fcfs_unbounded()
                .with_policy(policy)
                .with_queue_depth(4)
                .with_backpressure(backpressure)
                .with_scrub(ScrubConfig::every_ns(150.0))
                .with_march(MarchConfig::new(MarchAlgorithm::CMinus).with_raw(true))
                .with_calib(CalibConfig::date2010()),
        );
        let run = frontend.run(&trace);
        let aggregate = run.telemetry.aggregate();
        let queue = &aggregate.queue;
        assert!(
            queue.stalls > 0,
            "{policy:?} under {backpressure:?}: the bursts must overload the queues"
        );
        assert!(
            aggregate.ecc.scrub_words_scanned > 0
                && aggregate.march.ops > 0
                && aggregate.calib.bursts > 0,
            "{policy:?} under {backpressure:?}: every background class must run"
        );
        let fingerprint =
            fnv1a(format!("{run:?}{:?}", frontend.controller().stored_state()).as_bytes());
        assert_eq!(
            fingerprint, expected,
            "{policy:?} under {backpressure:?}: simulated results moved (got {fingerprint:#018x})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the policy, queue bound and load, two transactions touching
    /// the same cell complete in admission order — reads observe the writes
    /// admitted before them, writes land in order.
    #[test]
    fn per_address_ordering_survives_any_policy(
        ops in 1usize..150,
        gap_ns in 1.0f64..30.0,
        queue_depth in 2usize..8,
        write_high_water in 1usize..6,
        policy_pick in 0usize..2,
        read_fraction in 0.1f64..0.9,
        seed in 0u64..1_000,
    ) {
        let policy = match policy_pick {
            0 => Policy::Fcfs,
            _ => Policy::ReadPriority { write_high_water },
        };
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 2).with_seed(seed);
        // Zipf traffic concentrates on a hot set, so same-address pairs are
        // common even in short traces.
        let trace = Workload::Zipf { theta: 1.1, read_fraction }
            .generate(config.footprint(), ops, &mut StdRng::seed_from_u64(seed))
            .with_poisson_arrivals(gap_ns, &mut StdRng::seed_from_u64(seed ^ 0xdead));
        let mut frontend = Frontend::new(
            Controller::new(config),
            FrontendConfig::fcfs_unbounded()
                .with_policy(policy)
                .with_queue_depth(queue_depth)
                .with_backpressure(Backpressure::Stall),
        );
        let run = frontend.run(&trace);
        // Stalling loses nothing: everything offered completes.
        prop_assert_eq!(run.completions.len(), ops);

        // Per (bank, address) cell: completion order == trace (admission)
        // order. Arrivals are monotone and stalls block the stream, so
        // admission order IS trace order.
        let txns = trace.transactions();
        let mut last_seen = std::collections::HashMap::new();
        for completion in &run.completions {
            let txn = &txns[completion.trace_index];
            let key = (txn.bank, txn.addr);
            if let Some(previous) = last_seen.insert(key, completion.trace_index) {
                prop_assert!(
                    previous < completion.trace_index,
                    "cell {key:?}: trace[{previous}] completed after trace[{}]",
                    completion.trace_index
                );
            }
        }
    }

    /// Any transient shape (including ramps and cool-downs mid-trace) stays
    /// bit-identical across serial replay, parallel dispatch and the
    /// event-driven frontend.
    #[test]
    fn drift_is_bit_identical_across_dispatch(
        ops in 1usize..120,
        gap_ns in 1.0f64..30.0,
        amplitude_k in 0.0f64..90.0,
        hold_ns in 50.0f64..2_000.0,
        seed in 0u64..1_000,
    ) {
        let plan = DriftPlan::quiet().with_transient(ThermalTransient {
            bank: 0,
            start_ns: 0.0,
            ramp_ns: 100.0,
            hold_ns,
            fall_ns: 200.0,
            amplitude_k,
        });
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 2)
            .with_seed(seed)
            .with_drift(plan);
        let trace = Workload::ReadMostly
            .generate(config.footprint(), ops, &mut StdRng::seed_from_u64(seed))
            .with_poisson_arrivals(gap_ns, &mut StdRng::seed_from_u64(seed ^ 0xbeef));
        let serial = Controller::new(config.clone()).run(&trace, Dispatch::Serial);
        let parallel = Controller::new(config.clone()).run(&trace, Dispatch::Parallel);
        prop_assert_eq!(&serial, &parallel);

        let mut frontend = Frontend::new(Controller::new(config), FrontendConfig::fcfs_unbounded());
        let run = frontend.run(&trace);
        let mut scrubbed = run.telemetry.clone();
        for bank in &mut scrubbed.banks {
            bank.queue = QueueTelemetry::default();
        }
        prop_assert_eq!(scrubbed, serial);
    }
}
