//! `trafficsim` — sweep the stt-ctrl engine over scheme × bank count ×
//! workload and write the telemetry to `results/traffic.csv`.
//!
//! Every sweep point is served twice — serially and on parallel bank
//! workers — and the two telemetry sets are asserted **equal** before the
//! row is recorded, so the CSV doubles as a determinism proof for the
//! engine's parallel dispatch.
//!
//! With `--load-sweep` the binary instead drives the event-driven scheduler
//! frontend over offered load × scheme: Poisson arrivals at a fraction of
//! the nondestructive read-service rate, reporting achieved throughput,
//! sojourn-time quantiles and queue occupancy per point to
//! `results/load_sweep.csv`. At matched offered load, the destructive
//! scheme's restore-inflated read (25 ns vs 14 ns) must show the worse p99
//! sojourn — the paper's Table III argument, queue-shaped — and the sweep
//! asserts it.
//!
//! With `--reliability-sweep` the binary runs the fault-injection campaign
//! (see [`stt_ctrl::reliability`]): fault intensity × protection level
//! (no ECC / SECDED / SECDED+scrub) × sensing scheme, every cell replaying
//! the same seeded trace, reporting per-cell corrected/uncorrectable/silent
//! counts and the host-visible hazard rate to
//! `results/reliability_sweep.csv`. For full-size runs the sweep asserts
//! graceful degradation: at every intensity rung, adding ECC+scrub never
//! worsens — and summed over the ladder strictly improves — the hazard.
//!
//! With `--topology-sweep` the binary drives the full-chip hierarchy
//! (see [`stt_ctrl::hierarchy`]): a closed-loop, window-limited source per
//! channel over a channels × ranks × bank groups × banks geometry
//! (`--geometry CxRxGxB`, default `2x1x2x2`). Every point runs twice —
//! serially and with one worker thread per channel — and the telemetry and
//! stored state are asserted bit-identical before the row is recorded. Per
//! scheme, the window sweep traces out the throughput/latency curve and
//! reports its **knee**: the first window whose p99 sojourn exceeds 5× the
//! unloaded (window = 1) p99. Results go to `results/topology_sweep.csv`.
//!
//! With `--march-sweep` the binary runs the manufacturing-test escape
//! campaign (see [`stt_ctrl::march`]): fault class × sensing scheme ×
//! protection level × March algorithm, every cell marching the planted
//! banks through the scheduler frontend as test-class traffic and scoring
//! detection against the planted victim set. The textbook coverage
//! guarantees (March C– catches every deterministic single-cell fault at
//! 10n; CFds escapes C– and is caught by March SS) are asserted inside the
//! campaign itself. Results go to `results/march_sweep.csv`.
//!
//! With `--thermal-sweep` the binary runs the drift/recalibration
//! campaign (see [`stt_ctrl::faults`] and [`stt_ctrl::calib`]): three arms
//! over a two-bank nondestructive controller — ambient baseline, a standing
//! +60 K hot-spot on bank 0 with the design-time (static) β, and the same
//! hot-spot with the frontend's per-bank recalibration daemon mounted.
//! Every arm serves one Poisson-timed trace through the scheduler frontend
//! at FCFS unbounded; the two daemon-free arms are asserted bit-identical
//! to parallel dispatch. Per-bank rows (misreads, retry exhaustion,
//! calibration trips/bursts/refits, the live β) go to
//! `results/thermal_sweep.csv`. For full-size runs the sweep asserts the
//! robustness headline: the hot-spot degrades the static-β misread rate by
//! ≥ 10×, and the daemon pulls it back within 2× of the ambient baseline
//! (trip-latency floor aside).
//!
//! Run `trafficsim --help` for the full mode/flag table.

use std::io::Write as _;
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stt_ctrl::{
    run_campaign, run_escape_campaign, CalibConfig, CampaignConfig, ChannelTelemetry, Chip,
    ChipConfig, ClosedLoopSource, Controller, ControllerConfig, Dispatch, DriftPlan, Frontend,
    FrontendConfig, InterleavePolicy, MarchCampaignConfig, Policy, Protection, QueueTelemetry,
    ShardDispatch, ThermalTransient, Topology, Trace, Workload,
};
use stt_sense::SchemeKind;
use stt_stats::{quantile, Table};

/// Banks swept per scheme/workload.
const BANK_COUNTS: [usize; 3] = [1, 4, 8];
/// Default transactions per sweep point; 3 schemes × 3 bank counts ×
/// 3 workloads × 4000 = 108 000 transactions per full sweep.
const DEFAULT_OPS: usize = 4_000;
/// Master seed for bank sampling and traffic generation.
const SEED: u64 = 2010;
/// Offered loads for `--load-sweep`, as a fraction of one bank's
/// nondestructive read-service rate.
const LOADS: [f64; 4] = [0.25, 0.5, 0.8, 1.2];
/// The nondestructive read-service time the loads are normalised against.
const NOMINAL_READ_NS: f64 = 14.0;
/// Banks driven by the load sweep.
const LOAD_SWEEP_BANKS: usize = 4;
/// Outstanding-request windows swept by `--topology-sweep`; the geometric
/// ladder brackets the knee of the throughput/latency curve.
const WINDOWS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// A window is past the knee once its p99 sojourn exceeds this multiple of
/// the unloaded (window = 1) p99.
const KNEE_FACTOR: f64 = 5.0;
/// Banks driven by `--thermal-sweep`: bank 0 carries the hot-spot, bank 1
/// is the ambient control.
const THERMAL_BANKS: usize = 2;
/// Hot-spot amplitude for `--thermal-sweep`. +60 K flattens the high-state
/// roll-off enough that the static-β stored-1 margin goes decisively
/// negative while a refit β still re-equalises both margins well above
/// zero (see the bank-level calibration tests).
const THERMAL_AMPLITUDE_K: f64 = 60.0;
/// Mean Poisson inter-arrival gap (ns) of the `--thermal-sweep` trace.
/// The calibration daemon only runs in lane-idle gaps, so the hot bank
/// must idle between reads: at 20 ns and 40 ns the gates hold, while at
/// 10 ns bank 0 never idles, every check defers, and the calibrated arm
/// equals hot-static.
const THERMAL_GAP_NS: f64 = 20.0;
/// Daemon periods of trip latency the `--thermal-sweep` gate grants the
/// calibrated arm before it must hold the baseline misread rate.
const THERMAL_TRIP_INTERVALS: f64 = 4.0;

fn scheme_label(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::Conventional => "conventional",
        SchemeKind::Destructive => "destructive",
        SchemeKind::Nondestructive => "nondestructive",
    }
}

fn sweep(ops_per_config: usize) -> Table {
    let mut table = Table::default();
    let mut total_transactions = 0u64;
    for kind in SchemeKind::ALL {
        for workload in Workload::ALL {
            for banks in BANK_COUNTS {
                let config = ControllerConfig::date2010(kind, banks).with_seed(SEED);
                let trace = workload.generate(
                    config.footprint(),
                    ops_per_config,
                    &mut StdRng::seed_from_u64(SEED ^ banks as u64),
                );
                let serial = Controller::new(config.clone()).run(&trace, Dispatch::Serial);
                let parallel = Controller::new(config).run(&trace, Dispatch::Parallel);
                assert_eq!(
                    serial,
                    parallel,
                    "{kind}/{}/{banks}: parallel dispatch diverged from serial",
                    workload.name()
                );
                total_transactions += parallel.transactions();
                let totals = parallel.aggregate();
                let (ecc, latency) = (&totals.ecc, &totals.read_latency_ns);
                let audit = parallel.audit_corrupted_bits;
                let overflow = totals.read_latency_hist.overflow();
                table.push_named_row([
                    ("scheme", scheme_label(kind).to_string()),
                    ("workload", workload.name().to_string()),
                    ("banks", banks.to_string()),
                    ("transactions", parallel.transactions().to_string()),
                    ("reads", totals.reads.to_string()),
                    ("writes", totals.writes.to_string()),
                    ("read_retries", totals.read_retries.to_string()),
                    ("unconfident_reads", totals.unconfident_reads.to_string()),
                    ("misreads", totals.misreads.to_string()),
                    ("misread_rate", format!("{:.6}", totals.misread_rate())),
                    ("write_retries", totals.write_retries.to_string()),
                    ("write_failures", totals.write_failures.to_string()),
                    ("audit_corrupted_bits", audit.to_string()),
                    ("ecc_ce", ecc.corrected_ce.to_string()),
                    ("ecc_ue", ecc.detected_ue.to_string()),
                    ("ecc_silent", ecc.silent_errors.to_string()),
                    ("scrub_coverage", format!("{:.3}", ecc.scrub_coverage())),
                    ("mean_read_ns", format!("{:.2}", latency.mean())),
                    ("max_read_ns", format!("{:.2}", latency.max())),
                    ("read_hist_overflow", overflow.to_string()),
                    ("busy_us", format!("{:.3}", totals.busy_time.get() * 1e6)),
                    ("energy_nj", format!("{:.3}", totals.energy.get() * 1e9)),
                ]);
                println!(
                    "{:<15} {:<12} {banks} bank(s): {} txns, {} misreads, \
                     mean read {:.1} ns  [serial == parallel ✓]",
                    scheme_label(kind),
                    workload.name(),
                    parallel.transactions(),
                    totals.misreads,
                    latency.mean()
                );
            }
        }
    }
    println!("\nswept {total_transactions} transactions total");
    // The default sweep is the acceptance gate; a deliberately small
    // `--ops` run (quick smoke) is exempt from the floor.
    if ops_per_config >= DEFAULT_OPS {
        assert!(
            total_transactions >= 100_000,
            "sweep must cover at least 100k transactions, got {total_transactions}"
        );
    }
    table
}

/// Drives the scheduler frontend over offered load × scheme and records
/// achieved throughput, sojourn quantiles and queue occupancy per point.
///
/// Arrivals are Poisson with a mean gap of `NOMINAL_READ_NS / load` per
/// bank, so `load` reads directly as per-bank utilization *if* reads took
/// the nondestructive scheme's 14 ns. The destructive scheme serves the
/// same offered stream with 25 ns reads — at high load it saturates first
/// and its tail sojourn must be the worst of the three, which the sweep
/// asserts (for full-size runs).
fn load_sweep(ops_per_config: usize) -> Table {
    let mut table = Table::default();
    let policy = Policy::Fcfs;
    let mut p99_at = std::collections::HashMap::new();
    for kind in SchemeKind::ALL {
        for load in LOADS {
            let gap_ns = NOMINAL_READ_NS / load / LOAD_SWEEP_BANKS as f64;
            let config = ControllerConfig::date2010(kind, LOAD_SWEEP_BANKS).with_seed(SEED);
            let trace = Workload::ReadMostly
                .generate(
                    config.footprint(),
                    ops_per_config,
                    &mut StdRng::seed_from_u64(SEED ^ load.to_bits()),
                )
                .with_poisson_arrivals(gap_ns, &mut StdRng::seed_from_u64(SEED + 77));
            let mut frontend = Frontend::new(
                Controller::new(config),
                FrontendConfig::fcfs_unbounded().with_policy(policy),
            );
            let run = frontend.run(&trace);
            let totals = run.telemetry.aggregate();
            let queue = &totals.queue;
            assert_eq!(queue.completed, ops_per_config as u64);
            // The sweep asserts on tail quantiles, so it takes exact order
            // statistics from the completion log, not the streaming
            // estimates in the telemetry.
            let sojourn: Vec<f64> = run.completions.iter().map(|c| c.sojourn_ns()).collect();
            let (mops, p99) = (run.ops_per_second() * 1e-6, quantile(&sojourn, 0.99));
            let overflow = totals.read_latency_hist.overflow();
            p99_at.insert((kind, load.to_bits()), p99);
            println!(
                "{:<15} load {load:.2}: {} txns, achieved {mops:.1} Mops, p99 sojourn {p99:.0} ns",
                scheme_label(kind),
                run.completions.len(),
            );
            table.push_named_row([
                ("scheme", scheme_label(kind).to_string()),
                ("policy", policy.name().to_string()),
                ("banks", LOAD_SWEEP_BANKS.to_string()),
                ("load", format!("{load:.2}")),
                ("offered_gap_ns", format!("{gap_ns:.3}")),
                ("transactions", ops_per_config.to_string()),
                ("completed", queue.completed.to_string()),
                ("stalls", queue.stalls.to_string()),
                ("achieved_mops", format!("{mops:.3}")),
                ("sojourn_p50_ns", format!("{:.1}", quantile(&sojourn, 0.50))),
                ("sojourn_p95_ns", format!("{:.1}", quantile(&sojourn, 0.95))),
                ("sojourn_p99_ns", format!("{p99:.1}")),
                ("mean_wait_ns", format!("{:.1}", queue.wait_ns.mean())),
                ("mean_depth", format!("{:.3}", queue.mean_depth())),
                ("max_depth", queue.max_depth.to_string()),
                ("read_hist_overflow", overflow.to_string()),
            ]);
        }
    }
    // The paper's system-level claim, asserted: once offered load bites
    // (≥ 0.8 of nondestructive capacity), the destructive scheme's tail
    // sojourn is strictly worse. Quick smoke runs are too short for stable
    // tails and are exempt, matching the main sweep's gate.
    if ops_per_config >= 1_000 {
        for load in LOADS.iter().filter(|&&l| l >= 0.8) {
            let destructive = p99_at[&(SchemeKind::Destructive, load.to_bits())];
            let nondestructive = p99_at[&(SchemeKind::Nondestructive, load.to_bits())];
            assert!(
                destructive > nondestructive,
                "load {load}: destructive p99 {destructive} ns must exceed \
                 nondestructive {nondestructive} ns"
            );
        }
        println!("\ndestructive p99 sojourn > nondestructive at matched load ✓");
    }
    table
}

/// Runs the fault-injection campaign and records one row per sweep cell.
///
/// For full-size runs (default `--ops`), asserts the graceful-degradation
/// property the reliability subsystem exists to provide: per scheme, at
/// every intensity rung ECC+scrub's hazard is no worse than the unprotected
/// hazard, and summed over the ladder it is strictly better.
///
/// The assertion covers the destructive and nondestructive schemes only.
/// Conventional sensing carries a deterministic floor of variation-induced
/// bad cells (~0.25 % of the array misreads every time); across a 64-cell
/// ECC word that density puts multiple bad cells in the same word often
/// enough that SECDED's single-error budget cannot beat the raw single-cell
/// baseline — an honest finding the CSV reports rather than a regression.
fn reliability_sweep(ops_per_config: usize) -> Table {
    let mut table = Table::default();
    let config = CampaignConfig::date2010().with_ops(ops_per_config);
    let rows = run_campaign(&config);
    let hazard_of = |scheme: SchemeKind, intensity: &str, protection: Protection| {
        rows.iter()
            .find(|r| r.scheme == scheme && r.intensity == intensity && r.protection == protection)
            .map(|r| r.hazard_rate)
            .expect("campaign covers every sweep cell")
    };
    for row in &rows {
        println!(
            "{:<15} {:<8} {:<10} {} reads: {} misreads, {} CE, {} UE, {} silent, \
             hazard {:.6}, scrub {:.2} passes",
            scheme_label(row.scheme),
            row.intensity,
            row.protection.name(),
            row.reads,
            row.misreads,
            row.corrected_ce,
            row.detected_ue,
            row.silent_errors,
            row.hazard_rate,
            row.scrub_coverage,
        );
        table.push_named_row([
            ("scheme", scheme_label(row.scheme).to_string()),
            ("intensity", row.intensity.clone()),
            ("protection", row.protection.name().to_string()),
            ("reads", row.reads.to_string()),
            ("misreads", row.misreads.to_string()),
            ("corrected_ce", row.corrected_ce.to_string()),
            ("detected_ue", row.detected_ue.to_string()),
            ("silent_errors", row.silent_errors.to_string()),
            ("hazard_rate", format!("{:.6}", row.hazard_rate)),
            ("scrub_coverage", format!("{:.3}", row.scrub_coverage)),
            (
                "scrub_cells_rewritten",
                row.scrub_cells_rewritten.to_string(),
            ),
            ("audit_corrupted_bits", row.audit_corrupted_bits.to_string()),
        ]);
    }
    if ops_per_config >= DEFAULT_OPS {
        let asserted = [SchemeKind::Destructive, SchemeKind::Nondestructive];
        for &scheme in config.schemes.iter().filter(|s| asserted.contains(s)) {
            let mut unprotected_total = 0.0;
            let mut scrubbed_total = 0.0;
            for intensity in &config.intensities {
                let unprotected = hazard_of(scheme, &intensity.label, Protection::None);
                let scrubbed = hazard_of(scheme, &intensity.label, Protection::EccScrub);
                assert!(
                    scrubbed <= unprotected,
                    "{scheme}/{}: ECC+scrub hazard {scrubbed} must not exceed \
                     unprotected {unprotected}",
                    intensity.label
                );
                unprotected_total += unprotected;
                scrubbed_total += scrubbed;
            }
            assert!(
                scrubbed_total < unprotected_total,
                "{scheme}: ECC+scrub must strictly reduce the summed hazard \
                 ({scrubbed_total} vs {unprotected_total})"
            );
        }
        println!(
            "\nECC+scrub hazard ≤ unprotected at every rung, < summed over the ladder \
             (destructive + nondestructive) ✓"
        );
    }
    table
}

/// Sweeps the full-chip hierarchy over scheme × outstanding-request window
/// under a closed-loop source, locating the knee of each scheme's
/// throughput/latency curve.
///
/// Every point runs twice — channels served serially and one worker thread
/// per channel — and both the telemetry and the stored state are asserted
/// bit-identical before the row is recorded, so the CSV doubles as the
/// sharded-dispatch determinism proof. A sparse Zipf replay over a 256-bank
/// chip then demonstrates lazy materialisation: only touched banks allocate.
fn topology_sweep(ops_per_channel: usize, topology: Topology) -> Table {
    let mut table = Table::default();
    for kind in SchemeKind::ALL {
        let mut unloaded_p99 = None;
        let mut knee = None;
        for window in WINDOWS {
            // A 2 ns think gap keeps the source hotter than the channel bus
            // (~6 ns per transfer), so the outstanding window — not the
            // source's own pacing — is what limits load. Sweeping the
            // window then traces the closed-loop throughput/latency curve
            // from unloaded to saturated, which is where the knee lives.
            let source =
                ClosedLoopSource::read_mostly(ops_per_channel, window).with_mean_think_ns(2.0);
            let config = ChipConfig::date2010(kind, topology);
            let mut serial = Chip::new(config.clone());
            let mut sharded = Chip::new(config);
            let run = serial.run_closed_loop(&source, ShardDispatch::Serial);
            let sharded_run = sharded.run_closed_loop(&source, ShardDispatch::Sharded);
            assert_eq!(
                run, sharded_run,
                "{kind}/window {window}: sharded dispatch diverged from serial"
            );
            assert_eq!(
                serial.stored_state(),
                sharded.stored_state(),
                "{kind}/window {window}: sharded stored state diverged from serial"
            );
            let totals = run.telemetry.aggregate();
            let p99 = totals.queue.sojourn_p99();
            let base = *unloaded_p99.get_or_insert(p99);
            if knee.is_none() && window > 1 && p99 > KNEE_FACTOR * base {
                knee = Some((window, run.ops_per_second(), p99));
            }
            let mut channels = ChannelTelemetry::default();
            for channel in &run.telemetry.channels {
                channels.merge(channel);
            }
            let throttled = channels.source_throttled;
            let (mops, p50) = (run.ops_per_second() * 1e-6, totals.queue.sojourn_p50());
            let bus_wait = channels.mean_bus_wait_ns();
            println!(
                "{:<15} window {window:>2}: {mops:.1} Mops, p50 {p50:.0} ns, p99 {p99:.0} ns, \
                 throttled {throttled}  [serial == sharded ✓]",
                scheme_label(kind),
            );
            table.push_named_row([
                ("scheme", scheme_label(kind).to_string()),
                ("geometry", topology.to_string()),
                ("window", window.to_string()),
                ("issued", channels.issued.to_string()),
                ("completed", run.completed.to_string()),
                ("achieved_mops", format!("{mops:.3}")),
                ("sojourn_p50_ns", format!("{p50:.1}")),
                ("sojourn_p99_ns", format!("{p99:.1}")),
                ("mean_bus_wait_ns", format!("{bus_wait:.2}")),
                ("source_throttled", throttled.to_string()),
                ("max_outstanding", channels.max_outstanding.to_string()),
                ("resident_banks", run.telemetry.resident_banks().to_string()),
            ]);
        }
        match knee {
            Some((window, ops_per_second, p99)) => println!(
                "{:<15} knee at window {window}: {:.1} Mops, p99 sojourn {p99:.0} ns \
                 (> {KNEE_FACTOR}× unloaded {:.0} ns)\n",
                scheme_label(kind),
                ops_per_second * 1e-6,
                unloaded_p99.unwrap_or(0.0),
            ),
            None => {
                // Short smoke runs have too few samples for stable tails;
                // full-size sweeps must find the knee inside the ladder.
                assert!(
                    ops_per_channel < 1_000,
                    "{kind}: no knee found — p99 never exceeded {KNEE_FACTOR}× unloaded \
                     across windows {WINDOWS:?}"
                );
                println!(
                    "{:<15} no knee inside the window ladder (smoke run)\n",
                    scheme_label(kind)
                );
            }
        }
    }

    // Lazy materialisation on a sparse footprint: a 256-bank chip replaying
    // a hot-set trace must allocate only the banks the trace touches.
    let sparse_topology = Topology::new(4, 2, 4, 8);
    let config = ChipConfig::date2010(SchemeKind::Nondestructive, sparse_topology);
    let geometry = config.geometry();
    let trace = Workload::Zipf {
        theta: 1.2,
        read_fraction: 0.9,
    }
    .generate_physical(
        &geometry,
        InterleavePolicy::BankXor,
        ops_per_channel.min(2_000),
        &mut StdRng::seed_from_u64(SEED),
    );
    let touched: std::collections::HashSet<usize> =
        trace.transactions().iter().map(|t| t.bank).collect();
    let mut chip = Chip::new(config);
    let run = chip.run_trace(&trace, ShardDispatch::Sharded);
    assert_eq!(run.completed as usize, trace.len());
    assert_eq!(
        chip.resident_banks(),
        touched.len(),
        "a lazy chip materialises exactly the touched banks"
    );
    println!(
        "sparse Zipf replay: {} of {} banks resident ({} touched) — lazy materialisation ✓",
        chip.resident_banks(),
        sparse_topology.total_banks(),
        touched.len(),
    );
    table
}

/// Runs the thermal-drift/recalibration campaign: ambient baseline, then a
/// standing hot-spot on bank 0 served with a static β, then the same
/// hot-spot with the frontend's calibration daemon watching each bank's
/// misread/retry-exhaustion telemetry.
///
/// Every arm serves the same Poisson-timed trace through the scheduler
/// frontend at FCFS unbounded. The two daemon-free arms ride the fast path,
/// and their telemetry (queue section aside) is asserted equal to parallel
/// dispatch, so drift application stays covered by the determinism proof.
/// For full-size runs the two robustness gates are asserted: static β must
/// degrade ≥ 10× against baseline, the calibrated arm must stay within 2×
/// of baseline (or the trip-latency floor — the daemon only observes an
/// excursion at its next check in an idle gap).
fn thermal_sweep(ops_per_config: usize) -> Table {
    let mut table = Table::default();
    let kind = SchemeKind::Nondestructive;
    let hot = DriftPlan::quiet().with_transient(ThermalTransient {
        bank: 0,
        start_ns: 0.0,
        ramp_ns: 0.0,
        hold_ns: 1e12,
        fall_ns: 0.0,
        amplitude_k: THERMAL_AMPLITUDE_K,
    });
    let trace = Workload::ReadMostly
        .generate(
            ControllerConfig::date2010(kind, THERMAL_BANKS).footprint(),
            ops_per_config,
            &mut StdRng::seed_from_u64(SEED ^ 0x7e41),
        )
        .with_poisson_arrivals(THERMAL_GAP_NS, &mut StdRng::seed_from_u64(SEED ^ 0x7e42));
    let calib = CalibConfig::date2010();
    let arms: [(&str, DriftPlan, Option<CalibConfig>); 3] = [
        ("baseline", DriftPlan::quiet(), None),
        ("hot-static", hot.clone(), None),
        ("hot-calibrated", hot, Some(calib)),
    ];
    // Bank-0 misread rate per arm, for the gates.
    let mut rate_of = std::collections::HashMap::new();
    let mut reads_of = std::collections::HashMap::new();
    let mut calibrated_telemetry = None;
    for (arm, plan, calib) in arms {
        let config = ControllerConfig::date2010(kind, THERMAL_BANKS)
            .with_seed(SEED)
            .with_drift(plan);
        let mut frontend_config = FrontendConfig::fcfs_unbounded();
        if let Some(calib) = calib {
            frontend_config = frontend_config.with_calib(calib);
        }
        let mut telemetry = Frontend::new(Controller::new(config.clone()), frontend_config)
            .run(&trace)
            .telemetry;
        let checked = if calib.is_none() {
            let parallel = Controller::new(config).run(&trace, Dispatch::Parallel);
            for bank in &mut telemetry.banks {
                bank.queue = QueueTelemetry::default();
            }
            assert_eq!(
                telemetry, parallel,
                "{arm}: the frontend diverged from parallel dispatch under drift"
            );
            "  [frontend == parallel ✓]"
        } else {
            ""
        };
        for (bank, telemetry) in telemetry.banks.iter().enumerate() {
            let rate = telemetry.misread_rate();
            if bank == 0 {
                rate_of.insert(arm, rate);
                reads_of.insert(arm, telemetry.reads);
            }
            let daemon = &telemetry.calib;
            let daemon_us = daemon.busy_time.get() * 1e6;
            println!(
                "{arm:<16} bank {bank}: {:>5} reads, {:>5} misreads (rate {:.4}), \
                 {:>5} retry-exhausted, {} trips / {} refits, beta {:.4}{checked}",
                telemetry.reads,
                telemetry.misreads,
                rate,
                telemetry.unconfident_reads,
                daemon.trips,
                daemon.refits,
                daemon.last_beta,
            );
            table.push_named_row([
                ("arm", arm.to_string()),
                ("bank", bank.to_string()),
                ("reads", telemetry.reads.to_string()),
                ("writes", telemetry.writes.to_string()),
                ("misreads", telemetry.misreads.to_string()),
                ("misread_rate", format!("{rate:.6}")),
                ("unconfident_reads", telemetry.unconfident_reads.to_string()),
                ("read_retries", telemetry.read_retries.to_string()),
                ("calib_trips", daemon.trips.to_string()),
                ("calib_bursts", daemon.bursts.to_string()),
                ("calib_burst_reads", daemon.burst_reads.to_string()),
                ("calib_refits", daemon.refits.to_string()),
                ("calib_last_beta", format!("{:.4}", daemon.last_beta)),
                ("calib_busy_us", format!("{daemon_us:.3}")),
                ("busy_us", format!("{:.3}", telemetry.busy_time.get() * 1e6)),
            ]);
        }
        if calib.is_some() {
            calibrated_telemetry = Some(telemetry.banks[0].calib.clone());
        }
    }
    // Short smoke runs see too few reads for stable rates (and may not even
    // reach one daemon period); the gates arm at the default sweep size.
    if ops_per_config >= DEFAULT_OPS {
        let baseline = rate_of["baseline"];
        let statics = rate_of["hot-static"];
        let calibrated = rate_of["hot-calibrated"];
        let reads = reads_of["hot-calibrated"].max(1) as f64;
        // A zero-misread baseline would make any degradation "infinite";
        // floor it at one misread over the observed reads.
        let baseline_floor = baseline.max(1.0 / reads);
        assert!(
            statics >= 10.0 * baseline_floor,
            "hot-spot must degrade the static-beta misread rate >= 10x \
             (baseline {baseline:.6}, static {statics:.6})"
        );
        // The daemon cannot see an excursion before its next check, so
        // grant it a few daemon periods of bank-0 traffic as trip latency.
        let per_interval = calib.interval_ns / (THERMAL_GAP_NS * THERMAL_BANKS as f64);
        let trip_floor = THERMAL_TRIP_INTERVALS * per_interval / reads;
        assert!(
            calibrated <= (2.0 * baseline).max(trip_floor),
            "recalibration must hold the misread rate within 2x of baseline \
             (baseline {baseline:.6}, calibrated {calibrated:.6}, floor {trip_floor:.6})"
        );
        let calib = calibrated_telemetry.expect("calibrated arm ran");
        assert!(calib.trips >= 1, "the excursion must trip the daemon");
        assert_eq!(calib.refits, calib.bursts);
        assert!(
            calib.last_beta > 1.9 && calib.last_beta < 2.3,
            "refit beta near the paper's operating point, got {}",
            calib.last_beta
        );
        println!(
            "\nstatic beta degraded {:.0}x, daemon held {:.1}x of baseline \
             (floor {trip_floor:.4}) ✓",
            statics / baseline_floor,
            calibrated / baseline_floor,
        );
    }
    table
}

/// Runs the manufacturing-test escape campaign and records one row per
/// fault class × scheme × protection × March algorithm cell.
///
/// The textbook coverage guarantees are asserted inside
/// `run_escape_campaign` itself, so every run of this sweep doubles as an
/// acceptance gate: March C– detects 100% of deterministic single-cell
/// faults on a variation-clean scheme, CFds escapes C– and is caught by
/// March SS's non-transition writes, and ECC legitimately masks
/// single-cell defects from the tester. Smoke runs (`--ops` below the
/// default) trim the sweep to the nondestructive scheme so the check
/// script stays fast; the guarantees still hold on the trimmed matrix.
fn march_sweep(ops_per_config: usize) -> Table {
    let mut config = MarchCampaignConfig::date2010().with_raw_modes(vec![false, true]);
    if ops_per_config < DEFAULT_OPS {
        config = config.with_schemes(vec![SchemeKind::Nondestructive]);
    }
    let mut table = Table::default();
    let rows = run_escape_campaign(&config);
    for row in &rows {
        println!(
            "{:<18} {:<15} {:<10} {:<9} {:<8} planted {:>2}, detected {:>2} ({:>5.1}%), \
             {:>5} ops ({:>4.1}/bit), {:.0} ns",
            row.class.name(),
            scheme_label(row.scheme),
            row.protection.name(),
            row.algorithm.name(),
            if row.raw { "raw" } else { "decoded" },
            row.planted,
            row.detected,
            row.detection_rate * 100.0,
            row.march_ops,
            row.ops_per_bit,
            row.test_time_ns,
        );
        table.push_named_row([
            ("class", row.class.name().to_string()),
            ("scheme", scheme_label(row.scheme).to_string()),
            ("protection", row.protection.name().to_string()),
            ("algorithm", row.algorithm.name().to_string()),
            ("raw", row.raw.to_string()),
            ("background", row.background.name().to_string()),
            ("planted", row.planted.to_string()),
            ("detected", row.detected.to_string()),
            ("detection_rate", format!("{:.4}", row.detection_rate)),
            ("escape_rate", format!("{:.4}", row.escape_rate)),
            ("mismatches", row.mismatches.to_string()),
            ("march_ops", row.march_ops.to_string()),
            ("ops_per_bit", format!("{:.1}", row.ops_per_bit)),
            ("test_time_ns", format!("{:.1}", row.test_time_ns)),
        ]);
    }
    println!(
        "\n{} sweep cells; textbook coverage guarantees held \
         (March C– = 10n catches every deterministic single-cell fault, \
         CFds needs March SS, raw reads recover what ECC masks) ✓",
        rows.len()
    );
    table
}

/// `--convert IN OUT`: translate a trace between the CSV and binary
/// on-disk formats, direction chosen by the *input* extension — `.csv`
/// parses CSV and writes binary, anything else parses binary and writes
/// CSV. Both formats round-trip losslessly (asserted by the integration
/// proptests), so converting is safe to do in either direction repeatedly.
/// Returns the number of transactions converted, or a message naming the
/// file that could not be read, parsed or written.
fn convert(input: &str, output: &str) -> Result<usize, String> {
    let from_csv = input.ends_with(".csv");
    let read_error = |error: std::io::Error| format!("read {input}: {error}");
    let trace = if from_csv {
        let text = std::fs::read_to_string(input).map_err(read_error)?;
        Trace::from_csv(&text).map_err(|error| format!("parse {input}: {error}"))?
    } else {
        let bytes = std::fs::read(input).map_err(read_error)?;
        Trace::from_binary(&bytes).map_err(|error| format!("parse {input}: {error}"))?
    };
    let bytes = if from_csv {
        trace.to_binary()
    } else {
        trace.to_csv().into_bytes()
    };
    std::fs::write(output, bytes).map_err(|error| format!("write {output}: {error}"))?;
    Ok(trace.len())
}

/// Prints `error` and the usage line to stderr, then exits with status 2.
fn exit_with_usage(error: &str) -> ! {
    eprintln!("{error}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// One-line synopsis printed alongside parse errors.
const USAGE: &str = "usage: trafficsim [--ops N] [--csv DIR] [--geometry CxRxGxB] \
                     [--load-sweep | --reliability-sweep | --topology-sweep | --march-sweep | \
                     --thermal-sweep] [--convert IN OUT] [--help]";

/// The `--help` table. The flag-parse test cross-checks this text against
/// the parser: every `--flag` documented here must be accepted.
const HELP: &str = "\
trafficsim — sweep the STT-RAM controller engine and write CSV telemetry

modes (pick one; the default is the scheme × banks × workload traffic sweep):
  (default)            serial-vs-parallel traffic sweep          results/traffic.csv
  --load-sweep         offered load × scheme queueing sweep      results/load_sweep.csv
  --reliability-sweep  fault intensity × protection campaign     results/reliability_sweep.csv
  --topology-sweep     full-chip closed-loop window sweep        results/topology_sweep.csv
  --march-sweep        fault class × scheme × protection ×       results/march_sweep.csv
                       March-algorithm escape campaign
  --thermal-sweep      thermal drift / β-recalibration campaign  results/thermal_sweep.csv
  --convert IN OUT     translate a trace between CSV and binary  (no sweep)
  --help               print this table

flags:
  --ops N              transactions per sweep point (default 4000); small N
                       runs are smoke-sized: acceptance asserts are skipped
                       and --march-sweep trims to the nondestructive scheme
  --csv DIR            output directory for the CSV (default results/)
  --geometry CxRxGxB   chip topology for --topology-sweep (default 2x1x2x2)";

/// Which sweep (or utility) a parsed command line selects.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Mode {
    Traffic,
    Load,
    Reliability,
    Topology,
    March,
    Thermal,
    Convert { input: String, output: String },
    Help,
}

/// A fully parsed command line; pulled out of `main` so the flag grammar
/// is unit-testable without spawning the binary.
#[derive(Debug, Clone)]
struct Cli {
    ops: usize,
    csv_dir: String,
    topology: Topology,
    mode: Mode,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        ops: DEFAULT_OPS,
        csv_dir: String::from("results"),
        topology: Topology::date2010(),
        mode: Mode::Traffic,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--ops" => {
                cli.ops = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| String::from("--ops needs a positive integer"))?;
            }
            "--csv" => {
                cli.csv_dir = iter
                    .next()
                    .ok_or_else(|| String::from("--csv needs a directory"))?
                    .clone();
            }
            "--geometry" => {
                let text = iter
                    .next()
                    .ok_or_else(|| String::from("--geometry needs a CxRxGxB value"))?;
                cli.topology = text
                    .parse()
                    .map_err(|error| format!("bad --geometry {text:?}: {error}"))?;
            }
            "--convert" => {
                let input = iter
                    .next()
                    .ok_or_else(|| String::from("--convert needs IN and OUT paths"))?
                    .clone();
                let output = iter
                    .next()
                    .ok_or_else(|| String::from("--convert needs IN and OUT paths"))?
                    .clone();
                cli.mode = Mode::Convert { input, output };
            }
            "--load-sweep" => cli.mode = Mode::Load,
            "--reliability-sweep" => cli.mode = Mode::Reliability,
            "--topology-sweep" => cli.mode = Mode::Topology,
            "--march-sweep" => cli.mode = Mode::March,
            "--thermal-sweep" => cli.mode = Mode::Thermal,
            "--help" | "-h" => cli.mode = Mode::Help,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|error| exit_with_usage(&error));
    if let Err(error) = run(cli) {
        eprintln!("{error}");
        std::process::exit(1);
    }
}

/// Runs the selected mode. A sweep creates the CSV directory before it
/// starts, so an unusable `--csv` fails at once, not after the sweep.
fn run(cli: Cli) -> Result<(), String> {
    let Cli {
        ops,
        csv_dir,
        topology,
        mode,
    } = cli;
    if !matches!(mode, Mode::Help | Mode::Convert { .. }) {
        std::fs::create_dir_all(&csv_dir)
            .map_err(|error| format!("create csv directory {csv_dir}: {error}"))?;
    }

    let (table, file_name) = match mode {
        Mode::Help => {
            println!("{HELP}");
            return Ok(());
        }
        Mode::Convert { input, output } => {
            match convert(&input, &output) {
                Ok(count) => println!("converted {input} -> {output} ({count} transactions)"),
                Err(error) => exit_with_usage(&error),
            }
            return Ok(());
        }
        Mode::Topology => {
            println!(
                "trafficsim: topology sweep, {} schemes × {:?} windows over {topology} \
                 ({} banks), {ops} transactions per channel\n",
                SchemeKind::ALL.len(),
                WINDOWS,
                topology.total_banks(),
            );
            (topology_sweep(ops, topology), "topology_sweep.csv")
        }
        Mode::Reliability => {
            println!(
                "trafficsim: reliability campaign, {} schemes × {} intensity rungs × \
                 {} protection levels, {ops} transactions each\n",
                SchemeKind::ALL.len(),
                CampaignConfig::date2010().intensities.len(),
                Protection::ALL.len(),
            );
            (reliability_sweep(ops), "reliability_sweep.csv")
        }
        Mode::Load => {
            println!(
                "trafficsim: load sweep, {} schemes × {:?} offered loads, \
                 {LOAD_SWEEP_BANKS} banks, {ops} transactions each\n",
                SchemeKind::ALL.len(),
                LOADS,
            );
            (load_sweep(ops), "load_sweep.csv")
        }
        Mode::March => {
            println!(
                "trafficsim: March escape campaign, {} fault classes × schemes × \
                 {} protection levels × {} algorithms\n",
                stt_ctrl::FaultClass::ALL.len(),
                Protection::ALL.len(),
                stt_ctrl::MarchAlgorithm::ALL.len(),
            );
            (march_sweep(ops), "march_sweep.csv")
        }
        Mode::Thermal => {
            println!(
                "trafficsim: thermal campaign, 3 arms × {THERMAL_BANKS} banks \
                 (+{THERMAL_AMPLITUDE_K} K hot-spot on bank 0), {ops} transactions per arm\n",
            );
            (thermal_sweep(ops), "thermal_sweep.csv")
        }
        Mode::Traffic => {
            println!(
                "trafficsim: {} schemes × {:?} banks × {} workloads, {ops} transactions each\n",
                SchemeKind::ALL.len(),
                BANK_COUNTS,
                Workload::ALL.len()
            );
            (sweep(ops), "traffic.csv")
        }
    };

    let path = Path::new(&csv_dir).join(file_name);
    std::fs::File::create(&path)
        .and_then(|mut file| {
            table.write_csv(&mut file)?;
            file.flush()
        })
        .map_err(|error| format!("write {}: {error}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&owned)
    }

    /// Every `--flag` the help table documents must be accepted by the
    /// parser — the text and the grammar cannot drift apart.
    #[test]
    fn every_documented_flag_parses() {
        let mut flags_seen = 0;
        for token in HELP.split_whitespace().filter(|t| t.starts_with("--")) {
            let args: Vec<&str> = match token {
                "--ops" => vec!["--ops", "100"],
                "--csv" => vec!["--csv", "out"],
                "--geometry" => vec!["--geometry", "2x1x2x2"],
                "--convert" => vec!["--convert", "in.csv", "out.bin"],
                flag => vec![flag],
            };
            assert!(
                parse(&args).is_ok(),
                "documented flag {token} must parse: {:?}",
                parse(&args)
            );
            flags_seen += 1;
        }
        assert!(
            flags_seen >= 8,
            "help table lists all flags, got {flags_seen}"
        );
    }

    #[test]
    fn defaults_modes_and_values_round_trip() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.mode, Mode::Traffic);
        assert_eq!(cli.ops, DEFAULT_OPS);
        assert_eq!(cli.csv_dir, "results");

        let cli = parse(&["--march-sweep", "--ops", "64", "--csv", "tmp"]).unwrap();
        assert_eq!(cli.mode, Mode::March);
        assert_eq!(cli.ops, 64);
        assert_eq!(cli.csv_dir, "tmp");

        assert_eq!(parse(&["--load-sweep"]).unwrap().mode, Mode::Load);
        assert_eq!(
            parse(&["--reliability-sweep"]).unwrap().mode,
            Mode::Reliability
        );
        assert_eq!(parse(&["--topology-sweep"]).unwrap().mode, Mode::Topology);
        assert_eq!(parse(&["--thermal-sweep"]).unwrap().mode, Mode::Thermal);
        assert_eq!(parse(&["--help"]).unwrap().mode, Mode::Help);
        assert_eq!(
            parse(&["--geometry", "4x2x4x8"]).unwrap().topology,
            Topology::new(4, 2, 4, 8)
        );
        assert_eq!(
            parse(&["--convert", "a.csv", "b.bin"]).unwrap().mode,
            Mode::Convert {
                input: String::from("a.csv"),
                output: String::from("b.bin"),
            }
        );
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        assert!(parse(&["--ops"]).is_err());
        assert!(parse(&["--ops", "zero"]).is_err());
        assert!(parse(&["--ops", "0"]).is_err());
        assert!(parse(&["--csv"]).is_err());
        assert!(parse(&["--geometry", "not-a-geometry"]).is_err());
        assert!(parse(&["--geometry", "4294967296x4294967296x2x1"]).is_err());
        assert!(parse(&["--convert", "only-one-path"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn convert_reports_bad_inputs_instead_of_panicking() {
        let dir = std::env::temp_dir().join(format!("trafficsim-convert-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let output = path("out.bin");

        let error = convert(&path("missing.csv"), &output).unwrap_err();
        assert!(error.starts_with("read "), "{error}");

        for (name, text) in [
            ("malformed.csv", "0,1,2,X,9\n"),
            ("wide.csv", "4294967296,1,2,R,\n"),
        ] {
            std::fs::write(path(name), text).unwrap();
            let error = convert(&path(name), &output).unwrap_err();
            assert!(error.starts_with("parse "), "{error}");
        }
        std::fs::write(path("garbage.bin"), b"not a trace").unwrap();
        let error = convert(&path("garbage.bin"), &path("out.csv")).unwrap_err();
        assert!(error.starts_with("parse "), "{error}");

        std::fs::write(path("good.csv"), "0,1,2,W,1\n3,4,5,R,\n").unwrap();
        assert_eq!(convert(&path("good.csv"), &output), Ok(2));
        assert_eq!(convert(&output, &path("back.csv")), Ok(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_uncreatable_csv_directory_is_an_error_not_a_panic() {
        let root = std::env::temp_dir().join(format!("trafficsim-csv-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let file = root.join("regular-file");
        std::fs::write(&file, "not a directory").unwrap();
        let csv_dir = file.join("csv");
        let cli = Cli {
            ops: 10,
            csv_dir: csv_dir.display().to_string(),
            topology: Topology::date2010(),
            mode: Mode::Load,
        };
        let error = run(cli).unwrap_err();
        assert!(error.starts_with("create csv directory "), "{error}");
        assert!(!csv_dir.exists());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
