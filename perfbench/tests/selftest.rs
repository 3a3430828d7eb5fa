//! Benchmark self-tests: every workload at smoke size emits every metric
//! with its `BENCHMARK.json` unit and passes its checks; simulated results
//! repeat exactly for a seed and differ across seeds; perturbed outputs are
//! counted as failures.

use perfbench::alloc::CountingAlloc;
use perfbench::threads::ThreadWatch;
use perfbench::{traced, Outcome, Scale, Workload, PER_LAYER};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stt_bench::montecarlo::Fig5Campaign;
use stt_ctrl::{
    Backpressure, Chip, ChipConfig, ClosedLoopSource, CompletionLog, Controller, ControllerConfig,
    Dispatch, Frontend, FrontendConfig, Policy, ShardDispatch, Topology, Workload as Traffic,
};
use stt_sense::SchemeKind;
use stt_units::Seconds;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SECONDS: f64 = 0.05;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// Asserts `BENCHMARK.json` lists `name` with exactly `unit`.
fn assert_listed(json: &str, name: &str, unit: &str) {
    let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
    assert!(
        json.contains(&entry),
        "BENCHMARK.json does not list {name} in {unit}"
    );
}

fn sim_bits(outcome: &Outcome) -> Vec<(&'static str, u64)> {
    outcome
        .sim
        .iter()
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let json = benchmark_json();
    for workload in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\"", workload.name())));
        let outcome = workload.run(Scale::Smoke, 1, SECONDS);
        assert_eq!(outcome.failed, 0, "{} failed its checks", workload.name());
        assert!(outcome.attempted() > 0);
        let e2e = outcome.end_to_end();
        let names: Vec<_> = e2e.iter().map(|m| m.name).collect();
        assert_eq!(names, ["ops_per_s", "setup_s", "peak_heap_mb"]);
        for m in &e2e {
            assert_listed(&json, m.name, m.unit);
            assert!(m.value.is_finite() && m.value > 0.0, "{m:?}");
        }
        let sims: Vec<_> = outcome.sim.iter().map(|m| (m.name, m.unit)).collect();
        if workload == Workload::Fig5Mc {
            assert!(sims.is_empty());
        } else {
            assert_eq!(sims, [("sim_p99_ns", "ns"), ("sim_bad_read_frac", "ratio")]);
        }

        let traced = traced(workload, Scale::Smoke, 1, &outcome);
        let names: Vec<_> = traced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER);
        for m in &traced.metrics {
            assert_listed(&json, m.name, m.unit);
            assert!(m.value.is_finite(), "{m:?}");
        }
        assert!(!traced.own.self_ns_per_op.is_empty());
    }
}

#[test]
fn the_policy_stack_runs_every_background_class() {
    let outcome = Workload::PolicyEccBg.run(Scale::Smoke, 3, SECONDS);
    let traced = traced(Workload::PolicyEccBg, Scale::Smoke, 3, &outcome);
    let value = |name: &str| {
        traced
            .metrics
            .iter()
            .find(|m| m.name == name)
            .expect("metric present")
            .value
    };
    assert!(value("scrub.words") > 0.0);
    assert!(value("march.ops") > 0.0);
    assert!(value("calib.bursts") > 0.0);
}

#[test]
fn simulated_results_repeat_for_a_seed_and_differ_across_seeds() {
    for workload in Workload::ALL {
        let a = workload.run(Scale::Smoke, 11, SECONDS);
        let b = workload.run(Scale::Smoke, 11, SECONDS);
        let c = workload.run(Scale::Smoke, 12, SECONDS);
        assert_eq!(
            a.digest,
            b.digest,
            "{} digest not repeatable",
            workload.name()
        );
        assert_eq!(sim_bits(&a), sim_bits(&b));
        assert_ne!(a.digest, c.digest, "{} ignores its seed", workload.name());
    }
}

#[test]
fn the_thread_watch_sees_spawned_workers() {
    let watch = ThreadWatch::start();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| std::thread::sleep(std::time::Duration::from_millis(100)));
        }
    });
    // Other tests may run threads too, so the peak is at least the three
    // workers.
    assert!(watch.stop() >= 3);
}

#[test]
fn a_replay_bank_that_diverges_from_serial_fails_its_ops() {
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 2);
    let trace = Traffic::Uniform { read_fraction: 0.7 }
        .generate(config.footprint(), 300, &mut StdRng::seed_from_u64(1))
        .with_poisson_arrivals(10.0, &mut StdRng::seed_from_u64(2));
    let mut frontend = Frontend::new(
        Controller::new(config.clone()),
        FrontendConfig::fcfs_unbounded(),
    );
    let run = frontend.run(&trace);
    let mut serial = Controller::new(config);
    serial.run(&trace, Dispatch::Serial);
    let bank_ops = [
        trace.transactions().iter().filter(|t| t.bank == 0).count() as u64,
        trace.transactions().iter().filter(|t| t.bank == 1).count() as u64,
    ];
    let check = |state: &[Vec<bool>]| {
        perfbench::replay::check_against_serial(
            state,
            &serial.stored_state(),
            run.telemetry.audit_corrupted_bits,
            run.completions.len() as u64,
            &bank_ops,
        )
    };
    let mut state = frontend.controller().stored_state();
    assert_eq!(check(&state), 0);
    state[1][5] = !state[1][5];
    assert_eq!(check(&state), bank_ops[1]);
}

#[test]
fn lost_duplicated_or_reordered_completions_fail() {
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 4);
    let trace = Traffic::Zipf {
        theta: 1.1,
        read_fraction: 0.5,
    }
    .generate(config.footprint(), 400, &mut StdRng::seed_from_u64(3))
    .with_poisson_arrivals(3.0, &mut StdRng::seed_from_u64(4));
    let run = Frontend::new(
        Controller::new(config.clone()),
        FrontendConfig::fcfs_unbounded()
            .with_policy(Policy::ReadPriority {
                write_high_water: 8,
            })
            .with_queue_depth(16)
            .with_backpressure(Backpressure::Stall),
    )
    .run(&trace);
    let check =
        |log: &CompletionLog| perfbench::policy::check_completions(log, &trace, config.footprint());
    let rows: Vec<_> = run.completions.iter().collect();
    let rebuilt = |rows: &[stt_ctrl::Completion]| {
        let mut log = CompletionLog::with_capacity(rows.len());
        rows.iter().for_each(|&row| log.push(row));
        log
    };
    assert_eq!(check(&run.completions), 0);

    let mut lost = rows.clone();
    lost.pop();
    assert!(check(&rebuilt(&lost)) >= 1);

    let mut duplicated = rows.clone();
    duplicated.push(rows[0]);
    assert!(check(&rebuilt(&duplicated)) >= 1);

    // Swap the first two completions on one cell: order is broken.
    let txns = trace.transactions();
    let cell = |c: &stt_ctrl::Completion| (txns[c.trace_index].bank, txns[c.trace_index].addr);
    let (i, j) = (0..rows.len())
        .flat_map(|i| (i + 1..rows.len()).map(move |j| (i, j)))
        .find(|&(i, j)| cell(&rows[i]) == cell(&rows[j]))
        .expect("Zipf traffic repeats a cell");
    let mut reordered = rows.clone();
    reordered.swap(i, j);
    assert!(check(&rebuilt(&reordered)) >= 1);
}

#[test]
fn a_sharded_channel_that_differs_from_serial_fails_its_ops() {
    let ops_per_channel = 300;
    let source = ClosedLoopSource::read_mostly(ops_per_channel, 8);
    let config = ChipConfig::small(SchemeKind::Nondestructive, Topology::new(2, 1, 2, 2));
    let serial = Chip::new(config.clone()).run_closed_loop(&source, ShardDispatch::Serial);
    let mut sharded = Chip::new(config).run_closed_loop(&source, ShardDispatch::Sharded);
    let check = |run: &stt_ctrl::ChipRun| {
        perfbench::chip::check_against_serial(run, &serial, ops_per_channel as u64)
    };
    assert_eq!(check(&sharded), 0);
    sharded.telemetry.channels[1].bus_wait_ns += 1.0;
    assert_eq!(check(&sharded), ops_per_channel as u64);
}

#[test]
fn a_batched_trial_that_differs_from_its_sequential_run_fails_its_batch() {
    let campaign = Fig5Campaign {
        trials: 2 * perfbench::fig5::BATCH,
        batch: perfbench::fig5::BATCH,
        seed: 5,
        sigma: 0.05,
        segments: 32,
        dt: Seconds::from_pico(50.0),
    };
    let mut result = campaign.run();
    assert_eq!(perfbench::fig5::check_campaign(&campaign, &result), 0);
    result.outcomes[0].v_bo += 1e-9;
    assert_eq!(
        perfbench::fig5::check_campaign(&campaign, &result),
        perfbench::fig5::BATCH as u64
    );
}
