//! Wall-clock cost of the manufacturing-test subsystem: lowering a March
//! program to its flat per-cell schedule, and executing the lowered
//! schedule against a fault-laden bank array as test-class traffic through
//! the scheduler frontend — the mount the escape campaign uses.
//!
//! Lowering is the test-controller's "compile" step — it runs once per
//! campaign cell (7 classes × 3 schemes × 3 protections × 2 algorithms in
//! the default escape matrix), so its throughput bounds how fast the sweep
//! can restart, while the execute bench bounds the per-bank test time the
//! escape rows report.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, SamplingMode, Throughput};
use stt_array::Address;
use stt_ctrl::{
    Controller, ControllerConfig, FaultPlan, Frontend, FrontendConfig, MarchAlgorithm, MarchConfig,
    Trace,
};
use stt_sense::SchemeKind;

/// Cells per bank for the lowering benches — sized like a real array tile,
/// big enough that the walk order (not call overhead) dominates.
const CELLS: u32 = 65_536;

/// Lowering throughput in March operations per second, per algorithm.
fn bench_lowering(c: &mut Criterion) {
    let mut group = c.benchmark_group("march_lowering/lower");
    group.sampling_mode(SamplingMode::Flat);
    group.sample_size(10);
    for algorithm in MarchAlgorithm::ALL {
        let program = algorithm.program();
        let steps = (program.ops_per_cell() * CELLS as usize) as u64;
        group.throughput(Throughput::Elements(steps));
        group.bench_function(algorithm.name(), |b| {
            b.iter(|| std::hint::black_box(program.lower(CELLS)));
        });
    }
    group.finish();
}

/// End-to-end March run over a small fault-laden controller with no demand
/// traffic: the per-bank cost every escape-campaign cell pays, sensing path
/// included.
fn bench_execute(c: &mut Criterion) {
    let mut group = c.benchmark_group("march_lowering/run");
    group.sampling_mode(SamplingMode::Flat);
    group.sample_size(10);
    let faults = FaultPlan::none()
        .with_stuck_cell(0, Address::new(0, 3), true)
        .with_transition_fault(0, Address::new(1, 5), true)
        .with_pinhole(1, Address::new(2, 2));
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 2)
        .with_seed(2010)
        .with_faults(faults);
    let idle = Trace::new();
    for algorithm in MarchAlgorithm::ALL {
        let frontend = || {
            Frontend::new(
                Controller::new(config.clone()),
                FrontendConfig::fcfs_unbounded().with_march(MarchConfig::new(algorithm)),
            )
        };
        let ops = frontend().run(&idle).telemetry.aggregate().march.ops;
        group.throughput(Throughput::Elements(ops));
        group.bench_function(algorithm.name(), |b| {
            b.iter_batched(
                frontend,
                |mut frontend| std::hint::black_box(frontend.run(&idle)),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lowering, bench_execute);
criterion_main!(benches);
