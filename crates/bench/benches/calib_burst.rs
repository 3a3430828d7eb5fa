//! Wall-clock cost of the β-recalibration daemon's working parts: the trip
//! check (paid on every daemon tick, almost always a no-op) and a full
//! tripped cycle — reference-read burst through the real sensing path plus
//! the Eq. 10 β re-optimisation and scheme swap. The tripped cycle is what
//! a bank's lane is occupied for during an excursion, so its wall-clock
//! cost is the number `calib_burst_us` in BENCH_MNA.json tracks.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, SamplingMode};
use stt_array::Address;
use stt_ctrl::{Bank, CalibConfig, ControllerConfig, DriftPlan, ThermalTransient, Transaction};
use stt_sense::SchemeKind;

/// The +60 K standing hot-spot the thermal sweep uses: static β misreads
/// every stored 1 on bank 0, so a tick after a run of hammered reads always
/// trips the daemon.
fn hot_config() -> ControllerConfig {
    ControllerConfig::small(SchemeKind::Nondestructive, 1)
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

/// Demand reads a primed bank has served since its last check.
const PRIMING_READS: usize = 64;

/// A bank one tick away from tripping: a window of reads against a
/// negative stored-1 margin, every one a misread.
fn primed_bank() -> Bank {
    let mut bank = Bank::new(0, &hot_config());
    let addr = Address::new(2, 2);
    bank.execute(&Transaction::write(0, addr, true));
    for _ in 0..PRIMING_READS {
        bank.execute(&Transaction::read(0, addr));
    }
    bank
}

fn bench_calib(c: &mut Criterion) {
    let mut group = c.benchmark_group("calib");
    group.sampling_mode(SamplingMode::Flat);
    let calib = CalibConfig::date2010();

    // The steady-state daemon tick: a window with no reads never trips, so
    // this is the pure bookkeeping cost every idle-gap check pays.
    group.bench_function("tick_no_trip", |b| {
        let mut bank = Bank::new(0, &hot_config());
        b.iter(|| std::hint::black_box(bank.calibration_tick(&calib)))
    });

    // One full tripped cycle: 32 reference reads through the sensing path,
    // the β bisection against the drifted nominal cell, the scheme swap.
    group.bench_function("burst_refit", |b| {
        b.iter_batched(
            primed_bank,
            |mut bank| {
                let tripped = bank.calibration_tick(&calib);
                assert!(tripped, "a primed window must trip");
                std::hint::black_box(bank.telemetry().calib.refits)
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_calib);
criterion_main!(benches);
