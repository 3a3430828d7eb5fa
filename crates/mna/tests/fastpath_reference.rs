//! Bit-identity of the cached-LU fast path against the restamp reference.
//!
//! [`SolverStrategy::CachedLu`] copies a pre-stamped static base matrix and
//! reuses LU factorizations across uniform steps; the correctness claim is
//! not "close enough" but **bit-identical**: the stamping order is arranged
//! so every matrix and RHS entry is accumulated in exactly the same f64
//! operation order as a from-scratch restamp, and LU factorization of
//! identical bits is deterministic. These properties drive randomly built
//! RC/switch/MOSFET circuits through both strategies and require the full
//! waveform sets to compare equal under `TranResult`'s derived `PartialEq`
//! (exact f64 equality, no tolerance).

use proptest::prelude::*;
use proptest::test_runner::PtRng;
use stt_mna::{Circuit, MosfetParams, Node, SolverStrategy, SwitchSchedule, TranOptions, Waveform};
use stt_units::{Farads, Ohms, Seconds};

fn nanos(t: f64) -> Seconds {
    Seconds::from_nano(t)
}

/// Deterministically builds a sense-amp-shaped circuit from `seed`: a
/// sourced bit line, an RC ladder, one or two sampling switches with
/// schedules off the uniform grid, and optionally an access MOSFET (which
/// flips the engine onto the Newton path).
fn random_circuit(seed: u64, with_mosfet: bool) -> Circuit {
    let mut rng = PtRng::new(seed);
    let mut pick = |lo: f64, hi: f64| lo + (hi - lo) * rng.unit_f64();

    let mut circuit = Circuit::new();
    let bl = circuit.node("bl");
    let mid = circuit.node("mid");
    let hold_a = circuit.node("hold_a");
    let hold_b = circuit.node("hold_b");

    // Read stimulus: a PWL current ramping through a plateau, amplitudes
    // and knee times all drawn from the seed.
    let i_read = pick(20e-6, 200e-6);
    circuit.current_source(
        bl,
        Node::GROUND,
        Waveform::pwl(vec![
            (Seconds::ZERO, 0.0),
            (nanos(pick(0.2, 0.8)), i_read),
            (nanos(pick(2.0, 3.0)), i_read),
            (nanos(pick(3.2, 4.0)), 0.0),
        ]),
    );
    circuit.resistor(bl, mid, Ohms::new(pick(100.0, 5_000.0)));
    circuit.resistor(mid, Node::GROUND, Ohms::new(pick(1_000.0, 20_000.0)));
    circuit.capacitor(bl, Node::GROUND, Farads::from_femto(pick(50.0, 400.0)));
    circuit.capacitor(mid, Node::GROUND, Farads::from_femto(pick(10.0, 100.0)));

    // Sampling switches with schedules deliberately off any uniform grid,
    // so both LU-invalidation (toggle steps) and reuse (between toggles)
    // are exercised.
    let t_close = pick(0.4, 1.5);
    circuit.switch(
        mid,
        hold_a,
        Ohms::new(pick(100.0, 500.0)),
        Ohms::from_mega(pick(100.0, 2_000.0)),
        SwitchSchedule::closed_during(nanos(t_close), nanos(t_close + pick(0.5, 2.0))),
    );
    circuit.capacitor(hold_a, Node::GROUND, Farads::from_femto(pick(10.0, 50.0)));
    let t_close_b = pick(1.8, 3.0);
    circuit.switch(
        hold_a,
        hold_b,
        Ohms::new(pick(100.0, 500.0)),
        Ohms::from_mega(pick(100.0, 2_000.0)),
        SwitchSchedule::closed_during(nanos(t_close_b), nanos(t_close_b + pick(0.3, 1.0))),
    );
    circuit.capacitor(hold_b, Node::GROUND, Farads::from_femto(pick(10.0, 50.0)));

    if with_mosfet {
        // Access transistor pulling the bit line through a gate pulse:
        // forces Newton iteration at every point.
        let gate = circuit.node("gate");
        circuit.voltage_source(
            gate,
            Node::GROUND,
            Waveform::pulse(
                0.0,
                pick(0.9, 1.5),
                nanos(pick(0.1, 0.6)),
                nanos(0.05),
                nanos(0.05),
                nanos(pick(2.5, 3.5)),
            ),
        );
        circuit.mosfet(
            bl,
            gate,
            Node::GROUND,
            MosfetParams::with_on_resistance(Ohms::new(pick(500.0, 3_000.0)), 1.2, 0.4),
        );
    }

    circuit
}

fn run(
    seed: u64,
    with_mosfet: bool,
    dt: Seconds,
    t_stop: Seconds,
    from_zero: bool,
    strategy: SolverStrategy,
) -> stt_mna::TranResult {
    let circuit = random_circuit(seed, with_mosfet);
    let mut options = TranOptions::new(t_stop, dt).with_strategy(strategy);
    if from_zero {
        options = options.from_zero_state();
    }
    circuit.transient(&options).expect("transient solves")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn linear_fast_path_is_bit_identical(
        seed in 0u64..u64::MAX,
        dt_index in 0usize..3,
        from_zero in proptest::bool::ANY,
    ) {
        // Step sizes include non-divisors of t_stop so the final short
        // step (a different `h`, hence an LU invalidation) is covered.
        let dt = [nanos(0.05), nanos(0.023), nanos(0.011)][dt_index];
        let fast = run(seed, false, dt, nanos(5.0), from_zero, SolverStrategy::CachedLu);
        let reference = run(seed, false, dt, nanos(5.0), from_zero, SolverStrategy::AlwaysRestamp);
        prop_assert!(fast == reference, "waveforms diverged for seed {seed}");
    }

    #[test]
    fn newton_path_is_bit_identical(seed in 0u64..u64::MAX) {
        // MOSFET circuits take the Newton branch: the base-matrix copy must
        // still reproduce the restamp reference exactly at every iterate.
        let fast = run(seed, true, nanos(0.02), nanos(4.0), true, SolverStrategy::CachedLu);
        let reference = run(seed, true, nanos(0.02), nanos(4.0), true, SolverStrategy::AlwaysRestamp);
        prop_assert!(fast == reference, "waveforms diverged for seed {seed}");
    }
}
