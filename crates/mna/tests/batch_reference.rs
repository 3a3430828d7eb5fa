//! Bit-accuracy of the batched multi-RHS transient.
//!
//! `transient_batch` must be a pure performance transform: for every batch
//! member the recorded waveform is **bit-identical** (exact `f64` equality,
//! not a tolerance) to a sequential [`Circuit::transient`] of the same
//! circuit with that member's current-source overrides applied in place.
//! The property holds for both solver strategies (the cached-LU fast path
//! and the `AlwaysRestamp` reference), both start policies, both matrix
//! backends and both banded orderings, because the per-member
//! floating-point op sequence is the same in either path. The batch must
//! also do the same work: the sequential run's factorizations once, its
//! solves once per member.
//!
//! A batch whose lanes of one source are all PWLs on bit-equal knot times
//! locates each step on those knots once for every lane; mixed lanes
//! (other knot times, DC, pulses) evaluate their own waveforms. Both paths
//! are held to the same bit-identity, on steps that land exactly on a knot
//! and steps outside the knot range. The drive's lanes take every mix; the
//! supply rail, which no member overrides, is drawn as a DC level or a PWL,
//! so a voltage branch row runs the shared-knot path too.

use proptest::prelude::*;
use proptest::test_runner::{PtRng, TestCaseError};
use stt_mna::{
    BatchMember, Circuit, CurrentSourceId, Node, SolverBackend, SolverStrategy, SwitchSchedule,
    TranOptions, TranTelemetry, Waveform,
};
use stt_units::{Farads, Ohms, Seconds};

/// The batch widths the properties draw from: a single lane, a width that
/// is no multiple of a SIMD lane count, the campaign width, and one past it.
const WIDTHS: [usize; 4] = [1, 7, 64, 65];

fn nanos(t: f64) -> Seconds {
    Seconds::from_nano(t)
}

/// The batch override target of a random circuit: the driver's id and its
/// base waveform (kept here because `Circuit` has no waveform getter —
/// members derive their overrides from it).
struct Targets {
    driver: CurrentSourceId,
    base_drive: Waveform,
}

/// How the random circuit declares its nodes, which decides the ordering
/// the banded backend keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Layout {
    /// Nodes in line order: the netlist order is at least as narrow as
    /// the RCM order.
    Natural,
    /// Nodes declared in a random order: the RCM order is narrower.
    Scrambled,
}

/// A random linear read circuit: a pulsed current driver into a short
/// bit-line ladder, and a switched hold capacitor (so the cached-LU key
/// changes mid-run) biased from a supply rail through a VCVS buffer and a
/// resistor (so both kinds of branch row are in the system). The rail is
/// drawn as a DC level or as a PWL, which every batch lane shares. The
/// ladder carries one floating capacitor across two of its segments and
/// one grounded capacitor declared ground-first. Returns the circuit, its
/// probe nodes, and the override target.
///
/// In the natural layout the netlist order has bandwidth 2, and the
/// floating capacitor closes a triangle, so no ordering is narrower.
fn random_circuit(seed: u64, layout: Layout) -> (Circuit, Vec<Node>, Targets) {
    let mut rng = PtRng::new(seed);
    let mut pick = |lo: f64, hi: f64| lo + (hi - lo) * rng.unit_f64();
    let segments = 4 + (pick(0.0, 6.0) as usize);

    // Declaration order: bl, the ladder, hold, amp, rail. Scrambled
    // layouts permute it (Fisher–Yates over the same draws).
    let mut names: Vec<String> = std::iter::once("bl".to_string())
        .chain((0..segments).map(|segment| format!("seg_{segment}")))
        .chain(["hold", "amp", "rail"].map(String::from))
        .collect();
    if layout == Layout::Scrambled {
        for i in (1..names.len()).rev() {
            let j = (pick(0.0, (i + 1) as f64) as usize).min(i);
            names.swap(i, j);
        }
    }
    let mut circuit = Circuit::new();
    for name in &names {
        circuit.node(name);
    }
    let node = |name: &str| circuit.find_node(name).expect("declared above");
    let (bl, hold, amp, rail) = (node("bl"), node("hold"), node("amp"), node("rail"));
    let ladder: Vec<Node> = (0..segments)
        .map(|segment| node(&format!("seg_{segment}")))
        .collect();

    let base_drive = Waveform::pulse(
        0.0,
        pick(20e-6, 120e-6),
        nanos(pick(0.2, 0.6)),
        nanos(0.1),
        nanos(0.1),
        nanos(pick(1.5, 2.5)),
    );
    let supply = if pick(0.0, 1.0) < 0.5 {
        Waveform::Dc(pick(0.8, 1.2))
    } else {
        Waveform::pwl(vec![
            (Seconds::ZERO, pick(0.8, 1.2)),
            (nanos(pick(0.5, 1.5)), pick(0.8, 1.2)),
            (nanos(pick(2.0, 3.0)), pick(0.8, 1.2)),
            (nanos(3.5), pick(0.8, 1.2)),
        ])
    };
    let driver = circuit.current_source(bl, Node::GROUND, base_drive.clone());

    let mut previous = bl;
    for (segment, &next) in ladder.iter().enumerate() {
        circuit.resistor(previous, next, Ohms::new(pick(20.0, 120.0)));
        let farads = Farads::from_femto(pick(2.0, 20.0));
        if segment == 1 {
            circuit.capacitor(Node::GROUND, next, farads);
        } else {
            circuit.capacitor(next, Node::GROUND, farads);
        }
        previous = next;
    }
    circuit.capacitor(ladder[0], ladder[2], Farads::from_femto(pick(1.0, 5.0)));
    circuit.resistor(previous, Node::GROUND, Ohms::new(pick(2_000.0, 5_000.0)));

    let t_close = pick(0.9, 1.7);
    circuit.switch(
        previous,
        hold,
        Ohms::new(pick(100.0, 500.0)),
        Ohms::from_mega(pick(100.0, 2_000.0)),
        SwitchSchedule::closed_during(nanos(t_close), nanos(t_close + pick(0.5, 1.2))),
    );
    circuit.capacitor(hold, Node::GROUND, Farads::from_femto(pick(10.0, 50.0)));
    // Branch rows follow the nodes: the VCVS's first, then the supply's.
    circuit.vcvs(amp, Node::GROUND, rail, Node::GROUND, pick(0.2, 0.8));
    circuit.resistor(amp, hold, Ohms::from_mega(pick(1.0, 20.0)));
    circuit.voltage_source(rail, Node::GROUND, supply);

    let targets = Targets { driver, base_drive };
    (circuit, vec![bl, previous, hold, amp], targets)
}

/// One property case: the circuit, the run options and the batch shape.
#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    k: usize,
    strategy: SolverStrategy,
    backend: SolverBackend,
    layout: Layout,
    from_zero: bool,
    dt: f64,
}

/// Runs `overrides` as one batch and as sequential references, member `m`
/// driving the circuit with its drive waveform or, for `None`,
/// the base circuit untouched. Asserts exact equality of every probed
/// sample, plus the batch's work counts: the sequential factorizations once
/// for the whole batch, and the sequential solves once per member.
fn assert_members_match_sequential(
    circuit: &Circuit,
    probes: &[Node],
    targets: &Targets,
    options: &TranOptions,
    overrides: &[Option<Waveform>],
) -> Result<TranTelemetry, TestCaseError> {
    let members: Vec<BatchMember> = overrides
        .iter()
        .map(|wave| match wave {
            None => BatchMember::new(),
            Some(drive) => BatchMember::new().current_wave(targets.driver, drive.clone()),
        })
        .collect();
    let batch = circuit
        .transient_batch(options, &members, probes)
        .expect("batched transient");
    let telemetry = batch.telemetry();
    for (m, wave) in overrides.iter().enumerate() {
        let mut sequential = circuit.clone();
        if let Some(drive) = wave {
            sequential.set_current_source_wave(targets.driver, drive.clone());
        }
        let reference = sequential.transient(options).expect("sequential transient");
        prop_assert_eq!(batch.times(), reference.times());
        for &probe in probes {
            let got = batch.voltage(m, probe);
            let want = reference.voltage(probe);
            prop_assert!(
                got == want,
                "member {m} probe {probe:?} diverged from sequential ({wave:?})"
            );
        }
        let single = reference.telemetry();
        prop_assert_eq!(telemetry.factorizations, single.factorizations);
        prop_assert_eq!(telemetry.solves, single.solves * overrides.len());
        prop_assert_eq!(telemetry.banded, single.banded);
    }
    Ok(telemetry)
}

/// Scales the drive current per member (member 0 keeps the base circuit,
/// to cover the no-override path), and checks the batch against its
/// sequential references.
fn assert_batch_matches_sequential(case: Case) -> Result<(), TestCaseError> {
    let (circuit, probes, targets) = random_circuit(case.seed, case.layout);
    let mut options = TranOptions::new(nanos(4.0), nanos(case.dt))
        .with_strategy(case.strategy)
        .with_backend(case.backend);
    if case.from_zero {
        options = options.from_zero_state();
    }

    let mut rng = PtRng::new(case.seed ^ 0x5EED_BA7C);
    let overrides: Vec<Option<Waveform>> = (0..case.k)
        .map(|m| {
            let s = 0.5 + 1.2 * rng.unit_f64();
            (m != 0).then(|| targets.base_drive.scaled(s))
        })
        .collect();
    let telemetry =
        assert_members_match_sequential(&circuit, &probes, &targets, &options, &overrides)?;
    if case.backend == SolverBackend::Banded {
        prop_assert!(telemetry.banded, "forced-banded run fell back to dense");
        let natural_kept = telemetry.natural_bandwidth <= telemetry.reordered_bandwidth;
        prop_assert!(
            natural_kept == (case.layout == Layout::Natural),
            "layout {:?} kept the wrong ordering ({telemetry:?})",
            case.layout
        );
    }
    Ok(())
}

/// How a PWL-lane batch mixes its drive lanes.
#[derive(Debug, Clone, Copy)]
enum LaneMix {
    /// Every lane a PWL on the shared knot times.
    SharedKnots,
    /// Lanes cycle through a shared-knot PWL, a PWL on other knot times, a
    /// DC level and a pulse.
    Mixed,
    /// Every lane a PWL, alternating between the two sets of knot times.
    TwoKnotSets,
    /// Shared knot times except the last lane, one of whose knots sits one
    /// ulp later.
    OneUlpOff,
}

const LANE_MIXES: [LaneMix; 4] = [
    LaneMix::SharedKnots,
    LaneMix::Mixed,
    LaneMix::TwoKnotSets,
    LaneMix::OneUlpOff,
];

/// Member `m`'s drive waveform under `mix`, with values around
/// `level`. `grid` is the transient's time grid: knots land exactly on some
/// of its points and between others, and the first and last knots leave
/// steps before and after the knot range.
fn lane_wave(
    mix: LaneMix,
    m: usize,
    k: usize,
    grid: &[f64],
    level: f64,
    rng: &mut PtRng,
) -> Waveform {
    let at = |step: usize| Seconds::new(grid[step]);
    let between = |step: usize| Seconds::new(0.5 * (grid[step] + grid[step + 1]));
    let last = grid.len() - 1;
    let shared = [
        at(4),
        between(9),
        at(20),
        at(last / 2),
        between(last - 12),
        at(last - 6),
    ];
    let other = [between(2), at(15), at(last / 3), at(last - 20)];
    let mut value = || level * (0.5 + rng.unit_f64());
    let pwl = |times: &[Seconds], value: &mut dyn FnMut() -> f64| {
        Waveform::pwl(times.iter().map(|&time| (time, value())).collect())
    };
    let kind = match mix {
        LaneMix::SharedKnots => 0,
        LaneMix::Mixed => m % 4,
        LaneMix::TwoKnotSets => m % 2,
        LaneMix::OneUlpOff if m + 1 == k && k > 1 => 4,
        LaneMix::OneUlpOff => 0,
    };
    match kind {
        0 => pwl(&shared, &mut value),
        1 => pwl(&other, &mut value),
        2 => Waveform::Dc(value()),
        3 => Waveform::pulse(0.0, value(), nanos(0.3), nanos(0.1), nanos(0.2), nanos(1.5)),
        _ => {
            let mut times = shared;
            times[2] = Seconds::new(f64::from_bits(times[2].get().to_bits() + 1));
            pwl(&times, &mut value)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_matches_sequential_on_pwl_lanes(
        seed in 0u64..u64::MAX,
        width in 0usize..4,
        backend in 0usize..2,
    ) {
        let (circuit, probes, targets) = random_circuit(seed, Layout::Natural);
        let options = TranOptions::new(nanos(4.0), nanos(0.05))
            .with_backend([SolverBackend::Dense, SolverBackend::Banded][backend]);
        let grid = circuit.transient(&options).expect("base transient").times().to_vec();
        let k = WIDTHS[width];
        let mut rng = PtRng::new(seed ^ 0x0B1_7AB5);
        for mix in LANE_MIXES {
            let overrides: Vec<Option<Waveform>> = (0..k)
                .map(|m| Some(lane_wave(mix, m, k, &grid, 80e-6, &mut rng)))
                .collect();
            assert_members_match_sequential(&circuit, &probes, &targets, &options, &overrides)?;
        }
    }

    #[test]
    fn batch_matches_sequential_cached_lu(
        seed in 0u64..u64::MAX,
        width in 0usize..4,
        from_zero in proptest::bool::ANY,
        layout in 0usize..2,
        dt_index in 0usize..2,
    ) {
        assert_batch_matches_sequential(Case {
            seed,
            k: WIDTHS[width],
            strategy: SolverStrategy::CachedLu,
            backend: SolverBackend::Auto,
            layout: [Layout::Natural, Layout::Scrambled][layout],
            from_zero,
            dt: [0.05, 0.023][dt_index],
        })?;
    }

    #[test]
    fn batch_matches_sequential_always_restamp(
        seed in 0u64..u64::MAX,
        width in 0usize..4,
        from_zero in proptest::bool::ANY,
        dt_index in 0usize..2,
    ) {
        assert_batch_matches_sequential(Case {
            seed,
            k: WIDTHS[width],
            strategy: SolverStrategy::AlwaysRestamp,
            backend: SolverBackend::Dense,
            layout: Layout::Natural,
            from_zero,
            dt: [0.05, 0.011][dt_index],
        })?;
    }

    #[test]
    fn batch_matches_sequential_banded(
        seed in 0u64..u64::MAX,
        width in 0usize..4,
        from_zero in proptest::bool::ANY,
        layout in 0usize..2,
    ) {
        assert_batch_matches_sequential(Case {
            seed,
            k: WIDTHS[width],
            strategy: SolverStrategy::CachedLu,
            backend: SolverBackend::Banded,
            layout: [Layout::Natural, Layout::Scrambled][layout],
            from_zero,
            dt: 0.05,
        })?;
    }
}
