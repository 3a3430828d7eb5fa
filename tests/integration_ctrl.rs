//! Integration tests for the `stt-ctrl` traffic engine.
//!
//! The three properties the controller stakes its design on:
//!
//! 1. **Determinism** — a parallel run (scoped workers over runs of
//!    banks) returns telemetry equal to a serial run of the same trace and
//!    seed, and a bank's panic keeps its message under either dispatch.
//! 2. **Retry is safe** — the retry policy can never flip a read whose
//!    first attempt was already confident (checked as a proptest).
//! 3. **The paper's §I argument, traffic-shaped** — a power cut mid-read
//!    corrupts stored data under the destructive scheme and never under
//!    the nondestructive (or conventional) scheme.
//! 4. **The production read path is its reference** — `Scheme::resolve_span`,
//!    over one cell with fresh settle codes and over spans of cells with
//!    codes kept across reads, returns what `RetryPolicy::resolve` over
//!    `Scheme::sense_once` does, leaving the RNG and the array in the same
//!    state (checked as proptests, plus fixed cases through each of its
//!    branches).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use stt_array::{Address, Array, ArraySpec, Cell, CellSpec};
use stt_ctrl::{
    Controller, ControllerConfig, Dispatch, DriftPlan, FaultPlan, Frontend, FrontendConfig,
    ReadResolution, RetryPolicy, Scheme, SenseWork, Sensed, SettleCodes, Trace, Transaction,
    Workload,
};
use stt_mtj::{MtjSpec, ResistanceCurve};
use stt_sense::{
    ConventionalScheme, DesignPoint, DestructiveScheme, NondestructiveScheme, SchemeKind,
    SenseAmplifier, SenseScheme,
};
use stt_stats::dist::box_muller_uniforms;
use stt_units::Volts;

fn trace_for(config: &ControllerConfig, workload: Workload, ops: usize, seed: u64) -> Trace {
    workload.generate(config.footprint(), ops, &mut StdRng::seed_from_u64(seed))
}

#[test]
fn parallel_run_equals_serial_run() {
    for kind in SchemeKind::ALL {
        let config = ControllerConfig::small(kind, 5).with_seed(314);
        let trace = trace_for(&config, Workload::Uniform { read_fraction: 0.6 }, 2_000, 8);
        let serial = Controller::new(config.clone()).run(&trace, Dispatch::Serial);
        let parallel = Controller::new(config).run(&trace, Dispatch::Parallel);
        assert_eq!(serial, parallel, "{kind}: dispatch must not change results");
    }
}

#[test]
fn parallel_run_equals_serial_run_under_faults() {
    // Same property with the fault injector live: power cuts follow
    // per-bank read counters, so they land identically under any dispatch.
    let faults = FaultPlan::none().with_power_cut_every(50);
    for kind in [SchemeKind::Destructive, SchemeKind::Nondestructive] {
        let config = ControllerConfig::small(kind, 4)
            .with_seed(271)
            .with_faults(faults.clone());
        let trace = trace_for(&config, Workload::ReadMostly, 1_500, 17);
        let serial = Controller::new(config.clone()).run(&trace, Dispatch::Serial);
        let parallel = Controller::new(config).run(&trace, Dispatch::Parallel);
        assert_eq!(serial, parallel, "{kind}");
    }
}

/// A valid trace over four small banks with a read of row 99 of an 8×8
/// bank appended last.
fn trace_ending_out_of_range(config: &ControllerConfig, ops: usize) -> Trace {
    let mut trace = trace_for(config, Workload::Uniform { read_fraction: 0.6 }, ops, 12);
    trace.push(Transaction::read(3, Address::new(99, 0)));
    trace
}

#[test]
#[should_panic(expected = "out of range")]
fn parallel_dispatch_keeps_a_bank_panic_message() {
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 4);
    let trace = trace_ending_out_of_range(&config, 200);
    Controller::new(config).run(&trace, Dispatch::Parallel);
}

#[test]
#[should_panic(expected = "out of range")]
fn parallel_fast_path_keeps_a_bank_panic_message() {
    // Long enough (past 16,384 transactions) that the FCFS fast path serves
    // its banks on parallel workers.
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 4);
    let trace = trace_ending_out_of_range(&config, 20_000);
    Frontend::new(Controller::new(config), FrontendConfig::fcfs_unbounded()).run(&trace);
}

#[test]
fn replayed_trace_reproduces_telemetry() {
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 3).with_seed(99);
    let trace = trace_for(
        &config,
        Workload::Zipf {
            theta: 0.9,
            read_fraction: 0.8,
        },
        1_000,
        4,
    );
    let replayed = Trace::from_csv(&trace.to_csv()).expect("round-trip");
    let original = Controller::new(config.clone()).run(&trace, Dispatch::Parallel);
    let again = Controller::new(config).run(&replayed, Dispatch::Parallel);
    assert_eq!(
        original, again,
        "a CSV round-trip must replay bit-identically"
    );
}

#[test]
fn power_cut_mid_read_corrupts_destructive_but_never_nondestructive() {
    // Cut every 25th read on every bank across a read-mostly trace.
    let faults = FaultPlan::none().with_power_cut_every(25);
    let mut corrupted_under = std::collections::HashMap::new();
    for kind in SchemeKind::ALL {
        let config = ControllerConfig::small(kind, 4)
            .with_seed(1234)
            .with_faults(faults.clone());
        let trace = trace_for(&config, Workload::ReadMostly, 4_000, 55);
        let telemetry = Controller::new(config).run(&trace, Dispatch::Parallel);
        let totals = telemetry.aggregate();
        assert!(
            totals.power_cuts > 10,
            "{kind}: the injector must have fired"
        );
        corrupted_under.insert(kind, totals.corrupted_bits);
        if kind != SchemeKind::Destructive {
            assert_eq!(
                totals.corrupted_bits, 0,
                "{kind}: a read-only sense sequence cannot lose data to a cut"
            );
        }
    }
    assert!(
        corrupted_under[&SchemeKind::Destructive] > 0,
        "destructive reads interrupted after the erase must lose data"
    );
}

#[test]
fn nondestructive_traffic_audits_clean_without_faults() {
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 4).with_seed(7);
    let trace = trace_for(&config, Workload::Uniform { read_fraction: 0.5 }, 3_000, 21);
    let telemetry = Controller::new(config).run(&trace, Dispatch::Parallel);
    // Reads never write, and verified writes either land or are counted.
    assert_eq!(
        telemetry.audit_corrupted_bits,
        telemetry.aggregate().write_failures,
        "only unwritable cells may disagree with the host's view"
    );
}

proptest! {
    /// A confident first attempt short-circuits the policy: whatever the
    /// later attempts would have seen, the resolved bit IS the first
    /// attempt's bit. Retry can only ever change coin-flip reads.
    #[test]
    fn retry_never_flips_a_confident_first_read(
        first_mv in 8.0f64..200.0,
        sign in proptest::bool::ANY,
        later_mv in proptest::collection::vec(-200.0f64..200.0, 0..4),
        guard_mv in 0.1f64..8.0,
        max_attempts in 1u32..5,
    ) {
        let policy = RetryPolicy {
            guard_band: Volts::from_milli(guard_mv),
            max_attempts,
        };
        let signed = if sign { first_mv } else { -first_mv };
        let mut attempts = Vec::with_capacity(1 + later_mv.len());
        attempts.push(signed);
        attempts.extend(later_mv.iter().copied());
        let mut calls = 0usize;
        let resolution = policy.resolve(|| {
            let observed = attempts[calls.min(attempts.len() - 1)];
            calls += 1;
            Sensed {
                bit: observed > 0.0,
                observed: Volts::from_milli(observed),
                correct: true,
            }
        });
        // |first| >= 8 mV > guard band, so the first attempt is confident.
        prop_assert_eq!(calls, 1);
        prop_assert!(resolution.confident);
        prop_assert_eq!(resolution.bit, signed > 0.0);
        prop_assert_eq!(resolution.attempts, 1);
    }
}

proptest! {
    /// Whatever the attempt sequence, the policy delivers a bit that is a
    /// function of the observations it was shown — and consumes at most
    /// `max_attempts` of them.
    #[test]
    fn retry_is_bounded_and_deterministic(
        observations in proptest::collection::vec(-50.0f64..50.0, 1..6),
        guard_mv in 0.5f64..20.0,
    ) {
        let policy = RetryPolicy {
            guard_band: Volts::from_milli(guard_mv),
            max_attempts: observations.len() as u32,
        };
        let run = || {
            let mut calls = 0usize;
            let resolution = policy.resolve(|| {
                let observed = observations[calls];
                calls += 1;
                Sensed {
                    bit: observed > 0.0,
                    observed: Volts::from_milli(observed),
                    correct: true,
                }
            });
            (resolution, calls)
        };
        let (first, calls_a) = run();
        let (second, calls_b) = run();
        prop_assert_eq!(first, second);
        prop_assert_eq!(calls_a, calls_b);
        prop_assert!(calls_a as u32 <= policy.max_attempts);
    }
}

/// Runs a one-cell `Scheme::resolve_span` over fresh settle codes and its
/// reference — `RetryPolicy::resolve` over `Scheme::sense_once` — from
/// equal copies of `array` and equally seeded RNGs, and asserts an equal
/// resolution, an equal next RNG draw and an equal array afterwards.
/// Returns the resolution.
fn assert_resolve_matches_reference(
    scheme: &Scheme,
    retry: &RetryPolicy,
    array: &Array,
    addr: Address,
    seed: u64,
) -> ReadResolution {
    let (mut array_fast, mut rng_fast) = (array.clone(), StdRng::seed_from_u64(seed));
    let (mut array_ref, mut rng_ref) = (array.clone(), StdRng::seed_from_u64(seed));
    let cell = array.index_of(addr);
    let fast = resolve_span(
        scheme,
        retry,
        &mut array_fast,
        cell..cell + 1,
        &mut rng_fast,
        &mut [SettleCodes::default()],
        &mut SenseWork::default(),
    )[0];
    let reference = retry.resolve(|| scheme.sense_once(&mut array_ref, addr, &mut rng_ref));
    let context = format!("{} {retry:?} at {addr}, seed {seed}", scheme.kind());
    assert_eq!(fast, reference, "resolution: {context}");
    assert_eq!(rng_fast.next_u64(), rng_ref.next_u64(), "RNG: {context}");
    assert!(array_fast == array_ref, "array: {context}");
    reference
}

/// Serves `reads` reads of `addr` through `Scheme::resolve_span`, as
/// one-cell spans with one set of settle codes kept across them, and
/// through the reference, each side carrying its own array and RNG from
/// read to read: a destructive misread flips the cell, so a later read
/// starts from the other state's code. Asserts equal resolutions after
/// every read, and an equal next RNG draw and an equal array at the end.
/// Returns the last resolution.
fn assert_cached_matches_reference(
    scheme: &Scheme,
    retry: &RetryPolicy,
    array: &Array,
    addr: Address,
    seed: u64,
    reads: usize,
) -> ReadResolution {
    let (mut array_fast, mut rng_fast) = (array.clone(), StdRng::seed_from_u64(seed));
    let (mut array_ref, mut rng_ref) = (array.clone(), StdRng::seed_from_u64(seed));
    let mut codes = SettleCodes::default();
    let mut work = SenseWork::default();
    let context = format!("{} {retry:?} at {addr}, seed {seed}", scheme.kind());
    let mut last = None;
    let cell = array.index_of(addr);
    for read in 0..reads {
        let fast = resolve_span(
            scheme,
            retry,
            &mut array_fast,
            cell..cell + 1,
            &mut rng_fast,
            std::slice::from_mut(&mut codes),
            &mut work,
        )[0];
        let reference = retry.resolve(|| scheme.sense_once(&mut array_ref, addr, &mut rng_ref));
        assert_eq!(fast, reference, "resolution of read {read}: {context}");
        last = Some(reference);
    }
    assert_eq!(rng_fast.next_u64(), rng_ref.next_u64(), "RNG: {context}");
    assert!(array_fast == array_ref, "array: {context}");
    assert!(work.exact <= work.attempts && work.fills <= work.attempts);
    last.expect("at least one read")
}

/// Reads `cells` (row-major) through `Scheme::resolve_span`, the bank's
/// read entry, over `codes` (one set per cell of the span), and returns
/// each cell's resolution in order.
fn resolve_span(
    scheme: &Scheme,
    retry: &RetryPolicy,
    array: &mut Array,
    cells: std::ops::Range<usize>,
    rng: &mut StdRng,
    codes: &mut [SettleCodes],
    work: &mut SenseWork,
) -> Vec<ReadResolution> {
    let mut resolutions = vec![None; cells.len()];
    scheme.resolve_span(retry, array, cells, rng, codes, work, |k, read| {
        resolutions[k] = Some(read);
    });
    resolutions
        .into_iter()
        .map(|read| read.expect("every cell resolves"))
        .collect()
}

/// A sampled 20 × 8 array with random states: 160 cells, two whole 64-cell
/// words and a partial last one, each word crossing eight rows. `hot`
/// rebuilds it at +60 K, as the drift layer does.
fn span_array(seed: u64, hot: bool) -> Array {
    let mut spec = ArraySpec::small_test_array();
    spec.rows = 20;
    spec.bitline.cells_per_bitline = 20;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut array = spec.sample(&mut rng);
    array.fill_with(|_| rng.gen_bool(0.5));
    if !hot {
        return array;
    }
    let plan = DriftPlan::quiet().with_ambient(360.0);
    let key = plan.key_at(0, 0.0);
    for addr in array.addresses().collect::<Vec<_>>() {
        let cell = array.cell(addr);
        let ResistanceCurve::Linear(rolloff) = cell.device().curve() else {
            panic!("sampled cells use the linear calibration")
        };
        let base = MtjSpec {
            resistance: *rolloff,
            switching: *cell.device().switching(),
        };
        let drifted = plan.drifted_spec(&base, key);
        let transistor = *cell.transistor();
        *array.cell_mut(addr) = Cell::new(drifted.into_device(), transistor);
    }
    array
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]
    /// A sequence of spans — whole words, the partial last word, single
    /// cells and arbitrary runs, all crossing rows of an 8-column array —
    /// read through the span entry over settle codes carried from span to
    /// span, under every scheme, amplifier (σ = 0 among them), guard band
    /// (0 and `RetryPolicy::date2010`'s among them) and attempt budget
    /// (a single attempt, `date2010`'s and one past the attempts the read path
    /// keeps for a fallback). Each cell resolves as the reference does,
    /// `RetryPolicy::resolve` over `Scheme::sense_once`, leaving the RNG and
    /// the array where it leaves them; and the codes and work equal those
    /// of reading the same cells one at a time.
    #[test]
    fn span_reads_match_the_reference_and_cell_by_cell_reads(
        kind_index in 0usize..3,
        amplifier_index in 0usize..3,
        band_index in 0usize..4,
        budget_index in 0usize..3,
        hot in proptest::bool::ANY,
        spans in proptest::collection::vec(0u64..u64::MAX, 1..6),
        seed in 0u64..u64::MAX,
    ) {
        let array = span_array(seed ^ 0x5eed, hot);
        let cells = array.rows() * array.cols();
        let amplifier = oracle_amplifiers()[amplifier_index];
        let scheme = scheme_with(SchemeKind::ALL[kind_index], amplifier);
        let retry = RetryPolicy {
            guard_band: Volts::from_milli([0.0, 1.0, 8.0, 50.0][band_index]),
            max_attempts: [1, 3, 12][budget_index],
        };
        let fresh = || {
            let codes = vec![SettleCodes::default(); cells];
            (array.clone(), StdRng::seed_from_u64(seed), codes, SenseWork::default())
        };
        let (mut array_span, mut rng_span, mut codes_span, mut work_span) = fresh();
        let (mut array_cell, mut rng_cell, mut codes_cell, mut work_cell) = fresh();
        let (mut array_ref, mut rng_ref, _, _) = fresh();
        let mut attempts = 0;
        for (read, &draw) in spans.iter().enumerate() {
            // Shape, start and length of the span, from one draw.
            let start = (draw >> 8) as usize % cells;
            let len = 1 + (draw >> 32) as usize % 64;
            let span = match draw % 3 {
                0 => {
                    let word = start % 3 * 64;
                    word..(word + 64).min(cells)
                }
                1 => start..start + 1,
                _ => start..(start + len).min(cells),
            };
            let context = format!("{} {retry:?} span {read} {span:?}", scheme.kind());
            let got = resolve_span(
                &scheme,
                &retry,
                &mut array_span,
                span.clone(),
                &mut rng_span,
                &mut codes_span[span.clone()],
                &mut work_span,
            );
            prop_assert_eq!(got.len(), span.len());
            for (k, cell) in span.clone().enumerate() {
                let addr = Address::new(cell / 8, cell % 8);
                let reference =
                    retry.resolve(|| scheme.sense_once(&mut array_ref, addr, &mut rng_ref));
                let one = resolve_span(
                    &scheme,
                    &retry,
                    &mut array_cell,
                    cell..cell + 1,
                    &mut rng_cell,
                    &mut codes_cell[cell..=cell],
                    &mut work_cell,
                );
                prop_assert!(got[k] == reference, "cell {cell}: {context}");
                prop_assert!(one[0] == reference, "cell {cell} alone: {context}");
                attempts += u64::from(reference.attempts);
            }
        }
        let next = rng_ref.next_u64();
        prop_assert_eq!(rng_span.next_u64(), next);
        prop_assert_eq!(rng_cell.next_u64(), next);
        prop_assert!(array_span == array_ref && array_cell == array_ref, "arrays differ");
        prop_assert!(codes_span == codes_cell, "settle codes differ");
        prop_assert_eq!(work_span, work_cell);
        prop_assert_eq!(work_span.attempts, attempts);
    }
}

/// `kind` built from the nominal design point with `amplifier` in its path.
fn scheme_with(kind: SchemeKind, amplifier: SenseAmplifier) -> Scheme {
    let design = DesignPoint::date2010(&CellSpec::date2010_chip().nominal_cell());
    match kind {
        SchemeKind::Conventional => Scheme::Conventional(
            ConventionalScheme::new(design.conventional).with_amplifier(amplifier),
        ),
        SchemeKind::Destructive => Scheme::Destructive(
            DestructiveScheme::new(design.destructive).with_amplifier(amplifier),
        ),
        SchemeKind::Nondestructive => Scheme::Nondestructive(
            NondestructiveScheme::new(design.nondestructive).with_amplifier(amplifier),
        ),
    }
}

/// The settled comparator differential `scheme` sees on the cell at
/// `addr`, holding its stored state.
fn differential_of(scheme: &Scheme, array: &Array, addr: Address) -> f64 {
    let (cell, state) = (array.cell(addr), array.read_state(addr));
    match scheme {
        Scheme::Conventional(s) => s.differential(cell, state),
        Scheme::Destructive(s) => s.differential(cell, state),
        Scheme::Nondestructive(s) => s.differential(cell, state),
    }
    .get()
}

/// The three amplifiers the schemes are built with.
fn oracle_amplifiers() -> [SenseAmplifier; 3] {
    [
        SenseAmplifier::auto_zero(),
        SenseAmplifier::plain_latch(),
        SenseAmplifier::ideal(),
    ]
}

/// An 8 × 8 sampled array with a checkerboard of states, and the same
/// array rebuilt at +60 K (the drift layer's RNG-free rebuild, which keeps
/// each cell's transistor and state).
fn oracle_arrays() -> [Array; 2] {
    let mut array = ArraySpec::small_test_array().sample(&mut StdRng::seed_from_u64(55));
    array.fill_with(|addr| (addr.row + addr.col) % 2 == 0);
    let plan = DriftPlan::quiet().with_ambient(360.0);
    let key = plan.key_at(0, 0.0);
    let mut hot = array.clone();
    for addr in array.addresses() {
        let cell = array.cell(addr);
        let ResistanceCurve::Linear(rolloff) = cell.device().curve() else {
            panic!("sampled cells use the linear calibration")
        };
        let base = MtjSpec {
            resistance: *rolloff,
            switching: *cell.device().switching(),
        };
        let drifted = plan.drifted_spec(&base, key);
        *hot.cell_mut(addr) = Cell::new(drifted.into_device(), *cell.transistor());
    }
    [array, hot]
}

/// Guard bands the oracle sweeps for a cell whose differential is `d` under
/// offset `sigma`: the policy values, then bands a few σ and a few ulps from
/// `|d|` and from 0.
fn oracle_guard_bands(d: f64, sigma: f64) -> Vec<f64> {
    let margin = d.abs();
    let ulp_up = |x: f64, n: u64| f64::from_bits(x.to_bits() + n);
    let ulp_down = |x: f64, n: u64| f64::from_bits(x.to_bits().saturating_sub(n));
    let mut bands = vec![0.0, 1e-3, 8e-3, 50e-3];
    for k in [0.5, 1.0, 2.0, 3.0, 5.0] {
        bands.push(margin + k * sigma);
        bands.push((margin - k * sigma).max(0.0));
        bands.push(k * sigma);
    }
    for n in [1, 3] {
        bands.push(ulp_up(margin, n));
        bands.push(ulp_down(margin, n));
        bands.push(ulp_up(0.0, n));
    }
    bands.push(margin);
    bands
}

#[test]
fn scheme_resolve_matches_the_reference_on_the_policy_grid() {
    for array in oracle_arrays() {
        for kind in SchemeKind::ALL {
            for amplifier in oracle_amplifiers() {
                let scheme = scheme_with(kind, amplifier);
                for guard_mv in [0.0, 1.0, 8.0, 50.0] {
                    for max_attempts in 1..=4 {
                        let retry = RetryPolicy {
                            guard_band: Volts::from_milli(guard_mv),
                            max_attempts,
                        };
                        for (k, addr) in array.addresses().enumerate() {
                            assert_resolve_matches_reference(
                                &scheme, &retry, &array, addr, k as u64,
                            );
                            assert_cached_matches_reference(
                                &scheme, &retry, &array, addr, k as u64, 3,
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]
    /// Any scheme × amplifier (σ = 0 among them) × cell (sampled or hot) ×
    /// attempt budget × seed, with guard bands placed where the settle
    /// bound is tightest: 0, on, a few σ from and a few ulps from the
    /// cell's `|d|`, and just above 0. Both the one-read path and up to
    /// four reads over settle codes kept across them, through destructive
    /// state flips.
    #[test]
    fn scheme_resolve_matches_the_retry_reference(
        kind_index in 0usize..3,
        amplifier_index in 0usize..3,
        hot in proptest::bool::ANY,
        cell_index in 0usize..64,
        band_index in 0usize..64,
        max_attempts in 1u32..5,
        reads in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let arrays = oracle_arrays();
        let array = &arrays[usize::from(hot)];
        let amplifier = oracle_amplifiers()[amplifier_index];
        let scheme = scheme_with(SchemeKind::ALL[kind_index], amplifier);
        let addr = Address::new(cell_index / 8, cell_index % 8);
        let d = differential_of(&scheme, array, addr);
        let bands = oracle_guard_bands(d, amplifier.offset_sigma().get());
        let retry = RetryPolicy {
            guard_band: Volts::new(bands[band_index % bands.len()]),
            max_attempts,
        };
        assert_resolve_matches_reference(&scheme, &retry, array, addr, seed);
        assert_cached_matches_reference(&scheme, &retry, array, addr, seed, reads);
    }
}

/// The settle bound of `Scheme::resolve_span`, restated without its rounding
/// slack or `f32` round-up: the smallest `u1` it decides for differential
/// `d`, `exp(−k²/2)`. The fixed cases below keep every `u1` at least 1 %
/// away from it, so they land on the intended branch.
fn settle_threshold(d: f64, guard: f64, sigma: f64) -> f64 {
    let margin = d.abs();
    let room = if margin > guard {
        margin - guard
    } else {
        (guard - margin).min(margin)
    };
    let k = room / sigma;
    (-k * k / 2.0).exp()
}

/// Per attempt of a read-only scheme's chain from `seed`: `Some(true)` if
/// the bound settles it, `Some(false)` if it takes the exact path, `None`
/// if its `u1` sits within 1 % of the threshold.
fn settled_attempts(seed: u64, attempts: u32, threshold: f64) -> Vec<Option<bool>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..attempts)
        .map(|_| {
            let (u1, _) = box_muller_uniforms(&mut rng);
            if u1 >= 1.01 * threshold {
                Some(true)
            } else if u1 <= 0.99 * threshold {
                Some(false)
            } else {
                None
            }
        })
        .collect()
}

#[test]
fn scheme_resolve_matches_the_reference_through_each_branch() {
    // The nominal cell holding a "1" under the nondestructive scheme:
    // d ≈ +9.3 mV.
    let mut array = ArraySpec::small_test_array().sample(&mut StdRng::seed_from_u64(8));
    let addr = Address::new(2, 5);
    let nominal = CellSpec::date2010_chip().nominal_cell();
    *array.cell_mut(addr) = nominal;
    array.write_bit(addr, true);
    let auto_zero = scheme_with(SchemeKind::Nondestructive, SenseAmplifier::auto_zero());
    let d = differential_of(&auto_zero, &array, addr);
    assert!(d > 5e-3, "nominal nondestructive differential {d}");
    let retry = |guard: f64| RetryPolicy {
        guard_band: Volts::new(guard),
        max_attempts: 3,
    };
    let seed_where = |attempts: u32, threshold: f64, want: &dyn Fn(&[Option<bool>]) -> bool| {
        (0..100_000)
            .find(|&seed| want(&settled_attempts(seed, attempts, threshold)))
            .expect("a seed reaching the branch")
    };
    let sigma = 0.3e-3;

    // A guard band 2σ under |d|: the threshold is e⁻², so a seed's first
    // `u1` lands on either side of it often.
    let near = d - 2.0 * sigma;
    let threshold = settle_threshold(d, near, sigma);

    // Confident and settled on the first attempt.
    let seed = seed_where(1, threshold, &|a| a[0] == Some(true));
    let resolution = assert_resolve_matches_reference(&auto_zero, &retry(near), &array, addr, seed);
    assert_eq!((resolution.bit, resolution.attempts), (true, 1));
    assert!(resolution.confident);

    // Exact: `u1` under the threshold on the first attempt, and an ideal
    // amplifier (σ = 0), which the bound never decides.
    let seed = seed_where(1, threshold, &|a| a[0] == Some(false));
    assert_resolve_matches_reference(&auto_zero, &retry(near), &array, addr, seed);
    let ideal = scheme_with(SchemeKind::Nondestructive, SenseAmplifier::ideal());
    let resolution = assert_resolve_matches_reference(&ideal, &retry(1e-3), &array, addr, 3);
    assert_eq!((resolution.bit, resolution.attempts), (true, 1));

    // All attempts settled unconfident: a guard band far above |d|, and
    // the fallback takes the differential's sign.
    let threshold = settle_threshold(d, 50e-3, sigma);
    let seed = seed_where(3, threshold, &|a| a.iter().all(|&s| s == Some(true)));
    let resolution =
        assert_resolve_matches_reference(&auto_zero, &retry(50e-3), &array, addr, seed);
    assert_eq!((resolution.bit, resolution.confident), (true, false));
    assert_eq!(resolution.attempts, 3);

    // A budget longer than the attempts `Scheme::resolve_span` keeps for a
    // rebuild goes through the reference loop whole.
    let long = RetryPolicy {
        guard_band: Volts::new(50e-3),
        max_attempts: 12,
    };
    let resolution = assert_resolve_matches_reference(&auto_zero, &long, &array, addr, seed);
    assert_eq!(resolution.attempts, 12);

    // Mixed: an amplifier with σ = |d| settles some attempts and not
    // others, and the rebuilt observations sum to the opposite sign of d —
    // so a fallback that trusted the sign of d would read the wrong bit.
    let wide = scheme_with(
        SchemeKind::Nondestructive,
        SenseAmplifier::new(Volts::new(d), Volts::ZERO),
    );
    let threshold = settle_threshold(d, 50e-3, d);
    let mut mixed_flipped = 0;
    for seed in 0..2_000 {
        let attempts = settled_attempts(seed, 3, threshold);
        let mixed = attempts.contains(&Some(true)) && attempts.contains(&Some(false));
        if !mixed || attempts.contains(&None) {
            continue;
        }
        let resolution = assert_resolve_matches_reference(&wide, &retry(50e-3), &array, addr, seed);
        if !resolution.confident && !resolution.bit {
            mixed_flipped += 1;
        }
    }
    assert!(
        mixed_flipped > 0,
        "no mixed chain fell back against d's sign"
    );

    // Destructive: with σ = |d| and a guard band far above it, attempts
    // mis-sense and the write-back flips the cell mid-chain, so each
    // attempt must re-derive d from the state the last one left.
    let destructive = scheme_with(SchemeKind::Destructive, SenseAmplifier::auto_zero());
    let d = differential_of(&destructive, &array, addr);
    let wide = scheme_with(
        SchemeKind::Destructive,
        SenseAmplifier::new(Volts::new(d.abs()), Volts::ZERO),
    );
    let misreads = (0..500)
        .filter(|&seed| {
            !assert_resolve_matches_reference(&wide, &retry(4.0 * d.abs()), &array, addr, seed).bit
        })
        .count();
    assert!(misreads > 0, "no destructive chain mis-sensed");
    // The same chains read three times over kept settle codes: a misread
    // leaves the other state for the next read, whose attempts take that
    // state's code.
    for seed in 0..500 {
        assert_cached_matches_reference(&wide, &retry(4.0 * d.abs()), &array, addr, seed, 3);
    }
}
