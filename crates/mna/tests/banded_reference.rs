//! Accuracy of the banded backend against the dense reference.
//!
//! The banded LU pivots over a restricted row set (the `kl` structurally
//! nonzero subdiagonals), so its factorisation is *not* bit-identical to the
//! dense one — the claim is tight numerical agreement: on random
//! diagonally dominant banded systems and on the paper's bit-line ladders,
//! solutions must match the dense path to ~1e-9 relative.
//!
//! Where the band itself holds exact zeros (whole zero sub- or
//! superdiagonals, scattered zero entries), the claim is stronger: the
//! banded solves stop each column at its last nonzero factor entry, and the
//! result must still equal the dense LU, which runs every zero term, bit
//! for bit.

use proptest::prelude::*;
use proptest::test_runner::PtRng;
use stt_mna::matrix::{LuFactors, Matrix};
use stt_mna::{BandedLu, BandedMatrix, Circuit, Node, SolverBackend, TranOptions, Waveform};
use stt_units::{Farads, Ohms, Seconds};

fn nanos(t: f64) -> Seconds {
    Seconds::from_nano(t)
}

/// A random diagonally dominant banded system and RHS drawn from `seed`.
fn random_system(seed: u64, n: usize, kl: usize, ku: usize) -> (BandedMatrix, Vec<f64>) {
    let mut rng = PtRng::new(seed);
    let mut pick = |lo: f64, hi: f64| lo + (hi - lo) * rng.unit_f64();
    let mut banded = BandedMatrix::zeros(n, kl, ku);
    for i in 0..n {
        let lo = i.saturating_sub(kl);
        let hi = (i + ku).min(n - 1);
        let mut row_sum = 0.0;
        for j in lo..=hi {
            if j != i {
                let value = pick(-1.0, 1.0);
                banded.stamp(i, j, value);
                row_sum += value.abs();
            }
        }
        banded.stamp(i, i, row_sum + pick(0.5, 2.0));
    }
    let rhs = (0..n).map(|_| pick(-1.0, 1.0)).collect();
    (banded, rhs)
}

/// A banded system with holes in its band, and `width` right-hand sides in
/// structure-of-arrays layout (`rhs[row·width + m]`). Each off-diagonal of
/// the band is zero throughout with probability 1/3, and each remaining
/// off-diagonal entry with probability 1/4. With `pivoting` the diagonal is
/// small next to its row, so partial pivoting swaps rows and fills the
/// band above; otherwise the system is diagonally dominant.
fn holey_system(
    seed: u64,
    n: usize,
    kl: usize,
    ku: usize,
    pivoting: bool,
    width: usize,
) -> (BandedMatrix, Vec<f64>) {
    let mut rng = PtRng::new(seed);
    let mut pick = |lo: f64, hi: f64| lo + (hi - lo) * rng.unit_f64();
    let zero_diagonal: Vec<bool> = (0..=kl + ku).map(|_| pick(0.0, 3.0) < 1.0).collect();
    let mut banded = BandedMatrix::zeros(n, kl, ku);
    for i in 0..n {
        let lo = i.saturating_sub(kl);
        let hi = (i + ku).min(n - 1);
        let mut row_sum = 0.0;
        for j in lo..=hi {
            let hole = pick(0.0, 4.0) < 1.0;
            if j != i && !zero_diagonal[j + kl - i] && !hole {
                let value = pick(-1.0, 1.0);
                banded.stamp(i, j, value);
                row_sum += value.abs();
            }
        }
        let diagonal = if pivoting {
            pick(-1e-3, 1e-3)
        } else {
            row_sum + pick(0.5, 2.0)
        };
        banded.stamp(i, i, diagonal);
    }
    let rhs = (0..n * width).map(|_| pick(-1.0, 1.0)).collect();
    (banded, rhs)
}

/// A bit-line ladder read in the Fig. 5 configuration, with per-seed
/// element values. Nodes are created in ladder order.
fn ladder_read(seed: u64, segments: usize) -> (Circuit, Node) {
    let mut rng = PtRng::new(seed);
    let mut pick = |lo: f64, hi: f64| lo + (hi - lo) * rng.unit_f64();
    let mut circuit = Circuit::new();
    let near = circuit.node("near");
    let i_read = pick(20e-6, 120e-6);
    circuit.current_source(
        near,
        Node::GROUND,
        Waveform::pwl(vec![
            (Seconds::ZERO, 0.0),
            (nanos(pick(0.3, 0.8)), i_read),
            (nanos(3.0), i_read),
        ]),
    );
    let r_total = pick(100.0, 1500.0);
    let c_total = pick(50e-15, 400e-15);
    let mut previous = near;
    for segment in 0..segments {
        let node = circuit.node(&format!("seg_{segment}"));
        circuit.resistor(previous, node, Ohms::new(r_total / segments as f64));
        circuit.capacitor(node, Node::GROUND, Farads::new(c_total / segments as f64));
        previous = node;
    }
    circuit.resistor(previous, Node::GROUND, Ohms::new(pick(2_000.0, 6_000.0)));
    (circuit, previous)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn banded_lu_matches_dense_lu_on_random_systems(
        seed in 0u64..u64::MAX,
        n in 2usize..48,
        kl in 0usize..4,
        ku in 0usize..4,
    ) {
        let (banded, rhs) = random_system(seed, n, kl, ku);
        let dense: Matrix = banded.to_dense();
        let expected = dense.solve(&rhs).expect("diagonally dominant");
        let lu = BandedLu::factor(banded).expect("diagonally dominant");
        let mut x = rhs.clone();
        lu.solve_in_place(&mut x).expect("factored");
        for (index, (got, want)) in x.iter().zip(&expected).enumerate() {
            prop_assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "row {index}: banded {got} vs dense {want}"
            );
        }
    }

    #[test]
    fn banded_transient_matches_dense_on_ladders(
        seed in 0u64..u64::MAX,
        segments in 8usize..64,
        dt_index in 0usize..2,
    ) {
        let dt = [nanos(0.05), nanos(0.023)][dt_index];
        let options = TranOptions::new(nanos(3.0), dt).from_zero_state();
        let (circuit, far) = ladder_read(seed, segments);
        let dense = circuit
            .transient(&options.clone().with_backend(SolverBackend::Dense))
            .expect("dense");
        let banded = circuit
            .transient(&options.with_backend(SolverBackend::Banded))
            .expect("banded");
        prop_assert!(!dense.telemetry().banded);
        prop_assert!(banded.telemetry().banded);
        prop_assert_eq!(dense.times(), banded.times());
        for (step, (d, b)) in dense
            .voltage(far)
            .iter()
            .zip(banded.voltage(far))
            .enumerate()
        {
            prop_assert!(
                (d - b).abs() <= 1e-9 * d.abs().max(1e-3),
                "step {step}: dense {d} vs banded {b}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn banded_solves_match_dense_lu_bit_for_bit_on_holey_bands(
        seed in 0u64..u64::MAX,
        n in 1usize..40,
        kl in 0usize..4,
        ku in 0usize..4,
        pivoting in proptest::bool::ANY,
        width in 0usize..3,
    ) {
        let width = [1, 3, 64][width];
        let (banded, rhs) = holey_system(seed, n, kl, ku, pivoting, width);
        let dense = LuFactors::factor(banded.to_dense());
        let lu = BandedLu::factor(banded);
        prop_assume!(dense.is_ok() && lu.is_ok());
        let (dense, lu) = (dense.expect("checked"), lu.expect("checked"));
        let mut batch = rhs.clone();
        lu.solve_multi_in_place(&mut batch, width).expect("factored");
        for m in 0..width {
            let member: Vec<f64> = (0..n).map(|row| rhs[row * width + m]).collect();
            let mut want = vec![0.0; n];
            dense.solve_into(&member, &mut want).expect("factored");
            let mut single = member;
            lu.solve_in_place(&mut single).expect("factored");
            for row in 0..n {
                let got = batch[row * width + m];
                prop_assert!(
                    single[row].to_bits() == want[row].to_bits()
                        && got.to_bits() == want[row].to_bits(),
                    "member {m} row {row}: scalar {} and width-{width} {got} vs dense {}",
                    single[row],
                    want[row]
                );
            }
        }
    }
}
