//! Drives a lowered March program through every bank of a controller.

use crate::engine::{serve_banks, BankLists, Controller, Dispatch};
use crate::march::program::{DataBackground, MarchAlgorithm};
use crate::telemetry::Telemetry;

/// Runs `algorithm` over every bank of `controller` and returns the
/// post-test telemetry (March verdicts live in each bank's
/// [`MarchTelemetry`](crate::telemetry::MarchTelemetry)).
///
/// Every bank executes the same lowered schedule on its own March RNG
/// stream, so [`Dispatch::Serial`] and [`Dispatch::Parallel`] are
/// bit-identical — the same invariant demand traffic holds.
///
/// Reads go through the bank's host-visible read path (decoded under ECC);
/// see [`run_march_with`] for the raw-array mode and data-background
/// sweeps.
///
/// # Panics
///
/// Panics if the per-bank capacity exceeds `u32::MAX` cells.
pub fn run_march(
    controller: &mut Controller,
    algorithm: MarchAlgorithm,
    dispatch: Dispatch,
) -> Telemetry {
    run_march_with(
        controller,
        algorithm,
        DataBackground::Solid,
        false,
        dispatch,
    )
}

/// [`run_march`] with the tester's knobs exposed: a
/// [`DataBackground`] the notation's `0`/`1` is lowered against, and a
/// `raw` mode that bypasses the SECDED codec on reads so single-cell
/// defects the codec would absorb are observed directly (no effect on
/// unprotected parts).
///
/// # Panics
///
/// Panics if the per-bank capacity exceeds `u32::MAX` cells.
pub fn run_march_with(
    controller: &mut Controller,
    algorithm: MarchAlgorithm,
    background: DataBackground,
    raw: bool,
    dispatch: Dispatch,
) -> Telemetry {
    let faults = controller.config().faults.clone();
    let cells = u32::try_from(controller.config().spec.capacity_bits())
        .expect("bank capacity must fit march cell indices");
    let cols = u32::try_from(controller.config().spec.cols)
        .expect("bank width must fit march cell indices");
    let steps = algorithm
        .program()
        .lower_with_background(cells, cols, background);
    let banks = controller.banks_mut();
    let lists = BankLists {
        indices: Vec::new(),
        bounds: vec![0; banks.len() + 1],
    };
    let workers = dispatch.workers(banks.len());
    serve_banks(banks, &lists, &mut [], workers, |bank, _, _| {
        for step in &steps {
            bank.execute_march_op(step.cell, step.op, step.element, raw, &faults);
        }
    });
    controller.telemetry()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ControllerConfig;
    use stt_sense::SchemeKind;

    #[test]
    fn march_runs_are_bit_identical_across_dispatch() {
        for algorithm in MarchAlgorithm::ALL {
            let config = ControllerConfig::small(SchemeKind::Nondestructive, 3).with_seed(11);
            let mut serial = Controller::new(config.clone());
            let mut parallel = Controller::new(config);
            let a = run_march(&mut serial, algorithm, Dispatch::Serial);
            let b = run_march(&mut parallel, algorithm, Dispatch::Parallel);
            assert_eq!(a, b, "{}", algorithm.name());
            assert_eq!(serial.stored_state(), parallel.stored_state());
        }
    }

    #[test]
    fn a_healthy_bank_passes_march_at_textbook_cost() {
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 1).with_seed(3);
        let cells = config.spec.capacity_bits() as u64;
        let mut controller = Controller::new(config);
        let telemetry = run_march(&mut controller, MarchAlgorithm::CMinus, Dispatch::Serial);
        let march = &telemetry.banks[0].march;
        assert_eq!(march.ops, 10 * cells, "March C- is a 10n test");
        assert_eq!(march.mismatches, 0, "healthy cells must pass");
        assert!(march.failing_cells.is_empty());
        assert!(march.busy_time.get() > 0.0);
    }
}
