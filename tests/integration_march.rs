//! Integration tests for the manufacturing-test subsystem.
//!
//! What the March harness stakes its design on:
//!
//! 1. **Dispatch identity survives test traffic** — a March program run as
//!    test-class traffic through the scheduler frontend over a fault-laden
//!    controller produces bit-identical stored state and telemetry to a
//!    naive reference that walks the lowered schedule bank by bank.
//! 2. **Textbook coverage** — March C– detects 100% of stuck-at and write
//!    transition faults at exactly its 10n op cost; the only escapes on an
//!    unprotected, variation-clean scheme are the ones theory predicts
//!    (CFds under March C–, probabilistic backhopping).
//! 3. **The escape matrix is economical** — March C– tests strictly faster
//!    than March SS, and ECC protection (legitimately) masks single-cell
//!    defects from the tester: test before you protect.

use stt_array::Address;
use stt_ctrl::{
    run_escape_campaign, Bank, Controller, ControllerConfig, CouplingKind, DataBackground,
    FaultClass, FaultPlan, Frontend, FrontendConfig, MarchAlgorithm, MarchCampaignConfig,
    MarchConfig, Protection, QueueTelemetry, Telemetry, Trace,
};
use stt_sense::SchemeKind;

/// A plan exercising every defect family at once on bank 0.
fn mixed_plan() -> FaultPlan {
    FaultPlan::none()
        .with_stuck_cell(0, Address::new(0, 3), true)
        .with_transition_fault(0, Address::new(1, 5), true)
        .with_transition_fault(0, Address::new(2, 7), false)
        .with_pinhole(0, Address::new(3, 2))
        .with_backhop(0, Address::new(4, 9), 0.4)
        .with_coupling_fault(
            0,
            0,
            4,
            11,
            CouplingKind::State {
                aggressor_value: true,
                victim_value: false,
            },
        )
}

/// The naive reference: every bank built on its own and walked through the
/// whole lowered schedule, one bank after another, with host-visible reads.
fn march_reference(
    config: &ControllerConfig,
    algorithm: MarchAlgorithm,
) -> (Telemetry, Vec<Vec<bool>>) {
    let cells = u32::try_from(config.spec.capacity_bits()).expect("small bank");
    let cols = u32::try_from(config.spec.cols).expect("small bank");
    let steps = algorithm
        .program()
        .lower_with_background(cells, cols, DataBackground::Solid);
    let banks: Vec<Bank> = (0..config.banks)
        .map(|index| {
            let mut bank = Bank::new(index, config);
            for step in &steps {
                bank.execute_march_op(step.cell, step.op, step.element, false);
            }
            bank
        })
        .collect();
    let telemetry = Telemetry {
        banks: banks.iter().map(|bank| bank.telemetry().clone()).collect(),
        audit_corrupted_bits: banks.iter().map(Bank::audit_corrupted_bits).sum(),
    };
    (telemetry, banks.iter().map(Bank::stored_bits).collect())
}

#[test]
fn march_is_bit_identical_across_serial_parallel_and_frontend() {
    for algorithm in MarchAlgorithm::ALL {
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 3)
            .with_seed(77)
            .with_faults(mixed_plan());
        let (reference, reference_state) = march_reference(&config, algorithm);

        let mut frontend = Frontend::new(
            Controller::new(config),
            FrontendConfig::fcfs_unbounded().with_march(MarchConfig::new(algorithm)),
        );
        let run = frontend.run(&Trace::new());

        assert!(
            reference.aggregate().march.mismatches > 0,
            "{}: the planted defects must fail the reference",
            algorithm.name()
        );
        assert_eq!(
            frontend.controller().stored_state(),
            reference_state,
            "{}: frontend test traffic must store the exact bits the reference stores",
            algorithm.name()
        );
        // The frontend only adds queueing data on top of the reference verdict.
        let mut scrubbed = run.telemetry.clone();
        for bank in &mut scrubbed.banks {
            bank.queue = QueueTelemetry::default();
        }
        assert_eq!(
            scrubbed,
            reference,
            "{}: frontend March telemetry must only add queueing data",
            algorithm.name()
        );
    }
}

#[test]
fn march_c_minus_catches_every_deterministic_single_cell_fault_at_10n() {
    let config = MarchCampaignConfig::date2010()
        .with_schemes(vec![SchemeKind::Nondestructive])
        .with_algorithms(vec![MarchAlgorithm::CMinus])
        .with_classes(vec![
            FaultClass::StuckAt,
            FaultClass::TransitionUp,
            FaultClass::TransitionDown,
            FaultClass::Pinhole,
            FaultClass::CouplingState,
        ]);
    for row in run_escape_campaign(&config) {
        assert!((row.ops_per_bit - 10.0).abs() < 1e-12, "March C- is 10n");
        if row.protection == Protection::None {
            assert_eq!(
                row.detection_rate,
                1.0,
                "{} must not escape March C- unprotected",
                row.class.name()
            );
        }
    }
}

#[test]
fn the_full_escape_matrix_holds_its_coverage_contract() {
    // 7 classes × 3 schemes × 3 protections × 2 algorithms. Every textbook
    // guarantee is asserted *inside* run_escape_campaign; reaching the row
    // count means they all held.
    let config = MarchCampaignConfig::date2010();
    let rows = run_escape_campaign(&config);
    assert_eq!(rows.len(), 7 * 3 * 3 * 2);

    // CFds: the one deterministic escape — invisible to March C–, fully
    // caught by March SS's non-transition writes.
    let cfds_unprotected = |algorithm: MarchAlgorithm| {
        rows.iter()
            .find(|row| {
                row.class == FaultClass::CouplingDisturb
                    && row.scheme == SchemeKind::Nondestructive
                    && row.protection == Protection::None
                    && row.algorithm == algorithm
            })
            .expect("sweep covers the CFds cell")
    };
    assert_eq!(cfds_unprotected(MarchAlgorithm::CMinus).escape_rate, 1.0);
    assert_eq!(cfds_unprotected(MarchAlgorithm::Ss).escape_rate, 0.0);

    // Test-time economics: C– must finish strictly faster than SS on every
    // matching cell — that is the entire reason C– exists.
    for ss_row in rows.iter().filter(|r| r.algorithm == MarchAlgorithm::Ss) {
        let c_row = rows
            .iter()
            .find(|r| {
                r.algorithm == MarchAlgorithm::CMinus
                    && r.class == ss_row.class
                    && r.scheme == ss_row.scheme
                    && r.protection == ss_row.protection
            })
            .expect("paired March C- cell");
        assert!(
            c_row.test_time_ns < ss_row.test_time_ns,
            "10n must be cheaper than 22n ({:?}/{:?})",
            ss_row.class,
            ss_row.scheme
        );
        assert!(c_row.march_ops < ss_row.march_ops);
    }

    // ECC masks single-cell defects from the tester (the codec corrects
    // what the test is trying to observe): stuck-at coverage under ECC
    // must be *below* the unprotected coverage on a clean scheme.
    let stuck = |protection: Protection| {
        rows.iter()
            .find(|row| {
                row.class == FaultClass::StuckAt
                    && row.scheme == SchemeKind::Nondestructive
                    && row.protection == protection
                    && row.algorithm == MarchAlgorithm::CMinus
            })
            .expect("sweep covers the stuck-at cell")
    };
    assert_eq!(stuck(Protection::None).detection_rate, 1.0);
    assert!(
        stuck(Protection::Ecc).detection_rate < 1.0,
        "SECDED must absorb isolated stuck cells: test before protecting"
    );
}

#[test]
fn campaign_rows_are_deterministic() {
    let config = MarchCampaignConfig::date2010()
        .with_schemes(vec![SchemeKind::Destructive])
        .with_classes(vec![FaultClass::Backhop, FaultClass::CouplingState]);
    let a = run_escape_campaign(&config);
    let b = run_escape_campaign(&config);
    assert_eq!(a, b, "same seed, same matrix");
}
