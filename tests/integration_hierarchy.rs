//! Integration tests for the `stt-ctrl` full-chip memory hierarchy.
//!
//! The properties the subsystem stakes its design on:
//!
//! 1. **Sharded ≡ serial, bit-identically** — one worker thread per channel
//!    produces exactly the telemetry and stored state of serving channels
//!    one after another, across every sensing scheme, with and without
//!    fault injection, for closed-loop and trace-replay driving alike.
//! 2. **Interleaving is bijective** — for every policy and random geometry,
//!    `encode ∘ decode` is the identity over the whole address space and no
//!    two linear addresses alias one physical cell (property-tested).
//! 3. **Lazy materialisation** — a chip allocates state only for the banks
//!    traffic actually touches, so multi-GB-addressable topologies cost
//!    memory proportional to the working set, not the chip.
//! 4. **Closed-loop backpressure** — the source never exceeds its window,
//!    and a tight window visibly throttles issue.
//! 5. **Chip ≡ flat controller, per bank** — under a defect library, each
//!    chip bank ends a trace exactly as serial controller replay leaves it.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stt_array::Address;
use stt_ctrl::{
    BusTiming, Chip, ChipConfig, ChipRun, ClosedLoopSource, Controller, ControllerConfig,
    CouplingKind, Dispatch, FaultPlan, Geometry, GeometryParseErrorKind, InterleavePolicy,
    QueueTelemetry, ShardDispatch, Topology, Trace, Transaction, Workload,
};
use stt_sense::SchemeKind;

/// Runs the same closed-loop source through two identically-configured
/// chips, one serial and one sharded, and asserts bit-identity of the run
/// result (telemetry, counters, makespan) and the stored bits.
fn assert_sharded_identity(config: ChipConfig, source: &ClosedLoopSource) {
    let kind = config.kind;
    let mut serial = Chip::new(config.clone());
    let mut sharded = Chip::new(config);
    let a = serial.run_closed_loop(source, ShardDispatch::Serial);
    let b = sharded.run_closed_loop(source, ShardDispatch::Sharded);
    assert_eq!(
        a, b,
        "{kind}: sharded closed-loop run must be bit-identical to serial"
    );
    assert_eq!(
        serial.stored_state(),
        sharded.stored_state(),
        "{kind}: sharded chips must store the exact bits serial chips store"
    );
}

#[test]
fn sharded_dispatch_is_bit_identical_to_serial_for_every_scheme() {
    for kind in SchemeKind::ALL {
        let config = ChipConfig::small(kind, Topology::new(3, 1, 2, 2)).with_seed(314);
        assert_sharded_identity(config, &ClosedLoopSource::read_mostly(600, 4));
    }
}

#[test]
fn sharded_dispatch_is_bit_identical_to_serial_under_faults() {
    let topology = Topology::new(2, 2, 2, 1);
    let plan = FaultPlan::none()
        .with_power_cut_every(120)
        .with_retention_rate(4e-7)
        .with_read_disturb(2e-7)
        .with_stuck_cell(0, Address::new(1, 1), true)
        .with_stuck_cell(5, Address::new(2, 3), false);
    for kind in SchemeKind::ALL {
        let config = ChipConfig::small(kind, topology)
            .with_seed(99)
            .with_faults(plan.clone());
        assert_sharded_identity(config, &ClosedLoopSource::read_mostly(500, 3));
    }
}

/// The chip is a flat controller with buses in front: each bank serves
/// its own transactions in arrival order either way, so under a defect
/// library spread over both channels every bank must end with the same
/// telemetry (queueing aside, which only the chip keeps) and the same
/// stored bits as under serial controller replay of the same trace.
#[test]
fn chip_banks_match_a_flat_controller_under_a_per_bank_defect_library() {
    let topology = Topology::new(2, 1, 2, 2);
    // One row of defects per faulty bank, so every class meets traffic.
    let mut plan = FaultPlan::none()
        .with_power_cut_every(17)
        .with_coupling_fault(
            6,
            0,
            9,
            10,
            CouplingKind::State {
                aggressor_value: true,
                victim_value: false,
            },
        )
        .with_coupling_fault(6, 0, 20, 21, CouplingKind::Disturb { victim_value: true })
        .with_coupling_fault(
            6,
            0,
            40,
            33,
            CouplingKind::Disturb {
                victim_value: false,
            },
        );
    for col in 0..8 {
        plan = plan
            .with_transition_fault(1, Address::new(0, col), col % 2 == 0)
            .with_pinhole(2, Address::new(3, col))
            .with_backhop(5, Address::new(4, col), 0.5)
            .with_stuck_cell(7, Address::new(7, col), col % 2 == 1);
    }
    for kind in SchemeKind::ALL {
        let config = ChipConfig::small(kind, topology)
            .with_seed(41)
            .with_faults(plan.clone());
        let trace = Workload::Uniform { read_fraction: 0.6 }.generate_physical(
            &config.geometry(),
            InterleavePolicy::ChannelStriped,
            3000,
            &mut StdRng::seed_from_u64(29),
        );
        let mut chip = Chip::new(config);
        let run = chip.run_trace(&trace, ShardDispatch::Sharded);
        assert_eq!(run.completed, 3000, "{kind}");

        let mut flat = Controller::new(
            ControllerConfig::small(kind, topology.total_banks())
                .with_seed(41)
                .with_faults(plan.clone()),
        );
        let reference = flat.run(&trace, Dispatch::Serial);
        assert_eq!(run.telemetry.resident_banks(), topology.total_banks());
        for ((coord, chip_bank), flat_bank) in run.telemetry.banks.iter().zip(&reference.banks) {
            let mut chip_bank = chip_bank.clone();
            chip_bank.queue = QueueTelemetry::default();
            assert_eq!(&chip_bank, flat_bank, "{kind}: bank {coord:?} diverged");
        }
        let flat_state: Vec<(usize, Vec<bool>)> =
            flat.stored_state().into_iter().enumerate().collect();
        assert_eq!(
            chip.stored_state(),
            flat_state,
            "{kind}: stored bits diverged"
        );

        let bank = |index: usize| &reference.banks[index];
        assert!(bank(1).write_transition_faults > 0, "{kind}: transition");
        assert!(bank(2).misreads > 0, "{kind}: pinhole");
        assert!(bank(5).backhop_flips > 0, "{kind}: backhop");
        assert!(bank(6).coupling_triggers > 0, "{kind}: coupling");
        assert!(bank(7).misreads > 0, "{kind}: stuck");
        assert!(reference.aggregate().power_cuts > 0, "{kind}: power cut");
    }
}

#[test]
fn sharded_trace_replay_matches_serial_for_every_interleave() {
    let config = ChipConfig::small(SchemeKind::Nondestructive, Topology::new(2, 1, 2, 2));
    let geometry = config.geometry();
    for policy in InterleavePolicy::ALL {
        let trace = Workload::Zipf {
            theta: 0.9,
            read_fraction: 0.8,
        }
        .generate_physical(&geometry, policy, 700, &mut StdRng::seed_from_u64(17));
        let mut serial = Chip::new(config.clone());
        let mut sharded = Chip::new(config.clone());
        let a = serial.run_trace(&trace, ShardDispatch::Serial);
        let b = sharded.run_trace(&trace, ShardDispatch::Sharded);
        assert_eq!(a, b, "{}: sharded replay diverged", policy.name());
        assert_eq!(a.completed, 700);
        assert_eq!(serial.stored_state(), sharded.stored_state());
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn sharded_chip_keeps_a_bank_panic_message() {
    // A bank on channel 1's worker reads past its array: the caller must
    // see the bank's own message, not an opaque worker-join error.
    let config = ChipConfig::small(SchemeKind::Nondestructive, Topology::new(2, 1, 1, 2));
    let trace = Trace::from_transactions(vec![
        Transaction::read(0, Address::new(0, 0)),
        Transaction::read(3, Address::new(99, 99)),
    ]);
    Chip::new(config).run_trace(&trace, ShardDispatch::Sharded);
}

#[test]
fn lazy_chips_materialise_at_most_the_touched_banks() {
    // 512 banks addressable; a hot-set trace touches only a few.
    let topology = Topology::new(4, 2, 8, 8);
    let config = ChipConfig::small(SchemeKind::Nondestructive, topology);
    let geometry = config.geometry();
    let trace = Workload::Zipf {
        theta: 1.3,
        read_fraction: 0.9,
    }
    .generate_physical(
        &geometry,
        InterleavePolicy::BankXor,
        400,
        &mut StdRng::seed_from_u64(23),
    );
    let touched: HashSet<usize> = trace.transactions().iter().map(|t| t.bank).collect();
    let mut chip = Chip::new(config);
    assert_eq!(chip.resident_banks(), 0, "an untouched chip holds no banks");
    let run = chip.run_trace(&trace, ShardDispatch::Sharded);
    assert_eq!(run.completed, 400);
    assert_eq!(
        chip.resident_banks(),
        touched.len(),
        "exactly the touched banks materialise"
    );
    assert!(
        chip.resident_banks() < topology.total_banks(),
        "a hot set must not populate all {} banks",
        topology.total_banks()
    );
    // Telemetry reports only resident banks, in global bank order.
    let reported: Vec<usize> = run
        .telemetry
        .banks
        .iter()
        .map(|(coord, _)| topology.flatten(*coord))
        .collect();
    let mut expected: Vec<usize> = touched.iter().copied().collect();
    expected.sort_unstable();
    assert_eq!(reported, expected);
}

#[test]
fn materialisation_order_does_not_change_a_banks_behaviour() {
    // Same physical traffic, opposite first-touch order: bank RNG streams
    // derive from the global index, so each bank's sensing behaviour must
    // be equal. (Queue *timing* legitimately differs — the reversed trace
    // serves banks in a different order — so it is masked out.)
    let config = ChipConfig::small(SchemeKind::Nondestructive, Topology::flat(4)).with_seed(5);
    let addr = Address::new(1, 1);
    let forward: Vec<Transaction> = (0..4).map(|b| Transaction::read(b, addr)).collect();
    let reverse: Vec<Transaction> = (0..4).rev().map(|b| Transaction::read(b, addr)).collect();
    let run_of = |txns: Vec<Transaction>| {
        let mut chip = Chip::new(config.clone());
        chip.run_trace(&Trace::from_transactions(txns), ShardDispatch::Serial);
        let mut banks = chip.telemetry().banks;
        for (_, telemetry) in &mut banks {
            telemetry.queue = QueueTelemetry::default();
        }
        banks
    };
    assert_eq!(
        run_of(forward),
        run_of(reverse),
        "touch order must be invisible"
    );
}

#[test]
fn closed_loop_window_bounds_outstanding_and_throttles() {
    let config = ChipConfig::small(SchemeKind::Nondestructive, Topology::date2010());
    // A think gap far shorter than service time guarantees the source hits
    // its window and goes quiet until completions wake it.
    let source = ClosedLoopSource::read_mostly(400, 2).with_mean_think_ns(0.5);
    let mut chip = Chip::new(config);
    let run = chip.run_closed_loop(&source, ShardDispatch::Sharded);
    for channel in &run.telemetry.channels {
        assert_eq!(channel.issued, 400);
        assert_eq!(channel.completed, 400);
        assert!(
            channel.max_outstanding <= 2,
            "window 2 exceeded: {}",
            channel.max_outstanding
        );
        assert!(
            channel.source_throttled > 0,
            "a saturating source must report throttling"
        );
    }
    // A wider window at the same think rate completes no later and keeps
    // more requests in flight.
    let mut wide_chip = Chip::new(ChipConfig::small(
        SchemeKind::Nondestructive,
        Topology::date2010(),
    ));
    let wide = wide_chip.run_closed_loop(&source.with_window(16), ShardDispatch::Sharded);
    assert!(wide.makespan_ns <= run.makespan_ns);
    assert!(wide.telemetry.channels[0].max_outstanding > run.telemetry.channels[0].max_outstanding);
}

#[test]
fn geometry_flag_errors_are_typed_and_name_the_level() {
    let error = "2x1x2".parse::<Topology>().unwrap_err();
    assert_eq!(error.kind, GeometryParseErrorKind::FieldCount { got: 3 });
    assert_eq!(
        error.to_string(),
        "geometry: expected CxRxGxB (4 fields), got 3"
    );
    let error = "2x1x2xmany".parse::<Topology>().unwrap_err();
    assert_eq!(
        error.kind,
        GeometryParseErrorKind::BadCount {
            level: "banks",
            value: "many".to_string(),
        }
    );
    let error = "0x1x2x2".parse::<Topology>().unwrap_err();
    assert_eq!(
        error.kind,
        GeometryParseErrorKind::ZeroCount { level: "channels" }
    );
    assert_eq!(error.kind.level(), Some("channels"));
    assert_eq!("4x2x4x4".parse::<Topology>(), Ok(Topology::new(4, 2, 4, 4)));
}

#[test]
fn per_level_rollups_partition_chip_traffic() {
    let config = ChipConfig::small(SchemeKind::Nondestructive, Topology::new(2, 2, 2, 2));
    let mut chip = Chip::new(config);
    let run = chip.run_closed_loop(
        &ClosedLoopSource::read_mostly(300, 4),
        ShardDispatch::Sharded,
    );
    let total = run.telemetry.aggregate();
    assert_eq!(total.reads + total.writes, 600);
    for (label, rollup_reads) in [
        (
            "channel",
            run.telemetry
                .by_channel()
                .values()
                .map(|b| b.reads)
                .sum::<u64>(),
        ),
        (
            "rank",
            run.telemetry
                .by_rank()
                .values()
                .map(|b| b.reads)
                .sum::<u64>(),
        ),
        (
            "group",
            run.telemetry
                .by_group()
                .values()
                .map(|b| b.reads)
                .sum::<u64>(),
        ),
    ] {
        assert_eq!(
            rollup_reads, total.reads,
            "the {label} roll-up must partition the chip"
        );
    }
}

/// FNV-1a over a byte string: a small, dependency-free fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Fingerprints a chip's runs together with its final stored bits.
fn chip_fingerprint(runs: &[ChipRun], chip: &Chip) -> u64 {
    fnv1a(format!("{runs:?}{:?}", chip.stored_state()).as_bytes())
}

/// Pins the chip's channel loop on the cases where its event order
/// matters: bus contention under a wide closed-loop window, a sharded
/// window-2 run on a chip that already holds state, open-loop replay with
/// power cuts, arrivals that tie bank-done instants at zero bus time, and
/// a trace that touches one bank after a closed loop. The fingerprints
/// move only with an intended change to simulated results; a rewrite of
/// the channel loop must leave every value below untouched.
#[test]
fn chip_runs_are_pinned() {
    let topology = Topology::new(2, 1, 2, 2);
    let mut fingerprints = Vec::new();

    let contended = BusTiming {
        group_bus_ns: 10.0,
        channel_bus_ns: 5.0,
    };
    let wide = ClosedLoopSource::read_mostly(300, 16).with_mean_think_ns(1.0);
    for kind in SchemeKind::ALL {
        let config = ChipConfig::small(kind, topology)
            .with_seed(41)
            .with_bus(contended);
        let mut chip = Chip::new(config);
        let first = chip.run_closed_loop(&wide, ShardDispatch::Serial);
        assert!(first.telemetry.channels[0].bus_wait_ns > 0.0, "{kind}");
        let second = chip.run_closed_loop(&wide.with_window(2), ShardDispatch::Sharded);
        fingerprints.push(chip_fingerprint(&[first, second], &chip));
    }

    let geometry = ChipConfig::small(SchemeKind::Nondestructive, topology).geometry();
    let replay = Workload::Zipf {
        theta: 0.9,
        read_fraction: 0.8,
    }
    .generate_physical(
        &geometry,
        InterleavePolicy::BankXor,
        500,
        &mut StdRng::seed_from_u64(43),
    )
    .with_poisson_arrivals(6.0, &mut StdRng::seed_from_u64(44));
    for kind in SchemeKind::ALL {
        let config = ChipConfig::small(kind, topology)
            .with_seed(42)
            .with_faults(FaultPlan::none().with_power_cut_every(13));
        let mut chip = Chip::new(config);
        let run = chip.run_trace(&replay, ShardDispatch::Sharded);
        assert!(run.telemetry.aggregate().power_cuts > 0, "{kind}");
        fingerprints.push(chip_fingerprint(&[run], &chip));
    }

    // Conventional reads take a whole 9 ns and the bus is free, so 1 ns
    // arrivals land on the very instants banks finish.
    let flat = ChipConfig::small(SchemeKind::Conventional, Topology::flat(20))
        .with_seed(45)
        .with_bus(BusTiming {
            group_bus_ns: 0.0,
            channel_bus_ns: 0.0,
        });
    let ties = Trace::from_transactions(
        Workload::Uniform { read_fraction: 1.0 }
            .generate_physical(
                &flat.geometry(),
                InterleavePolicy::Linear,
                400,
                &mut StdRng::seed_from_u64(46),
            )
            .transactions()
            .iter()
            .enumerate()
            .map(|(i, txn)| txn.at(i as u64))
            .collect(),
    );
    let mut chip = Chip::new(flat);
    let run = chip.run_trace(&ties, ShardDispatch::Serial);
    fingerprints.push(chip_fingerprint(&[run], &chip));

    let mut chip = Chip::new(ChipConfig::small(SchemeKind::Nondestructive, topology).with_seed(47));
    let closed = chip.run_closed_loop(
        &ClosedLoopSource::read_mostly(200, 4),
        ShardDispatch::Serial,
    );
    let one_bank = Trace::from_transactions(
        (0..60)
            .map(|i| {
                let addr = Address::new(i % 8, (3 * i) % 8);
                let txn = if i % 4 == 0 {
                    Transaction::write(5, addr, i % 8 == 0)
                } else {
                    Transaction::read(5, addr)
                };
                txn.at(2 * i as u64)
            })
            .collect(),
    );
    let replayed = chip.run_trace(&one_bank, ShardDispatch::Sharded);
    assert_eq!(replayed.completed, 60);
    fingerprints.push(chip_fingerprint(&[closed, replayed], &chip));

    let expected = [
        0x8737_f628_a437_6610,
        0x7f78_f30f_305c_1519,
        0x26ba_3c4b_7cf7_9717,
        0xe58c_71d4_193d_a324,
        0xc6e7_e8fc_daff_5376,
        0x9dfc_d7b5_0e44_ebfc,
        0x33ec_f3c0_a6b0_deaf,
        0x0e5d_7fc4_31ff_d48d,
    ];
    assert_eq!(
        fingerprints, expected,
        "simulated results moved (got {fingerprints:#018x?})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every interleave policy is a bijection over every geometry: encoding
    /// a decoded address returns the original, decoded locations stay in
    /// range, and no two linear addresses alias one physical cell.
    #[test]
    fn every_interleave_policy_is_a_bijection(
        channels in 1usize..5,
        ranks in 1usize..3,
        groups in 1usize..4,
        banks in 1usize..5,
        rows in 1usize..9,
        cols in 1usize..9,
        policy_pick in 0usize..3,
    ) {
        let geometry = Geometry::new(
            Topology::new(channels, ranks, groups, banks),
            rows,
            cols,
        );
        let policy = InterleavePolicy::ALL[policy_pick];
        let mut seen = HashSet::with_capacity(geometry.cells());
        for linear in 0..geometry.cells() {
            let phys = policy.decode(&geometry, linear);
            prop_assert!(phys.addr.row < rows && phys.addr.col < cols);
            prop_assert!(
                geometry.topology.flatten(phys.coord) < geometry.topology.total_banks()
            );
            prop_assert!(
                policy.encode(&geometry, phys) == linear,
                "{}: decode/encode must invert at {}",
                policy.name(),
                linear
            );
            prop_assert!(
                seen.insert((phys.coord, phys.addr.row, phys.addr.col)),
                "{}: linear {} aliases an earlier physical cell",
                policy.name(),
                linear
            );
        }
        // Right-inverse over the full finite domain + no aliasing = bijection.
        prop_assert_eq!(seen.len(), geometry.cells());
    }

    /// The sharded ≡ serial identity holds across randomly drawn topologies,
    /// windows and seeds, not just the hand-picked cases.
    #[test]
    fn sharded_identity_holds_over_random_topologies(
        channels in 1usize..4,
        groups in 1usize..3,
        banks in 1usize..3,
        window in 1usize..6,
        ops in 50usize..200,
        seed in 0u64..500,
    ) {
        let config = ChipConfig::small(
            SchemeKind::Nondestructive,
            Topology::new(channels, 1, groups, banks),
        )
        .with_seed(seed);
        let source = ClosedLoopSource::read_mostly(ops, window).with_seed(seed ^ 0xc0ffee);
        let mut serial = Chip::new(config.clone());
        let mut sharded = Chip::new(config);
        let a = serial.run_closed_loop(&source, ShardDispatch::Serial);
        let b = sharded.run_closed_loop(&source, ShardDispatch::Sharded);
        prop_assert_eq!(a, b);
        prop_assert_eq!(serial.stored_state(), sharded.stored_state());
    }
}

/// What the channel loop's event order decides, read off one run: the
/// makespan's bits; per channel, the bus wait's bits, the peak outstanding
/// count and the throttled issues; per resident bank, a fingerprint of its
/// queue telemetry (`{:?}` prints every float exactly).
fn event_order_readings(run: &ChipRun) -> (u64, Vec<(u64, u64, u64)>, Vec<u64>) {
    let channels = run
        .telemetry
        .channels
        .iter()
        .map(|c| {
            (
                c.bus_wait_ns.to_bits(),
                c.max_outstanding,
                c.source_throttled,
            )
        })
        .collect();
    let queues = run
        .telemetry
        .banks
        .iter()
        .map(|(_, bank)| fnv1a(format!("{:?}", bank.queue).as_bytes()))
        .collect();
    (run.makespan_ns.to_bits(), channels, queues)
}

/// Pins the order in which a channel pops its events where only the
/// tie-breaking sequence number decides it. Conventional reads take a
/// whole 9 ns and bursts arrive on integer nanoseconds at the banks of one
/// group, so arrivals, bank-done and completion events meet on the same
/// instants, both with a free bus (a transfer completes at its bank-done
/// instant) and with the default 4 + 2 ns bus. Closed loops at windows 1,
/// 3 and 16 cover the issue path and its throttling. Every value was
/// recorded before the channel loop left its event heap.
#[test]
fn chip_event_order_is_pinned_under_ties() {
    let topology = Topology::new(2, 1, 2, 2);
    let mut bursts = Vec::new();
    for i in 0..90usize {
        for j in 0..=(i % 3) {
            // Channel 1 takes the same banks' bursts at a faster cadence.
            for (channel_base, cadence) in [(0, 2), (4, 3)] {
                let bank = channel_base + (i + j) % 2;
                let addr = Address::new((i + j) % 8, (3 * i + j) % 8);
                let txn = if (i + j) % 7 == 0 {
                    Transaction::write(bank, addr, i % 2 == 0)
                } else {
                    Transaction::read(bank, addr)
                };
                bursts.push(txn.at(3 * (i / cadence) as u64));
            }
        }
    }
    let trace = Trace::from_transactions(bursts);
    let free_bus = BusTiming {
        group_bus_ns: 0.0,
        channel_bus_ns: 0.0,
    };
    let mut readings = Vec::new();
    for bus in [free_bus, BusTiming::date2010()] {
        let config = ChipConfig::small(SchemeKind::Conventional, topology)
            .with_seed(51)
            .with_bus(bus);
        let run = Chip::new(config).run_trace(&trace, ShardDispatch::Serial);
        assert_eq!(run.completed, trace.len() as u64);
        readings.push(event_order_readings(&run));
    }
    for window in [1, 3, 16] {
        let config = ChipConfig::small(SchemeKind::Conventional, topology).with_seed(52);
        let source = ClosedLoopSource::read_mostly(250, window).with_mean_think_ns(2.0);
        let run = Chip::new(config).run_closed_loop(&source, ShardDispatch::Serial);
        assert_eq!(run.completed, 500);
        readings.push(event_order_readings(&run));
    }
    type Readings = (u64, Vec<(u64, u64, u64)>, Vec<u64>);
    let expected: [Readings; 5] = [
        (
            0x4088_1800_0000_0002,
            vec![(0, 150, 0), (0, 161, 0)],
            vec![
                0x8ae5_ac53_60cb_6d13,
                0xe653_38a4_a515_2439,
                0x665d_0172_d5a8_ff1d,
                0x2f14_ff42_9970_76fe,
            ],
        ),
        (
            0x4094_dc00_0000_0000,
            vec![
                (0x4045_0000_0000_0000, 163, 0),
                (0x4045_0000_0000_0000, 169, 0),
            ],
            vec![
                0x78a5_c005_d8cf_d9f1,
                0x04c7_9507_b329_337c,
                0x4908_e234_36aa_b174,
                0xc6fa_5ddb_1387_77fb,
            ],
        ),
        (
            0x40b0_7408_7cab_0b49,
            vec![(0, 1, 249), (0, 1, 248)],
            vec![
                0xc78c_214d_ae08_507d,
                0x7b3e_fdf5_41ad_ece7,
                0x66dc_d038_762e_da02,
                0xb7bd_4ea0_def6_428e,
                0x0312_c0fb_8614_902a,
                0xd8a9_bb36_3b8e_da91,
                0x8ccb_d192_c882_0588,
                0xc24a_8dc4_a305_730a,
            ],
        ),
        (
            0x409e_7576_7986_889c,
            vec![
                (0x407f_6aad_d1f0_7f1c, 3, 213),
                (0x407a_eb0c_10e3_15df, 3, 216),
            ],
            vec![
                0x65ed_b2eb_9f4a_9d58,
                0x5ce0_3758_af48_c7ca,
                0x7544_5046_7315_4cc9,
                0xf9ab_ddeb_2939_3a9d,
                0xcf14_7472_5ad1_de55,
                0x1021_26ef_a808_980c,
                0xe576_e5a8_26ee_a71f,
                0x1170_9850_0477_860a,
            ],
        ),
        (
            0x4098_7a1c_b9b1_398d,
            vec![
                (0x4099_9885_0be0_6b0e, 16, 196),
                (0x4099_0721_1061_605a, 16, 182),
            ],
            vec![
                0xbbad_0499_8a12_2585,
                0x5888_5417_9ddf_71ff,
                0xab3c_d1d1_a8c9_a6d4,
                0x2d32_e809_4e44_484f,
                0x5c7a_cb4c_09b2_2260,
                0x8580_96f5_8003_1cf6,
                0x60da_c366_d64e_fd9f,
                0x5e02_a2b7_470d_67cd,
            ],
        ),
    ];
    assert_eq!(
        readings, expected,
        "the channel loop's event order moved (got {readings:#x?})"
    );
}
