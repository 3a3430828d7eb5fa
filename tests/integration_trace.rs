//! Integration tests for trace interchange formats and zero-copy replay.
//!
//! The properties the binary format stakes its design on (DESIGN.md §12):
//!
//! 1. **Lossless interchange** — CSV and binary serialisation round-trip
//!    arbitrary traces exactly, timed or untimed, across the full 32-bit
//!    field range (proptested), so `trafficsim --convert` never lies.
//! 2. **Typed rejection** — any structural damage to a binary buffer fails
//!    with the exact [`TraceBinaryError`] variant naming what broke.
//! 3. **Zero-copy parity** — replaying through a borrowed [`TraceView`] is
//!    bit-identical to replaying the owned [`Trace`], on the serial engine
//!    and the scheduler frontend alike, with and without injected faults.
//! 4. **Parsers never panic** — fuzzed CSV text, binary buffers and
//!    `CxRxGxB` geometry strings each yield a value or a typed error, and
//!    a value never panics later (a parsed trace encodes, a parsed
//!    topology counts its banks).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stt_array::Address;
use stt_ctrl::txn::{TRACE_HEADER_BYTES, TRACE_RECORD_BYTES};
use stt_ctrl::{
    Controller, ControllerConfig, Dispatch, FaultPlan, Frontend, FrontendConfig, Topology, Trace,
    TraceBinaryError, TraceView, Transaction, TxnSource, Workload,
};
use stt_sense::SchemeKind;

/// A trace with every field swept across its encodable range: banks, rows
/// and columns anywhere in `0..=u32::MAX`, reads and both write polarities,
/// arrivals anywhere in `u64` when timed. Interchange must not care whether
/// the geometry is physically plausible.
fn arbitrary_trace(ops: usize, seed: u64, timed: bool) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let transactions = (0..ops)
        .map(|_| {
            let addr = Address::new(rng.gen::<u32>() as usize, rng.gen::<u32>() as usize);
            let bank = rng.gen::<u32>() as usize;
            let txn = match rng.gen_range(0usize..3) {
                0 => Transaction::read(bank, addr),
                1 => Transaction::write(bank, addr, false),
                _ => Transaction::write(bank, addr, true),
            };
            if timed {
                txn.at(rng.gen::<u64>())
            } else {
                txn
            }
        })
        .collect();
    Trace::from_transactions(transactions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSV and binary both reproduce the exact trace, and the two formats
    /// agree with each other through the converter path (trace → binary →
    /// trace → CSV → trace).
    #[test]
    fn csv_and_binary_round_trip_losslessly(
        ops in 0usize..150,
        seed in 0u64..1_000_000,
        timed_pick in 0usize..2,
    ) {
        let trace = arbitrary_trace(ops, seed, timed_pick == 1);

        let csv = trace.to_csv();
        prop_assert_eq!(&Trace::from_csv(&csv).unwrap(), &trace);

        let bytes = trace.to_binary();
        prop_assert_eq!(bytes.len(), TRACE_HEADER_BYTES + ops * TRACE_RECORD_BYTES);
        prop_assert_eq!(&Trace::from_binary(&bytes).unwrap(), &trace);

        // The converter chains the two formats; the chain must be as
        // lossless as each link.
        let reconverted = Trace::from_csv(&Trace::from_binary(&bytes).unwrap().to_csv()).unwrap();
        prop_assert_eq!(&reconverted, &trace);
    }

    /// The zero-copy view decodes every record to the same transaction the
    /// owned trace holds, in the same order.
    #[test]
    fn trace_view_decodes_identically(
        ops in 0usize..150,
        seed in 0u64..1_000_000,
    ) {
        let trace = arbitrary_trace(ops, seed, true);
        let bytes = trace.to_binary();
        let view = TraceView::new(&bytes).unwrap();
        prop_assert_eq!(view.len(), trace.len());
        for index in 0..trace.len() {
            prop_assert_eq!(view.get(index), trace.get(index));
        }
    }
}

/// A small valid buffer to damage, one structural failure at a time.
fn valid_binary() -> Vec<u8> {
    Trace::from_transactions(vec![
        Transaction::write(0, Address::new(1, 2), true).at(10),
        Transaction::read(1, Address::new(3, 4)).at(25),
    ])
    .to_binary()
}

#[test]
fn binary_shorter_than_header_is_truncated() {
    let bytes = valid_binary();
    for cut in 0..TRACE_HEADER_BYTES {
        assert_eq!(
            TraceView::new(&bytes[..cut]).unwrap_err(),
            TraceBinaryError::Truncated { got: cut },
        );
    }
}

#[test]
fn binary_with_wrong_magic_is_rejected() {
    let mut bytes = valid_binary();
    bytes[0] = b'X';
    assert_eq!(
        Trace::from_binary(&bytes).unwrap_err(),
        TraceBinaryError::BadMagic {
            got: [b'X', b'T', b'T', b'R']
        },
    );
}

#[test]
fn binary_with_unknown_version_is_rejected() {
    let mut bytes = valid_binary();
    bytes[4] = 9;
    assert_eq!(
        Trace::from_binary(&bytes).unwrap_err(),
        TraceBinaryError::BadVersion { got: 9 },
    );
}

#[test]
fn binary_with_ragged_body_is_misaligned() {
    let mut bytes = valid_binary();
    bytes.push(0);
    assert_eq!(
        Trace::from_binary(&bytes).unwrap_err(),
        TraceBinaryError::Misaligned {
            body_bytes: 2 * TRACE_RECORD_BYTES + 1
        },
    );
}

#[test]
fn binary_with_lying_header_count_is_rejected() {
    let mut bytes = valid_binary();
    bytes[8..16].copy_from_slice(&3u64.to_le_bytes());
    assert_eq!(
        Trace::from_binary(&bytes).unwrap_err(),
        TraceBinaryError::CountMismatch { header: 3, body: 2 },
    );
}

#[test]
fn binary_with_bad_op_byte_names_the_record() {
    let mut bytes = valid_binary();
    // Second record's op byte: header + one full record + 12-byte offset.
    bytes[TRACE_HEADER_BYTES + TRACE_RECORD_BYTES + 12] = 7;
    assert_eq!(
        Trace::from_binary(&bytes).unwrap_err(),
        TraceBinaryError::BadOp { record: 1, code: 7 },
    );
}

#[test]
fn binary_errors_render_the_failure() {
    // The Display impls carry the diagnostic payload `trafficsim --convert`
    // surfaces; pin that they name the offending numbers.
    let text = TraceBinaryError::CountMismatch { header: 3, body: 2 }.to_string();
    assert!(text.contains('3') && text.contains('2'), "got: {text}");
    let text = TraceBinaryError::BadOp { record: 1, code: 7 }.to_string();
    assert!(text.contains('1') && text.contains('7'), "got: {text}");
}

/// A physically-plausible timed trace for replay-parity runs.
fn replay_trace(config: &ControllerConfig, ops: usize) -> Trace {
    Workload::Uniform { read_fraction: 0.7 }
        .generate(config.footprint(), ops, &mut StdRng::seed_from_u64(11))
        .with_poisson_arrivals(6.0, &mut StdRng::seed_from_u64(12))
}

/// Serial replay through a [`TraceView`] must be indistinguishable from
/// replaying the owned trace: same stored bits, same telemetry.
#[test]
fn serial_replay_from_view_is_bit_identical() {
    for kind in [SchemeKind::Nondestructive, SchemeKind::Destructive] {
        for faults in [
            FaultPlan::none(),
            FaultPlan::none().with_power_cut_every(40),
        ] {
            let config = ControllerConfig::small(kind, 2)
                .with_seed(97)
                .with_faults(faults);
            let trace = replay_trace(&config, 300);
            let bytes = trace.to_binary();
            let view = TraceView::new(&bytes).unwrap();

            let mut owned = Controller::new(config.clone());
            let owned_telemetry = owned.run(&trace, Dispatch::Serial);
            let mut viewed = Controller::new(config);
            let viewed_telemetry = viewed.run(&view, Dispatch::Serial);

            assert_eq!(viewed.stored_state(), owned.stored_state(), "{kind}");
            assert_eq!(viewed_telemetry, owned_telemetry, "{kind}");
        }
    }
}

/// The scheduler frontend fed by a [`TraceView`] must reproduce the owned
/// run exactly: stored state, telemetry, and the full completion log.
#[test]
fn frontend_replay_from_view_is_bit_identical() {
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 4).with_seed(97);
    let trace = replay_trace(&config, 500);
    let bytes = trace.to_binary();
    let view = TraceView::new(&bytes).unwrap();

    let mut owned = Frontend::new(
        Controller::new(config.clone()),
        FrontendConfig::fcfs_unbounded(),
    );
    let owned_run = owned.run(&trace);
    let mut viewed = Frontend::new(Controller::new(config), FrontendConfig::fcfs_unbounded());
    let viewed_run = viewed.run(&view);

    assert_eq!(
        viewed.controller().stored_state(),
        owned.controller().stored_state()
    );
    assert_eq!(viewed_run, owned_run);
    assert!(
        owned_run.completions.iter().any(|c| c.op.is_read()),
        "parity run should exercise reads"
    );
    assert_eq!(owned_run.completions.len(), trace.len());
}

/// Characters the CSV fuzzer draws from: the dialect's own alphabet plus
/// whitespace, signs, exponent and decimal marks, and a multi-byte char.
const CSV_ALPHABET: &[char] = &[
    '0', '1', '2', '4', '7', '9', ',', ',', ',', 'R', 'W', '\n', '\r', ' ', '-', '+', 'e', '.', '♞',
];

/// Parses `text` as a CSV trace; a trace that parses must also encode and
/// decode through the binary format (every field fits its 32-bit words).
fn csv_parses_cleanly(text: &str) {
    if let Ok(trace) = Trace::from_csv(text) {
        assert_eq!(
            Trace::from_binary(&trace.to_binary()).as_ref(),
            Ok(&trace),
            "{text:?}"
        );
    }
}

/// Decodes `bytes` zero-copy and owned: both must return the same records
/// or the same typed error.
fn binary_parses_cleanly(bytes: &[u8]) {
    let owned = Trace::from_binary(bytes).map(|trace| trace.transactions().to_vec());
    let viewed = TraceView::new(bytes).map(|view| view.iter().collect::<Vec<_>>());
    assert_eq!(owned, viewed, "{bytes:?}");
}

/// One `CxRxGxB` field: zero, a small count, a padded count, a count near
/// 2^61 (so products of two overflow), or text that is not a count.
fn geometry_field(pick: u64) -> String {
    match pick % 6 {
        0 => String::from("0"),
        1 => ((pick >> 8) % 64 + 1).to_string(),
        2 => format!(" {} ", (pick >> 8) % 16 + 1),
        3 | 4 => (pick >> 3).to_string(),
        _ => ["", "-1", "two", "1e3", "+4", "18446744073709551616"][(pick >> 8) as usize % 6]
            .to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn csv_parser_survives_arbitrary_text(
        picks in proptest::collection::vec(0usize..CSV_ALPHABET.len() + 3, 0..96),
        codepoints in proptest::collection::vec(0u32..0x11_0000, 96),
    ) {
        // Picks past the alphabet draw an arbitrary Unicode scalar.
        let text: String = picks
            .iter()
            .zip(&codepoints)
            .map(|(&pick, &code)| {
                CSV_ALPHABET
                    .get(pick)
                    .copied()
                    .unwrap_or_else(|| char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER))
            })
            .collect();
        csv_parses_cleanly(&text);
    }

    #[test]
    fn csv_parser_survives_mutated_records(
        seed in 0u64..1_000_000,
        edits in proptest::collection::vec(0u64..u64::MAX, 1..6),
    ) {
        let mut bytes = arbitrary_trace(6, seed, seed % 2 == 0).to_csv().into_bytes();
        for edit in edits {
            let at = (edit % bytes.len() as u64) as usize;
            let byte = (edit >> 40) as u8;
            match (edit >> 32) % 3 {
                0 => bytes[at] = byte,
                1 => {
                    bytes.remove(at);
                    if bytes.is_empty() {
                        break;
                    }
                }
                _ => bytes.insert(at, b"0123456789,RW-\n"[usize::from(byte) % 15]),
            }
        }
        csv_parses_cleanly(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn binary_parsers_survive_arbitrary_bytes(
        keep in 0usize..TRACE_HEADER_BYTES + 1,
        tail in proptest::collection::vec(0u16..256, 0..160),
    ) {
        // A prefix of a valid header (possibly none) gets past the magic
        // and version checks often enough to reach the body checks.
        let mut bytes = valid_binary();
        bytes.truncate(keep);
        bytes.extend(tail.iter().map(|&byte| byte as u8));
        binary_parses_cleanly(&bytes);
    }

    #[test]
    fn binary_parsers_survive_bit_flips(
        seed in 0u64..1_000_000,
        flips in proptest::collection::vec(0u64..u64::MAX, 1..5),
    ) {
        let mut bytes = arbitrary_trace(5, seed, seed % 2 == 0).to_binary();
        for flip in flips {
            let bit = flip % (bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        binary_parses_cleanly(&bytes);
    }

    #[test]
    fn topology_parser_only_accepts_countable_chips(
        fields in proptest::collection::vec(0u64..u64::MAX, 4),
        upper in proptest::bool::ANY,
    ) {
        let separator = if upper { "X" } else { "x" };
        let text = fields.iter().map(|&pick| geometry_field(pick)).collect::<Vec<_>>().join(separator);
        if let Ok(topology) = text.parse::<Topology>() {
            let last = topology.total_banks() - 1;
            prop_assert_eq!(topology.flatten(topology.coord(last)), last);
            prop_assert_eq!(topology.to_string().parse::<Topology>(), Ok(topology));
        }
    }
}
