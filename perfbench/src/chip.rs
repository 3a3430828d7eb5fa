//! `chip-closed-loop`: a `2×1×2×2` chip of eight paper-scale banks fed by a
//! read-mostly closed-loop source with a window of 8 per channel, dispatched
//! with one worker thread per channel.
//!
//! The only workload on `hierarchy::chip`'s own channel loop, interleave,
//! bus stage and sharding, and the only closed loop (callers wait for
//! replies). Banks materialise lazily, so set-up includes a warm-up run that
//! builds them all before anything is timed.

use std::hint::black_box;

use stt_ctrl::{
    BankCoord, BankTelemetry, ChannelTelemetry, Chip, ChipConfig, ChipRun, ClosedLoopSource,
    ShardDispatch, Topology,
};
use stt_sense::SchemeKind;

use crate::measure::{
    scaled_of, scaled_time, setup_and_passes, time, Digest, Ledger, Metric, Outcome,
};
use crate::{nproc, Scale};

/// Channels in the chip: one worker thread each when sharded.
pub const CHANNELS: usize = 2;
const WINDOW: usize = 8;
/// Salt separating the traffic source's stream from the banks'.
const SOURCE_SALT: u64 = 0x50c0_11ed;

struct Params {
    ops_per_channel: usize,
    setup_reps: usize,
    stage_reps: usize,
}

impl Params {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                ops_per_channel: 200_000,
                setup_reps: 11,
                stage_reps: 9,
            },
            Scale::Probe => Self {
                ops_per_channel: 20_000,
                setup_reps: 1,
                stage_reps: 3,
            },
            Scale::Smoke => Self {
                ops_per_channel: 1_000,
                setup_reps: 2,
                stage_reps: 1,
            },
        }
    }
}

fn config(seed: u64) -> ChipConfig {
    ChipConfig::date2010(SchemeKind::Nondestructive, Topology::new(CHANNELS, 1, 2, 2))
        .with_seed(seed)
}

fn source(ops_per_channel: usize, seed: u64) -> ClosedLoopSource {
    ClosedLoopSource::read_mostly(ops_per_channel, WINDOW).with_seed(seed ^ SOURCE_SALT)
}

/// Sharded when every channel gets a core of its own; serial otherwise (the
/// two are bit-identical, so only host time differs).
fn dispatch() -> ShardDispatch {
    if nproc() >= CHANNELS {
        ShardDispatch::Sharded
    } else {
        ShardDispatch::Serial
    }
}

/// A built chip after one warm-up run, which materialises every bank.
fn warmed(config: &ChipConfig, source: &ClosedLoopSource, dispatch: ShardDispatch) -> Chip {
    let mut chip = Chip::new(config.clone());
    black_box(chip.run_closed_loop(source, dispatch));
    chip
}

/// Sharded must equal serial: per channel, its engine counters and the
/// telemetry of every bank it owns. A channel that differs fails all its
/// ops; a dirty audit or a missing completion fails the whole run.
#[must_use]
pub fn check_against_serial(sharded: &ChipRun, serial: &ChipRun, ops_per_channel: u64) -> u64 {
    let total = ops_per_channel * CHANNELS as u64;
    let (a, b) = (&sharded.telemetry, &serial.telemetry);
    if a.audit_corrupted_bits != 0
        || sharded.completed != total
        || sharded.makespan_ns.to_bits() != serial.makespan_ns.to_bits()
    {
        return total;
    }
    let banks_of = |channel: usize, banks: &[(BankCoord, BankTelemetry)]| {
        banks
            .iter()
            .filter(|(coord, _)| coord.channel == channel)
            .cloned()
            .collect::<Vec<_>>()
    };
    (0..CHANNELS)
        .filter(|&ch| {
            a.channels.get(ch) != b.channels.get(ch)
                || banks_of(ch, &a.banks) != banks_of(ch, &b.banks)
        })
        .map(|_| ops_per_channel)
        .sum()
}

fn chip_digest(run: &ChipRun) -> u64 {
    let mut digest = Digest::default();
    digest
        .debug(&run.telemetry)
        .u64(run.completed)
        .f64(run.makespan_ns);
    digest.finish()
}

/// Untraced run.
#[must_use]
pub fn run(scale: Scale, seed: u64, seconds: f64) -> Outcome {
    let params = Params::at(scale);
    let config = config(seed);
    let source = source(params.ops_per_channel, seed);
    let dispatch = dispatch();
    // Passes between two set-ups run on the same warmed chip; state carries
    // over exactly as a long-running chip's would. Each pass must complete
    // every op with a clean audit; the first is also checked against serial
    // dispatch.
    let ops = (params.ops_per_channel * CHANNELS) as u64;
    let mut first: Option<ChipRun> = None;
    let mut later_failed = 0u64;
    let setup = || warmed(&config, &source, dispatch);
    let measured = setup_and_passes(seconds, params.setup_reps, setup, |chip| {
        let (run, secs) = time(|| chip.run_closed_loop(&source, dispatch));
        if first.is_none() {
            first = Some(run);
        } else if run.completed != ops || run.telemetry.audit_corrupted_bits != 0 {
            later_failed += ops;
        }
        secs
    });
    let peak_heap_bytes = crate::alloc::peak_bytes();

    let first = first.expect("at least one pass");
    let mut reference = warmed(&config, &source, ShardDispatch::Serial);
    let serial = reference.run_closed_loop(&source, ShardDispatch::Serial);
    let failed =
        check_against_serial(&first, &serial, params.ops_per_channel as u64) + later_failed;
    let aggregate = first.telemetry.aggregate();
    Outcome {
        input: format!(
            "{} txns per pass over a 2x1x2x2 chip of 16 kb banks, closed loop, window {WINDOW}, \
             90 % reads",
            ops
        ),
        ops_per_pass: ops,
        passes: measured.passes,
        setups: measured.setups,
        peak_heap_bytes,
        failed,
        sim: vec![
            Metric::new("sim_p99_ns", aggregate.queue.sojourn_p99(), "ns"),
            Metric::new(
                "sim_bad_read_frac",
                aggregate.misreads as f64 / aggregate.reads.max(1) as f64,
                "ratio",
            ),
        ],
        digest: chip_digest(&first),
    }
}

/// Warm-up, then the same warmed chip under serial and sharded dispatch.
#[must_use]
pub fn ledger(scale: Scale, seed: u64) -> Ledger {
    let params = Params::at(scale);
    let reps = params.stage_reps;
    let config = config(seed);
    let source = source(params.ops_per_channel, seed);
    let ops = (params.ops_per_channel * CHANNELS) as f64;

    let (mut chip, warm_s) = scaled_time(1, || warmed(&config, &source, ShardDispatch::Serial));
    let mut serial_run = None;
    let serial_s = scaled_of(reps, || {
        let (run, secs) = time(|| chip.run_closed_loop(&source, ShardDispatch::Serial));
        serial_run.get_or_insert(run);
        secs
    });
    let sharded_s = scaled_of(reps, || {
        let (run, secs) = time(|| chip.run_closed_loop(&source, dispatch()));
        black_box(run);
        secs
    });
    let channels = serial_run
        .expect("at least one stage repetition")
        .telemetry
        .channels;
    let mut bus = ChannelTelemetry::default();
    for channel in &channels {
        bus.merge(channel);
    }

    Ledger {
        metrics: vec![
            Metric::new("hierarchy.warm_ms", warm_s * 1e3, "ms"),
            Metric::new("hierarchy.serial_ns_per_txn", serial_s / ops * 1e9, "ns"),
            Metric::new("hierarchy.shard_speedup", serial_s / sharded_s, "ratio"),
            Metric::new("hierarchy.bus_wait_ns", bus.mean_bus_wait_ns(), "ns"),
            Metric::new(
                "hierarchy.max_outstanding",
                bus.max_outstanding as f64,
                "count",
            ),
            Metric::new(
                "hierarchy.source_throttled",
                bus.source_throttled as f64,
                "count",
            ),
        ],
        self_ns_per_op: vec![
            ("hierarchy", serial_s / ops * 1e9),
            ("shard", (sharded_s - serial_s) / ops * 1e9),
        ],
    }
}
