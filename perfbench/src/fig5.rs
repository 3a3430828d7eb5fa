//! `fig5-mc`: the batched Fig. 5 read-current variation campaign (32-segment
//! bit line, batch k = 64, σ = 5 %) with its trial count scaled up. An op is
//! one Monte-Carlo trial.
//!
//! The only workload on `stt-mna` (stamp, banded factor and solve,
//! `transient_batch`) and the `stt-stats` fan-out. It bypasses `stt-ctrl`
//! entirely, so either stack's optimisations must leave the other's
//! workload unchanged.

use std::hint::black_box;

use stt_bench::montecarlo::{
    fig5_linear_circuit, fig5_read_current, Fig5Campaign, Fig5CampaignResult,
};
use stt_mna::{BatchMember, SolverBackend, TranOptions};
use stt_stats::{trial_rng, Normal};
use stt_units::Seconds;

use crate::measure::{
    failed_over_passes, scaled_time, setup_and_passes, time, Digest, Ledger, Metric, Outcome,
};
use crate::{nproc, Scale};

/// Trials per `transient_batch` call.
pub const BATCH: usize = 64;
const SIGMA: f64 = 0.05;
const SEGMENTS: usize = 32;
/// Batches whose first trial the verification re-simulates sequentially.
const SPOT_CHECKS: usize = 4;

struct Params {
    trials: usize,
    setup_reps: usize,
    stage_reps: usize,
}

impl Params {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                trials: 16 * BATCH,
                setup_reps: 11,
                stage_reps: 9,
            },
            Scale::Probe => Self {
                trials: 4 * BATCH,
                setup_reps: 1,
                stage_reps: 1,
            },
            Scale::Smoke => Self {
                trials: 2 * BATCH,
                setup_reps: 2,
                stage_reps: 1,
            },
        }
    }
}

fn campaign(trials: usize, seed: u64) -> Fig5Campaign {
    Fig5Campaign {
        trials,
        batch: BATCH,
        seed,
        sigma: SIGMA,
        segments: SEGMENTS,
        dt: Seconds::from_pico(50.0),
    }
}

/// The transient settings `Fig5Campaign::run` uses.
fn options(campaign: &Fig5Campaign) -> TranOptions {
    TranOptions::new(Seconds::from_nano(30.0), campaign.dt)
        .from_zero_state()
        .with_backend(SolverBackend::Auto)
}

/// The sampled read-current scale of trial `index`, drawn from the stream
/// the campaign hands that trial.
fn scale_of(campaign: &Fig5Campaign, index: usize) -> f64 {
    Normal::new(1.0, campaign.sigma).sample(&mut trial_rng(campaign.seed, index))
}

/// The campaign's own contracts: one factorization per batch (amortisation
/// equals the batch width) and batched members bit-identical to sequential
/// runs. Re-simulates the first trial of [`SPOT_CHECKS`] evenly spaced
/// batches; a mismatch fails its batch, a wrong amortisation or trial count
/// fails everything.
#[must_use]
pub fn check_campaign(campaign: &Fig5Campaign, result: &Fig5CampaignResult) -> u64 {
    let trials = campaign.trials;
    if result.outcomes.len() != trials
        || result.factorization_amortization() != campaign.batch as f64
    {
        return trials as u64;
    }
    let (circuit, driver, probes) = fig5_linear_circuit(campaign.segments);
    let options = options(campaign);
    let batches = trials.div_ceil(campaign.batch);
    let mut checked: Vec<usize> = (0..SPOT_CHECKS)
        .map(|k| k * batches / SPOT_CHECKS * campaign.batch)
        .collect();
    checked.dedup();
    checked
        .into_iter()
        .filter(|&index| {
            let trial = result.outcomes[index];
            let scale = scale_of(campaign, index);
            let mut spot = circuit.clone();
            spot.set_current_source_wave(driver, fig5_read_current().scaled(scale));
            let sequential = spot
                .transient(&options)
                .expect("fig5 sequential spot check");
            let v_c1 = sequential.voltage_at(probes.c1_top, Seconds::from_nano(12.0));
            let v_bo = sequential.voltage_at(probes.v_bo, Seconds::from_nano(27.0));
            trial.scale.to_bits() != scale.to_bits()
                || trial.v_c1.to_bits() != v_c1.to_bits()
                || trial.v_bo.to_bits() != v_bo.to_bits()
        })
        .map(|index| (trials - index).min(campaign.batch) as u64)
        .sum()
}

fn campaign_digest(result: &Fig5CampaignResult) -> u64 {
    let mut digest = Digest::default();
    for trial in &result.outcomes {
        digest
            .f64(trial.scale)
            .f64(trial.v_c1)
            .f64(trial.v_bo)
            .f64(trial.margin);
    }
    digest
        .u64(result.batched_factorizations as u64)
        .u64(result.sequential_factorizations as u64);
    digest.finish()
}

/// Untraced run.
#[must_use]
pub fn run(scale: Scale, seed: u64, seconds: f64) -> Outcome {
    let params = Params::at(scale);
    let full = campaign(params.trials, seed);
    // Warm-up: one campaign of the timed size (circuit build, reference
    // run, solver workspaces, worker start-up, clock ramp). A first campaign
    // in a fresh process runs ~1.5x slower than later ones.
    let setup = || {
        black_box(full.run());
    };
    let mut first: Option<Fig5CampaignResult> = None;
    let mut digests = Vec::new();
    let measured = setup_and_passes(seconds, params.setup_reps, setup, |()| {
        let (result, secs) = time(|| full.run());
        digests.push(campaign_digest(&result));
        first.get_or_insert(result);
        secs
    });
    let peak_heap_bytes = crate::alloc::peak_bytes();

    let first = first.expect("at least one pass");
    let ops = params.trials as u64;
    Outcome {
        input: format!(
            "{} trials in batches of {BATCH} on a {SEGMENTS}-segment Fig. 5 line, sigma {SIGMA}",
            params.trials
        ),
        ops_per_pass: ops,
        failed: failed_over_passes(&digests, check_campaign(&full, &first), ops),
        passes: measured.passes,
        setups: measured.setups,
        peak_heap_bytes,
        sim: Vec::new(),
        digest: digests[0],
    }
}

/// Circuit build, one sequential transient, one batch, every batch in turn
/// on this thread, and finally the fanned-out campaign.
#[must_use]
pub fn ledger(scale: Scale, seed: u64) -> Ledger {
    let params = Params::at(scale);
    let reps = params.stage_reps;
    let full = campaign(params.trials, seed);
    let trials = params.trials as f64;
    let batches = params.trials.div_ceil(BATCH);
    let threads = nproc().min(batches);
    let options = options(&full);
    let base = fig5_read_current();

    let ((circuit, driver, probes), build_s) = scaled_time(reps, || fig5_linear_circuit(SEGMENTS));
    let (_, transient_s) = scaled_time(reps, || {
        circuit
            .transient(&options)
            .expect("fig5 reference transient")
    });
    let probe_list = [probes.bl, probes.c1_top, probes.v_bo];
    // One batch exactly as the campaign runs it: sample, simulate, read out.
    let run_batch = |batch: usize| {
        let members: Vec<BatchMember> = (batch * BATCH..((batch + 1) * BATCH).min(params.trials))
            .map(|index| {
                BatchMember::new().current_wave(driver, base.scaled(scale_of(&full, index)))
            })
            .collect();
        let result = circuit
            .transient_batch(&options, &members, &probe_list)
            .expect("fig5 batched transient");
        for k in 0..members.len() {
            black_box(result.voltage_at(k, probes.c1_top, Seconds::from_nano(12.0)));
            black_box(result.voltage_at(k, probes.v_bo, Seconds::from_nano(27.0)));
        }
        result.telemetry()
    };
    let (one_batch, batch_s) = scaled_time(reps, || run_batch(0));
    let ((), serial_s) = scaled_time(reps, || {
        for batch in 0..batches {
            black_box(run_batch(batch));
        }
    });
    let (result, campaign_s) = scaled_time(reps, || full.run());

    Ledger {
        metrics: vec![
            Metric::new("mna.build_ms", build_s * 1e3, "ms"),
            Metric::new("mna.transient_ms", transient_s * 1e3, "ms"),
            Metric::new(
                "mna.batch_ns_per_member",
                batch_s / BATCH as f64 * 1e9,
                "ns",
            ),
            Metric::new(
                "mna.factorizations",
                one_batch.factorizations as f64,
                "count",
            ),
            Metric::new("mna.solves", one_batch.solves as f64, "count"),
            Metric::new(
                "mna.amortization",
                result.factorization_amortization(),
                "ratio",
            ),
            Metric::new(
                "stats.fanout_efficiency",
                serial_s / (threads as f64 * campaign_s),
                "ratio",
            ),
        ],
        self_ns_per_op: vec![
            ("mna.build", build_s / trials * 1e9),
            ("mna.transient", transient_s / trials * 1e9),
            ("mna.batch", serial_s / trials * 1e9),
            (
                "stats.fanout",
                (campaign_s - build_s - transient_s - serial_s) / trials * 1e9,
            ),
        ],
    }
}
