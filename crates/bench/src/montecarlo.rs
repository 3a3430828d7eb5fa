//! Fig. 5 variation campaign on the batched multi-RHS transient.
//!
//! The paper's statistical claims (Fig. 11) come from re-simulating the
//! read under device variation. On the linear Fig. 5 netlist every trial
//! shares the same MNA matrix — variation in the forced read current only
//! moves the right-hand side — so a batch of k trials needs one LU
//! factorization per (switch-state, step-size) key instead of k of them. This module is that campaign, rewritten on top of
//! [`Circuit::transient_batch`] + [`stt_stats::run_trial_batches`]: the
//! per-trial RNG streams are the exact streams a sequential
//! [`stt_stats::run_trials`] campaign would use, and each batch member's
//! waveform is bit-identical to a sequential [`Circuit::transient`] run
//! (spot-checked here, pinned by the `batch_reference` property tests).

use stt_mna::{
    BatchMember, Circuit, CurrentSourceId, Node, SolverBackend, SwitchSchedule, TranOptions,
    TranTelemetry, Waveform,
};
use stt_stats::{run_trial_batches, Normal, Summary, Table};
use stt_units::{Farads, Ohms, Seconds};

/// Probe handles into the linear Fig. 5 read circuit.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Probes {
    /// The bit line at the cell (far end of the distributed line).
    pub bl: Node,
    /// Top plate of the sample capacitor C1.
    pub c1_top: Node,
    /// The divider output V_BO.
    pub v_bo: Node,
}

/// The nominal two-phase read current of the Fig. 5 netlist: 50 µA during
/// the I_R1 sampling phase (2–12 ns), 100 µA during the I_R2 divider phase
/// (12–22 ns). Variation trials scale this waveform.
#[must_use]
pub fn fig5_read_current() -> Waveform {
    Waveform::pwl(vec![
        (Seconds::from_nano(2.0), 0.0),
        (Seconds::from_nano(2.2), 50e-6),
        (Seconds::from_nano(12.0), 50e-6),
        (Seconds::from_nano(12.2), 100e-6),
        (Seconds::from_nano(22.0), 100e-6),
        (Seconds::from_nano(22.2), 0.0),
    ])
}

/// Builds the linear Fig. 5 sample-and-divide read with the 128-cell bit
/// line distributed over `segments` RC sections (640 Ω / 192 fF totals
/// preserved), returning the circuit, the read-current driver id, and the
/// probe nodes.
///
/// This is the circuit perfbench's `fig5-mc` workload solves: PWL read
/// current 50 µA (I_R1 phase, 2–12 ns) then 100 µA (I_R2 phase,
/// 12–22 ns), the 1T1J cell lumped to 3.3 kΩ, C1 = 25 fF switched onto
/// the line during phase 1 and a 10 MΩ + 10 MΩ divider
/// switched on during phase 2. Ladder nodes are created in line order, so
/// the matrix is narrow-banded and [`SolverBackend::Auto`] picks the banded
/// backend once the line is long enough.
///
/// # Panics
///
/// Panics if `segments == 0`.
#[must_use]
pub fn fig5_linear_circuit(segments: usize) -> (Circuit, CurrentSourceId, Fig5Probes) {
    assert!(segments > 0, "need at least one bit-line segment");
    let mut circuit = Circuit::new();
    let driver = circuit.node("driver");
    let source = circuit.current_source(driver, Node::GROUND, fig5_read_current());
    let mut bl = driver;
    for k in 0..segments {
        let next = circuit.node(&format!("bl{k}"));
        circuit.resistor(bl, next, Ohms::new(640.0 / segments as f64));
        circuit.capacitor(
            next,
            Node::GROUND,
            Farads::from_femto(192.0 / segments as f64),
        );
        bl = next;
    }
    circuit.resistor(bl, Node::GROUND, Ohms::from_kilo(3.3));
    let c1_top = circuit.node("c1_top");
    circuit.switch(
        bl,
        c1_top,
        Ohms::new(200.0),
        Ohms::from_mega(2000.0),
        SwitchSchedule::closed_during(Seconds::from_nano(2.0), Seconds::from_nano(12.0)),
    );
    circuit.capacitor(c1_top, Node::GROUND, Farads::from_femto(25.0));
    let div_top = circuit.node("div_top");
    let v_bo = circuit.node("v_bo");
    circuit.switch(
        bl,
        div_top,
        Ohms::new(200.0),
        Ohms::from_mega(2000.0),
        SwitchSchedule::closed_during(Seconds::from_nano(12.0), Seconds::from_nano(27.0)),
    );
    circuit.resistor(div_top, v_bo, Ohms::from_mega(10.0));
    circuit.resistor(v_bo, Node::GROUND, Ohms::from_mega(10.0));
    (circuit, source, Fig5Probes { bl, c1_top, v_bo })
}

/// One variation trial's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Trial {
    /// The sampled read-current scale factor (Normal(1, σ)).
    pub scale: f64,
    /// Sampled V_C1 at the end of the I_R1 phase (12 ns), volts.
    pub v_c1: f64,
    /// Divider output V_BO at the end of the read (27 ns), volts.
    pub v_bo: f64,
    /// The sensed differential V_C1 − V_BO, volts.
    pub margin: f64,
}

/// The Fig. 5 read-current variation campaign, batched.
///
/// Each batch records only the two probes it reads out, V_C1 and V_BO
/// ([`Fig5Probes::bl`] is not recorded). The first trial is also run
/// sequentially: that run is the bit-identity spot check and supplies the
/// per-run factorization count of [`Fig5CampaignResult`].
#[derive(Debug, Clone, Copy)]
pub struct Fig5Campaign {
    /// Number of Monte-Carlo trials.
    pub trials: usize,
    /// Batch width k handed to [`Circuit::transient_batch`].
    pub batch: usize,
    /// Master seed for the deterministic per-trial RNG streams.
    pub seed: u64,
    /// Relative σ of the Normal(1, σ) read-current variation.
    pub sigma: f64,
    /// Bit-line segments (controls the MNA dimension / bandedness).
    pub segments: usize,
    /// Transient step size.
    pub dt: Seconds,
}

/// Campaign results: per-trial outcomes plus the factorization ledger that
/// quantifies the multi-RHS amortization.
#[derive(Debug, Clone)]
pub struct Fig5CampaignResult {
    /// Per-trial outcomes, in trial order.
    pub outcomes: Vec<Fig5Trial>,
    /// Total LU factorizations across all batched runs.
    pub batched_factorizations: usize,
    /// Factorizations a sequential campaign would have performed: trials ×
    /// the factorizations of the first trial's sequential spot-check run.
    /// Every trial walks the same LU key sequence (the scale moves only the
    /// right-hand side), so that one run stands for all of them.
    pub sequential_factorizations: usize,
    /// Telemetry of one batched run (dimension, bandwidth, backend).
    pub telemetry: TranTelemetry,
}

impl Fig5CampaignResult {
    /// How many times fewer factorizations the batch performed:
    /// `sequential / batched`.
    #[must_use]
    pub fn factorization_amortization(&self) -> f64 {
        self.sequential_factorizations as f64 / self.batched_factorizations.max(1) as f64
    }

    /// Streaming summary of the sensed differential margins.
    fn margin_summary(&self) -> Summary {
        let mut summary = Summary::new();
        for trial in &self.outcomes {
            summary.push(trial.margin);
        }
        summary
    }
}

impl Default for Fig5Campaign {
    fn default() -> Self {
        Self {
            trials: 192,
            batch: 64,
            seed: 2010,
            sigma: 0.05,
            segments: 32,
            dt: Seconds::from_pico(50.0),
        }
    }
}

impl Fig5Campaign {
    /// Runs the campaign: `trials` read-current scales drawn from
    /// Normal(1, σ), simulated `batch` at a time through
    /// [`Circuit::transient_batch`], with per-trial determinism independent
    /// of the batch width. Trial 0 is re-simulated sequentially once, as the
    /// spot check and the per-run factorization count.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`, if trial 0's batched V_BO waveform diverges
    /// from its sequential run (the bit-identity spot check), or if an
    /// analysis fails on this known-good netlist.
    #[must_use]
    pub fn run(&self) -> Fig5CampaignResult {
        let (circuit, driver, probes) = fig5_linear_circuit(self.segments);
        let base = fig5_read_current();
        let options = TranOptions::new(Seconds::from_nano(30.0), self.dt)
            .from_zero_state()
            .with_backend(SolverBackend::Auto);
        let variation = Normal::new(1.0, self.sigma);
        let t_c1 = Seconds::from_nano(12.0);
        let t_bo = Seconds::from_nano(27.0);

        struct BatchSlice {
            trial: Fig5Trial,
            factorizations: usize,
            telemetry: Option<TranTelemetry>,
            /// The sequential spot run's factorizations (first batch only).
            per_run: Option<usize>,
        }
        let slices = run_trial_batches(self.trials, self.batch, self.seed, |rngs, start| {
            let scales: Vec<f64> = rngs.iter_mut().map(|rng| variation.sample(rng)).collect();
            let members: Vec<BatchMember> = scales
                .iter()
                .map(|&s| BatchMember::new().current_wave(driver, base.scaled(s)))
                .collect();
            // Only the probes read out below are recorded.
            let batch = circuit
                .transient_batch(&options, &members, &[probes.c1_top, probes.v_bo])
                .expect("fig5 batched transient");
            // Bit-identity spot check: member 0 of the first batch against a
            // sequential run with the same scaled waveform. Its factorization
            // count × trials is what the campaign would cost without
            // batching: the amplitude moves only the right-hand side, so
            // every run walks the same LU key sequence.
            let per_run = (start == 0).then(|| {
                let mut spot = circuit.clone();
                spot.set_current_source_wave(driver, base.scaled(scales[0]));
                let sequential = spot.transient(&options).expect("fig5 sequential spot");
                assert!(
                    batch.voltage(0, probes.v_bo) == sequential.voltage(probes.v_bo),
                    "batched member diverged from sequential reference"
                );
                sequential.telemetry().factorizations
            });
            let telemetry = batch.telemetry();
            scales
                .iter()
                .enumerate()
                .map(|(k, &scale)| {
                    let v_c1 = batch.voltage_at(k, probes.c1_top, t_c1);
                    let v_bo = batch.voltage_at(k, probes.v_bo, t_bo);
                    BatchSlice {
                        trial: Fig5Trial {
                            scale,
                            v_c1,
                            v_bo,
                            margin: v_c1 - v_bo,
                        },
                        // Charge the batch's factorizations to its first
                        // trial so summing over trials counts each batch
                        // exactly once.
                        factorizations: if k == 0 { telemetry.factorizations } else { 0 },
                        telemetry: (k == 0).then_some(telemetry),
                        per_run,
                    }
                })
                .collect()
        });

        let batched_factorizations = slices.iter().map(|s| s.factorizations).sum();
        let telemetry = slices
            .iter()
            .find_map(|s| s.telemetry)
            .expect("at least one batch ran");
        let per_run = slices[0]
            .per_run
            .expect("the first batch ran the spot check");
        Fig5CampaignResult {
            outcomes: slices.into_iter().map(|s| s.trial).collect(),
            batched_factorizations,
            sequential_factorizations: per_run * self.trials,
            telemetry,
        }
    }
}

/// The `fig5mc` repro experiment: margin statistics of the batched Fig. 5
/// variation campaign plus the factorization-amortization ledger (the
/// `factorization_amortization=` field is machine-parsed by
/// `scripts/check.sh`).
#[must_use]
pub fn fig5_mc() -> (Table, String) {
    let campaign = Fig5Campaign::default();
    let result = campaign.run();
    let margins = result.margin_summary();
    let mut scales = Summary::new();
    for trial in &result.outcomes {
        scales.push(trial.scale);
    }

    let mut table = Table::new(["quantity", "mean", "std dev", "min", "max"]);
    table.push_row([
        "read-current scale".to_string(),
        format!("{:.4}", scales.mean()),
        format!("{:.4}", scales.std_dev()),
        format!("{:.4}", scales.min()),
        format!("{:.4}", scales.max()),
    ]);
    table.push_row([
        "differential margin (mV)".to_string(),
        format!("{:.2}", margins.mean() * 1e3),
        format!("{:.2}", margins.std_dev() * 1e3),
        format!("{:.2}", margins.min() * 1e3),
        format!("{:.2}", margins.max() * 1e3),
    ]);

    let amortization = result.factorization_amortization();
    let annotation = format!(
        "{} trials in batches of {} over a {}-segment line (dim {}, bandwidth {}→{}, \
         backend {}): {} factorizations batched vs {} sequential\n\
         factorization_amortization={:.1}",
        campaign.trials,
        campaign.batch,
        campaign.segments,
        result.telemetry.dim,
        result.telemetry.natural_bandwidth,
        result.telemetry.reordered_bandwidth,
        if result.telemetry.banded {
            "banded"
        } else {
            "dense"
        },
        result.batched_factorizations,
        result.sequential_factorizations,
        amortization,
    );
    (table, annotation)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_campaign() -> Fig5Campaign {
        Fig5Campaign {
            trials: 24,
            batch: 8,
            seed: 7,
            sigma: 0.05,
            segments: 16,
            dt: Seconds::from_pico(100.0),
        }
    }

    #[test]
    fn campaign_amortizes_factorizations_by_batch_width() {
        let result = small_campaign().run();
        assert_eq!(result.outcomes.len(), 24);
        // 3 batches each factor as often as ONE sequential run, so the
        // amortization equals the batch width.
        assert_eq!(
            result.sequential_factorizations,
            result.batched_factorizations * 8
        );
        assert!((result.factorization_amortization() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn campaign_is_deterministic_and_batch_width_independent() {
        let a = small_campaign().run();
        let b = small_campaign().run();
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.scale.to_bits(), y.scale.to_bits());
            assert_eq!(x.margin.to_bits(), y.margin.to_bits());
        }
        let mut wide = small_campaign();
        wide.batch = 24;
        let c = wide.run();
        for (x, y) in a.outcomes.iter().zip(&c.outcomes) {
            assert_eq!(
                x.scale.to_bits(),
                y.scale.to_bits(),
                "scales batch-dependent"
            );
            assert_eq!(
                x.margin.to_bits(),
                y.margin.to_bits(),
                "margins batch-dependent"
            );
        }
    }

    #[test]
    fn margins_track_the_current_scale() {
        let result = small_campaign().run();
        // The circuit is linear: a larger forced current means a larger
        // sampled V_C1 and a proportionally larger margin.
        let mut pairs: Vec<(f64, f64)> = result
            .outcomes
            .iter()
            .map(|t| (t.scale, t.margin))
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        assert!(pairs.windows(2).all(|w| w[1].1 >= w[0].1));
    }

    #[test]
    fn fig5mc_annotation_carries_the_amortization_field() {
        let (_table, annotation) = fig5_mc();
        let field = annotation
            .lines()
            .find_map(|line| line.strip_prefix("factorization_amortization="))
            .expect("annotation field present");
        let value: f64 = field.parse().expect("parseable");
        assert!(value >= 5.0, "amortization {value} below the 5x floor");
    }
}
