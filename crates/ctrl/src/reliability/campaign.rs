//! Fault-injection campaigns: sweep fault intensity × protection level ×
//! sensing scheme and report how each configuration degrades.
//!
//! A campaign answers the reliability question the paper's Table-level
//! arguments gesture at but cannot measure: *given the same traffic and the
//! same injected faults, how often does each configuration hand the host a
//! wrong (or unusable) bit?* Every cell of the sweep replays the **same
//! trace** against the **same fault plan** — only the sensing scheme and
//! the protection level change — so differences in the hazard column are
//! attributable to the configuration, not the workload.
//!
//! The hazard metric is deliberately host-centric:
//!
//! * **No ECC** — every misread is silent data loss, so the hazard is the
//!   misread rate itself.
//! * **ECC / ECC+scrub** — single-bit errors are corrected away; the hazard
//!   is the rate of reads left *uncorrectable* (detected, data unusable) or
//!   *silent* (the codec passed a wrong word) — see
//!   [`EccTelemetry::hazard_rate`](crate::telemetry::EccTelemetry).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stt_array::{Address, ArraySpec};
use stt_sense::SchemeKind;

use crate::engine::{Controller, ControllerConfig};
use crate::faults::FaultPlan;
use crate::hierarchy::Topology;
use crate::reliability::{EccMode, ScrubConfig};
use crate::sched::{Frontend, FrontendConfig};
use crate::txn::Trace;
use crate::workload::Workload;

/// Seed salt for deterministic stuck-cell placement.
const PLACEMENT_STREAM: u64 = 0x504c_4143_454d_4e54;

/// How much machinery stands between a misread and the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// Raw bank reads: every misread is silent (the seed behaviour).
    None,
    /// (72,64) SECDED on demand reads, no background repair.
    Ecc,
    /// SECDED plus the background scrub daemon repairing in place.
    EccScrub,
}

impl Protection {
    /// Every protection level, in increasing order of machinery.
    pub const ALL: [Protection; 3] = [Protection::None, Protection::Ecc, Protection::EccScrub];

    /// Short machine-readable name for table/CSV rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Protection::None => "none",
            Protection::Ecc => "ecc",
            Protection::EccScrub => "ecc+scrub",
        }
    }

    /// The controller ECC mode this level implies.
    #[must_use]
    pub fn ecc_mode(self) -> EccMode {
        match self {
            Protection::None => EccMode::None,
            Protection::Ecc | Protection::EccScrub => EccMode::Secded,
        }
    }

    /// `true` when the scrub daemon runs.
    #[must_use]
    pub fn scrubbed(self) -> bool {
        self == Protection::EccScrub
    }
}

/// One rung of the fault-intensity ladder: how hard the injector leans on
/// the array while the trace runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultIntensity {
    /// Row label (`"low"`, `"medium"`, ...).
    pub label: String,
    /// Stuck-at defects placed per bank (deterministically seeded).
    pub stuck_cells_per_bank: usize,
    /// Power-cut cadence (every Nth read per bank), `None` for never.
    pub power_cut_every: Option<u64>,
    /// Retention-failure hazard rate (flips per cell per ns of busy time).
    pub retention_rate_per_ns: Option<f64>,
    /// Per-read, per-cell read-disturb flip probability.
    pub read_disturb_prob: Option<f64>,
}

impl FaultIntensity {
    /// No injected faults at all — the control rung.
    #[must_use]
    pub fn quiet() -> Self {
        Self {
            label: "quiet".into(),
            stuck_cells_per_bank: 0,
            power_cut_every: None,
            retention_rate_per_ns: None,
            read_disturb_prob: None,
        }
    }

    /// The default three-rung ladder (low / medium / high), tuned for the
    /// regime scrub exists for: persistent corruption (retention flips,
    /// power-cut damage) accrues steadily but *sparsely*, so an unprotected
    /// bank degrades monotonically while a scrubbed bank repairs faster
    /// than second errors land in the same word. Rates much hotter than
    /// this overwhelm single-error correction — 64-cell words expose ECC to
    /// every error in the word, not just the demanded bit — which is a
    /// measurable cliff, not a tuning target.
    #[must_use]
    pub fn ladder() -> Vec<Self> {
        vec![
            Self {
                label: "low".into(),
                stuck_cells_per_bank: 1,
                power_cut_every: Some(400),
                retention_rate_per_ns: None,
                read_disturb_prob: None,
            },
            Self {
                label: "medium".into(),
                stuck_cells_per_bank: 2,
                power_cut_every: Some(250),
                retention_rate_per_ns: Some(4e-7),
                read_disturb_prob: Some(2e-7),
            },
            Self {
                label: "high".into(),
                stuck_cells_per_bank: 4,
                power_cut_every: Some(150),
                retention_rate_per_ns: Some(6e-7),
                read_disturb_prob: Some(1e-6),
            },
        ]
    }

    /// Materialises this intensity into a [`FaultPlan`] for a controller of
    /// `banks` banks over `spec`, placing stuck cells at deterministically
    /// seeded distinct addresses.
    #[must_use]
    pub fn plan(&self, banks: usize, spec: &ArraySpec, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::none();
        if let Some(every) = self.power_cut_every {
            plan = plan.with_power_cut_every(every);
        }
        if let Some(rate) = self.retention_rate_per_ns {
            plan = plan.with_retention_rate(rate);
        }
        if let Some(prob) = self.read_disturb_prob {
            plan = plan.with_read_disturb(prob);
        }
        let mut rng = stt_stats::trial_rng(seed ^ PLACEMENT_STREAM, 0);
        for bank in 0..banks {
            let mut placed: Vec<Address> = Vec::new();
            while placed.len() < self.stuck_cells_per_bank.min(spec.capacity_bits()) {
                let addr = Address::new(rng.gen_range(0..spec.rows), rng.gen_range(0..spec.cols));
                if placed.contains(&addr) {
                    continue;
                }
                placed.push(addr);
                plan = plan.with_stuck_cell(bank, addr, rng.gen_bool(0.5));
            }
        }
        plan
    }
}

/// Everything a campaign sweep needs.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Bank topology of the swept memory (the campaign replays through the
    /// flat frontend, which addresses the topology's total bank count;
    /// richer shapes let a campaign match a hierarchy experiment
    /// bank-for-bank).
    pub topology: Topology,
    /// Per-bank array recipe.
    pub spec: ArraySpec,
    /// Transactions per sweep cell.
    pub ops: usize,
    /// Mean Poisson inter-arrival gap (nanoseconds); slack here is what
    /// gives the scrub daemon idle time to run in.
    pub mean_gap_ns: f64,
    /// Scrub tick interval per bank (nanoseconds), for the
    /// [`Protection::EccScrub`] column.
    pub scrub_interval_ns: f64,
    /// Master seed: drives the trace, the arrivals, the stuck-cell
    /// placement and every controller in the sweep.
    pub seed: u64,
    /// Sensing schemes to sweep.
    pub schemes: Vec<SchemeKind>,
    /// Fault-intensity rungs to sweep.
    pub intensities: Vec<FaultIntensity>,
}

impl CampaignConfig {
    /// Default campaign: two 64×64 banks (the paper's cell recipe on a
    /// quarter-size array, so the unprotected baseline actually *samples*
    /// the corruption the injector lays down — on the full 16 kb array a
    /// single-cell demand read almost never lands on a flipped cell within
    /// a campaign-sized trace), every scheme, the default intensity ladder.
    /// The scrub interval is set so a full pass (64 words × 25 ns) takes
    /// ~1.6 µs, several passes per campaign cell.
    #[must_use]
    pub fn date2010() -> Self {
        Self {
            topology: Topology::flat(2),
            spec: {
                let mut spec = ArraySpec::date2010_chip();
                spec.rows = 64;
                spec.cols = 64;
                spec.bitline.cells_per_bitline = 64;
                spec
            },
            ops: 4_000,
            mean_gap_ns: 120.0,
            scrub_interval_ns: 25.0,
            seed: 2010,
            schemes: SchemeKind::ALL.to_vec(),
            intensities: FaultIntensity::ladder(),
        }
    }

    /// Overrides the transaction count per sweep cell.
    #[must_use]
    pub fn with_ops(mut self, ops: usize) -> Self {
        self.ops = ops;
        self
    }

    /// Overrides the bank topology.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Overrides the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the scheme list.
    #[must_use]
    pub fn with_schemes(mut self, schemes: Vec<SchemeKind>) -> Self {
        self.schemes = schemes;
        self
    }

    /// Overrides the intensity ladder.
    #[must_use]
    pub fn with_intensities(mut self, intensities: Vec<FaultIntensity>) -> Self {
        self.intensities = intensities;
        self
    }
}

/// One cell of the campaign sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Sensing scheme.
    pub scheme: SchemeKind,
    /// Intensity-rung label.
    pub intensity: String,
    /// Protection level.
    pub protection: Protection,
    /// Demand reads served.
    pub reads: u64,
    /// Reads whose delivered bit was wrong.
    pub misreads: u64,
    /// ECC-corrected CEs (0 without ECC).
    pub corrected_ce: u64,
    /// ECC-detected UEs (0 without ECC).
    pub detected_ue: u64,
    /// Silent wrong words that passed the codec (0 without ECC).
    pub silent_errors: u64,
    /// The hazard metric: wrong-or-unusable reads per read served.
    pub hazard_rate: f64,
    /// Scrub coverage in full passes over the address space.
    pub scrub_coverage: f64,
    /// Cells the scrub daemon physically repaired.
    pub scrub_cells_rewritten: u64,
    /// Post-run integrity audit: stored cells disagreeing with the host.
    pub audit_corrupted_bits: u64,
}

/// Runs the full sweep: `schemes × intensities × protection levels`, every
/// cell replaying the same seeded trace. Rows come back in sweep order
/// (scheme-major, then intensity, then protection) and are deterministic
/// for a given configuration.
///
/// # Panics
///
/// Panics if the configuration is degenerate (no banks, no ops).
#[must_use]
pub fn run_campaign(config: &CampaignConfig) -> Vec<CampaignRow> {
    let banks = config.topology.total_banks();
    assert!(config.ops > 0, "campaign needs traffic");
    let template = ControllerConfig::date2010(SchemeKind::Nondestructive, banks);
    let footprint = ControllerConfig {
        spec: config.spec.clone(),
        ..template
    }
    .footprint();
    let trace: Trace = Workload::Uniform { read_fraction: 0.8 }
        .generate(
            footprint,
            config.ops,
            &mut StdRng::seed_from_u64(config.seed),
        )
        .with_poisson_arrivals(
            config.mean_gap_ns,
            &mut StdRng::seed_from_u64(config.seed ^ 0xa11),
        );

    let mut rows = Vec::new();
    for &scheme in &config.schemes {
        for intensity in &config.intensities {
            let plan = intensity.plan(banks, &config.spec, config.seed);
            for protection in Protection::ALL {
                let mut controller_config = ControllerConfig::date2010(scheme, banks);
                controller_config.spec = config.spec.clone();
                let controller_config = controller_config
                    .with_seed(config.seed)
                    .with_faults(plan.clone())
                    .with_ecc(protection.ecc_mode());
                let mut frontend_config = FrontendConfig::fcfs_unbounded();
                if protection.scrubbed() {
                    frontend_config =
                        frontend_config.with_scrub(ScrubConfig::every_ns(config.scrub_interval_ns));
                }
                let mut frontend =
                    Frontend::new(Controller::new(controller_config), frontend_config);
                let run = frontend.run(&trace);
                let aggregate = run.telemetry.aggregate();
                let hazard_rate = match protection {
                    Protection::None => aggregate.misread_rate(),
                    _ => aggregate.ecc.hazard_rate(),
                };
                rows.push(CampaignRow {
                    scheme,
                    intensity: intensity.label.clone(),
                    protection,
                    reads: aggregate.reads,
                    misreads: aggregate.misreads,
                    corrected_ce: aggregate.ecc.corrected_ce,
                    detected_ue: aggregate.ecc.detected_ue,
                    silent_errors: aggregate.ecc.silent_errors,
                    hazard_rate,
                    scrub_coverage: aggregate.ecc.scrub_coverage(),
                    scrub_cells_rewritten: aggregate.ecc.scrub_cells_rewritten,
                    audit_corrupted_bits: run.telemetry.audit_corrupted_bits,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protection_levels_map_to_modes() {
        assert_eq!(Protection::None.ecc_mode(), EccMode::None);
        assert_eq!(Protection::Ecc.ecc_mode(), EccMode::Secded);
        assert_eq!(Protection::EccScrub.ecc_mode(), EccMode::Secded);
        assert!(Protection::EccScrub.scrubbed());
        assert!(!Protection::Ecc.scrubbed());
        assert_eq!(Protection::ALL.len(), 3);
        assert_eq!(Protection::EccScrub.name(), "ecc+scrub");
    }

    #[test]
    fn intensity_plans_are_deterministic_and_distinct() {
        let intensity = &FaultIntensity::ladder()[1];
        let spec = ArraySpec::date2010_chip();
        let a = intensity.plan(2, &spec, 9);
        let b = intensity.plan(2, &spec, 9);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, intensity.plan(2, &spec, 10), "seed moves the defects");
        assert_eq!(a.stuck_cells.len(), 2 * intensity.stuck_cells_per_bank);
        for bank in 0..2 {
            let cells: Vec<_> = a
                .for_bank(bank)
                .stuck_cells
                .iter()
                .map(|c| c.addr)
                .collect();
            let mut deduped = cells.clone();
            deduped.dedup();
            assert_eq!(cells.len(), intensity.stuck_cells_per_bank);
            assert_eq!(cells.len(), deduped.len(), "defects must be distinct");
        }
    }

    #[test]
    fn campaign_topology_sets_the_swept_bank_count() {
        let mut config = CampaignConfig::date2010()
            .with_topology(Topology::new(2, 1, 2, 1))
            .with_ops(150)
            .with_schemes(vec![SchemeKind::Nondestructive])
            .with_intensities(vec![FaultIntensity::ladder().swap_remove(0)]);
        config.spec = ArraySpec::small_test_array();
        let plan =
            config.intensities[0].plan(config.topology.total_banks(), &config.spec, config.seed);
        assert_eq!(
            plan.stuck_cells.len(),
            4 * config.intensities[0].stuck_cells_per_bank,
            "defect placement must cover every bank of the topology"
        );
        let rows = run_campaign(&config);
        assert_eq!(rows.len(), Protection::ALL.len());
        assert!(rows.iter().all(|row| row.reads > 0));
    }

    #[test]
    fn quiet_intensity_is_a_no_fault_plan() {
        let plan = FaultIntensity::quiet().plan(3, &ArraySpec::small_test_array(), 5);
        assert_eq!(plan, FaultPlan::none());
    }
}
