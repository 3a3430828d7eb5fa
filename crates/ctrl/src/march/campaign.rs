//! Escape-rate campaigns: which fault classes does each sensing scheme ×
//! protection level × March algorithm catch, and at what test time?
//!
//! Every campaign cell plants one fault class (at deterministically seeded
//! positions), runs one March algorithm through the scheduler frontend as
//! test-class traffic, and scores **detection** — the fraction of planted
//! victim cells that appear in the tester's fail bitmap. The textbook
//! coverage guarantees are asserted, not just reported:
//!
//! * March C– and March SS catch **all** modeled stuck-at, write
//!   transition, pinhole and state-coupling defects at unprotected banks
//!   (on the variation-clean nondestructive/destructive schemes), at
//!   exactly their `10n` / `22n` op cost;
//! * disturb coupling faults (CFds) escape March C– **completely** — it
//!   performs no non-transition `w1` after initialisation, so the fault is
//!   never sensitised — and are fully caught by March SS, whose
//!   non-transition writes exist for exactly this class;
//! * every other escape at unprotected clean-scheme cells is a hard error.
//!
//! Backhopping is probabilistic (each completed write hops back with
//! probability `p`), so its detection rate is reported, never asserted.
//! Under ECC the March read observes the *decoded* word — the codec
//! corrects single-cell defects away, so classes ECC can absorb
//! legitimately escape the test at those protection levels: manufacturing
//! test must run **before** enabling protection, and the matrix measures
//! exactly how much coverage is lost otherwise.

use rand::Rng;
use stt_array::{Address, ArraySpec};
use stt_sense::SchemeKind;

use crate::engine::{Controller, ControllerConfig};
use crate::faults::{CouplingKind, FaultPlan};
use crate::march::program::{DataBackground, MarchAlgorithm};
use crate::reliability::{Protection, ScrubConfig, WORD_BITS};
use crate::sched::{Frontend, FrontendConfig, MarchConfig};
use crate::txn::Trace;

/// Seed salt for deterministic defect placement (distinct from the
/// reliability campaign's placement stream).
const MARCH_PLACEMENT_STREAM: u64 = 0x4d41_5243_504c_4143;

/// The modeled manufacturing-defect classes, one per campaign rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Stuck-at cell (random stuck value).
    StuckAt,
    /// Write transition fault, rising direction (0→1 writes lost).
    TransitionUp,
    /// Write transition fault, falling direction (1→0 writes lost).
    TransitionDown,
    /// Intra-word state coupling (CFst), random polarities.
    CouplingState,
    /// Intra-word disturb coupling (CFds): non-transition `w1` on the
    /// aggressor forces the victim.
    CouplingDisturb,
    /// Pinhole short: TMR collapse, the cell always senses as "0".
    Pinhole,
    /// Backhopping: completed writes flip back with probability `p`.
    Backhop,
}

impl FaultClass {
    /// Every modeled class, in campaign order.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::StuckAt,
        FaultClass::TransitionUp,
        FaultClass::TransitionDown,
        FaultClass::CouplingState,
        FaultClass::CouplingDisturb,
        FaultClass::Pinhole,
        FaultClass::Backhop,
    ];

    /// Short machine-readable name for table/CSV rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::StuckAt => "stuck-at",
            FaultClass::TransitionUp => "wtf-up",
            FaultClass::TransitionDown => "wtf-down",
            FaultClass::CouplingState => "cfst",
            FaultClass::CouplingDisturb => "cfds",
            FaultClass::Pinhole => "pinhole",
            FaultClass::Backhop => "backhop",
        }
    }

    /// `true` when detection is inherently probabilistic, so full coverage
    /// can never be asserted for it.
    fn is_probabilistic(self) -> bool {
        matches!(self, FaultClass::Backhop)
    }
}

/// One planted defect instance: the cell whose corruption the March test
/// must observe (for coupling faults, the *victim*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlantedDefect {
    /// Bank the defect lives in.
    pub bank: usize,
    /// Row-major victim cell index within the bank.
    pub victim_cell: u32,
}

/// Everything an escape campaign needs.
#[derive(Debug, Clone, PartialEq)]
pub struct MarchCampaignConfig {
    /// Banks under test (each gets its own planted defects).
    pub banks: usize,
    /// Per-bank array recipe.
    pub spec: ArraySpec,
    /// Master seed: defect placement and every controller in the sweep.
    pub seed: u64,
    /// Sensing schemes to sweep.
    pub schemes: Vec<SchemeKind>,
    /// March algorithms to sweep.
    pub algorithms: Vec<MarchAlgorithm>,
    /// Fault classes to sweep.
    pub classes: Vec<FaultClass>,
    /// Defect instances planted per class per bank.
    pub defects_per_class: usize,
    /// Backhop probability per completed write for the backhop rung.
    pub backhop_prob: f64,
    /// Read modes to sweep: `false` = host-visible (decoded under ECC),
    /// `true` = raw array reads that bypass the codec.
    pub raw_modes: Vec<bool>,
    /// Data backgrounds to sweep.
    pub backgrounds: Vec<DataBackground>,
    /// Scrub tick interval (ns) for the [`Protection::EccScrub`] column.
    pub scrub_interval_ns: f64,
}

impl MarchCampaignConfig {
    /// Default campaign: two 8×64 banks (each row one ECC word — big
    /// enough that four defects per class land in distinct words, small
    /// enough that the 126-cell sweep stays fast), every scheme, both
    /// algorithms, every class, four defects each.
    #[must_use]
    pub fn date2010() -> Self {
        Self {
            banks: 2,
            spec: {
                let mut spec = ArraySpec::date2010_chip();
                spec.rows = 8;
                spec.cols = 64;
                spec.bitline.cells_per_bitline = 8;
                spec
            },
            seed: 2010,
            schemes: SchemeKind::ALL.to_vec(),
            algorithms: MarchAlgorithm::ALL.to_vec(),
            classes: FaultClass::ALL.to_vec(),
            defects_per_class: 4,
            backhop_prob: 0.35,
            raw_modes: vec![false],
            backgrounds: vec![DataBackground::Solid],
            scrub_interval_ns: 25.0,
        }
    }

    /// Overrides the read-mode list (`false` = decoded, `true` = raw).
    #[must_use]
    pub fn with_raw_modes(mut self, raw_modes: Vec<bool>) -> Self {
        self.raw_modes = raw_modes;
        self
    }

    /// Overrides the scheme list.
    #[must_use]
    pub fn with_schemes(mut self, schemes: Vec<SchemeKind>) -> Self {
        self.schemes = schemes;
        self
    }

    /// Overrides the algorithm list.
    #[must_use]
    pub fn with_algorithms(mut self, algorithms: Vec<MarchAlgorithm>) -> Self {
        self.algorithms = algorithms;
        self
    }

    /// Overrides the fault-class list.
    #[must_use]
    pub fn with_classes(mut self, classes: Vec<FaultClass>) -> Self {
        self.classes = classes;
        self
    }

    /// Overrides the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Plants `defects_per_class` instances of `class` in every bank at
    /// deterministically seeded positions (distinct cells; coupling faults
    /// in distinct words) and returns the plan plus the victim bookkeeping
    /// the scorer checks against the fail bitmap.
    fn plant(&self, class: FaultClass) -> (FaultPlan, Vec<PlantedDefect>) {
        let mut rng = stt_stats::trial_rng(self.seed ^ MARCH_PLACEMENT_STREAM, 0);
        let mut plan = FaultPlan::none();
        let mut planted = Vec::new();
        let words = self.spec.capacity_bits() / WORD_BITS;
        for bank in 0..self.banks {
            match class {
                FaultClass::CouplingState | FaultClass::CouplingDisturb => {
                    let count = self.defects_per_class.min(words);
                    let mut used_words: Vec<usize> = Vec::new();
                    while used_words.len() < count {
                        let word = rng.gen_range(0..words);
                        if used_words.contains(&word) {
                            continue;
                        }
                        used_words.push(word);
                        let aggressor_bit = rng.gen_range(0..WORD_BITS);
                        let victim_bit = loop {
                            let bit = rng.gen_range(0..WORD_BITS);
                            if bit != aggressor_bit {
                                break bit;
                            }
                        };
                        let victim_value = rng.gen_bool(0.5);
                        let kind = if class == FaultClass::CouplingState {
                            CouplingKind::State {
                                aggressor_value: rng.gen_bool(0.5),
                                victim_value,
                            }
                        } else {
                            CouplingKind::Disturb { victim_value }
                        };
                        plan =
                            plan.with_coupling_fault(bank, word, aggressor_bit, victim_bit, kind);
                        planted.push(PlantedDefect {
                            bank,
                            victim_cell: (word * WORD_BITS + victim_bit) as u32,
                        });
                    }
                }
                _ => {
                    let count = self.defects_per_class.min(self.spec.capacity_bits());
                    let mut used: Vec<Address> = Vec::new();
                    while used.len() < count {
                        let addr = Address::new(
                            rng.gen_range(0..self.spec.rows),
                            rng.gen_range(0..self.spec.cols),
                        );
                        if used.contains(&addr) {
                            continue;
                        }
                        used.push(addr);
                        plan = match class {
                            FaultClass::StuckAt => {
                                plan.with_stuck_cell(bank, addr, rng.gen_bool(0.5))
                            }
                            FaultClass::TransitionUp => {
                                plan.with_transition_fault(bank, addr, true)
                            }
                            FaultClass::TransitionDown => {
                                plan.with_transition_fault(bank, addr, false)
                            }
                            FaultClass::Pinhole => plan.with_pinhole(bank, addr),
                            FaultClass::Backhop => plan.with_backhop(bank, addr, self.backhop_prob),
                            FaultClass::CouplingState | FaultClass::CouplingDisturb => {
                                unreachable!("coupling handled above")
                            }
                        };
                        planted.push(PlantedDefect {
                            bank,
                            victim_cell: (addr.row * self.spec.cols + addr.col) as u32,
                        });
                    }
                }
            }
        }
        (plan, planted)
    }
}

/// One cell of the escape sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct EscapeRow {
    /// Planted fault class.
    pub class: FaultClass,
    /// Sensing scheme.
    pub scheme: SchemeKind,
    /// Protection level.
    pub protection: Protection,
    /// March algorithm.
    pub algorithm: MarchAlgorithm,
    /// Whether reads bypassed the ECC codec.
    pub raw: bool,
    /// Data background marched.
    pub background: DataBackground,
    /// Victim cells planted (over all banks).
    pub planted: u64,
    /// Planted victims present in the fail bitmap.
    pub detected: u64,
    /// `detected / planted`.
    pub detection_rate: f64,
    /// `1 − detection_rate`.
    pub escape_rate: f64,
    /// Read-verdict mismatches recorded (may exceed `detected`: one cell
    /// can fail several elements, and non-victim cells can fail too, e.g.
    /// under the conventional scheme's variation floor).
    pub mismatches: u64,
    /// March operations executed over all banks.
    pub march_ops: u64,
    /// Operations per cell (`march_ops / (banks × cells)` — `10.0` for
    /// March C–).
    pub ops_per_bit: f64,
    /// Test time: the slowest bank's March occupancy, in nanoseconds.
    pub test_time_ns: f64,
}

/// Runs the full escape sweep: fault class × scheme × protection ×
/// algorithm, each cell marching through the scheduler frontend. Rows come
/// back in sweep order and are deterministic for a given configuration.
///
/// # Panics
///
/// Panics if a textbook coverage guarantee fails — see the module docs for
/// which (class, algorithm) cells are asserted and which legitimately
/// escape.
#[must_use]
pub fn run_escape_campaign(config: &MarchCampaignConfig) -> Vec<EscapeRow> {
    assert!(config.banks > 0, "campaign needs banks");
    let cells = config.spec.capacity_bits() as u64;
    let mut rows = Vec::new();
    for &class in &config.classes {
        let (plan, planted) = config.plant(class);
        for &scheme in &config.schemes {
            for protection in Protection::ALL {
                for &algorithm in &config.algorithms {
                    for &background in &config.backgrounds {
                        for &raw in &config.raw_modes {
                            let mut controller_config =
                                ControllerConfig::date2010(scheme, config.banks);
                            controller_config.spec = config.spec.clone();
                            let controller_config = controller_config
                                .with_seed(config.seed)
                                .with_faults(plan.clone())
                                .with_ecc(protection.ecc_mode());
                            let mut frontend_config = FrontendConfig::fcfs_unbounded().with_march(
                                MarchConfig::new(algorithm)
                                    .with_background(background)
                                    .with_raw(raw),
                            );
                            if protection.scrubbed() {
                                frontend_config = frontend_config
                                    .with_scrub(ScrubConfig::every_ns(config.scrub_interval_ns));
                            }
                            let mut frontend =
                                Frontend::new(Controller::new(controller_config), frontend_config);
                            let run = frontend.run(&Trace::new());
                            let detected = planted
                                .iter()
                                .filter(|defect| {
                                    run.telemetry.banks[defect.bank]
                                        .march
                                        .failing_cells
                                        .contains(&defect.victim_cell)
                                })
                                .count() as u64;
                            let march_ops: u64 =
                                run.telemetry.banks.iter().map(|bank| bank.march.ops).sum();
                            let test_time_ns = run
                                .telemetry
                                .banks
                                .iter()
                                .map(|bank| bank.march.busy_time.get() * 1e9)
                                .fold(0.0, f64::max);
                            let mismatches: u64 = run
                                .telemetry
                                .banks
                                .iter()
                                .map(|bank| bank.march.mismatches)
                                .sum();
                            let planted_count = planted.len() as u64;
                            let detection_rate = detected as f64 / planted_count as f64;
                            let ops_per_cell = algorithm.program().ops_per_cell() as u64;
                            assert_eq!(
                                march_ops,
                                ops_per_cell * cells * config.banks as u64,
                                "{} must cost exactly {}n",
                                algorithm.name(),
                                ops_per_cell
                            );
                            assert!(test_time_ns > 0.0, "test time must be charged");
                            check_coverage(
                                class,
                                scheme,
                                protection,
                                algorithm,
                                raw,
                                detected,
                                planted_count,
                            );
                            rows.push(EscapeRow {
                                class,
                                scheme,
                                protection,
                                algorithm,
                                raw,
                                background,
                                planted: planted_count,
                                detected,
                                detection_rate,
                                escape_rate: 1.0 - detection_rate,
                                mismatches,
                                march_ops,
                                ops_per_bit: march_ops as f64
                                    / (cells * config.banks as u64) as f64,
                                test_time_ns,
                            });
                        }
                    }
                }
            }
        }
    }
    rows
}

/// The asserted slice of the coverage matrix: variation-clean schemes at
/// unprotected banks — or at **any** protection level when the March reads
/// raw, since bypassing the codec denies ECC the chance to absorb the
/// defect. The conventional scheme's bad-cell floor makes healthy-cell
/// verdicts noisy (reported, not asserted), and decoded reads at ECC
/// levels legitimately mask single-cell defects from the tester.
fn check_coverage(
    class: FaultClass,
    scheme: SchemeKind,
    protection: Protection,
    algorithm: MarchAlgorithm,
    raw: bool,
    detected: u64,
    planted: u64,
) {
    let clean_scheme = matches!(scheme, SchemeKind::Nondestructive | SchemeKind::Destructive);
    if !clean_scheme || (protection != Protection::None && !raw) {
        return;
    }
    match (class, algorithm) {
        (FaultClass::CouplingDisturb, MarchAlgorithm::CMinus) => assert_eq!(
            detected, 0,
            "March C- cannot sensitise CFds: it performs no non-transition w1"
        ),
        (FaultClass::CouplingDisturb, MarchAlgorithm::Ss) => assert_eq!(
            detected, planted,
            "March SS's non-transition writes must catch every CFds"
        ),
        _ if class.is_probabilistic() => {} // reported only
        _ => assert_eq!(
            detected,
            planted,
            "{} must detect every {} defect on {scheme:?} without protection",
            algorithm.name(),
            class.name()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planting_is_deterministic_and_distinct() {
        let config = MarchCampaignConfig::date2010();
        for class in FaultClass::ALL {
            let (plan_a, planted_a) = config.plant(class);
            let (plan_b, planted_b) = config.plant(class);
            assert_eq!(plan_a, plan_b, "{}", class.name());
            assert_eq!(planted_a, planted_b);
            assert_eq!(
                planted_a.len(),
                config.banks * config.defects_per_class,
                "{}",
                class.name()
            );
            for bank in 0..config.banks {
                let mut victims: Vec<u32> = planted_a
                    .iter()
                    .filter(|defect| defect.bank == bank)
                    .map(|defect| defect.victim_cell)
                    .collect();
                victims.sort_unstable();
                victims.dedup();
                assert_eq!(
                    victims.len(),
                    config.defects_per_class,
                    "{} victims must be distinct",
                    class.name()
                );
            }
        }
    }

    #[test]
    fn class_names_and_probabilistic_flags() {
        assert_eq!(FaultClass::ALL.len(), 7);
        assert!(FaultClass::Backhop.is_probabilistic());
        assert!(!FaultClass::StuckAt.is_probabilistic());
        assert_eq!(FaultClass::CouplingDisturb.name(), "cfds");
    }

    #[test]
    fn a_single_campaign_cell_detects_stuck_cells() {
        // The full sweep runs in the integration suite and the trafficsim
        // binary; here one rung end to end, through the frontend.
        let config = MarchCampaignConfig::date2010()
            .with_schemes(vec![SchemeKind::Nondestructive])
            .with_classes(vec![FaultClass::StuckAt]);
        let rows = run_escape_campaign(&config);
        // 1 class × 1 scheme × 3 protections × 2 algorithms.
        assert_eq!(rows.len(), 6);
        for row in &rows {
            if row.protection == Protection::None {
                assert_eq!(row.detection_rate, 1.0, "{:?}", row);
                assert_eq!(row.escape_rate, 0.0);
            }
            assert!(row.test_time_ns > 0.0);
        }
        let c_minus = rows
            .iter()
            .find(|row| row.algorithm == MarchAlgorithm::CMinus)
            .unwrap();
        let ss = rows
            .iter()
            .find(|row| row.algorithm == MarchAlgorithm::Ss)
            .unwrap();
        assert!((c_minus.ops_per_bit - 10.0).abs() < 1e-12);
        assert!((ss.ops_per_bit - 22.0).abs() < 1e-12);
    }

    #[test]
    fn raw_mode_recovers_coverage_ecc_masks_from_the_tester() {
        let config = MarchCampaignConfig::date2010()
            .with_schemes(vec![SchemeKind::Nondestructive])
            .with_algorithms(vec![MarchAlgorithm::CMinus])
            .with_classes(vec![FaultClass::StuckAt, FaultClass::Pinhole])
            .with_raw_modes(vec![false, true]);
        let rows = run_escape_campaign(&config);
        // 2 classes × 1 scheme × 3 protections × 1 algorithm × 2 read modes.
        assert_eq!(rows.len(), 12);
        for row in &rows {
            if row.raw {
                // Bypassing the codec denies ECC the chance to absorb the
                // defect: full single-cell coverage at every protection
                // level (asserted inside the sweep too).
                assert_eq!(row.detection_rate, 1.0, "{row:?}");
            } else if row.protection != Protection::None {
                // The decoded word hides what the codec corrects.
                assert!(
                    row.detection_rate < 1.0,
                    "SECDED must mask single-cell defects from decoded reads: {row:?}"
                );
            }
        }
    }

    #[test]
    fn every_background_holds_coverage_at_unprotected_banks() {
        let mut config = MarchCampaignConfig::date2010()
            .with_schemes(vec![SchemeKind::Nondestructive])
            .with_algorithms(vec![MarchAlgorithm::Ss])
            .with_classes(vec![FaultClass::StuckAt]);
        config.backgrounds = DataBackground::ALL.to_vec();
        let rows = run_escape_campaign(&config);
        // 1 class × 1 scheme × 3 protections × 1 algorithm × 3 backgrounds.
        assert_eq!(rows.len(), 9);
        for background in DataBackground::ALL {
            let row = rows
                .iter()
                .find(|row| row.background == background && row.protection == Protection::None)
                .unwrap();
            assert_eq!(
                row.detection_rate,
                1.0,
                "{} background must not cost stuck-at coverage",
                background.name()
            );
        }
    }
}
