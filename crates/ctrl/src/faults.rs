//! Fault injection at the controller level.
//!
//! Two fault families, both reusing the array crate's machinery:
//!
//! * **Power cuts** — every Nth read on a bank is interrupted mid-sequence.
//!   For the destructive scheme the cut lands in the §I vulnerability
//!   window (after the erase, before the write-back), so stored data is
//!   physically lost; conventional and
//!   nondestructive reads have no state-mutating steps and shrug the cut
//!   off. This is the paper's core reliability argument, driven by traffic
//!   instead of a standalone experiment.
//! * **Stuck cells** — manufacturing defects pinned to one state. Writes to
//!   a stuck cell appear to succeed but the cell snaps back, so reads
//!   return the stuck value — the misreads an ECC/map-out layer would have
//!   to absorb.
//!
//! Two more families come from the STT-MRAM testing literature (Wu et al.,
//! 2020 survey), both drawn on a **dedicated per-bank fault RNG stream** so
//! enabling them never perturbs sense or write randomness:
//!
//! * **Retention failures** — thermally-activated bit flips while a cell
//!   sits idle. Modelled as a per-cell exponential hazard over the bank's
//!   accumulated *busy time* (not wall time, so serial, parallel and
//!   event-driven dispatch stay bit-identical): when an access touches a
//!   cell that has been idle for `dt` ns, it first flips with probability
//!   `1 − exp(−rate·dt)`.
//! * **Read disturb** — the read current of every sensed cell nudges its own
//!   free layer; each cell of a read word flips with a fixed probability per
//!   read. Unlike retention this only hits words traffic actually touches.

use stt_array::Address;
use stt_mtj::{LinearRolloff, MtjSpec, ThermalFactors, ThermalModel, T_REFERENCE};

use crate::reliability::WORD_BITS;

/// A stuck-at defect on one cell of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckCell {
    /// Bank index.
    pub bank: usize,
    /// Cell address within the bank.
    pub addr: Address,
    /// The value the cell is pinned to.
    pub value: bool,
}

/// A write transition fault (WTF) on one cell: the write pulse in one
/// direction silently fails, so the cell keeps its old value while the
/// controller believes the write succeeded (Wu et al. §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionFault {
    /// Bank index.
    pub bank: usize,
    /// Cell address within the bank.
    pub addr: Address,
    /// Which transition fails: `true` = the 0→1 (rising) write is lost,
    /// `false` = the 1→0 (falling) write is lost. Writes in the healthy
    /// direction, and writes that do not transition, behave normally.
    pub rising: bool,
}

/// Which intra-word coupling mechanism a [`CouplingFault`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CouplingKind {
    /// State coupling fault (CFst): whenever a write leaves the aggressor
    /// holding `aggressor_value`, the victim is forced to `victim_value`.
    State {
        /// The aggressor state that triggers the fault.
        aggressor_value: bool,
        /// The value forced onto the victim.
        victim_value: bool,
    },
    /// Disturb coupling fault (CFds): a **non-transition `w1`** on the
    /// aggressor (writing 1 onto a cell already holding 1) forces the
    /// victim to `victim_value`. March C– never performs a non-transition
    /// write after its initialisation element, so this is the class it
    /// provably cannot sensitise; March SS's `…,w0,…`/`…,w1,…`
    /// non-transition writes exist precisely to catch it.
    Disturb {
        /// The value forced onto the victim.
        victim_value: bool,
    },
}

/// An intra-word coupling defect between two bit positions of one ECC word
/// (adjacent physical columns share write-line return paths; a short couples
/// an aggressor cell's write to its neighbour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CouplingFault {
    /// Bank index.
    pub bank: usize,
    /// ECC-word index within the bank (row-major groups of
    /// [`crate::reliability::WORD_BITS`] cells).
    pub word: usize,
    /// Aggressor bit position within the word (`0..WORD_BITS`).
    pub aggressor_bit: usize,
    /// Victim bit position within the word (`0..WORD_BITS`, distinct from
    /// the aggressor).
    pub victim_bit: usize,
    /// The coupling mechanism.
    pub kind: CouplingKind,
}

/// A pinhole defect: an MgO-barrier short collapses the TMR, so the high
/// state has neither resistance contrast nor roll-off contrast against the
/// low state. Every sensing scheme reads the cell as "0" regardless of what
/// was written — electrically a stuck-at-0 with a healthy-looking write
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinholeCell {
    /// Bank index.
    pub bank: usize,
    /// Cell address within the bank.
    pub addr: Address,
}

/// A backhopping defect: the write pulse succeeds, but the free layer hops
/// back to the opposite state with probability `prob` before the next
/// access — a probabilistic write fault no single March pass can cover.
#[derive(Debug, Clone, PartialEq)]
pub struct BackhopCell {
    /// Bank index.
    pub bank: usize,
    /// Cell address within the bank.
    pub addr: Address,
    /// Probability that a completed write flips back.
    pub prob: f64,
}

/// What to inject while serving a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Cut power mid-sequence on every Nth read of each bank
    /// (`None` = never). The count is per bank, so the plan is independent
    /// of how transactions interleave across banks.
    pub power_cut_every: Option<u64>,
    /// Manufacturing defects.
    pub stuck_cells: Vec<StuckCell>,
    /// Retention-failure hazard rate per cell, per nanosecond of bank busy
    /// time (`None` = perfect retention). Real rates are astronomically
    /// small; campaign values are accelerated so failures appear within a
    /// trace, like a bake test.
    pub retention_rate_per_ns: Option<f64>,
    /// Probability that one read flips each sensed cell of the victim word
    /// (`None` = no read disturb).
    pub read_disturb_prob: Option<f64>,
    /// Write transition faults (per-direction silent write failures).
    pub transition_faults: Vec<TransitionFault>,
    /// Intra-word coupling defects (CFst / CFds).
    pub coupling_faults: Vec<CouplingFault>,
    /// Pinhole (TMR-collapse) defects.
    pub pinhole_cells: Vec<PinholeCell>,
    /// Backhopping defects (probabilistic post-write flip-back).
    pub backhop_cells: Vec<BackhopCell>,
}

impl FaultPlan {
    /// No faults.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Cut power on every `every`-th read per bank.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    #[must_use]
    pub fn with_power_cut_every(mut self, every: u64) -> Self {
        assert!(every > 0, "power-cut cadence must be at least 1");
        self.power_cut_every = Some(every);
        self
    }

    /// Adds a stuck-at defect.
    #[must_use]
    pub fn with_stuck_cell(mut self, bank: usize, addr: Address, value: bool) -> Self {
        self.stuck_cells.push(StuckCell { bank, addr, value });
        self
    }

    /// Sets the retention-failure hazard rate (flips per cell per
    /// nanosecond of bank busy time).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not finite and positive.
    #[must_use]
    pub fn with_retention_rate(mut self, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "retention rate must be positive, got {rate}"
        );
        self.retention_rate_per_ns = Some(rate);
        self
    }

    /// Sets the per-read, per-cell read-disturb flip probability.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `(0, 1]`.
    #[must_use]
    pub fn with_read_disturb(mut self, prob: f64) -> Self {
        assert!(
            prob.is_finite() && prob > 0.0 && prob <= 1.0,
            "read-disturb probability must be in (0, 1], got {prob}"
        );
        self.read_disturb_prob = Some(prob);
        self
    }

    /// Adds a write transition fault: the write in the failing direction
    /// (`rising` = 0→1) silently leaves the cell unchanged.
    #[must_use]
    pub fn with_transition_fault(mut self, bank: usize, addr: Address, rising: bool) -> Self {
        self.transition_faults
            .push(TransitionFault { bank, addr, rising });
        self
    }

    /// Adds an intra-word coupling defect between two bit positions of ECC
    /// word `word`.
    ///
    /// # Panics
    ///
    /// Panics if either bit position is outside `0..WORD_BITS` or the
    /// aggressor and victim coincide.
    #[must_use]
    pub fn with_coupling_fault(
        mut self,
        bank: usize,
        word: usize,
        aggressor_bit: usize,
        victim_bit: usize,
        kind: CouplingKind,
    ) -> Self {
        assert!(
            aggressor_bit < WORD_BITS && victim_bit < WORD_BITS,
            "coupling bit positions must be inside one {WORD_BITS}-bit word, \
             got {aggressor_bit}/{victim_bit}"
        );
        assert_ne!(aggressor_bit, victim_bit, "a cell cannot couple to itself");
        self.coupling_faults.push(CouplingFault {
            bank,
            word,
            aggressor_bit,
            victim_bit,
            kind,
        });
        self
    }

    /// Adds a pinhole (TMR-collapse) defect.
    #[must_use]
    pub fn with_pinhole(mut self, bank: usize, addr: Address) -> Self {
        self.pinhole_cells.push(PinholeCell { bank, addr });
        self
    }

    /// Adds a backhopping defect with post-write flip-back probability
    /// `prob`.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `(0, 1]`.
    #[must_use]
    pub fn with_backhop(mut self, bank: usize, addr: Address, prob: f64) -> Self {
        assert!(
            prob.is_finite() && prob > 0.0 && prob <= 1.0,
            "backhop probability must be in (0, 1], got {prob}"
        );
        self.backhop_cells.push(BackhopCell { bank, addr, prob });
        self
    }

    /// Probability that a cell idle for `idle_ns` nanoseconds of bank busy
    /// time has suffered a retention flip (0 when retention faults are off
    /// or the cell was just touched).
    #[must_use]
    pub fn retention_flip_prob(&self, idle_ns: f64) -> f64 {
        match self.retention_rate_per_ns {
            Some(rate) if idle_ns > 0.0 => -(-rate * idle_ns).exp_m1(),
            _ => 0.0,
        }
    }

    /// `true` when retention or read-disturb injection is active — the bank
    /// only draws from its fault RNG stream in that case, so disabled plans
    /// stay bit-identical to builds that predate these fault models.
    #[must_use]
    pub fn has_soft_errors(&self) -> bool {
        self.retention_rate_per_ns.is_some() || self.read_disturb_prob.is_some()
    }

    /// `true` if the `reads_served`-th read (1-based) on a bank should be
    /// interrupted by a power cut.
    #[must_use]
    pub fn cuts_power_on(&self, reads_served: u64) -> bool {
        match self.power_cut_every {
            Some(every) => reads_served.is_multiple_of(every),
            None => false,
        }
    }

    /// The slice of this plan that bank `bank` is built with: the scalar
    /// knobs, and only the defects that sit on that bank, in plan order.
    pub(crate) fn for_bank(&self, bank: usize) -> Self {
        fn on_bank<T: Clone>(defects: &[T], bank: usize, at: impl Fn(&T) -> usize) -> Vec<T> {
            defects.iter().filter(|d| at(d) == bank).cloned().collect()
        }
        Self {
            power_cut_every: self.power_cut_every,
            stuck_cells: on_bank(&self.stuck_cells, bank, |c| c.bank),
            retention_rate_per_ns: self.retention_rate_per_ns,
            read_disturb_prob: self.read_disturb_prob,
            transition_faults: on_bank(&self.transition_faults, bank, |f| f.bank),
            coupling_faults: on_bank(&self.coupling_faults, bank, |f| f.bank),
            pinhole_cells: on_bank(&self.pinhole_cells, bank, |c| c.bank),
            backhop_cells: on_bank(&self.backhop_cells, bank, |c| c.bank),
        }
    }
}

/// Coldest die temperature the drift layer will model (K).
pub const DRIFT_T_MIN: f64 = 200.0;

/// Hottest die temperature the drift layer will model (K) — the upper edge
/// of the range [`ThermalModel`]'s coefficients are validated over.
pub const DRIFT_T_MAX: f64 = 500.0;

/// Temperature quantisation step (K) of a [`DriftKey`].
const TEMP_STEP_K: f64 = 2.0;

/// High-state roll-off flattening per kelvin above the 300 K calibration
/// point: `ΔR_Hmax` scales by `1/(1 + tc·ΔT)`.
const ROLLOFF_TC_PER_K: f64 = 0.01;

/// A piecewise-linear thermal excursion on one bank: the die temperature
/// ramps from ambient up by `amplitude_k`, holds, and falls back — a
/// trapezoid on the bank's **busy clock** (accumulated service time, not
/// wall time), so serial, parallel and event-driven dispatch observe the
/// identical temperature history and stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalTransient {
    /// Bank index the hot spot lands on.
    pub bank: usize,
    /// Busy-clock time (ns) the excursion starts.
    pub start_ns: f64,
    /// Rise time (ns) from ambient to the plateau. Zero = step.
    pub ramp_ns: f64,
    /// Plateau duration (ns). `f64::INFINITY` = never cools.
    pub hold_ns: f64,
    /// Fall time (ns) back to ambient. Zero = step.
    pub fall_ns: f64,
    /// Peak temperature rise above ambient (K). Negative = a cold excursion.
    pub amplitude_k: f64,
}

impl ThermalTransient {
    /// Temperature offset above ambient (K) at busy-clock time `busy_ns`.
    fn offset_at(&self, busy_ns: f64) -> f64 {
        let t = busy_ns - self.start_ns;
        if t < 0.0 {
            return 0.0;
        }
        if t < self.ramp_ns {
            return self.amplitude_k * t / self.ramp_ns;
        }
        let t = t - self.ramp_ns;
        if t < self.hold_ns {
            return self.amplitude_k;
        }
        let t = t - self.hold_ns;
        if t < self.fall_ns {
            return self.amplitude_k * (1.0 - t / self.fall_ns);
        }
        0.0
    }
}

/// Quantised drift state of one bank: the temperature step its cells were
/// last rebuilt at. Banks compare keys, not raw clocks, so an access only
/// pays for a cell-array rebuild when the temperature has moved a full
/// 2 K quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftKey {
    temp_step: i32,
}

impl DriftKey {
    /// The dequantised die temperature this key represents (K).
    fn temperature_k(self) -> f64 {
        (f64::from(self.temp_step) * TEMP_STEP_K).clamp(DRIFT_T_MIN, DRIFT_T_MAX)
    }

    /// The per-key half of [`DriftPlan::drifted_spec`]: everything that
    /// depends on the key alone, evaluated once per key change.
    pub(crate) fn step(self) -> DriftStep {
        let t = self.temperature_k();
        DriftStep {
            thermal: ThermalModel::date2010_mgo().factors_at(t),
            rolloff: 1.0 / (1.0 + ROLLOFF_TC_PER_K * (t - T_REFERENCE).max(0.0)),
        }
    }
}

/// One [`DriftKey`]'s factors: the thermal model's temperature factors and
/// the heating roll-off flattening. [`Self::apply`] is the
/// per-cell half of [`DriftPlan::drifted_spec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DriftStep {
    thermal: ThermalFactors,
    rolloff: f64,
}

impl DriftStep {
    /// The drifted spec of the undrifted `reference`, bit-identical to
    /// [`DriftPlan::drifted_spec`] at this step's key.
    pub(crate) fn apply(&self, reference: &MtjSpec) -> MtjSpec {
        let spec = self.thermal.apply(reference);
        let r = &spec.resistance;
        MtjSpec {
            resistance: LinearRolloff::new(
                r.r_low0(),
                r.r_high0(),
                r.dr_low_max(),
                r.dr_high_max() * self.rolloff,
                r.i_max(),
            ),
            switching: spec.switching,
        }
    }
}

/// Dynamic thermal drift: how each bank's device physics evolves while a
/// trace runs (DESIGN.md §15).
///
/// PWL trapezoid excursions ([`ThermalTransient`]) superimpose on a
/// configurable ambient, driven by the bank **busy clock** so replay is
/// deterministic and dispatch-order independent. The drifted spec follows
/// [`ThermalModel::date2010_mgo`]'s [`spec_at`](ThermalModel::spec_at)
/// *plus* an extra high-state roll-off flattening `1/(1 + 0.01·ΔT)` above
/// the 300 K calibration point (ΔT in kelvin): heating degrades the bias
/// roll-off contrast the nondestructive scheme's β was designed against,
/// which is what makes a static β genuinely misread mid-trace.
///
/// Temperature is quantised to 2 K [`DriftKey`] steps. Rebuilding a bank's
/// cells for a new key draws **no RNG**, so enabling drift never perturbs
/// sense or write randomness.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftPlan {
    /// Ambient die temperature (K). Default 300 K (the calibration point).
    pub ambient_k: f64,
    /// Per-bank thermal excursions.
    pub transients: Vec<ThermalTransient>,
}

impl Default for DriftPlan {
    fn default() -> Self {
        Self::quiet()
    }
}

impl DriftPlan {
    /// No drift: ambient at the 300 K calibration point and no transients.
    /// A quiet plan is guaranteed to never touch a bank's cells, so
    /// runs stay bit-identical to builds that predate the drift layer.
    #[must_use]
    pub fn quiet() -> Self {
        Self {
            ambient_k: T_REFERENCE,
            transients: Vec::new(),
        }
    }

    /// `true` when this plan can never drift a device: ambient sits exactly
    /// at the calibration temperature and there are no transients. Banks
    /// skip all drift bookkeeping for quiet plans.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.ambient_k == T_REFERENCE && self.transients.is_empty()
    }

    /// Sets the ambient die temperature.
    ///
    /// # Panics
    ///
    /// Panics if `ambient_k` is outside `[DRIFT_T_MIN, DRIFT_T_MAX]`.
    #[must_use]
    pub fn with_ambient(mut self, ambient_k: f64) -> Self {
        assert!(
            (DRIFT_T_MIN..=DRIFT_T_MAX).contains(&ambient_k),
            "ambient temperature must be in [{DRIFT_T_MIN}, {DRIFT_T_MAX}] K, got {ambient_k}"
        );
        self.ambient_k = ambient_k;
        self
    }

    /// Adds a thermal excursion on one bank.
    ///
    /// # Panics
    ///
    /// Panics if any duration is negative, the start is not finite and
    /// non-negative, or the amplitude is not finite.
    #[must_use]
    pub fn with_transient(mut self, transient: ThermalTransient) -> Self {
        assert!(
            transient.start_ns.is_finite() && transient.start_ns >= 0.0,
            "transient start must be finite and non-negative"
        );
        assert!(
            transient.ramp_ns >= 0.0 && transient.hold_ns >= 0.0 && transient.fall_ns >= 0.0,
            "transient durations must be non-negative"
        );
        assert!(
            transient.amplitude_k.is_finite(),
            "transient amplitude must be finite"
        );
        self.transients.push(transient);
        self
    }

    /// The die temperature of `bank` at busy-clock time `busy_ns`, clamped
    /// to the model's validated range.
    fn temperature_at(&self, bank: usize, busy_ns: f64) -> f64 {
        let offset: f64 = self
            .transients
            .iter()
            .filter(|t| t.bank == bank)
            .map(|t| t.offset_at(busy_ns))
            .sum();
        (self.ambient_k + offset).clamp(DRIFT_T_MIN, DRIFT_T_MAX)
    }

    /// The quantised drift state of `bank` at busy-clock time `busy_ns`.
    #[must_use]
    pub fn key_at(&self, bank: usize, busy_ns: f64) -> DriftKey {
        let temp = self.temperature_at(bank, busy_ns);
        #[allow(clippy::cast_possible_truncation)]
        let temp_step = (temp / TEMP_STEP_K).round() as i32;
        DriftKey { temp_step }
    }

    /// The drifted device spec at drift state `key`, derived from the
    /// undrifted `reference` spec: [`ThermalModel::date2010_mgo`]'s
    /// [`spec_at`](ThermalModel::spec_at) at the key's temperature, with the
    /// high-state roll-off additionally flattened by heating
    /// (`1/(1 + 0.01·ΔT)` above 300 K).
    #[must_use]
    pub fn drifted_spec(&self, reference: &MtjSpec, key: DriftKey) -> MtjSpec {
        key.step().apply(reference)
    }

    /// The slice of this plan that bank `bank` is built with: the ambient
    /// and only the transients on that bank, in plan order.
    pub(crate) fn for_bank(&self, bank: usize) -> Self {
        Self {
            ambient_k: self.ambient_k,
            transients: self
                .transients
                .iter()
                .filter(|t| t.bank == bank)
                .copied()
                .collect(),
        }
    }

    /// `true` when no bank's key ever moves under this plan: it has no
    /// transients. A bank whose slice has a constant key applies it once at
    /// construction.
    pub(crate) fn has_constant_key(&self) -> bool {
        self.transients.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_quiet() {
        let plan = FaultPlan::none();
        assert!(!plan.cuts_power_on(1));
        assert!(!plan.cuts_power_on(1000));
        assert!(plan.for_bank(0).stuck_cells.is_empty());
    }

    #[test]
    fn power_cut_cadence() {
        let plan = FaultPlan::none().with_power_cut_every(100);
        assert!(!plan.cuts_power_on(1));
        assert!(!plan.cuts_power_on(99));
        assert!(plan.cuts_power_on(100));
        assert!(plan.cuts_power_on(200));
    }

    #[test]
    fn retention_probability_follows_the_exponential_hazard() {
        let plan = FaultPlan::none().with_retention_rate(1e-3);
        assert_eq!(plan.retention_flip_prob(0.0), 0.0);
        let p = plan.retention_flip_prob(1000.0);
        assert!((p - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert!(plan.retention_flip_prob(1e9) > 0.999_999);
        assert_eq!(FaultPlan::none().retention_flip_prob(1e9), 0.0);
    }

    #[test]
    fn soft_error_flag_tracks_the_two_models() {
        assert!(!FaultPlan::none().has_soft_errors());
        assert!(FaultPlan::none()
            .with_retention_rate(1e-6)
            .has_soft_errors());
        assert!(FaultPlan::none().with_read_disturb(0.01).has_soft_errors());
        assert!(!FaultPlan::none().with_power_cut_every(5).has_soft_errors());
    }

    #[test]
    #[should_panic(expected = "read-disturb probability")]
    fn read_disturb_must_be_a_probability() {
        let _ = FaultPlan::none().with_read_disturb(1.5);
    }

    #[test]
    fn stuck_cells_filter_by_bank() {
        let plan = FaultPlan::none()
            .with_stuck_cell(0, Address::new(1, 1), true)
            .with_stuck_cell(2, Address::new(3, 3), false)
            .with_stuck_cell(0, Address::new(5, 5), false);
        assert_eq!(plan.for_bank(0).stuck_cells.len(), 2);
        assert_eq!(plan.for_bank(1).stuck_cells.len(), 0);
        assert_eq!(plan.for_bank(2).stuck_cells.len(), 1);
    }

    #[test]
    fn defect_library_filters_by_bank() {
        let plan = FaultPlan::none()
            .with_transition_fault(0, Address::new(1, 2), true)
            .with_transition_fault(1, Address::new(1, 2), false)
            .with_coupling_fault(
                0,
                3,
                5,
                6,
                CouplingKind::State {
                    aggressor_value: true,
                    victim_value: false,
                },
            )
            .with_pinhole(1, Address::new(4, 4))
            .with_backhop(0, Address::new(7, 7), 0.5);
        let (bank0, bank1) = (plan.for_bank(0), plan.for_bank(1));
        assert_eq!(bank0.transition_faults.len(), 1);
        assert_eq!(bank1.transition_faults.len(), 1);
        assert_eq!(bank0.coupling_faults.len(), 1);
        assert_eq!(bank1.coupling_faults.len(), 0);
        assert_eq!(bank1.pinhole_cells.len(), 1);
        assert_eq!(bank0.backhop_cells.len(), 1);
        assert!(bank0.transition_faults[0].rising);
    }

    #[test]
    #[should_panic(expected = "couple to itself")]
    fn coupling_rejects_self_coupling() {
        let _ = FaultPlan::none().with_coupling_fault(
            0,
            0,
            3,
            3,
            CouplingKind::Disturb { victim_value: true },
        );
    }

    #[test]
    #[should_panic(expected = "backhop probability")]
    fn backhop_rejects_bad_probability() {
        let _ = FaultPlan::none().with_backhop(0, Address::new(0, 0), 0.0);
    }

    #[test]
    fn retention_probability_edge_cases_stay_in_unit_interval() {
        // rate = 0 (constructed directly — the builder rejects it as a
        // degenerate knob) must behave like "no retention faults".
        let zero_rate = FaultPlan {
            retention_rate_per_ns: Some(0.0),
            ..FaultPlan::none()
        };
        assert_eq!(zero_rate.retention_flip_prob(1e12), 0.0);
        let plan = FaultPlan::none().with_retention_rate(1e-6);
        assert_eq!(plan.retention_flip_prob(0.0), 0.0);
        assert_eq!(
            plan.retention_flip_prob(-1.0),
            0.0,
            "negative idle is no idle"
        );
        assert_eq!(plan.retention_flip_prob(f64::INFINITY), 1.0);
        assert!(plan.retention_flip_prob(1e300) <= 1.0);
    }

    mod drift {
        use super::*;

        fn hotspot(amplitude_k: f64) -> ThermalTransient {
            ThermalTransient {
                bank: 0,
                start_ns: 1000.0,
                ramp_ns: 500.0,
                hold_ns: 2000.0,
                fall_ns: 500.0,
                amplitude_k,
            }
        }

        #[test]
        fn quiet_plan_is_the_default_and_detects_itself() {
            assert_eq!(DriftPlan::default(), DriftPlan::quiet());
            assert!(DriftPlan::quiet().is_quiet());
            assert!(!DriftPlan::quiet().with_ambient(320.0).is_quiet());
            assert!(!DriftPlan::quiet().with_transient(hotspot(100.0)).is_quiet());
        }

        #[test]
        fn a_bank_slice_keeps_its_keys_and_only_its_transients() {
            let other = ThermalTransient {
                bank: 1,
                ..hotspot(40.0)
            };
            let plan = DriftPlan::quiet()
                .with_ambient(320.0)
                .with_transient(hotspot(100.0))
                .with_transient(other)
                .with_transient(hotspot(-30.0));
            for bank in 0..3 {
                let slice = plan.for_bank(bank);
                assert!(slice.transients.iter().all(|t| t.bank == bank));
                assert_eq!(slice.has_constant_key(), bank == 2);
                for busy_ns in [0.0, 1200.0, 2000.0, 3800.0, 1e6] {
                    assert_eq!(slice.key_at(bank, busy_ns), plan.key_at(bank, busy_ns));
                }
            }
            assert_eq!(plan.for_bank(0).transients.len(), 2);
        }

        #[test]
        fn transient_traces_the_trapezoid() {
            let t = hotspot(100.0);
            assert_eq!(t.offset_at(0.0), 0.0);
            assert_eq!(t.offset_at(999.9), 0.0);
            assert!((t.offset_at(1250.0) - 50.0).abs() < 1e-9, "mid-ramp");
            assert_eq!(t.offset_at(1500.0), 100.0, "plateau start");
            assert_eq!(t.offset_at(3000.0), 100.0, "plateau");
            assert!((t.offset_at(3750.0) - 50.0).abs() < 1e-9, "mid-fall");
            assert_eq!(t.offset_at(4000.0), 0.0, "cooled");
            assert_eq!(t.offset_at(1e12), 0.0);
        }

        #[test]
        fn zero_duration_segments_behave_as_steps() {
            let step = ThermalTransient {
                bank: 0,
                start_ns: 100.0,
                ramp_ns: 0.0,
                hold_ns: 50.0,
                fall_ns: 0.0,
                amplitude_k: 80.0,
            };
            assert_eq!(step.offset_at(99.9), 0.0);
            assert_eq!(step.offset_at(100.0), 80.0);
            assert_eq!(step.offset_at(149.9), 80.0);
            assert_eq!(step.offset_at(150.0), 0.0);
        }

        #[test]
        fn temperature_sums_per_bank_and_clamps() {
            let plan = DriftPlan::quiet()
                .with_transient(hotspot(100.0))
                .with_transient(ThermalTransient {
                    bank: 1,
                    ..hotspot(50.0)
                })
                .with_transient(ThermalTransient {
                    start_ns: 2000.0,
                    ..hotspot(400.0)
                });
            assert_eq!(plan.temperature_at(0, 0.0), 300.0);
            assert_eq!(plan.temperature_at(0, 2000.0), 400.0, "first plateau only");
            assert_eq!(
                plan.temperature_at(0, 3000.0),
                DRIFT_T_MAX,
                "stacked transients clamp at the model ceiling"
            );
            assert_eq!(plan.temperature_at(1, 2000.0), 350.0);
            assert_eq!(plan.temperature_at(2, 2000.0), 300.0, "unaffected bank");
        }

        #[test]
        fn keys_quantise_temperature_and_aging() {
            let plan = DriftPlan::quiet().with_transient(hotspot(100.0));
            let cold = plan.key_at(0, 0.0);
            assert_eq!(cold, plan.key_at(0, 500.0), "pre-transient keys agree");
            // Half a quantum of temperature movement does not change the key.
            assert_eq!(plan.key_at(0, 1000.0), plan.key_at(0, 1004.0));
            assert_ne!(cold, plan.key_at(0, 2000.0), "plateau is a new key");
            assert_eq!(cold, plan.key_at(1, 2000.0), "other banks unaffected");
            // The model has no aging term: busy time alone, however long,
            // never moves a key.
            assert_eq!(cold, plan.key_at(0, 1e15));
            let hot = DriftPlan::quiet().with_ambient(360.0);
            assert_eq!(hot.key_at(0, 0.0), hot.key_at(0, 1e15));
        }

        #[test]
        fn drifted_spec_flattens_the_high_rolloff() {
            use stt_mtj::MtjSpec;
            let reference = MtjSpec::date2010_typical();
            let plan = DriftPlan::quiet().with_transient(hotspot(150.0));
            let cold = plan.drifted_spec(&reference, plan.key_at(0, 0.0));
            let hot = plan.drifted_spec(&reference, plan.key_at(0, 2000.0));
            // Heating collapses TMR (spec_at) *and* flattens the roll-off
            // beyond the proportional spec_at scaling.
            assert!(hot.resistance.r_high0() < cold.resistance.r_high0());
            let spec_at_only = ThermalModel::date2010_mgo().spec_at(&reference, 450.0);
            assert!(
                hot.resistance.dr_high_max().get()
                    < 0.5 * spec_at_only.resistance.dr_high_max().get(),
                "tc = 0.01/K at ΔT = 150 K flattens by > 2×"
            );
            // Low-state roll-off follows spec_at alone.
            assert!(
                (hot.resistance.dr_low_max() - spec_at_only.resistance.dr_low_max())
                    .abs()
                    .get()
                    < 1e-9
            );
        }

        #[test]
        #[should_panic(expected = "durations must be non-negative")]
        fn transient_rejects_negative_durations() {
            let _ = DriftPlan::quiet().with_transient(ThermalTransient {
                ramp_ns: -1.0,
                ..hotspot(10.0)
            });
        }

        #[test]
        #[should_panic(expected = "ambient temperature")]
        fn ambient_must_stay_in_model_range() {
            let _ = DriftPlan::quiet().with_ambient(600.0);
        }
    }

    mod retention_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_retention_flip_prob_is_a_probability(
                rate in 1e-12f64..1.0,
                idle_ns in 0.0..1e30f64,
            ) {
                let plan = FaultPlan::none().with_retention_rate(rate);
                let p = plan.retention_flip_prob(idle_ns);
                prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
                // More idle time never lowers the flip probability.
                let p_half = plan.retention_flip_prob(idle_ns / 2.0);
                prop_assert!(p_half <= p);
            }
        }
    }
}
