//! Per-read reliability accounting across the three schemes.
//!
//! The paper's qualitative reliability claims, made quantitative:
//!
//! * the destructive scheme spends **two write pulses per read** — against
//!   the >10¹⁵-cycle endurance the paper's introduction quotes, that caps
//!   the number of reads a cell survives, and each write carries a write
//!   error rate;
//! * every scheme exposes the cell to **read disturb** during its read
//!   phases (the nondestructive scheme's second read at `I_max` dominates);
//! * only the destructive scheme has a **power-loss window** in which the
//!   data lives outside the cell.
//!
//! A subtlety worth recording: the destructive scheme *heals* pre-existing
//! disturbs on every read (the write-back reprograms the sensed value), at
//! the price of the endurance and nonvolatility costs above. The
//! nondestructive scheme leaves the cell untouched — disturbs accumulate
//! across reads at the per-read rate, giving the
//! [`ReliabilityBudget::expected_reads_to_disturb`] figure.

use stt_array::{Cell, PhaseKind};
use stt_units::Seconds;

use crate::design::DesignPoint;
use crate::scheme::SchemeKind;
use crate::timing::ChipTiming;

/// Endurance budget the paper's introduction quotes for STT-RAM.
pub const PAPER_ENDURANCE_CYCLES: f64 = 1e15;

/// The per-read reliability budget of one scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityBudget {
    /// Which scheme.
    pub kind: SchemeKind,
    /// Programming pulses issued per read.
    pub writes_per_read: u32,
    /// Probability that one of this read's write pulses fails.
    pub write_error_per_read: f64,
    /// Probability that this read's current exposure flips the cell.
    pub read_disturb_per_read: f64,
    /// Expected number of reads before a disturb, `1 / p_disturb`
    /// (`+∞` when the disturb probability underflows).
    pub expected_reads_to_disturb: f64,
    /// Reads a cell survives before exhausting its write endurance
    /// (`+∞` for schemes that never write).
    pub endurance_limited_reads: f64,
    /// Per-read window during which a power failure loses the data.
    pub power_loss_window: Seconds,
}

/// Computes the reliability budget of every scheme for `cell` at the given
/// design point and timing.
///
/// # Examples
///
/// ```
/// use stt_array::CellSpec;
/// use stt_sense::{reliability_budgets, ChipTiming, DesignPoint, SchemeKind};
///
/// let cell = CellSpec::date2010_chip().nominal_cell();
/// let design = DesignPoint::date2010(&cell);
/// let budgets = reliability_budgets(
///     &cell, &design, &ChipTiming::date2010(), stt_sense::PAPER_ENDURANCE_CYCLES,
/// );
/// let destructive = budgets.iter().find(|b| b.kind == SchemeKind::Destructive).unwrap();
/// assert_eq!(destructive.writes_per_read, 2);
/// ```
#[must_use]
pub fn reliability_budgets(
    cell: &Cell,
    design: &DesignPoint,
    timing: &ChipTiming,
    endurance_cycles: f64,
) -> Vec<ReliabilityBudget> {
    [
        SchemeKind::Conventional,
        SchemeKind::Destructive,
        SchemeKind::Nondestructive,
    ]
    .into_iter()
    .map(|kind| budget_for(kind, cell, design, timing, endurance_cycles))
    .collect()
}

fn budget_for(
    kind: SchemeKind,
    cell: &Cell,
    design: &DesignPoint,
    timing: &ChipTiming,
    endurance_cycles: f64,
) -> ReliabilityBudget {
    let cost = timing.read_cost(kind, design);
    let switching = cell.device().switching();

    let mut writes_per_read = 0u32;
    let mut write_error = 0.0;
    let mut disturb = 0.0;
    let mut power_loss_window = Seconds::ZERO;
    let mut write_seen = false;
    for phase in cost.phases() {
        match phase.kind {
            PhaseKind::Write => {
                writes_per_read += 1;
                write_seen = true;
                write_error += switching.write_error_rate(phase.current, timing.write_pulse);
                power_loss_window += phase.duration;
            }
            PhaseKind::Read => {
                disturb += switching.read_disturb_probability(phase.current, phase.duration);
                if write_seen {
                    power_loss_window += phase.duration;
                }
            }
            _ => {
                if write_seen {
                    power_loss_window += phase.duration;
                }
            }
        }
    }
    // The window closes once the final write-back lands: subtract nothing —
    // the last phase of the destructive read *is* the write-back, so the
    // accumulated window already ends there.

    ReliabilityBudget {
        kind,
        writes_per_read,
        write_error_per_read: write_error,
        read_disturb_per_read: disturb,
        expected_reads_to_disturb: if disturb > 0.0 {
            1.0 / disturb
        } else {
            f64::INFINITY
        },
        endurance_limited_reads: if writes_per_read > 0 {
            endurance_cycles / f64::from(writes_per_read)
        } else {
            f64::INFINITY
        },
        power_loss_window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stt_array::CellSpec;

    fn budgets() -> Vec<ReliabilityBudget> {
        let cell = CellSpec::date2010_chip().nominal_cell();
        let design = DesignPoint::date2010(&cell);
        reliability_budgets(
            &cell,
            &design,
            &ChipTiming::date2010(),
            PAPER_ENDURANCE_CYCLES,
        )
    }

    fn budget(kind: SchemeKind) -> ReliabilityBudget {
        budgets()
            .into_iter()
            .find(|b| b.kind == kind)
            .expect("all schemes present")
    }

    #[test]
    fn destructive_pays_two_writes_per_read() {
        let destructive = budget(SchemeKind::Destructive);
        assert_eq!(destructive.writes_per_read, 2);
        assert!(
            (destructive.endurance_limited_reads - 5e14).abs() < 1e9,
            "endurance-limited reads {}",
            destructive.endurance_limited_reads
        );
        assert!(destructive.power_loss_window.get() > 10e-9);
    }

    #[test]
    fn nonwriting_schemes_have_infinite_endurance() {
        for kind in [SchemeKind::Conventional, SchemeKind::Nondestructive] {
            let b = budget(kind);
            assert_eq!(b.writes_per_read, 0, "{kind}");
            assert!(b.endurance_limited_reads.is_infinite());
            assert_eq!(b.write_error_per_read, 0.0);
            assert_eq!(b.power_loss_window, Seconds::ZERO);
        }
    }

    #[test]
    fn disturb_dominated_by_the_imax_phase() {
        let nondestructive = budget(SchemeKind::Nondestructive);
        // 200 µA over 5 ns: ~1e-8 per read; I_R1's contribution is orders
        // of magnitude below.
        assert!(
            (1e-10..1e-6).contains(&nondestructive.read_disturb_per_read),
            "disturb {}",
            nondestructive.read_disturb_per_read
        );
        assert!(nondestructive.expected_reads_to_disturb > 1e6);
    }

    #[test]
    fn write_error_rate_negligible_at_rated_current() {
        let destructive = budget(SchemeKind::Destructive);
        assert!(
            destructive.write_error_per_read < 1e-9,
            "600 µA writes must be reliable: {}",
            destructive.write_error_per_read
        );
    }

    #[test]
    fn tradeoff_summary_shapes() {
        // The headline trade: destructive heals disturbs but burns
        // endurance and exposes data; nondestructive risks only the (tiny)
        // disturb accumulation.
        let destructive = budget(SchemeKind::Destructive);
        let nondestructive = budget(SchemeKind::Nondestructive);
        assert!(nondestructive.endurance_limited_reads > destructive.endurance_limited_reads);
        assert!(destructive.power_loss_window > nondestructive.power_loss_window);
        assert!(nondestructive.read_disturb_per_read > 0.0);
    }
}
