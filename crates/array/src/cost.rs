//! Per-operation latency and energy accounting.
//!
//! A memory operation is a sequence of [`Phase`]s — decode, read current
//! applied, write pulse, sensing, write-back — each drawing a current from a
//! supply for a duration. Rolling a phase list up into an [`OperationCost`]
//! gives the latency/energy comparison the paper argues qualitatively in
//! §V: the nondestructive scheme eliminates two write phases and shortens
//! the second read, so it is both faster and lower energy.

use std::fmt;

use stt_units::{Amps, Joules, Seconds, Volts};

/// What a phase does (for reporting; the arithmetic only uses the numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Row/column decode and word-line assertion.
    Decode,
    /// A read current applied to the bit-line (sampling included).
    Read,
    /// A programming current pulse.
    Write,
    /// Sense-amplifier evaluation and latching.
    Sense,
    /// Pre-charge or equalisation.
    Precharge,
}

impl fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PhaseKind::Decode => "decode",
            PhaseKind::Read => "read",
            PhaseKind::Write => "write",
            PhaseKind::Sense => "sense",
            PhaseKind::Precharge => "precharge",
        };
        write!(f, "{name}")
    }
}

/// One timed phase of a memory operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// What the phase is.
    pub kind: PhaseKind,
    /// A short label for waveform/timing reports (e.g. `"read1 (SLT1 on)"`).
    pub label: String,
    /// Duration.
    pub duration: Seconds,
    /// Supply current drawn during the phase.
    pub current: Amps,
    /// Supply voltage the current is drawn from.
    pub supply: Volts,
}

impl Phase {
    /// Creates a phase.
    ///
    /// # Panics
    ///
    /// Panics if the duration is non-positive or the current/supply are
    /// negative.
    #[must_use]
    pub fn new(
        kind: PhaseKind,
        label: impl Into<String>,
        duration: Seconds,
        current: Amps,
        supply: Volts,
    ) -> Self {
        assert!(duration.get() > 0.0, "phase duration must be positive");
        assert!(current.get() >= 0.0, "phase current must be non-negative");
        assert!(supply.get() >= 0.0, "supply voltage must be non-negative");
        Self {
            kind,
            label: label.into(),
            duration,
            current,
            supply,
        }
    }

    /// Energy drawn from the supply during this phase.
    #[must_use]
    pub fn energy(&self) -> Joules {
        self.supply * self.current * self.duration
    }
}

/// The rolled-up cost of an operation (a sequence of phases).
#[derive(Debug, Clone, PartialEq)]
pub struct OperationCost {
    phases: Vec<Phase>,
}

impl OperationCost {
    /// Builds the cost of a phase sequence.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty.
    #[must_use]
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "an operation needs at least one phase");
        Self { phases }
    }

    /// The phases in execution order.
    #[must_use]
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total latency (phases are sequential).
    #[must_use]
    pub fn latency(&self) -> Seconds {
        self.phases.iter().map(|phase| phase.duration).sum()
    }

    /// Total supply energy.
    #[must_use]
    pub fn energy(&self) -> Joules {
        self.phases.iter().map(Phase::energy).sum()
    }

    /// Summed duration of phases of the given kind.
    #[must_use]
    pub fn time_in(&self, kind: PhaseKind) -> Seconds {
        self.phases
            .iter()
            .filter(|phase| phase.kind == kind)
            .map(|phase| phase.duration)
            .sum()
    }

    /// Summed energy of phases of the given kind.
    #[must_use]
    pub fn energy_in(&self, kind: PhaseKind) -> Joules {
        self.phases
            .iter()
            .filter(|phase| phase.kind == kind)
            .map(Phase::energy)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nanos(t: f64) -> Seconds {
        Seconds::from_nano(t)
    }

    fn micro_amps(i: f64) -> Amps {
        Amps::from_micro(i)
    }

    #[test]
    fn phase_energy_is_vit() {
        let phase = Phase::new(
            PhaseKind::Write,
            "erase",
            nanos(4.0),
            micro_amps(500.0),
            Volts::new(1.2),
        );
        // 1.2 V × 500 µA × 4 ns = 2.4 pJ.
        assert!((phase.energy().get() - 2.4e-12).abs() < 1e-24);
    }

    #[test]
    fn operation_rolls_up() {
        let op = OperationCost::new(vec![
            Phase::new(
                PhaseKind::Decode,
                "decode",
                nanos(1.0),
                micro_amps(50.0),
                Volts::new(1.2),
            ),
            Phase::new(
                PhaseKind::Read,
                "read1",
                nanos(5.0),
                micro_amps(94.0),
                Volts::new(1.2),
            ),
            Phase::new(
                PhaseKind::Read,
                "read2",
                nanos(5.0),
                micro_amps(200.0),
                Volts::new(1.2),
            ),
            Phase::new(
                PhaseKind::Sense,
                "sense",
                nanos(2.0),
                micro_amps(20.0),
                Volts::new(1.2),
            ),
        ]);
        assert!((op.latency().get() - 13e-9).abs() < 1e-20);
        assert!((op.time_in(PhaseKind::Read).get() - 10e-9).abs() < 1e-20);
        let read_energy = op.energy_in(PhaseKind::Read).get();
        let expected = 1.2 * (94e-6 + 200e-6) * 5e-9;
        assert!((read_energy - expected).abs() < 1e-20);
        assert!(op.energy() > op.energy_in(PhaseKind::Read));
    }

    #[test]
    fn display_names_phases() {
        assert_eq!(PhaseKind::Write.to_string(), "write");
        assert_eq!(PhaseKind::Precharge.to_string(), "precharge");
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn rejects_empty_operation() {
        let _ = OperationCost::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn rejects_zero_duration_phase() {
        let _ = Phase::new(
            PhaseKind::Read,
            "zero",
            Seconds::ZERO,
            micro_amps(1.0),
            Volts::new(1.2),
        );
    }
}
