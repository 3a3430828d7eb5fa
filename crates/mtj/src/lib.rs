//! Magnetic tunnel junction (MTJ) device physics for STT-RAM sensing studies.
//!
//! This crate is the device substrate of the reproduction of Chen et al.,
//! *A Nondestructive Self-Reference Scheme for STT-RAM* (DATE 2010). It
//! models the three device behaviours every sensing scheme in the paper
//! depends on:
//!
//! 1. **Bias-dependent resistance** — the resistance of an MgO MTJ falls as
//!    the read current rises, and the high (anti-parallel) state rolls off
//!    much more steeply than the low (parallel) state. That asymmetry is the
//!    entire physical basis of the paper's nondestructive self-reference
//!    read. See [`model`].
//! 2. **Spin-transfer-torque switching** — write operations flip the free
//!    layer with a polarised current; the critical current depends on pulse
//!    width, and a too-large read current can disturb the stored state.
//!    See [`switching`].
//! 3. **Process variation** — bit-to-bit resistance spread (oxide thickness,
//!    geometry, TMR) is the yield limiter the paper sets out to defeat.
//!    See [`variation`].
//!
//! The calibrated "typical device" of the paper's Table I is available as
//! [`MtjSpec::date2010_typical`].
//!
//! # Examples
//!
//! ```
//! use stt_mtj::{MtjSpec, ResistanceState};
//! use stt_units::Amps;
//!
//! let device = MtjSpec::date2010_typical().into_device();
//! let low = device.resistance(ResistanceState::Parallel, Amps::from_micro(200.0));
//! let high = device.resistance(ResistanceState::AntiParallel, Amps::from_micro(200.0));
//! assert!(high > low);
//! // High-state roll-off is much steeper than low-state roll-off.
//! let dr_h = device.resistance(ResistanceState::AntiParallel, Amps::ZERO) - high;
//! let dr_l = device.resistance(ResistanceState::Parallel, Amps::ZERO) - low;
//! assert!(dr_h.get() > 5.0 * dr_l.get());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curve;
pub mod device;
pub mod fit;
pub mod model;
pub mod switching;
pub mod thermal;
pub mod variation;

pub use curve::{IvPoint, IvSweep, TabulatedCurve};
pub use device::{MtjDevice, MtjSpec};
pub use fit::{fit_from_curve, fit_from_sweep, fit_linear_rolloff, FitRolloffError, RolloffFit};
pub use model::{ConductanceModel, LinearRolloff, ResistanceCurve, ResistanceModel};
pub use switching::SwitchingModel;
pub use thermal::{ThermalFactors, ThermalModel, T_REFERENCE};
pub use variation::{OxideSensitivity, SampledMtj, VariationModel};

/// The two stable magnetisation configurations of an MTJ.
///
/// In the paper's convention (Fig. 1) the parallel configuration is the low
/// resistance state and stores a logical "0"; anti-parallel is the high
/// resistance state and stores a logical "1".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResistanceState {
    /// Free and reference layer magnetisations aligned: low resistance, "0".
    Parallel,
    /// Free and reference layer magnetisations opposed: high resistance, "1".
    AntiParallel,
}

impl ResistanceState {
    /// Returns the logical bit the state stores (`false` = "0", `true` = "1").
    #[must_use]
    pub fn bit(self) -> bool {
        matches!(self, ResistanceState::AntiParallel)
    }

    /// Returns the state that stores the given logical bit.
    #[must_use]
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            ResistanceState::AntiParallel
        } else {
            ResistanceState::Parallel
        }
    }

    /// Returns the opposite state.
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            ResistanceState::Parallel => ResistanceState::AntiParallel,
            ResistanceState::AntiParallel => ResistanceState::Parallel,
        }
    }
}

impl std::fmt::Display for ResistanceState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResistanceState::Parallel => write!(f, "P (low-R, \"0\")"),
            ResistanceState::AntiParallel => write!(f, "AP (high-R, \"1\")"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_mapping_matches_paper_convention() {
        assert!(!ResistanceState::Parallel.bit());
        assert!(ResistanceState::AntiParallel.bit());
        assert_eq!(
            ResistanceState::from_bit(true),
            ResistanceState::AntiParallel
        );
        assert_eq!(ResistanceState::from_bit(false), ResistanceState::Parallel);
    }

    #[test]
    fn flipping_is_an_involution() {
        for state in [ResistanceState::Parallel, ResistanceState::AntiParallel] {
            assert_eq!(state.flipped().flipped(), state);
            assert_ne!(state.flipped(), state);
        }
    }

    #[test]
    fn display_names_both_states() {
        assert!(format!("{}", ResistanceState::Parallel).contains("low-R"));
        assert!(format!("{}", ResistanceState::AntiParallel).contains("high-R"));
    }
}
