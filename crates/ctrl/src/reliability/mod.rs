//! `reliability` — SECDED ECC, background scrub, and fault-injection
//! campaigns for the controller.
//!
//! The DATE 2010 paper's nondestructive read exists because a destructive
//! read that loses power mid-sequence is silent data loss. This module
//! turns that loss — and every other misread the fault injector can cause
//! (stuck cells, retention flips, read disturb, marginal senses) — into
//! *classified events* a system can act on:
//!
//! * [`codec`] — a (72,64) SECDED extended-Hamming code. Every demand read
//!   of an ECC-enabled bank senses the full 64-cell word, decodes it
//!   against a per-word check store, and is classified **clean** /
//!   **corrected CE** / **detected UE** / **silent** (the codec said fine
//!   but the delivered word was wrong — the case ECC exists to shrink).
//! * [`scrub`] — the background scrub daemon: a low-priority traffic
//!   source in the scheduler frontend that walks each bank re-reading
//!   words, correcting CEs in place and rewriting cells damaged by power
//!   cuts, on a dedicated RNG stream so demand reads are undisturbed.
//! * [`campaign`] — the fault-injection campaign runner behind
//!   `trafficsim --reliability-sweep`: fault intensity × protection level
//!   × sensing scheme, reporting uncorrectable/silent rates so graceful
//!   degradation is a measured (and asserted) property, not a hope.
//!
//! Word geometry: ECC words are groups of [`WORD_BITS`] consecutive cells
//! in row-major order; a bank whose capacity is not a multiple of 64 pads
//! its last word with constant zeros. The 8 check bits per word live in a
//! controller-side store (modelling dedicated check columns) that is
//! updated on every host write from the controller's write buffer — the
//! standard read-modify-write dance — and read back undisturbed, so every
//! syndrome the decoder sees was caused by array-side corruption.

pub mod campaign;
pub mod codec;
pub mod scrub;

use serde::{Deserialize, Serialize};

pub use campaign::{run_campaign, CampaignConfig, CampaignRow, FaultIntensity, Protection};
pub use scrub::{ScrubConfig, ScrubCursor};

/// Cells per ECC word.
pub const WORD_BITS: usize = codec::DATA_BITS as usize;

/// Whether a controller protects its words with ECC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EccMode {
    /// No coding: every misread is silent data loss (the seed behaviour).
    #[default]
    None,
    /// (72,64) SECDED per word: demand reads sense the whole word, correct
    /// single-bit errors and flag double-bit errors.
    Secded,
}

impl EccMode {
    /// `true` when ECC is enabled.
    #[must_use]
    pub fn is_enabled(self) -> bool {
        matches!(self, EccMode::Secded)
    }

    /// Short machine-readable name for table/CSV rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EccMode::None => "none",
            EccMode::Secded => "secded",
        }
    }
}

/// Number of ECC words covering `cells` cells (last word possibly padded).
#[must_use]
pub fn word_count(cells: usize) -> usize {
    cells.div_ceil(WORD_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_count_rounds_up() {
        assert_eq!(word_count(64), 1);
        assert_eq!(word_count(65), 2);
        assert_eq!(word_count(16_384), 256);
        assert_eq!(word_count(0), 0);
    }

    #[test]
    fn mode_names_and_flags() {
        assert!(!EccMode::None.is_enabled());
        assert!(EccMode::Secded.is_enabled());
        assert_eq!(EccMode::default(), EccMode::None);
        assert_eq!(EccMode::Secded.name(), "secded");
    }
}
