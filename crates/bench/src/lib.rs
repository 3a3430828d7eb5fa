//! Reproduction harness for every table and figure of Chen et al., *A
//! Nondestructive Self-Reference Scheme for STT-RAM* (DATE 2010).
//!
//! Each function in [`tables`], [`figures`] and [`extras`] regenerates one
//! artefact of the paper's evaluation as a printable [`stt_stats::Table`]
//! (figures become their data series — the rows one would plot). The `repro`
//! binary dispatches on the experiment id:
//!
//! ```text
//! cargo run --release -p stt-bench --bin repro -- table1
//! cargo run --release -p stt-bench --bin repro -- fig6
//! cargo run --release -p stt-bench --bin repro -- all
//! ```
//!
//! Speed is measured by `perfbench/`, a package of its own that builds
//! against this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extras;
pub mod figures;
pub mod montecarlo;
pub mod tables;

use stt_array::{Cell, CellSpec};
use stt_sense::DesignPoint;
use stt_units::Amps;

/// The paper's operating point shared by every experiment: typical device,
/// `I_max` = 200 µA, α = 0.5.
#[must_use]
pub fn paper_setup() -> (Cell, DesignPoint) {
    let cell = CellSpec::date2010_chip().nominal_cell();
    let design = DesignPoint::date2010(&cell);
    (cell, design)
}

/// The paper's maximum read current.
#[must_use]
pub fn i_max() -> Amps {
    Amps::from_micro(200.0)
}

/// Formats volts as millivolts with two decimals (the paper's figure axes).
#[must_use]
pub fn mv(value: stt_units::Volts) -> String {
    format!("{:.2}", value.get() * 1e3)
}

/// Formats amps as microamps with one decimal.
#[must_use]
pub fn ua(value: Amps) -> String {
    format!("{:.1}", value.get() * 1e6)
}

/// Formats seconds as nanoseconds with two decimals.
#[must_use]
pub fn ns(value: stt_units::Seconds) -> String {
    format!("{:.2}", value.get() * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_the_papers_operating_point() {
        let (cell, design) = paper_setup();
        assert_eq!(cell.transistor().r_nominal().get(), 917.0);
        assert_eq!(design.nondestructive.alpha, 0.5);
        assert!((design.nondestructive.i_r2.get() - 200e-6).abs() < 1e-12);
    }

    #[test]
    fn formatters() {
        assert_eq!(mv(stt_units::Volts::from_milli(76.6)), "76.60");
        assert_eq!(ua(Amps::from_micro(93.9)), "93.9");
        assert_eq!(ns(stt_units::Seconds::from_nano(14.0)), "14.00");
    }
}
