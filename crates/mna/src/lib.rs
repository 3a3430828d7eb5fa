//! A small modified-nodal-analysis (MNA) circuit simulator.
//!
//! This crate is the analog substrate of the reproduction of Chen et al.,
//! *A Nondestructive Self-Reference Scheme for STT-RAM* (DATE 2010): the
//! paper validates its sensing circuits (Figs. 3, 5, 10) with SPICE-level
//! simulation, and no suitable open-source Rust circuit simulator exists, so
//! one is built here from first principles (see DESIGN.md).
//!
//! Supported:
//!
//! * **Elements** — resistors, capacitors, independent voltage/current
//!   sources (DC / pulse / piecewise-linear waveforms), time-scheduled
//!   switches, level-1 MOSFETs, and arbitrary two-terminal nonlinear devices
//!   via the [`DeviceLaw`] trait (used for bias-dependent MTJs).
//! * **Analyses** — DC operating point (Newton–Raphson with damping) and
//!   fixed-step transient (backward Euler or trapezoidal companions), with
//!   the step grid aligned to switch events.
//! * **Interconnect** — [`RcLadder`] Elmore-delay evaluation for distributed
//!   bit-lines.
//!
//! # Examples
//!
//! Charging a capacitor through a resistor and checking the RC time
//! constant:
//!
//! ```
//! use stt_mna::{Circuit, Node, TranOptions, Waveform};
//! use stt_units::{Farads, Ohms, Seconds};
//!
//! let mut circuit = Circuit::new();
//! let input = circuit.node("in");
//! let output = circuit.node("out");
//! circuit.voltage_source(input, Node::GROUND, Waveform::pulse(
//!     0.0, 1.0, Seconds::ZERO, Seconds::from_nano(0.01),
//!     Seconds::from_nano(0.01), Seconds::from_nano(100.0),
//! ));
//! circuit.resistor(input, output, Ohms::from_kilo(1.0));
//! circuit.capacitor(output, Node::GROUND, Farads::from_pico(1.0));
//!
//! let result = circuit
//!     .transient(&TranOptions::new(Seconds::from_nano(10.0), Seconds::from_nano(0.01)))
//!     .expect("transient converges");
//! // After one time constant (1 ns) the output sits near 1 − e⁻¹ ≈ 0.632 V.
//! let v = result.voltage_at(output, Seconds::from_nano(1.0));
//! assert!((v - 0.632).abs() < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ac;
pub mod banded;
pub mod circuit;
pub mod elmore;
pub mod engine;
pub mod matrix;
pub mod waveform;

pub use ac::{log_frequency_grid, AcResult, AcStimulus};
pub use banded::{BandedLu, BandedMatrix};
pub use circuit::{
    Circuit, CurrentSourceId, DeviceLaw, MosfetParams, Node, SourceId, SwitchSchedule,
};
pub use elmore::RcLadder;
pub use engine::{
    AnalysisError, BatchMember, BatchTranResult, DcResult, Integrator, SolverBackend,
    SolverStrategy, TranOptions, TranResult, TranTelemetry,
};
pub use waveform::Waveform;
