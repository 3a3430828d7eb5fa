//! STT-RAM array substrate: cells, bit-lines, write dynamics, fault injection.
//!
//! The paper validates its sensing schemes on a 16 kb test chip with 128
//! STT-RAM bits per bit-line (TSMC 0.13 µm). This crate models that
//! substrate so the sensing crate can run chip-scale experiments:
//!
//! * [`cell`] — the 1T1J cell: a varied MTJ device in series with its NMOS
//!   access transistor, and the bit-line voltage it produces under a read
//!   current.
//! * [`bitline`] — bit-line parasitics: per-cell-pitch RC (for Elmore-delay
//!   analysis via [`stt_mna::RcLadder`]) and the leakage of the unselected
//!   cells sharing the line.
//! * [`mod@array`] — the addressable array: decode, read, write (with the STT
//!   switching model), per-operation latency/energy accounting, and the
//!   packed [`StatePlane`] that holds every cell's stored bit.
//! * [`fault`] — power-failure injection: interrupt an operation sequence
//!   mid-flight and see which cells lost their data (the paper's §I argument
//!   against destructive self-reference).
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use stt_array::{Address, ArraySpec};
//! use stt_units::Amps;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut array = ArraySpec::date2010_chip().sample(&mut rng);
//! let addr = Address::new(3, 17);
//! array.write_bit(addr, true);
//! assert_eq!(array.read_state(addr).bit(), true);
//! let v_bl = array.bitline_voltage(addr, Amps::from_micro(200.0));
//! assert!(v_bl.get() > 0.3); // high state: > I·(R_L + R_T)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod bitline;
pub mod cell;
pub mod cost;
pub mod fault;
pub mod geometry;

pub use array::{Address, Array, ArraySpec, StatePlane};
pub use bitline::BitlineSpec;
pub use cell::{AccessTransistor, Cell, CellSpec};
pub use cost::{OperationCost, Phase, PhaseKind};
pub use fault::{run_with_power_failure, OperationStep, PowerFailure, PowerFailureOutcome};
pub use geometry::CellGeometry;
