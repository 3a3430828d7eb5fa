//! Manufacturing-test subsystem: March algorithms over the real banks.
//!
//! Memory manufacturers screen parts with **March tests**: walk the whole
//! array in prescribed address orders, writing and read-verifying a data
//! background, so that every modeled defect produces at least one
//! mismatching read. This module provides
//!
//! * [`program`] — the algorithm library ([`march_c_minus`], [`march_ss`])
//!   as data ([`MarchProgram`]: elements of address order × op sequence)
//!   and its deterministic lowering to per-cell [`MarchStep`] schedules;
//! * [`campaign`] — [`run_escape_campaign`]: fault class × sensing scheme
//!   × protection level × algorithm → detection rate, escape rate and test
//!   time, with the textbook coverage guarantees asserted.
//!
//! A program runs over a controller's banks through the scheduler
//! frontend's test-traffic mount
//! ([`FrontendConfig::with_march`](crate::sched::FrontendConfig::with_march)):
//! every bank walks the lowered schedule through
//! [`Bank::execute_march_op`](crate::bank::Bank::execute_march_op) on its
//! own March RNG stream, in demand-idle gaps.
//!
//! Verdicts come from the **real sensing path**: a March read senses
//! through the bank's configured scheme (and, under ECC, observes the
//! *decoded* word exactly as a host would), so "does March C– catch a
//! pinhole under the nondestructive scheme?" is answered by the same
//! margin arithmetic that serves demand traffic, not by a shortcut fault
//! simulator.

pub mod campaign;
pub mod program;

pub use campaign::{
    run_escape_campaign, EscapeRow, FaultClass, MarchCampaignConfig, PlantedDefect,
};
pub use program::{
    march_c_minus, march_ss, AddressOrder, DataBackground, MarchAlgorithm, MarchElement, MarchOp,
    MarchProgram, MarchStep,
};
