//! The full-chip memory hierarchy: channels × ranks × bank groups × banks.
//!
//! The flat [`Controller`](crate::Controller) answers what traffic costs on
//! a handful of shared-nothing banks; this module scales that up to a chip.
//! Its four pieces:
//!
//! * [`topology`] — the level counts ([`Topology`]), bank coordinates
//!   ([`BankCoord`]), the full address-space shape ([`Geometry`]), and the
//!   `CxRxGxB` geometry flag parser with typed errors.
//! * [`interleave`] — pluggable, provably bijective mappings from linear
//!   host addresses to physical `(bank, cell)` locations: the
//!   [`InterleavePolicy`] variants `Linear`, `BankXor` and `ChannelStriped`.
//! * [`source`] — the closed-loop, window-limited traffic source
//!   ([`ClosedLoopSource`]) whose issue rate *reacts* to backpressure, so a
//!   window sweep locates the throughput/latency knee.
//! * [`chip`] — the engine ([`Chip`]): per-channel event loops with shared
//!   group/channel data buses, lazy bank materialisation, and channel-
//!   sharded dispatch that is bit-identical to serial.
//!
//! # Determinism
//!
//! Channels share nothing: every bank's RNG streams derive from `(chip
//! seed, global bank index)` and every source stream from `(source seed,
//! channel)`, so [`ShardDispatch::Sharded`] (one worker thread per channel)
//! produces **equal** telemetry and stored state to
//! [`ShardDispatch::Serial`] — property-tested across schemes, policies and
//! fault plans.

pub mod chip;
pub mod interleave;
pub mod source;
pub mod topology;

pub use chip::{BusTiming, Chip, ChipConfig, ChipRun, ChipTelemetry, ShardDispatch};
pub use interleave::InterleavePolicy;
pub use source::ClosedLoopSource;
pub use topology::{
    BankCoord, Geometry, GeometryParseError, GeometryParseErrorKind, PhysAddr, Topology,
};
