//! `stt-ctrl` — a multi-bank STT-RAM memory-controller engine that serves
//! read/write traffic through the DATE 2010 sensing schemes.
//!
//! The sensing crates answer *"does one read work?"*; this crate answers
//! the system-level question the paper's introduction raises: what happens
//! to a device — a handheld whose battery gets pulled, a store full of
//! variation-heavy bits — when real traffic runs through each read path?
//!
//! * [`txn`] — transactions and replayable [`Trace`]s: CSV interchange, a
//!   fixed-stride binary format, and the zero-copy [`TraceView`] replay path
//!   (everything downstream is generic over [`TxnSource`]).
//! * [`workload`] — synthetic generators: uniform, Zipf hot-set,
//!   read-mostly.
//! * [`sense`] — run-time scheme dispatch over the three read paths.
//! * [`retry`] — guard-band read-retry with a mean-sign fallback.
//! * [`faults`] — traffic-driven power cuts and stuck-at defects.
//! * [`bank`] — one bank: array + truth mirror + RNG + telemetry.
//! * [`engine`] — the [`Controller`]: partition a trace per bank, serve it
//!   serially or on `min(cores, banks)` scoped workers, bit-identically.
//! * [`reliability`] — the (72,64) SECDED codec, background-scrub plumbing,
//!   and the fault-injection campaign harness.
//! * [`march`] — the manufacturing-test subsystem: March algorithms
//!   (C–, SS) as data, lowered onto the real banks as
//!   [`PriorityClass::Test`] frontend traffic, plus escape-rate campaigns
//!   over the extended defect library.
//! * [`sched`] — the event-driven request frontend: timestamped arrivals,
//!   bounded per-bank queues with backpressure, pluggable dispatch
//!   policies, a background scrub daemon, queueing-delay telemetry.
//! * [`hierarchy`] — the full-chip topology: channels × ranks × bank groups
//!   × banks with shared data buses, bijective address interleaving, lazy
//!   bank materialisation, a closed-loop traffic source and channel-sharded
//!   dispatch that is bit-identical to serial.
//! * [`telemetry`] — per-bank and aggregate counters, latency histograms,
//!   energy/latency totals, queueing summaries, post-run integrity audit.
//!
//! # Determinism
//!
//! Every bank derives its RNG from `(controller seed, bank index)` with the
//! same SplitMix64 scrambling the Monte-Carlo runner uses, and banks share
//! no state, so [`Controller::run`] produces **equal telemetry** for
//! [`Dispatch::Serial`] and [`Dispatch::Parallel`] — asserted by the
//! integration suite and by the traffic harness on every sweep point.
//!
//! # Quick start
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use stt_ctrl::{Controller, ControllerConfig, Dispatch, Workload};
//! use stt_sense::SchemeKind;
//!
//! let config = ControllerConfig::small(SchemeKind::Nondestructive, 4);
//! let trace = Workload::ReadMostly.generate(
//!     config.footprint(),
//!     2_000,
//!     &mut StdRng::seed_from_u64(7),
//! );
//! let mut controller = Controller::new(config);
//! let telemetry = controller.run(&trace, Dispatch::Parallel);
//! assert_eq!(telemetry.transactions(), 2_000);
//! // The nondestructive path never corrupts stored data.
//! assert_eq!(telemetry.audit_corrupted_bits, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_probe;
pub mod bank;
pub mod calib;
pub mod engine;
pub mod faults;
pub mod hierarchy;
pub mod march;
pub mod reliability;
pub mod retry;
pub mod sched;
pub mod sense;
pub mod telemetry;
pub mod txn;
pub mod workload;

pub use bank::{Bank, BankWork};
pub use calib::CalibConfig;
pub use engine::{Controller, ControllerConfig, Dispatch};
pub use faults::{
    BackhopCell, CouplingFault, CouplingKind, DriftKey, DriftPlan, FaultPlan, PinholeCell,
    StuckCell, ThermalTransient, TransitionFault,
};
pub use hierarchy::{
    BankCoord, BusTiming, Chip, ChipConfig, ChipRun, ChipTelemetry, ClosedLoopSource, Geometry,
    GeometryParseError, GeometryParseErrorKind, InterleavePolicy, PhysAddr, ShardDispatch,
    Topology,
};
pub use march::{
    march_c_minus, march_ss, run_escape_campaign, DataBackground, EscapeRow, FaultClass,
    MarchAlgorithm, MarchCampaignConfig, MarchOp, MarchProgram, MarchStep, PlantedDefect,
};
pub use reliability::{
    run_campaign, CampaignConfig, CampaignRow, EccMode, FaultIntensity, Protection, ScrubConfig,
};
pub use retry::{ReadResolution, RetryPolicy};
pub use sched::{
    Backpressure, Completion, CompletionLog, Frontend, FrontendConfig, MarchConfig, Policy,
    PriorityClass, SchedRun,
};
pub use sense::{Scheme, SenseWork, Sensed, SettleCodes};
pub use telemetry::{
    rollup_by, BankTelemetry, CalibTelemetry, ChannelTelemetry, EccTelemetry, MarchFail,
    MarchTelemetry, QueueTelemetry, SojournStats, Telemetry,
};
pub use txn::{
    Op, Trace, TraceBinaryError, TraceParseError, TraceParseErrorKind, TraceView, Transaction,
    TxnSource,
};
pub use workload::{Footprint, Workload};
