//! End-to-end and layer-stripping benchmark of this repository's two
//! stacks: the controller (device/sense → `Bank::execute` → queue + policy →
//! event loop → chip bus and sharding) and the MNA solver (stamp → factor →
//! solve → transient → batch).
//!
//! Four workloads, each generated from `--seed` and driven only through the
//! crates' public APIs (see `README.md` for why each exists):
//!
//! * [`replay`] — `replay-fcfs`, the FCFS fast path over a zero-copy trace;
//! * [`policy`] — `policy-ecc-bg`, read-priority + ECC + every background
//!   class on the general event loop;
//! * [`chip`] — `chip-closed-loop`, the full-chip channel loop, sharded;
//! * [`fig5`] — `fig5-mc`, the batched Fig. 5 Monte-Carlo campaign.
//!
//! An untraced run reports the end-to-end [`Outcome`]; a traced run times
//! successively fuller stacks on identical inputs and reports each layer's
//! self time as the delta between stages (a [`Ledger`]).

pub mod alloc;
pub mod chip;
pub mod fig5;
pub mod measure;
pub mod policy;
pub mod replay;
pub mod threads;

pub use measure::{Ledger, Metric, Outcome};

/// How big a workload's inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// The companion stacks a traced run also measures, so every per-layer
    /// metric is a real measurement in every traced run.
    Probe,
    /// Self-test size.
    Smoke,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop FCFS replay at unbounded depth (`replay-fcfs`).
    ReplayFcfs,
    /// Read-priority, SECDED, drift and all three background classes
    /// (`policy-ecc-bg`).
    PolicyEccBg,
    /// Closed-loop sharded full chip (`chip-closed-loop`).
    ChipClosedLoop,
    /// Batched Fig. 5 Monte-Carlo campaign (`fig5-mc`).
    Fig5Mc,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ReplayFcfs,
        Workload::PolicyEccBg,
        Workload::ChipClosedLoop,
        Workload::Fig5Mc,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayFcfs => "replay-fcfs",
            Workload::PolicyEccBg => "policy-ecc-bg",
            Workload::ChipClosedLoop => "chip-closed-loop",
            Workload::Fig5Mc => "fig5-mc",
        }
    }

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Untraced run: set up, time passes for `seconds`, verify.
    #[must_use]
    pub fn run(self, scale: Scale, seed: u64, seconds: f64) -> Outcome {
        alloc::reset_peak();
        match self {
            Workload::ReplayFcfs => replay::run(scale, seed, seconds),
            Workload::PolicyEccBg => policy::run(scale, seed, seconds),
            Workload::ChipClosedLoop => chip::run(scale, seed, seconds),
            Workload::Fig5Mc => fig5::run(scale, seed, seconds),
        }
    }

    /// Layer-stripping stages of this workload's stack.
    #[must_use]
    pub fn ledger(self, scale: Scale, seed: u64) -> Ledger {
        match self {
            Workload::ReplayFcfs => replay::ledger(scale, seed),
            Workload::PolicyEccBg => policy::ledger(scale, seed),
            Workload::ChipClosedLoop => chip::ledger(scale, seed),
            Workload::Fig5Mc => fig5::ledger(scale, seed),
        }
    }
}

/// The per-layer metric names a traced run reports, in `BENCHMARK.json`
/// order.
pub const PER_LAYER: [&str; 40] = [
    "workload.generate_ns_per_txn",
    "txn.to_binary_ns_per_txn",
    "engine.new_ms",
    "bank.ns_per_txn",
    "engine.parallel_over_serial",
    "bank.ecc_ns_per_txn",
    "retry.attempts_per_read",
    "sched.self_ns_per_txn",
    "sched.over_serial",
    "sched.loop_allocs",
    "sched.wait_ns_mean",
    "sched.stall_ns",
    "sched.max_depth",
    "scrub.words",
    "scrub.self_ns_per_word",
    "march.lower_ms",
    "march.ops",
    "march.self_ns_per_op",
    "calib.bursts",
    "calib.self_ns_per_burst",
    "sched.scrub_deferred",
    "sched.march_deferred",
    "sched.calib_deferred",
    "ecc.ce",
    "ecc.ue",
    "ecc.silent",
    "hierarchy.warm_ms",
    "hierarchy.serial_ns_per_txn",
    "hierarchy.shard_speedup",
    "hierarchy.bus_wait_ns",
    "hierarchy.max_outstanding",
    "hierarchy.source_throttled",
    "mna.build_ms",
    "mna.transient_ms",
    "mna.batch_ns_per_member",
    "mna.factorizations",
    "mna.solves",
    "mna.amortization",
    "stats.fanout_efficiency",
    "trace.overhead_frac",
];

/// What a traced run found.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// The traced workload's own stack.
    pub own: Ledger,
    /// Untraced reference-scaled time per op the ledger is compared against.
    pub untraced_ns_per_op: f64,
    /// Relative gap between the traced fullest stage and the untraced time
    /// per op. The layer self times are deltas between successive stages, so
    /// they sum to the fullest stage by construction; this gap therefore
    /// records the tracing overhead and how well the two timings repeat, not
    /// whether the layers account for the time. It is reported, not
    /// enforced.
    pub overhead_frac: f64,
}

/// Traced run: the workload's own stack at `scale` against its untraced
/// `outcome`, then the other stacks at probe size for the metrics of layers
/// this workload bypasses.
#[must_use]
pub fn traced(workload: Workload, scale: Scale, seed: u64, outcome: &Outcome) -> Traced {
    let own = workload.ledger(scale, seed);
    let untraced_ns_per_op = outcome.secs_per_op() * 1e9;
    let overhead_frac = own.full_stack_ns_per_op() / untraced_ns_per_op - 1.0;
    let companion_scale = if scale == Scale::Full {
        Scale::Probe
    } else {
        scale
    };
    let mut found = own.metrics.clone();
    for other in Workload::ALL.into_iter().filter(|&w| w != workload) {
        for metric in other.ledger(companion_scale, seed).metrics {
            if !found.iter().any(|m| m.name == metric.name) {
                found.push(metric);
            }
        }
    }
    found.push(Metric::new("trace.overhead_frac", overhead_frac, "ratio"));
    let metrics = PER_LAYER
        .iter()
        .map(|name| {
            *found
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("no stack produced per-layer metric {name}"))
        })
        .collect();
    Traced {
        metrics,
        own,
        untraced_ns_per_op,
        overhead_frac,
    }
}

/// Cores available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The git revision of the checkout in the working directory, or `unknown`
/// when it is not a git checkout. Reads `.git` directly rather than running
/// `git`, which would search the directories above the checkout.
#[must_use]
pub fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(name) => read(&format!(".git/{name}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|line| line.ends_with(&format!(" {name}")))
                .map(str::to_string)
        }),
        None => Some(head),
    };
    rev.and_then(|rev| rev.get(..12).map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}
