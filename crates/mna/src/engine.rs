//! The MNA analysis engine: DC operating point and transient simulation.
//!
//! Formulation: unknowns are the non-ground node voltages plus one branch
//! current per voltage source. Linear elements stamp conductances; nonlinear
//! elements (MOSFETs, [`DeviceLaw`](crate::circuit::DeviceLaw) two-terminals) are linearised around the
//! current Newton iterate; capacitors become backward-Euler companion
//! models during transient analysis and are open in DC.
//!
//! A `GMIN` conductance from every node to ground keeps systems with
//! momentarily floating nodes (open switches feeding sample capacitors —
//! exactly the paper's circuits) numerically solvable.

use std::fmt;

use stt_units::Seconds;

use crate::banded::{BandedLu, BandedMatrix};
use crate::circuit::{Circuit, CurrentSourceId, Element, MosfetParams, Node};
use crate::matrix::{LuFactors, Matrix, SingularMatrixError};
use crate::waveform::{PwlPoint, Waveform};

/// Leak conductance to ground on every node (siemens).
pub(crate) const GMIN: f64 = 1e-12;
/// Maximum Newton iterations per solve point.
const MAX_NEWTON: usize = 200;
/// Largest per-iteration voltage update (volts) — damping for the square-law
/// MOSFET model.
const MAX_STEP: f64 = 0.5;
/// Absolute Newton convergence tolerance on voltages (volts).
const TOL_ABS: f64 = 1e-9;

/// Errors from the DC or transient analyses.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The stamped system was singular (typically a truly floating subcircuit
    /// or an all-voltage-source loop).
    Singular {
        /// The underlying factorisation failure.
        source: SingularMatrixError,
        /// Simulated time at which it occurred.
        time: Seconds,
    },
    /// Newton iteration failed to converge.
    NonConvergent {
        /// Simulated time at which it occurred.
        time: Seconds,
        /// Residual max-norm voltage change at the final iteration.
        residual: f64,
    },
    /// Invalid analysis options.
    InvalidOptions(String),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Singular { source, time } => {
                write!(f, "singular MNA system at t = {time}: {source}")
            }
            AnalysisError::NonConvergent { time, residual } => write!(
                f,
                "newton iteration did not converge at t = {time} (residual {residual:.3e} V)"
            ),
            AnalysisError::InvalidOptions(message) => {
                write!(f, "invalid analysis options: {message}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Singular { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// How the analyses manage the system matrix and its LU factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverStrategy {
    /// The stamp-plan fast path: static element stamps are pre-baked into a
    /// base matrix once per analysis, each rebuild copies that base and
    /// restamps only the dynamic elements, and for linear circuits the LU
    /// factorization is reused across every step whose matrix is unchanged
    /// (same switch states and step size) — O(n²) per step
    /// instead of O(n³).
    #[default]
    CachedLu,
    /// Restamp the full system and refactor at every solve. This is the
    /// naive reference the fast path is validated against (the two must
    /// produce bit-identical waveforms — see the `fastpath_reference`
    /// property tests) and a debugging aid; it is never faster.
    AlwaysRestamp,
}

/// Which linear-algebra backend the analyses factor and solve with.
///
/// Orthogonal to [`SolverStrategy`]: the strategy decides *when* to restamp
/// and refactor, the backend decides *what* storage the factorisation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Dense row-major LU — O(n³) factor, O(n²) solve. Right for the small
    /// sensing cells (tens of unknowns), and the reference the banded
    /// backend is property-tested against.
    Dense,
    /// Banded LU over a reverse Cuthill–McKee reordering of the system
    /// rows — O(n·b²) factor, O(n·b) solve for bandwidth `b`. Right for
    /// distributed bit-line ladders, whose reordered bandwidth is a small
    /// constant regardless of segment count.
    Banded,
    /// Choose per circuit: banded when the system is large enough and the
    /// RCM-reordered bandwidth small enough to pay off
    /// (`dim ≥ 24` and `8·b ≤ dim`), dense otherwise.
    #[default]
    Auto,
}

/// Solver telemetry for one analysis run, carried on
/// [`TranResult::telemetry`] and [`BatchTranResult::telemetry`]: which
/// backend ran, the bandwidths behind the choice, and how many
/// factorisations/solves the strategy amortised the run into.
///
/// Excluded from `TranResult` equality — two runs that produced identical
/// waveforms compare equal even when their strategies did different amounts
/// of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TranTelemetry {
    /// `true` when the banded backend was used.
    pub banded: bool,
    /// System dimension (non-ground nodes + source branches).
    pub dim: usize,
    /// Matrix bandwidth in netlist order.
    pub natural_bandwidth: usize,
    /// Matrix bandwidth under the RCM ordering.
    pub reordered_bandwidth: usize,
    /// LU factorisations performed.
    pub factorizations: usize,
    /// Back-substitutions performed (one per member per step when batched).
    pub solves: usize,
}

/// Transient analysis options.
#[derive(Debug, Clone, PartialEq)]
pub struct TranOptions {
    /// End time of the simulation (starts at 0).
    pub t_stop: Seconds,
    /// Uniform base time step (switch events are inserted additionally,
    /// and a final short step covers any remainder before `t_stop`).
    pub dt: Seconds,
    /// Start from the DC operating point at `t = 0` (otherwise zero state).
    pub start_from_dc: bool,
    /// Matrix/factorization management (default: the cached fast path).
    pub strategy: SolverStrategy,
    /// Linear-algebra backend (default: automatic per-circuit choice).
    pub backend: SolverBackend,
}

impl TranOptions {
    /// Creates options that start from DC, with the default strategy and
    /// backend.
    #[must_use]
    pub fn new(t_stop: Seconds, dt: Seconds) -> Self {
        Self {
            t_stop,
            dt,
            start_from_dc: true,
            strategy: SolverStrategy::default(),
            backend: SolverBackend::default(),
        }
    }

    /// Starts from an all-zero state instead of the DC operating point.
    #[must_use]
    pub fn from_zero_state(mut self) -> Self {
        self.start_from_dc = false;
        self
    }

    /// Selects the solver strategy (see [`SolverStrategy`]).
    #[must_use]
    pub fn with_strategy(mut self, strategy: SolverStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Selects the linear-algebra backend (see [`SolverBackend`]).
    #[must_use]
    pub fn with_backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }
}

/// Result of a DC operating-point analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct DcResult {
    /// Node voltages indexed by node index (ground included as 0.0).
    voltages: Vec<f64>,
}

impl DcResult {
    /// Voltage at `node` in volts.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the analysed circuit.
    #[must_use]
    pub fn voltage(&self, node: Node) -> f64 {
        self.voltages[node.index()]
    }
}

/// Result of a transient analysis: every node voltage at every accepted
/// time point.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    /// `traces[node][step]`.
    traces: Vec<Vec<f64>>,
    /// Solver telemetry (excluded from equality).
    telemetry: TranTelemetry,
}

/// Waveform equality only: the bit-identity contracts (cached-LU vs
/// always-restamp, batched vs sequential) compare what was *computed*, not
/// how much work the strategy/backend spent computing it.
impl PartialEq for TranResult {
    fn eq(&self, other: &Self) -> bool {
        self.times == other.times && self.traces == other.traces
    }
}

impl TranResult {
    /// Solver telemetry for this run: backend choice, bandwidths, and
    /// factorisation/solve counts.
    #[must_use]
    pub fn telemetry(&self) -> TranTelemetry {
        self.telemetry
    }

    /// The accepted time points in seconds.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The voltage trace of `node` (one sample per time point).
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the analysed circuit.
    #[must_use]
    pub fn voltage(&self, node: Node) -> &[f64] {
        &self.traces[node.index()]
    }

    /// Linear interpolation of `node`'s voltage at an arbitrary time.
    ///
    /// Clamps to the first/last sample outside the simulated range.
    #[must_use]
    pub fn voltage_at(&self, node: Node, t: Seconds) -> f64 {
        let trace = self.voltage(node);
        let t = t.get();
        if t <= self.times[0] {
            return trace[0];
        }
        if t >= *self.times.last().expect("non-empty transient") {
            return *trace.last().expect("non-empty transient");
        }
        let upper = self.times.partition_point(|&time| time < t);
        let (t0, t1) = (self.times[upper - 1], self.times[upper]);
        let (v0, v1) = (trace[upper - 1], trace[upper]);
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// The first time at which `node` crosses `level` in the given direction,
    /// with linear interpolation between samples.
    #[must_use]
    pub fn crossing_time(&self, node: Node, level: f64, rising: bool) -> Option<Seconds> {
        let trace = self.voltage(node);
        for k in 1..trace.len() {
            let (v0, v1) = (trace[k - 1], trace[k]);
            let crossed = if rising {
                v0 < level && v1 >= level
            } else {
                v0 > level && v1 <= level
            };
            if crossed {
                let t0 = self.times[k - 1];
                let t1 = self.times[k];
                let fraction = if (v1 - v0).abs() < f64::MIN_POSITIVE {
                    0.0
                } else {
                    (level - v0) / (v1 - v0)
                };
                return Some(Seconds::new(t0 + fraction * (t1 - t0)));
            }
        }
        None
    }

    /// Number of accepted time points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no time points were accepted (never the case for a
    /// successful analysis, which records at least `t = 0`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// One member of a [`Circuit::transient_batch`] run: a set of
/// current-source waveform overrides applied on top of the base circuit.
/// Sources not overridden keep their base waveform.
///
/// Monte-Carlo campaigns fold per-trial device variation into the drive
/// waveforms (for linear circuits, scaling the read current is exactly
/// scaling the response), so the system *matrix* stays shared across the
/// whole batch — one factorization serves every member.
#[derive(Debug, Clone, Default)]
pub struct BatchMember {
    /// Current-source overrides, `(id, waveform)`.
    current: Vec<(CurrentSourceId, Waveform)>,
}

impl BatchMember {
    /// A member with no overrides (runs the base circuit unchanged).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the waveform of current source `id` for this member.
    #[must_use]
    pub fn current_wave(mut self, id: CurrentSourceId, wave: Waveform) -> Self {
        self.current.push((id, wave));
        self
    }
}

/// Result of a batched transient: the probed node voltages of every batch
/// member on the shared time grid.
///
/// Traces are stored member-major per step (`traces[probe][step·k + m]`),
/// matching the solver's structure-of-arrays layout so recording is a
/// straight memcpy per probe.
#[derive(Debug, Clone)]
pub struct BatchTranResult {
    times: Vec<f64>,
    members: usize,
    probes: Vec<Node>,
    /// `traces[probe][step·members + member]`.
    traces: Vec<Vec<f64>>,
    telemetry: TranTelemetry,
}

impl BatchTranResult {
    /// The accepted time points in seconds (shared by every member).
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of batch members.
    #[must_use]
    pub fn members(&self) -> usize {
        self.members
    }

    /// Solver telemetry: note `factorizations` counts matrix factors for
    /// the *whole batch* while `solves` counts per-member
    /// back-substitutions — their ratio is the amortization the batch won.
    #[must_use]
    pub fn telemetry(&self) -> TranTelemetry {
        self.telemetry
    }

    fn probe_index(&self, probe: Node) -> usize {
        self.probes
            .iter()
            .position(|&p| p == probe)
            .expect("node was not probed in this batch run")
    }

    /// The voltage trace of `probe` for `member` (a contiguous copy, one
    /// sample per time point).
    ///
    /// # Panics
    ///
    /// Panics if `probe` was not in the probe list or `member` is out of
    /// range.
    #[must_use]
    pub fn voltage(&self, member: usize, probe: Node) -> Vec<f64> {
        assert!(member < self.members, "batch member out of range");
        let trace = &self.traces[self.probe_index(probe)];
        (0..self.times.len())
            .map(|step| trace[step * self.members + member])
            .collect()
    }

    /// Linear interpolation of `probe`'s voltage for `member` at an
    /// arbitrary time, clamped to the simulated range.
    ///
    /// # Panics
    ///
    /// Panics if `probe` was not in the probe list or `member` is out of
    /// range.
    #[must_use]
    pub fn voltage_at(&self, member: usize, probe: Node, t: Seconds) -> f64 {
        assert!(member < self.members, "batch member out of range");
        let trace = &self.traces[self.probe_index(probe)];
        let k = self.members;
        let sample = |step: usize| trace[step * k + member];
        let t = t.get();
        if t <= self.times[0] {
            return sample(0);
        }
        let last = self.times.len() - 1;
        if t >= self.times[last] {
            return sample(last);
        }
        let upper = self.times.partition_point(|&time| time < t);
        let (t0, t1) = (self.times[upper - 1], self.times[upper]);
        let (v0, v1) = (sample(upper - 1), sample(upper));
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }
}

/// One independent source's waveform lanes in a batch, one per member.
#[derive(Debug)]
enum SourceLanes<'a> {
    /// Every lane is a PWL whose knot times are bit-equal to lane 0's: one
    /// segment search per step ([`PwlPoint`]) serves all of them. Holds
    /// each lane's knots.
    SharedKnots(Vec<&'a [(Seconds, f64)]>),
    /// Any other mix: each lane evaluates its own waveform.
    Each(Vec<&'a Waveform>),
}

impl<'a> SourceLanes<'a> {
    fn new(lanes: &[&'a Waveform]) -> Self {
        let knots: Option<Vec<&'a [(Seconds, f64)]>> = lanes
            .iter()
            .map(|wave| match wave {
                Waveform::Pwl(knots) => Some(knots.as_slice()),
                _ => None,
            })
            .collect();
        let same_times = |a: &[(Seconds, f64)], b: &[(Seconds, f64)]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((ta, _), (tb, _))| ta.get().to_bits() == tb.get().to_bits())
        };
        match knots {
            Some(knots) if knots.iter().all(|lane| same_times(lane, knots[0])) => {
                SourceLanes::SharedKnots(knots)
            }
            _ => SourceLanes::Each(lanes.to_vec()),
        }
    }
}

/// One transient step's capacitor companions over `width = ground.len()`
/// lanes (a batch runs one lane per member; the sequential analyses run
/// one): each integrates over `h` from the previous solution `x_prev`
/// (`x_prev[row·width + m]`).
///
/// No capacitor voltage is stored: after a step a capacitor's voltage is,
/// bit for bit, the `x[a] − x[b]` of that step's solution, so each step
/// derives its companions' history from the previous solution instead.
#[derive(Debug, Clone, Copy)]
struct CapStep<'a> {
    h: f64,
    x_prev: &'a [f64],
    /// `width` zeros: the lanes of the ground node.
    ground: &'a [f64],
}

impl CapStep<'_> {
    /// Writes the history currents `g·(x_prev[a] − x_prev[b])` of the
    /// capacitor `a`–`b` with companion conductance `g = farads / h` into
    /// `out`, one per lane; a shorter `out` takes the first lanes. Every
    /// path that stamps a capacitor computes its history here, so their
    /// right-hand sides agree to the bit.
    fn history_into(self, out: &mut [f64], a: Node, b: Node, g: f64) {
        let width = self.ground.len();
        let lane = |node: Node| {
            Circuit::node_row(node).map_or(self.ground, |row| {
                &self.x_prev[row * width..(row + 1) * width]
            })
        };
        for ((out, va), vb) in out.iter_mut().zip(lane(a)).zip(lane(b)) {
            *out = g * (va - vb);
        }
    }
}

/// The steps of a transient over `grid`: each step's end time `t` and its
/// size `h`. Grid times are k·dt, so consecutive differences wobble by a
/// few ULPs around `dt`; those snap onto `dt` exactly. The intended
/// uniform step is the more faithful `h`, and a stable bit pattern is what
/// lets the cached-LU fast path recognise uniform steps. Every transient
/// steps through here, so all of them integrate the identical `h`
/// sequence.
fn tran_steps(grid: &[f64], dt: f64) -> impl Iterator<Item = (Seconds, f64)> + '_ {
    grid.windows(2).map(move |pair| {
        let h_raw = pair[1] - pair[0];
        let h = if (h_raw - dt).abs() <= 1e-9 * dt {
            dt
        } else {
            h_raw
        };
        debug_assert!(h > 0.0);
        (Seconds::new(pair[1]), h)
    })
}

/// Where element stamps land. Dense stamps go straight to matrix
/// coordinates; banded stamps go through the RCM row permutation. One
/// generic element-walk serves both backends, which is what keeps the
/// stamped *values* (and hence the factored systems) identical between
/// them.
pub(crate) trait StampTarget {
    /// Adds `value` to entry `(row, col)` in system-row coordinates.
    fn add(&mut self, row: usize, col: usize, value: f64);
}

impl StampTarget for Matrix {
    #[inline]
    fn add(&mut self, row: usize, col: usize, value: f64) {
        self.stamp(row, col, value);
    }
}

/// Stamps into a banded matrix under the RCM permutation: system row `r`
/// lands on banded row `inv[r]`.
struct PermutedBanded<'a> {
    matrix: &'a mut BandedMatrix,
    /// `inv[system_row] = banded_row`.
    inv: &'a [usize],
}

impl StampTarget for PermutedBanded<'_> {
    #[inline]
    fn add(&mut self, row: usize, col: usize, value: f64) {
        self.matrix.stamp(self.inv[row], self.inv[col], value);
    }
}

/// The matrix storage and factorisation for one analysis run: dense, or
/// banded over an RCM permutation of the system rows (see
/// [`SolverBackend`]). Both variants hold a pre-stamped static base (the
/// PR 2 stamp plan), a working matrix, and a reusable LU workspace.
#[derive(Debug)]
enum MatrixStore {
    Dense {
        /// The pre-stamped static matrix portion.
        base: Matrix,
        /// Working system matrix (base copy + dynamic stamps).
        work: Matrix,
        lu: LuFactors,
        /// Batched RHS scratch (`dim·k` entries).
        scratch: Vec<f64>,
    },
    Banded {
        /// The pre-stamped static matrix portion (permuted).
        base: BandedMatrix,
        /// Working system matrix (base copy + dynamic stamps, permuted).
        work: BandedMatrix,
        lu: BandedLu,
        /// `perm[banded_row] = system_row` (the RCM order).
        perm: Vec<usize>,
        /// `inv[system_row] = banded_row`.
        inv: Vec<usize>,
        /// `true` when `perm` is the identity: solves then skip the
        /// permuted copy.
        natural: bool,
        /// Permuted RHS/solution scratch (`dim` entries; `dim·k` batched).
        scratch: Vec<f64>,
    },
}

impl MatrixStore {
    /// Factors the working matrix into the LU workspace.
    ///
    /// On the banded path the elimination runs in RCM order, so a failure
    /// column is mapped back to the system row it blames — keeping the
    /// [`SingularMatrixError`] contract backend-independent.
    fn refactor(&mut self) -> Result<(), SingularMatrixError> {
        match self {
            MatrixStore::Dense { work, lu, .. } => lu.refactor(work),
            MatrixStore::Banded { work, lu, perm, .. } => {
                lu.refactor(work).map_err(|error| SingularMatrixError {
                    column: perm[error.column],
                })
            }
        }
    }

    /// Back-substitutes one right-hand side (system-row coordinates)
    /// through the scalar kernels — same operation sequence as
    /// [`MatrixStore::solve_multi`] at width 1 (bit-identical), without
    /// the per-element width loop in the transient hot path.
    fn solve(&mut self, rhs: &[f64], x: &mut [f64]) -> Result<(), SingularMatrixError> {
        match self {
            MatrixStore::Dense { lu, .. } => lu.solve_into(rhs, x),
            MatrixStore::Banded {
                lu, natural: true, ..
            } => {
                x.copy_from_slice(rhs);
                lu.solve_in_place(x)
            }
            MatrixStore::Banded {
                lu, inv, scratch, ..
            } => {
                let n = inv.len();
                scratch.resize(n, 0.0);
                for (old, &new) in inv.iter().enumerate() {
                    scratch[new] = rhs[old];
                }
                lu.solve_in_place(&mut scratch[..n])?;
                for (old, &new) in inv.iter().enumerate() {
                    x[old] = scratch[new];
                }
                Ok(())
            }
        }
    }

    /// Back-substitutes `width` right-hand sides in place, in
    /// structure-of-arrays layout: `x[row·width + m]` holds member `m`'s
    /// RHS on entry and its solution on exit. Per member the floating-point
    /// operation sequence is identical to [`MatrixStore::solve`].
    fn solve_multi(&mut self, x: &mut [f64], width: usize) -> Result<(), SingularMatrixError> {
        match self {
            MatrixStore::Dense { lu, scratch, .. } => {
                scratch.clear();
                scratch.extend_from_slice(x);
                lu.solve_multi_into(scratch, x, width)
            }
            MatrixStore::Banded {
                lu, natural: true, ..
            } => lu.solve_multi_in_place(x, width),
            MatrixStore::Banded {
                lu, inv, scratch, ..
            } => {
                let n = inv.len();
                scratch.resize(n * width, 0.0);
                for (old, &new) in inv.iter().enumerate() {
                    scratch[new * width..(new + 1) * width]
                        .copy_from_slice(&x[old * width..(old + 1) * width]);
                }
                lu.solve_multi_in_place(&mut scratch[..n * width], width)?;
                for (old, &new) in inv.iter().enumerate() {
                    x[old * width..(old + 1) * width]
                        .copy_from_slice(&scratch[new * width..(new + 1) * width]);
                }
                Ok(())
            }
        }
    }
}

/// Reusable buffers for one analysis run: the matrix store (working matrix
/// plus LU with its reuse key), RHS, and Newton iterate. Created once per
/// `transient`/`dc_operating_point` call and threaded
/// through every solve, eliminating all per-step heap allocation.
#[derive(Debug)]
pub(crate) struct SolveWorkspace {
    /// `true` when the circuit contains Newton-linearised elements, making
    /// the matrix depend on the iterate (no LU reuse possible).
    nonlinear: bool,
    store: MatrixStore,
    /// Right-hand side, rebuilt at every solve.
    rhs: Vec<f64>,
    /// Newton iterate; holds the solution after a successful solve.
    x: Vec<f64>,
    /// Raw Newton solve output, before the damped update.
    next: Vec<f64>,
    /// The store's factorization is reused across solves while this flag
    /// and the key below still describe the stamped matrix.
    lu_valid: bool,
    /// Reuse key: companion-model step size (`h.to_bits()`, `u64::MAX` for
    /// DC where capacitors are open) and per-switch states.
    key_h: u64,
    key_switches: Vec<bool>,
    /// Scratch for the current switch states (compared against the key).
    cur_switches: Vec<bool>,
    /// `false` under [`SolverStrategy::AlwaysRestamp`]: restamp the full
    /// matrix and refactor at every solve.
    reuse: bool,
    /// Backend choice and work counters, returned on the analysis results.
    telemetry: TranTelemetry,
}

impl Circuit {
    fn dim(&self) -> usize {
        (self.node_count() - 1) + self.vsource_count
    }

    pub(crate) fn node_row(node: Node) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    fn branch_row(&self, branch: usize) -> usize {
        (self.node_count() - 1) + branch
    }

    /// Computes the DC operating point with sources evaluated at time `t`
    /// (capacitors open).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] if the system is singular or Newton fails
    /// to converge.
    pub fn dc_operating_point(&self, t: Seconds) -> Result<DcResult, AnalysisError> {
        let mut ws = self.workspace(SolverStrategy::CachedLu, SolverBackend::Auto);
        let guess = vec![0.0; self.dim()];
        self.solve_point_with(&mut ws, t, &guess, None)?;
        Ok(self.package_dc(&ws.x))
    }

    /// Builds the stamp plan and solver buffers for one analysis run,
    /// choosing the matrix store per the backend policy.
    fn workspace(&self, strategy: SolverStrategy, backend: SolverBackend) -> SolveWorkspace {
        let dim = self.dim();
        let adjacency = self.system_adjacency();
        let identity: Vec<usize> = (0..dim).collect();
        let natural_bw = Self::bandwidth_under(&adjacency, &identity);
        let rcm = Self::rcm_order(&adjacency);
        let mut rcm_inv = vec![0usize; dim];
        for (new, &old) in rcm.iter().enumerate() {
            rcm_inv[old] = new;
        }
        let reordered_bw = Self::bandwidth_under(&adjacency, &rcm_inv);
        let bandwidth = natural_bw.min(reordered_bw);
        let use_banded = dim > 0
            && match backend {
                SolverBackend::Dense => false,
                SolverBackend::Banded => true,
                SolverBackend::Auto => dim >= 24 && 8 * bandwidth <= dim,
            };
        let store = if use_banded {
            // Keep whichever ordering is narrower: RCM never loses by much,
            // but the bit-line emission helpers already produce ladders in
            // adjacent-node order, and the natural order costs no permute.
            let natural = natural_bw <= reordered_bw;
            let (perm, inv) = if natural {
                (identity.clone(), identity)
            } else {
                (rcm, rcm_inv)
            };
            let mut base = BandedMatrix::zeros(dim, bandwidth, bandwidth);
            self.stamp_static(&mut PermutedBanded {
                matrix: &mut base,
                inv: &inv,
            });
            MatrixStore::Banded {
                base,
                work: BandedMatrix::zeros(dim, bandwidth, bandwidth),
                lu: BandedLu::workspace(dim, bandwidth, bandwidth),
                perm,
                inv,
                natural,
                scratch: vec![0.0; dim],
            }
        } else {
            let mut base = Matrix::zeros(dim, dim);
            self.stamp_static(&mut base);
            MatrixStore::Dense {
                base,
                work: Matrix::zeros(dim, dim),
                lu: LuFactors::workspace(dim),
                scratch: Vec::new(),
            }
        };
        let switch_count = self
            .elements
            .iter()
            .filter(|element| matches!(element, Element::Switch { .. }))
            .count();
        SolveWorkspace {
            nonlinear: self.has_nonlinear(),
            store,
            rhs: vec![0.0; dim],
            x: vec![0.0; dim],
            next: vec![0.0; dim],
            lu_valid: false,
            key_h: 0,
            key_switches: vec![false; switch_count],
            cur_switches: vec![false; switch_count],
            reuse: strategy == SolverStrategy::CachedLu,
            telemetry: TranTelemetry {
                banded: use_banded,
                dim,
                natural_bandwidth: natural_bw,
                reordered_bandwidth: reordered_bw,
                factorizations: 0,
                solves: 0,
            },
        }
    }

    fn package_dc(&self, solution: &[f64]) -> DcResult {
        let nodes = self.node_count();
        let mut voltages = vec![0.0; nodes];
        voltages[1..nodes].copy_from_slice(&solution[..(nodes - 1)]);
        DcResult { voltages }
    }

    /// Runs a transient analysis.
    ///
    /// The time grid is the uniform `dt` grid plus every switch event time,
    /// so scheduled switching is honoured exactly.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] on invalid options, singular systems or
    /// Newton non-convergence at any time point.
    pub fn transient(&self, options: &TranOptions) -> Result<TranResult, AnalysisError> {
        let grid = self.tran_grid(options)?;

        // Initial state.
        let mut ws = self.workspace(options.strategy, options.backend);
        let mut solution = vec![0.0; self.dim()];
        if options.start_from_dc {
            self.solve_point_with(&mut ws, Seconds::ZERO, &solution, None)?;
            solution.copy_from_slice(&ws.x);
        }

        let nodes = self.node_count();
        let mut traces: Vec<Vec<f64>> = vec![Vec::with_capacity(grid.len()); nodes];
        let record = |x: &[f64], traces: &mut Vec<Vec<f64>>| {
            traces[0].push(0.0);
            for index in 1..nodes {
                traces[index].push(x[index - 1]);
            }
        };
        record(&solution, &mut traces);

        for (t, h) in tran_steps(&grid, options.dt.get()) {
            let cap = CapStep {
                h,
                x_prev: &solution,
                ground: &[0.0],
            };
            self.solve_point_with(&mut ws, t, &solution, Some(cap))?;
            solution.copy_from_slice(&ws.x);
            record(&solution, &mut traces);
        }

        Ok(TranResult {
            times: grid,
            traces,
            telemetry: ws.telemetry,
        })
    }

    /// Validates the fixed-step options and builds the time grid: the
    /// requested `dt` honoured exactly (points at k·dt, a final short step
    /// covering any remainder before `t_stop`) plus switch events,
    /// deduplicated. Shared by [`Circuit::transient`] and
    /// [`Circuit::transient_batch`] so both integrate identical grids.
    fn tran_grid(&self, options: &TranOptions) -> Result<Vec<f64>, AnalysisError> {
        let (t_stop, dt) = (options.t_stop.get(), options.dt.get());
        if !(t_stop.is_finite() && t_stop > 0.0) {
            return Err(AnalysisError::InvalidOptions(
                "t_stop must be positive and finite".to_string(),
            ));
        }
        // Also false for a NaN `dt`; a finite `t_stop` bounds an infinite one.
        if !(dt > 0.0 && dt <= t_stop) {
            return Err(AnalysisError::InvalidOptions(
                "dt must be positive and no larger than t_stop".to_string(),
            ));
        }
        let ratio = t_stop / dt;
        // Snap to a whole step count when `t_stop` is an (FP-wise almost
        // exact) multiple of `dt`, so no sliver step is produced.
        let whole = if (ratio - ratio.round()).abs() < 1e-9 * ratio.round().max(1.0) {
            ratio.round()
        } else {
            ratio.floor()
        } as usize;
        let mut grid: Vec<f64> = (0..=whole).map(|k| (k as f64 * dt).min(t_stop)).collect();
        let last = *grid.last().expect("non-empty grid");
        if t_stop - last > dt * 1e-9 {
            grid.push(t_stop);
        } else {
            *grid.last_mut().expect("non-empty grid") = t_stop;
        }
        for event in self.switch_event_times() {
            if event.get() > 0.0 && event < options.t_stop {
                grid.push(event.get());
            }
        }
        grid.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        grid.dedup_by(|a, b| (*a - *b).abs() < 1e-18);
        Ok(grid)
    }

    /// Runs `members.len()` transients of this (linear) circuit at once,
    /// each member differing only in current-source waveforms, and
    /// records the voltages of `probes`.
    ///
    /// All members share the time grid, the stamp plan, and — because
    /// source waveforms only touch the right-hand side — every LU
    /// factorization: under [`SolverStrategy::CachedLu`] one factorization
    /// per distinct (switch-state, step-size) key serves the
    /// entire batch, and each step back-substitutes the k right-hand sides
    /// in structure-of-arrays layout. Per member the result is
    /// bit-identical to a sequential [`Circuit::transient`] of a circuit
    /// with the same waveform overrides applied (pinned by the
    /// `batch_reference` property tests).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidOptions`] for a nonlinear circuit,
    /// an empty batch, a foreign source id, or a foreign probe node — and
    /// the usual analysis errors from the shared solve.
    pub fn transient_batch(
        &self,
        options: &TranOptions,
        members: &[BatchMember],
        probes: &[Node],
    ) -> Result<BatchTranResult, AnalysisError> {
        let grid = self.tran_grid(options)?;
        if self.has_nonlinear() {
            return Err(AnalysisError::InvalidOptions(
                "transient_batch requires a linear circuit (Newton-linearised \
                 elements make the matrix member-dependent)"
                    .to_string(),
            ));
        }
        if members.is_empty() {
            return Err(AnalysisError::InvalidOptions(
                "transient_batch needs at least one member".to_string(),
            ));
        }
        for probe in probes {
            if probe.index() >= self.node_count() {
                return Err(AnalysisError::InvalidOptions(
                    "probe node does not belong to this circuit".to_string(),
                ));
            }
        }
        let waves = self.member_waves(members)?;

        let dim = self.dim();
        let k = members.len();
        let mut ws = self.workspace(options.strategy, options.backend);
        // Two lane-major solutions, `x[row·k + m]`: `x_prev` holds the last
        // step's, which the capacitor companions integrate from, and `x_next`
        // takes the next step's RHS and is solved in place. They swap after
        // each step, so each member's capacitors start from its own DC
        // solution (or zero state), exactly as the sequential path does.
        let mut x_prev = vec![0.0; dim * k];
        let mut x_next = vec![0.0; dim * k];
        let mut values = vec![0.0; k];
        if options.start_from_dc {
            self.solve_batch_point(
                &mut ws,
                &waves,
                Seconds::ZERO,
                None,
                &mut x_prev,
                &mut values,
            )?;
        }
        let ground = vec![0.0; k];

        let mut traces: Vec<Vec<f64>> = vec![Vec::with_capacity(grid.len() * k); probes.len()];
        let record = |x_all: &[f64], traces: &mut Vec<Vec<f64>>| {
            for (slot, probe) in probes.iter().enumerate() {
                match Self::node_row(*probe) {
                    None => traces[slot].extend(std::iter::repeat_n(0.0, k)),
                    Some(row) => traces[slot].extend_from_slice(&x_all[row * k..(row + 1) * k]),
                }
            }
        };
        record(&x_prev, &mut traces);

        for (t, h) in tran_steps(&grid, options.dt.get()) {
            let cap = CapStep {
                h,
                x_prev: &x_prev,
                ground: &ground,
            };
            self.solve_batch_point(&mut ws, &waves, t, Some(cap), &mut x_next, &mut values)?;
            record(&x_next, &mut traces);
            std::mem::swap(&mut x_prev, &mut x_next);
        }

        Ok(BatchTranResult {
            times: grid,
            members: k,
            probes: probes.to_vec(),
            traces,
            telemetry: ws.telemetry,
        })
    }

    /// Every independent source's waveform lanes, in element order: lane
    /// `m` of the `source`-th entry is the waveform member `m` drives that
    /// source with — its override (current sources only), or else the
    /// circuit's own waveform.
    fn member_waves<'a>(
        &'a self,
        members: &'a [BatchMember],
    ) -> Result<Vec<SourceLanes<'a>>, AnalysisError> {
        let k = members.len();
        let mut waves = Vec::new();
        let mut isources = Vec::new();
        for element in &self.elements {
            let wave = match element {
                Element::CurrentSource { wave, .. } => {
                    isources.push(waves.len());
                    wave
                }
                Element::VoltageSource { wave, .. } => wave,
                _ => continue,
            };
            waves.extend(std::iter::repeat_n(wave, k));
        }
        for (m, member) in members.iter().enumerate() {
            for (id, wave) in &member.current {
                let lane = isources.get(id.0).ok_or_else(|| {
                    AnalysisError::InvalidOptions(
                        "current source id does not belong to this circuit".to_string(),
                    )
                })?;
                waves[lane + m] = wave;
            }
        }
        Ok(waves.chunks_exact(k).map(SourceLanes::new).collect())
    }

    /// Solves one linear analysis point for every batch member: one shared
    /// matrix rebuild/refactor (when the reuse key misses), then the k
    /// right-hand sides stamped lane-major into `x_all` and
    /// back-substituted there in place.
    fn solve_batch_point(
        &self,
        ws: &mut SolveWorkspace,
        waves: &[SourceLanes],
        t: Seconds,
        cap: Option<CapStep>,
        x_all: &mut [f64],
        values: &mut [f64],
    ) -> Result<(), AnalysisError> {
        // The matrix is member-independent: waveform overrides only touch
        // the RHS, and the capacitor companion conductance depends on C and
        // h alone. Key handling is therefore identical to the sequential
        // path; the rebuild stamps lane 0's history currents into `ws.rhs`,
        // which is discarded.
        if !self.lu_reusable(ws, t, cap) {
            ws.rhs.fill(0.0);
            self.rebuild_matrix(ws, t, cap);
            self.refactor_keyed(ws, t, cap)?;
        }
        self.stamp_rhs_lanes(x_all, waves, t, cap, values);
        ws.store
            .solve_multi(x_all, values.len())
            .map_err(|source| AnalysisError::Singular { source, time: t })?;
        ws.telemetry.solves += values.len();
        Ok(())
    }

    /// Solves one (possibly nonlinear) analysis point into the workspace:
    /// on success `ws.x` holds the solution.
    ///
    /// `cap` is `Some(step)` during transient steps and `None` for DC
    /// (capacitors open).
    fn solve_point_with(
        &self,
        ws: &mut SolveWorkspace,
        t: Seconds,
        guess: &[f64],
        cap: Option<CapStep>,
    ) -> Result<(), AnalysisError> {
        ws.x.copy_from_slice(guess);

        if !ws.nonlinear {
            // A linear system needs exactly one solve — and when nothing
            // matrix-affecting changed since the previous solve (same
            // switch states and companion step size), the cached
            // factorization still holds: rebuild only the RHS and
            // back-substitute, O(n²) instead of O(n³).
            let reusable = self.lu_reusable(ws, t, cap);
            ws.rhs.fill(0.0);
            if reusable {
                self.stamp_rhs_only(&mut ws.rhs, t, cap);
            } else {
                self.rebuild_matrix(ws, t, cap);
                self.refactor_keyed(ws, t, cap)?;
            }
            ws.store
                .solve(&ws.rhs, &mut ws.x)
                .map_err(|source| AnalysisError::Singular { source, time: t })?;
            ws.telemetry.solves += 1;
            return Ok(());
        }

        let dim = self.dim();
        let voltage_entries = self.node_count() - 1;
        let mut residual = f64::INFINITY;
        for _iteration in 0..MAX_NEWTON {
            ws.rhs.fill(0.0);
            self.rebuild_matrix(ws, t, cap);
            if let Err(source) = ws.store.refactor() {
                return Err(AnalysisError::Singular { source, time: t });
            }
            ws.telemetry.factorizations += 1;
            ws.store
                .solve(&ws.rhs, &mut ws.next)
                .map_err(|source| AnalysisError::Singular { source, time: t })?;
            ws.telemetry.solves += 1;

            // Damped update: clamp each voltage unknown's move per
            // iteration so the square-law MOSFET linearisation cannot
            // overshoot into a bogus operating region. Clamping per entry
            // (not scaling the whole vector) lets well-behaved unknowns —
            // e.g. a source-driven gate — reach their values while a
            // momentarily ill-conditioned node is reined in.
            let mut max_delta = 0.0f64;
            for index in 0..dim {
                let delta = ws.next[index] - ws.x[index];
                if index < voltage_entries {
                    max_delta = max_delta.max(delta.abs());
                    ws.x[index] += delta.clamp(-MAX_STEP, MAX_STEP);
                } else {
                    // Branch currents follow the (clamped) voltages freely.
                    ws.x[index] = ws.next[index];
                }
            }
            if max_delta < TOL_ABS {
                return Ok(());
            }
            residual = max_delta;
        }
        // Report the residual of the final Newton iterate — the same
        // max-norm voltage change the convergence test uses — rather than
        // paying one more full stamp+factor+solve just to format an error.
        Err(AnalysisError::NonConvergent { time: t, residual })
    }

    /// Checks whether the cached factorisation still describes the matrix
    /// at `(t, h)`, refreshing `ws.cur_switches` along the way.
    fn lu_reusable(&self, ws: &mut SolveWorkspace, t: Seconds, cap: Option<CapStep>) -> bool {
        let key_h = cap.map_or(u64::MAX, |step| step.h.to_bits());
        let mut switch_index = 0;
        for element in &self.elements {
            if let Element::Switch { schedule, .. } = element {
                ws.cur_switches[switch_index] = schedule.state_at(t);
                switch_index += 1;
            }
        }
        ws.reuse && ws.lu_valid && ws.key_h == key_h && ws.key_switches == ws.cur_switches
    }

    /// Refactors the (already rebuilt) working matrix, counting it in the
    /// telemetry and updating the reuse key on success.
    fn refactor_keyed(
        &self,
        ws: &mut SolveWorkspace,
        t: Seconds,
        cap: Option<CapStep>,
    ) -> Result<(), AnalysisError> {
        if let Err(source) = ws.store.refactor() {
            ws.lu_valid = false;
            return Err(AnalysisError::Singular { source, time: t });
        }
        ws.telemetry.factorizations += 1;
        ws.lu_valid = true;
        ws.key_h = cap.map_or(u64::MAX, |step| step.h.to_bits());
        ws.key_switches.copy_from_slice(&ws.cur_switches);
        Ok(())
    }

    /// Rebuilds the working matrix (and the dynamic part of the RHS):
    /// copies the pre-stamped static base — or restamps it from scratch
    /// under [`SolverStrategy::AlwaysRestamp`] — then stamps the dynamic
    /// elements on top. Expects `ws.rhs` already zeroed.
    fn rebuild_matrix(&self, ws: &mut SolveWorkspace, t: Seconds, cap: Option<CapStep>) {
        let SolveWorkspace {
            store,
            rhs,
            x,
            reuse,
            ..
        } = ws;
        match store {
            MatrixStore::Dense { base, work, .. } => {
                if *reuse {
                    work.copy_from(base);
                } else {
                    work.clear();
                    self.stamp_static(work);
                }
                self.stamp_dynamic(work, rhs, x, t, cap);
            }
            MatrixStore::Banded {
                base, work, inv, ..
            } => {
                let inv: &[usize] = inv;
                if *reuse {
                    work.copy_from(base);
                } else {
                    work.clear();
                    let mut target = PermutedBanded {
                        matrix: &mut *work,
                        inv,
                    };
                    self.stamp_static(&mut target);
                }
                let mut target = PermutedBanded { matrix: work, inv };
                self.stamp_dynamic(&mut target, rhs, x, t, cap);
            }
        }
    }

    fn has_nonlinear(&self) -> bool {
        self.elements
            .iter()
            .any(|element| matches!(element, Element::Mosfet { .. } | Element::Nonlinear { .. }))
    }

    /// Stamps the static portion of the system matrix: GMIN, resistors and
    /// the voltage-source/VCVS branch patterns. None of these depend on
    /// time, step size, or the Newton iterate, so the result is pre-baked
    /// once per analysis into the stamp plan's base matrix.
    fn stamp_static<M: StampTarget>(&self, matrix: &mut M) {
        // GMIN from every non-ground node to ground.
        for row in 0..(self.node_count() - 1) {
            matrix.add(row, row, GMIN);
        }

        for element in &self.elements {
            match element {
                Element::Resistor { a, b, ohms } => {
                    stamp_conductance(matrix, *a, *b, 1.0 / ohms);
                }
                Element::VoltageSource {
                    pos, neg, branch, ..
                } => {
                    let branch_row = self.branch_row(*branch);
                    if let Some(row) = Self::node_row(*pos) {
                        matrix.add(row, branch_row, 1.0);
                        matrix.add(branch_row, row, 1.0);
                    }
                    if let Some(row) = Self::node_row(*neg) {
                        matrix.add(row, branch_row, -1.0);
                        matrix.add(branch_row, row, -1.0);
                    }
                }
                Element::Vcvs {
                    out_pos,
                    out_neg,
                    in_pos,
                    in_neg,
                    gain,
                    branch,
                } => {
                    let branch_row = self.branch_row(*branch);
                    if let Some(row) = Self::node_row(*out_pos) {
                        matrix.add(row, branch_row, 1.0);
                        matrix.add(branch_row, row, 1.0);
                    }
                    if let Some(row) = Self::node_row(*out_neg) {
                        matrix.add(row, branch_row, -1.0);
                        matrix.add(branch_row, row, -1.0);
                    }
                    // Constraint: v_out+ − v_out− − gain·(v_in+ − v_in−) = 0.
                    if let Some(row) = Self::node_row(*in_pos) {
                        matrix.add(branch_row, row, -gain);
                    }
                    if let Some(row) = Self::node_row(*in_neg) {
                        matrix.add(branch_row, row, *gain);
                    }
                }
                Element::Switch { .. }
                | Element::Capacitor { .. }
                | Element::CurrentSource { .. }
                | Element::Mosfet { .. }
                | Element::Nonlinear { .. } => {}
            }
        }
    }

    /// Stamps the dynamic elements — switches, capacitor companions,
    /// linearised MOSFET/`DeviceLaw` entries — into `matrix`, and every
    /// RHS contribution (source waves, companion history currents,
    /// linearisation excess currents) into `rhs`.
    ///
    /// Per matrix/RHS entry the accumulation order is identical whether the
    /// static portion came from a base-matrix copy or a fresh
    /// [`Circuit::stamp_static`] pass, which is what makes the fast path
    /// bit-identical to the always-restamp reference.
    fn stamp_dynamic<M: StampTarget>(
        &self,
        matrix: &mut M,
        rhs: &mut [f64],
        x: &[f64],
        t: Seconds,
        cap: Option<CapStep>,
    ) {
        let voltage_of =
            |node: Node, x: &[f64]| -> f64 { Self::node_row(node).map_or(0.0, |row| x[row]) };

        for element in &self.elements {
            match element {
                Element::Resistor { .. } | Element::Vcvs { .. } => {}
                Element::Switch {
                    a,
                    b,
                    r_on,
                    r_off,
                    schedule,
                } => {
                    let resistance = if schedule.state_at(t) { *r_on } else { *r_off };
                    stamp_conductance(matrix, *a, *b, 1.0 / resistance);
                }
                Element::Capacitor { a, b, farads } => {
                    if let Some(step) = cap {
                        let g_eq = farads / step.h;
                        let mut i_hist = [0.0];
                        step.history_into(&mut i_hist, *a, *b, g_eq);
                        stamp_conductance(matrix, *a, *b, g_eq);
                        // History current drives the cap towards its past
                        // voltage: inject into `a`, return from `b`.
                        stamp_current_into(rhs, *a, *b, i_hist[0]);
                    }
                }
                Element::VoltageSource { wave, branch, .. } => {
                    rhs[self.branch_row(*branch)] += wave.value_at(t);
                }
                Element::CurrentSource { pos, neg, wave } => {
                    stamp_current_into(rhs, *pos, *neg, wave.value_at(t));
                }
                Element::Mosfet {
                    drain,
                    gate,
                    source,
                    params,
                } => {
                    stamp_mosfet(
                        matrix,
                        rhs,
                        *drain,
                        *gate,
                        *source,
                        params,
                        voltage_of(*drain, x),
                        voltage_of(*gate, x),
                        voltage_of(*source, x),
                    );
                }
                Element::Nonlinear { a, b, law } => {
                    let v = voltage_of(*a, x) - voltage_of(*b, x);
                    let i = law.current(v);
                    let g = law.conductance(v).max(GMIN);
                    let i_eq = i - g * v;
                    stamp_conductance(matrix, *a, *b, g);
                    // The linearised excess current leaves `a`: move it to
                    // the RHS with opposite sign.
                    stamp_current_into(rhs, *a, *b, -i_eq);
                }
            }
        }
    }

    /// Rebuilds only the RHS, for cached-LU steps where the matrix is known
    /// unchanged. Only valid for linear circuits (no Newton-linearised
    /// elements, whose RHS contribution would need the matrix rebuilt too);
    /// contribution order matches [`Circuit::stamp_dynamic`] exactly so the
    /// RHS is bit-identical to a full rebuild.
    fn stamp_rhs_only(&self, rhs: &mut [f64], t: Seconds, cap: Option<CapStep>) {
        debug_assert!(!self.has_nonlinear(), "rhs-only stamping needs linearity");
        for element in &self.elements {
            match element {
                Element::Capacitor { a, b, farads } => {
                    if let Some(step) = cap {
                        let mut i_hist = [0.0];
                        step.history_into(&mut i_hist, *a, *b, farads / step.h);
                        stamp_current_into(rhs, *a, *b, i_hist[0]);
                    }
                }
                Element::VoltageSource { wave, branch, .. } => {
                    rhs[self.branch_row(*branch)] += wave.value_at(t);
                }
                Element::CurrentSource { pos, neg, wave } => {
                    stamp_current_into(rhs, *pos, *neg, wave.value_at(t));
                }
                _ => {}
            }
        }
    }

    /// [`Circuit::stamp_rhs_only`] for all `k` lanes of a batch at once:
    /// zeroes `rhs` (`rhs[row·k + m]`) and walks the elements once, adding
    /// each capacitor's history currents and each source's lane of
    /// waveform values (`waves[source]`). Every entry gets its
    /// contributions in element order with the sequential arithmetic, so
    /// each lane is bit-identical to a sequential RHS. `values` is `k`
    /// lanes of scratch.
    fn stamp_rhs_lanes(
        &self,
        rhs: &mut [f64],
        waves: &[SourceLanes],
        t: Seconds,
        cap: Option<CapStep>,
        values: &mut [f64],
    ) {
        debug_assert!(!self.has_nonlinear(), "rhs-only stamping needs linearity");
        let k = values.len();
        rhs.fill(0.0);
        let mut sources = waves.iter();
        let mut source_values = |values: &mut [f64]| match sources
            .next()
            .expect("one set of waveform lanes per source")
        {
            SourceLanes::SharedKnots(lanes) => {
                let point = PwlPoint::locate(lanes[0], t);
                for (value, knots) in values.iter_mut().zip(lanes) {
                    *value = point.value(knots);
                }
            }
            SourceLanes::Each(lanes) => {
                for (value, wave) in values.iter_mut().zip(lanes) {
                    *value = wave.value_at(t);
                }
            }
        };
        for element in &self.elements {
            let (pos, neg) = match element {
                Element::Capacitor { a, b, farads } => {
                    let Some(step) = cap else { continue };
                    step.history_into(values, *a, *b, farads / step.h);
                    (Self::node_row(*a), Self::node_row(*b))
                }
                Element::VoltageSource { branch, .. } => {
                    source_values(values);
                    (Some(self.branch_row(*branch)), None)
                }
                Element::CurrentSource { pos, neg, .. } => {
                    source_values(values);
                    (Self::node_row(*pos), Self::node_row(*neg))
                }
                _ => continue,
            };
            if let Some(row) = pos {
                for (entry, value) in rhs[row * k..(row + 1) * k].iter_mut().zip(&*values) {
                    *entry += value;
                }
            }
            if let Some(row) = neg {
                for (entry, value) in rhs[row * k..(row + 1) * k].iter_mut().zip(&*values) {
                    *entry -= value;
                }
            }
        }
    }
}

#[cfg(test)]
impl Circuit {
    /// The banded system matrix, in the banded backend's row order, that a
    /// transient step of `h` ending at `t` factors: the banded unit tests'
    /// handle on a real circuit's band.
    pub(crate) fn banded_step_matrix(&self, t: Seconds, h: f64) -> BandedMatrix {
        let mut ws = self.workspace(SolverStrategy::CachedLu, SolverBackend::Banded);
        let x_prev = vec![0.0; self.dim()];
        let step = CapStep {
            h,
            x_prev: &x_prev,
            ground: &[0.0],
        };
        self.rebuild_matrix(&mut ws, t, Some(step));
        match ws.store {
            MatrixStore::Banded { work, .. } => work,
            MatrixStore::Dense { .. } => unreachable!("the banded backend was forced"),
        }
    }
}

/// The conductance stamp primitive shared by every two-terminal element.
fn stamp_conductance<M: StampTarget>(matrix: &mut M, a: Node, b: Node, g: f64) {
    if let Some(row_a) = Circuit::node_row(a) {
        matrix.add(row_a, row_a, g);
        if let Some(row_b) = Circuit::node_row(b) {
            matrix.add(row_a, row_b, -g);
            matrix.add(row_b, row_a, -g);
        }
    }
    if let Some(row_b) = Circuit::node_row(b) {
        matrix.add(row_b, row_b, g);
    }
}

/// Injects a current into `pos`, returning it from `neg`.
fn stamp_current_into(rhs: &mut [f64], pos: Node, neg: Node, i: f64) {
    if let Some(row) = Circuit::node_row(pos) {
        rhs[row] += i;
    }
    if let Some(row) = Circuit::node_row(neg) {
        rhs[row] -= i;
    }
}

/// The small-signal linearisation of a level-1 NMOS around a bias point:
/// the effective (possibly swapped) drain/source orientation, the drain
/// current, and the `gm`/`gds` conductances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MosfetLinearisation {
    /// `true` when `v_d < v_s` and the terminals act swapped.
    pub swapped: bool,
    /// Drain current flowing (effective) drain → source.
    pub i_d: f64,
    /// Transconductance `∂I/∂V_GS`.
    pub gm: f64,
    /// Output conductance `∂I/∂V_DS`.
    pub gds: f64,
    /// Effective `V_GS` (measured from the lower terminal).
    pub vgs: f64,
    /// Effective `V_DS` (non-negative).
    pub vds: f64,
}

/// Linearises a level-1 NMOS at the given terminal voltages.
pub(crate) fn mosfet_linearisation(
    params: &MosfetParams,
    v_d: f64,
    v_g: f64,
    v_s: f64,
) -> MosfetLinearisation {
    // The level-1 model is symmetric: if v_ds < 0 the physical source is the
    // `drain` terminal. Swap internally; direction is handled by the swap.
    let (vd, vs, swapped) = if v_d >= v_s {
        (v_d, v_s, false)
    } else {
        (v_s, v_d, true)
    };
    let vgs = v_g - vs;
    let vds = vd - vs;
    let vov = vgs - params.vt;

    let (i_d, gm, gds) = if vov <= 0.0 {
        // Cutoff: tiny leak keeps the Jacobian nonsingular.
        (vds * GMIN, 0.0, GMIN)
    } else if vds < vov {
        // Triode.
        let i = params.k * (vov * vds - 0.5 * vds * vds);
        let gm = params.k * vds;
        let gds = params.k * (vov - vds);
        (i, gm, gds.max(GMIN))
    } else {
        // Saturation with channel-length modulation.
        let i0 = 0.5 * params.k * vov * vov;
        let i = i0 * (1.0 + params.lambda * vds);
        let gm = params.k * vov * (1.0 + params.lambda * vds);
        let gds = (i0 * params.lambda).max(GMIN);
        (i, gm, gds)
    };
    MosfetLinearisation {
        swapped,
        i_d,
        gm,
        gds,
        vgs,
        vds,
    }
}

/// Stamps a level-1 NMOS linearised around the iterate voltages.
#[allow(clippy::too_many_arguments)]
fn stamp_mosfet<M: StampTarget>(
    matrix: &mut M,
    rhs: &mut [f64],
    drain: Node,
    gate: Node,
    source: Node,
    params: &MosfetParams,
    v_d: f64,
    v_g: f64,
    v_s: f64,
) {
    let lin = mosfet_linearisation(params, v_d, v_g, v_s);
    let (d, s) = if lin.swapped {
        (source, drain)
    } else {
        (drain, source)
    };
    let (i_d, gm, gds, vgs, vds) = (lin.i_d, lin.gm, lin.gds, lin.vgs, lin.vds);

    // Linearised drain current: I ≈ I_eq + gm·v_gs + gds·v_ds.
    let i_eq = i_d - gm * vgs - gds * vds;

    let row = Circuit::node_row;
    // KCL at the (effective) drain: +I leaves it.
    if let Some(row_d) = row(d) {
        if let Some(row_g) = row(gate) {
            matrix.add(row_d, row_g, gm);
        }
        matrix.add(row_d, row_d, gds);
        if let Some(row_s) = row(s) {
            matrix.add(row_d, row_s, -(gm + gds));
        }
        rhs[row_d] -= i_eq;
    }
    // KCL at the (effective) source: −I.
    if let Some(row_s) = row(s) {
        if let Some(row_g) = row(gate) {
            matrix.add(row_s, row_g, -gm);
        }
        if let Some(row_d) = row(d) {
            matrix.add(row_s, row_d, -gds);
        }
        matrix.add(row_s, row_s, gm + gds);
        rhs[row_s] += i_eq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::SwitchSchedule;
    use crate::waveform::Waveform;
    use std::sync::Arc;
    use stt_units::{Farads, Ohms};

    fn nanos(t: f64) -> Seconds {
        Seconds::from_nano(t)
    }

    #[test]
    fn resistive_divider_dc() {
        let mut circuit = Circuit::new();
        let top = circuit.node("top");
        let mid = circuit.node("mid");
        circuit.voltage_source(top, Node::GROUND, Waveform::Dc(2.0));
        circuit.resistor(top, mid, Ohms::from_kilo(1.0));
        circuit.resistor(mid, Node::GROUND, Ohms::from_kilo(3.0));
        let op = circuit.dc_operating_point(Seconds::ZERO).expect("linear");
        assert!((op.voltage(mid) - 1.5).abs() < 1e-6, "GMIN leak stays tiny");
        assert_eq!(op.voltage(Node::GROUND), 0.0);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut circuit = Circuit::new();
        let out = circuit.node("out");
        circuit.current_source(out, Node::GROUND, Waveform::Dc(200e-6));
        circuit.resistor(out, Node::GROUND, Ohms::new(2500.0));
        let op = circuit.dc_operating_point(Seconds::ZERO).expect("linear");
        assert!((op.voltage(out) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn floating_node_is_held_by_gmin() {
        let mut circuit = Circuit::new();
        let floating = circuit.node("floating");
        let driven = circuit.node("driven");
        circuit.voltage_source(driven, Node::GROUND, Waveform::Dc(1.0));
        circuit.resistor(driven, Node::GROUND, Ohms::from_kilo(1.0));
        // `floating` has no connection at all: GMIN pins it to ground.
        let op = circuit.dc_operating_point(Seconds::ZERO).expect("gmin");
        assert!(op.voltage(floating).abs() < 1e-9);
    }

    #[test]
    fn rc_charge_curve_matches_analytic() {
        let mut circuit = Circuit::new();
        let input = circuit.node("in");
        let output = circuit.node("out");
        circuit.voltage_source(
            input,
            Node::GROUND,
            Waveform::pulse(
                0.0,
                1.0,
                Seconds::ZERO,
                nanos(0.001),
                nanos(0.001),
                nanos(1000.0),
            ),
        );
        circuit.resistor(input, output, Ohms::from_kilo(1.0));
        circuit.capacitor(output, Node::GROUND, Farads::from_pico(1.0));
        let result = circuit
            .transient(&TranOptions::new(nanos(5.0), nanos(0.005)))
            .expect("transient");
        // Compare against 1 − exp(−t/τ) at several times (τ = 1 ns).
        for t_ns in [0.5, 1.0, 2.0, 4.0] {
            let simulated = result.voltage_at(output, nanos(t_ns));
            let analytic = 1.0 - (-t_ns).exp();
            assert!(
                (simulated - analytic).abs() < 0.01,
                "at {t_ns} ns: simulated {simulated}, analytic {analytic}"
            );
        }
    }

    #[test]
    fn switch_samples_voltage_onto_capacitor() {
        // The core sample-and-hold idiom of the paper's sensing circuits.
        let mut circuit = Circuit::new();
        let bl = circuit.node("bl");
        let hold = circuit.node("hold");
        circuit.current_source(bl, Node::GROUND, Waveform::Dc(100e-6));
        circuit.resistor(bl, Node::GROUND, Ohms::from_kilo(3.0));
        circuit.switch(
            bl,
            hold,
            Ohms::new(200.0),
            Ohms::from_mega(1000.0),
            SwitchSchedule::closed_during(nanos(1.0), nanos(6.0)),
        );
        circuit.capacitor(hold, Node::GROUND, Farads::from_femto(25.0));
        let result = circuit
            .transient(&TranOptions::new(nanos(10.0), nanos(0.01)).from_zero_state())
            .expect("transient");
        // Before the switch closes the cap is empty.
        assert!(result.voltage_at(hold, nanos(0.9)).abs() < 1e-3);
        // While closed it charges to the bit-line voltage (0.3 V).
        let sampled = result.voltage_at(hold, nanos(5.9));
        assert!((sampled - 0.3).abs() < 1e-3, "sampled {sampled}");
        // After opening, the value holds (GMIN droop is negligible at 10 ns).
        let held = result.voltage_at(hold, nanos(10.0));
        assert!((held - sampled).abs() < 1e-4, "held {held} vs {sampled}");
    }

    #[test]
    fn mosfet_linear_region_resistance() {
        // Access-transistor configuration: gate at 1.2 V, drain fed by a
        // small current, source grounded. Expect V_DS ≈ I·R_on with
        // R_on = 1/(k·(Vgs−Vt)).
        let mut circuit = Circuit::new();
        let drain = circuit.node("drain");
        let gate = circuit.node("gate");
        circuit.voltage_source(gate, Node::GROUND, Waveform::Dc(1.2));
        circuit.current_source(drain, Node::GROUND, Waveform::Dc(10e-6));
        let params = MosfetParams::with_on_resistance(Ohms::new(917.0), 1.2, 0.4);
        circuit.mosfet(drain, gate, Node::GROUND, params);
        let op = circuit.dc_operating_point(Seconds::ZERO).expect("newton");
        let v_ds = op.voltage(drain);
        let r_eff = v_ds / 10e-6;
        // Deep triode: the quadratic term makes R slightly above R_on.
        assert!((r_eff - 917.0).abs() < 25.0, "effective resistance {r_eff}");
    }

    #[test]
    fn mosfet_saturation_current() {
        let mut circuit = Circuit::new();
        let drain = circuit.node("drain");
        let gate = circuit.node("gate");
        let supply = circuit.node("vdd");
        circuit.voltage_source(gate, Node::GROUND, Waveform::Dc(1.0));
        circuit.voltage_source(supply, Node::GROUND, Waveform::Dc(1.8));
        circuit.resistor(supply, drain, Ohms::new(100.0));
        let params = MosfetParams::new(0.4, 1e-3, 0.0);
        circuit.mosfet(drain, gate, Node::GROUND, params);
        let op = circuit.dc_operating_point(Seconds::ZERO).expect("newton");
        // Vov = 0.6; Id = k/2·Vov² = 180 µA; drop over 100 Ω = 18 mV, so
        // Vds = 1.782 V ≫ Vov: saturation confirmed.
        let i_d = (op.voltage(supply) - op.voltage(drain)) / 100.0;
        assert!((i_d - 180e-6).abs() < 1e-6, "drain current {i_d}");
        assert!((op.voltage(drain) - 1.782).abs() < 1e-3);
    }

    #[test]
    fn mosfet_cutoff_blocks() {
        let mut circuit = Circuit::new();
        let drain = circuit.node("drain");
        let gate = circuit.node("gate");
        circuit.voltage_source(gate, Node::GROUND, Waveform::Dc(0.0));
        circuit.current_source(drain, Node::GROUND, Waveform::Dc(1e-9));
        circuit.mosfet(drain, gate, Node::GROUND, MosfetParams::new(0.4, 1e-3, 0.0));
        // Also give the node a big resistor so it cannot float to infinity.
        circuit.resistor(drain, Node::GROUND, Ohms::from_mega(100.0));
        let op = circuit.dc_operating_point(Seconds::ZERO).expect("newton");
        // Nearly all current takes the 100 MΩ path: the device is off.
        assert!(op.voltage(drain) > 0.04, "cut-off device conducts");
    }

    #[test]
    fn nonlinear_device_law_converges() {
        /// A diode-ish quadratic law: I = g1·v + g2·v·|v|.
        #[derive(Debug)]
        struct Quadratic;
        impl crate::circuit::DeviceLaw for Quadratic {
            fn current(&self, v: f64) -> f64 {
                1e-3 * v + 5e-3 * v * v.abs()
            }
            fn conductance(&self, v: f64) -> f64 {
                1e-3 + 10e-3 * v.abs()
            }
        }
        let mut circuit = Circuit::new();
        let a = circuit.node("a");
        circuit.current_source(a, Node::GROUND, Waveform::Dc(1e-3));
        circuit.nonlinear(a, Node::GROUND, Arc::new(Quadratic));
        let op = circuit.dc_operating_point(Seconds::ZERO).expect("newton");
        let v = op.voltage(a);
        // Check the solved voltage satisfies I(v) = 1 mA.
        let residual = (1e-3 * v + 5e-3 * v * v.abs()) - 1e-3;
        assert!(residual.abs() < 1e-9, "KCL residual {residual}");
        // And the law is odd-symmetric: reversing the source flips v.
        let mut reversed = Circuit::new();
        let b = reversed.node("b");
        reversed.current_source(Node::GROUND, b, Waveform::Dc(1e-3));
        reversed.nonlinear(b, Node::GROUND, Arc::new(Quadratic));
        let op2 = reversed.dc_operating_point(Seconds::ZERO).expect("newton");
        assert!((op2.voltage(b) + v).abs() < 1e-9);
    }

    #[test]
    fn transient_grid_includes_switch_events() {
        let mut circuit = Circuit::new();
        let a = circuit.node("a");
        circuit.resistor(a, Node::GROUND, Ohms::from_kilo(1.0));
        circuit.switch(
            a,
            Node::GROUND,
            Ohms::new(10.0),
            Ohms::from_mega(1.0),
            // Event deliberately off the uniform 1 ns grid.
            SwitchSchedule::closed_during(Seconds::new(1.2345e-9), nanos(3.0)),
        );
        circuit.current_source(a, Node::GROUND, Waveform::Dc(1e-6));
        let result = circuit
            .transient(&TranOptions::new(nanos(5.0), nanos(1.0)))
            .expect("transient");
        assert!(
            result
                .times()
                .iter()
                .any(|&t| (t - 1.2345e-9).abs() < 1e-18),
            "switch event time must be on the grid"
        );
    }

    #[test]
    fn crossing_time_interpolates() {
        let mut circuit = Circuit::new();
        let input = circuit.node("in");
        let output = circuit.node("out");
        circuit.voltage_source(
            input,
            Node::GROUND,
            Waveform::pulse(
                0.0,
                1.0,
                Seconds::ZERO,
                nanos(0.001),
                nanos(0.001),
                nanos(100.0),
            ),
        );
        circuit.resistor(input, output, Ohms::from_kilo(1.0));
        circuit.capacitor(output, Node::GROUND, Farads::from_pico(1.0));
        let result = circuit
            .transient(&TranOptions::new(nanos(5.0), nanos(0.01)))
            .expect("transient");
        // v(t) = 1 − e^{−t/1ns} crosses 0.5 at t = ln 2 ≈ 0.693 ns.
        let crossing = result
            .crossing_time(output, 0.5, true)
            .expect("crosses 0.5");
        assert!(
            (crossing.get() - 0.693e-9).abs() < 0.01e-9,
            "crossing at {crossing}"
        );
        assert!(result.crossing_time(output, 2.0, true).is_none());
    }

    #[test]
    fn invalid_options_are_rejected() {
        let mut circuit = Circuit::new();
        let a = circuit.node("a");
        circuit.resistor(a, Node::GROUND, Ohms::new(1.0));
        let err = circuit
            .transient(&TranOptions::new(Seconds::ZERO, nanos(1.0)))
            .expect_err("zero t_stop");
        assert!(matches!(err, AnalysisError::InvalidOptions(_)));
        let err = circuit
            .transient(&TranOptions::new(nanos(1.0), nanos(2.0)))
            .expect_err("dt > t_stop");
        assert!(err.to_string().contains("dt"));
        // Non-finite times fail the same way, in both analyses.
        let nan = Seconds::new(f64::NAN);
        let inf = Seconds::new(f64::INFINITY);
        for (t_stop, dt) in [
            (nanos(5.0), nan),
            (nan, nanos(1.0)),
            (nan, nan),
            (inf, nanos(1.0)),
            (nanos(5.0), inf),
            (inf, inf),
        ] {
            let options = TranOptions::new(t_stop, dt).from_zero_state();
            let case = format!("t_stop {t_stop:?}, dt {dt:?}");
            let err = circuit.transient(&options).expect_err(&case);
            assert!(matches!(err, AnalysisError::InvalidOptions(_)), "{case}");
            let err = circuit
                .transient_batch(&options, &[BatchMember::new()], &[a])
                .expect_err(&case);
            assert!(matches!(err, AnalysisError::InvalidOptions(_)), "{case}");
        }
    }

    #[test]
    fn start_from_dc_avoids_initial_transient() {
        // A cap already charged through a resistor ladder: starting from DC
        // the output must be flat from t = 0.
        let mut circuit = Circuit::new();
        let top = circuit.node("top");
        let mid = circuit.node("mid");
        circuit.voltage_source(top, Node::GROUND, Waveform::Dc(1.0));
        circuit.resistor(top, mid, Ohms::from_kilo(1.0));
        circuit.resistor(mid, Node::GROUND, Ohms::from_kilo(1.0));
        circuit.capacitor(mid, Node::GROUND, Farads::from_pico(10.0));
        let result = circuit
            .transient(&TranOptions::new(nanos(20.0), nanos(0.1)))
            .expect("transient");
        for &v in result.voltage(mid) {
            assert!((v - 0.5).abs() < 1e-6, "flat-line violated: {v}");
        }
    }

    #[test]
    fn vcvs_amplifies_differentially() {
        let mut circuit = Circuit::new();
        let in_p = circuit.node("in_p");
        let in_n = circuit.node("in_n");
        let out = circuit.node("out");
        circuit.voltage_source(in_p, Node::GROUND, Waveform::Dc(0.503));
        circuit.voltage_source(in_n, Node::GROUND, Waveform::Dc(0.500));
        circuit.vcvs(out, Node::GROUND, in_p, in_n, 100.0);
        // A load on the ideal output does not change its voltage.
        circuit.resistor(out, Node::GROUND, Ohms::from_kilo(1.0));
        let op = circuit.dc_operating_point(Seconds::ZERO).expect("vcvs");
        assert!(
            (op.voltage(out) - 0.3).abs() < 1e-9,
            "out {}",
            op.voltage(out)
        );
    }

    #[test]
    fn vcvs_in_unity_feedback_follows() {
        // out = A(in − out) ⇒ out = in·A/(1+A): the auto-zero idiom.
        let mut circuit = Circuit::new();
        let input = circuit.node("in");
        let out = circuit.node("out");
        circuit.voltage_source(input, Node::GROUND, Waveform::Dc(0.7));
        circuit.vcvs(out, Node::GROUND, input, out, 1000.0);
        let op = circuit.dc_operating_point(Seconds::ZERO).expect("follower");
        let expected = 0.7 * 1000.0 / 1001.0;
        assert!((op.voltage(out) - expected).abs() < 1e-9);
    }

    #[test]
    fn transient_honours_requested_dt_with_final_short_step() {
        // Regression: `steps = ceil(t_stop/dt)` used to rescale the step to
        // `t_stop/steps`, silently integrating at a different dt than
        // requested. 1.0 ns at dt = 0.3 ns must now step 0.3/0.3/0.3/0.1.
        let mut circuit = Circuit::new();
        let a = circuit.node("a");
        circuit.current_source(a, Node::GROUND, Waveform::Dc(1e-6));
        circuit.resistor(a, Node::GROUND, Ohms::from_kilo(1.0));
        let result = circuit
            .transient(&TranOptions::new(nanos(1.0), nanos(0.3)))
            .expect("transient");
        let times = result.times();
        let expected = [0.0, 0.3e-9, 0.6e-9, 0.9e-9, 1.0e-9];
        assert_eq!(times.len(), expected.len(), "grid {times:?}");
        for (&have, &want) in times.iter().zip(&expected) {
            assert!((have - want).abs() < 1e-21, "grid {times:?}");
        }
        // An exact divisor still produces the plain uniform grid.
        let mut circuit = Circuit::new();
        let a = circuit.node("a");
        circuit.current_source(a, Node::GROUND, Waveform::Dc(1e-6));
        circuit.resistor(a, Node::GROUND, Ohms::from_kilo(1.0));
        let result = circuit
            .transient(&TranOptions::new(nanos(1.0), nanos(0.25)))
            .expect("transient");
        assert_eq!(result.times().len(), 5, "grid {:?}", result.times());
        assert!((result.times().last().expect("points") - 1e-9).abs() < 1e-21);
    }

    #[test]
    fn always_restamp_strategy_matches_cached_lu_exactly() {
        // Spot check of the property the `fastpath_reference` suite tests
        // exhaustively: both strategies must agree to the last bit.
        let build = || {
            let mut circuit = Circuit::new();
            let bl = circuit.node("bl");
            let hold = circuit.node("hold");
            circuit.current_source(bl, Node::GROUND, Waveform::Dc(100e-6));
            circuit.resistor(bl, Node::GROUND, Ohms::from_kilo(3.0));
            circuit.switch(
                bl,
                hold,
                Ohms::new(200.0),
                Ohms::from_mega(1000.0),
                SwitchSchedule::closed_during(nanos(1.0), nanos(6.0)),
            );
            circuit.capacitor(hold, Node::GROUND, Farads::from_femto(25.0));
            circuit
        };
        let fast = build()
            .transient(&TranOptions::new(nanos(10.0), nanos(0.01)))
            .expect("fast");
        let reference = build()
            .transient(
                &TranOptions::new(nanos(10.0), nanos(0.01))
                    .with_strategy(SolverStrategy::AlwaysRestamp),
            )
            .expect("reference");
        assert_eq!(fast, reference, "waveforms must be bit-identical");
    }

    /// A distributed RC bit-line: `segments` × (series R, shunt C) driven
    /// by a pulsed read current, terminated in a cell resistance. The
    /// canonical banded-backend workload.
    fn ladder_circuit(segments: usize) -> (Circuit, Node, CurrentSourceId) {
        let mut circuit = Circuit::new();
        let near = circuit.node("bl_near");
        let driver = circuit.current_source(
            near,
            Node::GROUND,
            Waveform::pulse(0.0, 50e-6, nanos(1.0), nanos(0.2), nanos(0.2), nanos(20.0)),
        );
        let mut previous = near;
        for segment in 0..segments {
            let node = circuit.node(&format!("bl_{segment}"));
            circuit.resistor(previous, node, Ohms::new(640.0 / segments as f64));
            circuit.capacitor(node, Node::GROUND, Farads::new(192e-15 / segments as f64));
            previous = node;
        }
        circuit.resistor(previous, Node::GROUND, Ohms::from_kilo(3.3));
        (circuit, previous, driver)
    }

    #[test]
    fn banded_backend_matches_dense_on_ladder() {
        let (circuit, far, _) = ladder_circuit(40);
        let options = TranOptions::new(nanos(25.0), nanos(0.05)).from_zero_state();
        let dense = circuit
            .transient(&options.clone().with_backend(SolverBackend::Dense))
            .expect("dense");
        let banded = circuit
            .transient(&options.with_backend(SolverBackend::Banded))
            .expect("banded");
        assert!(!dense.telemetry().banded);
        assert!(banded.telemetry().banded);
        assert_eq!(dense.times(), banded.times());
        for (d, b) in dense.voltage(far).iter().zip(banded.voltage(far)) {
            assert!(
                (d - b).abs() <= 1e-9 * d.abs().max(1e-3),
                "dense {d} vs banded {b}"
            );
        }
    }

    #[test]
    fn auto_backend_picks_banded_for_ladders_and_dense_for_small_cells() {
        let (ladder, _, _) = ladder_circuit(64);
        let options = TranOptions::new(nanos(5.0), nanos(0.1)).from_zero_state();
        let result = ladder.transient(&options).expect("ladder");
        let telemetry = result.telemetry();
        assert!(telemetry.banded, "64-segment ladder must go banded");
        assert!(telemetry.reordered_bandwidth * 8 <= telemetry.dim);
        // The cached-LU strategy still amortises: one DC key + one
        // transient key + the pulse corners land on the same h.
        assert!(
            telemetry.factorizations <= 4,
            "expected few factorizations, got {}",
            telemetry.factorizations
        );

        let mut small = Circuit::new();
        let a = small.node("a");
        small.current_source(a, Node::GROUND, Waveform::Dc(1e-6));
        small.resistor(a, Node::GROUND, Ohms::from_kilo(1.0));
        small.capacitor(a, Node::GROUND, Farads::from_femto(10.0));
        let result = small.transient(&options).expect("small");
        assert!(!result.telemetry().banded, "tiny systems stay dense");
    }

    #[test]
    fn banded_backend_handles_nonlinear_circuits() {
        // Newton iterations restamp into the banded store each pass; the
        // ladder termination here is a MOSFET so the matrix is
        // iterate-dependent.
        let build = |backend| {
            let mut circuit = Circuit::new();
            let gate = circuit.node("gate");
            circuit.voltage_source(gate, Node::GROUND, Waveform::Dc(1.2));
            let near = circuit.node("near");
            circuit.current_source(near, Node::GROUND, Waveform::Dc(20e-6));
            let mut previous = near;
            for segment in 0..30 {
                let node = circuit.node(&format!("n{segment}"));
                circuit.resistor(previous, node, Ohms::new(20.0));
                previous = node;
            }
            let params = MosfetParams::with_on_resistance(Ohms::new(917.0), 1.2, 0.4);
            circuit.mosfet(previous, gate, Node::GROUND, params);
            let op = circuit.dc_operating_point(Seconds::ZERO).expect("newton");
            (
                op.voltage(near),
                circuit
                    .workspace(SolverStrategy::CachedLu, backend)
                    .telemetry
                    .banded,
            )
        };
        let (v_dense, dense_banded) = build(SolverBackend::Dense);
        let (v_banded, banded_banded) = build(SolverBackend::Banded);
        assert!(!dense_banded);
        assert!(banded_banded);
        // dc_operating_point itself uses Auto; spot-check the two builds
        // agree regardless.
        assert!((v_dense - v_banded).abs() < 1e-12);
    }

    #[test]
    fn transient_batch_matches_sequential_bit_for_bit() {
        let (circuit, far, driver) = ladder_circuit(12);
        let options = TranOptions::new(nanos(25.0), nanos(0.05)).from_zero_state();
        let scales = [0.8, 1.0, 1.25];
        let base = Waveform::pulse(0.0, 50e-6, nanos(1.0), nanos(0.2), nanos(0.2), nanos(20.0));
        let members: Vec<BatchMember> = scales
            .iter()
            .map(|&s| BatchMember::new().current_wave(driver, base.scaled(s)))
            .collect();
        let batch = circuit
            .transient_batch(&options, &members, &[far])
            .expect("batch");
        for (m, &s) in scales.iter().enumerate() {
            let (mut sequential, _, seq_driver) = ladder_circuit(12);
            sequential.set_current_source_wave(seq_driver, base.scaled(s));
            let reference = sequential.transient(&options).expect("sequential");
            let batch_trace = batch.voltage(m, far);
            assert_eq!(batch.times(), reference.times());
            for (step, (&b, &r)) in batch_trace.iter().zip(reference.voltage(far)).enumerate() {
                assert_eq!(b, r, "member {m} step {step} diverged");
            }
        }
    }

    #[test]
    fn transient_batch_amortizes_factorizations() {
        let (circuit, far, driver) = ladder_circuit(12);
        let options = TranOptions::new(nanos(25.0), nanos(0.05)).from_zero_state();
        let base = Waveform::pulse(0.0, 50e-6, nanos(1.0), nanos(0.2), nanos(0.2), nanos(20.0));
        let members: Vec<BatchMember> = (0..16)
            .map(|m| BatchMember::new().current_wave(driver, base.scaled(0.9 + 0.01 * m as f64)))
            .collect();
        let batch = circuit
            .transient_batch(&options, &members, &[far])
            .expect("batch");
        let single = circuit.transient(&options).expect("single");
        // The whole batch factors exactly as often as ONE sequential run —
        // k members amortize to a k× reduction.
        assert_eq!(
            batch.telemetry().factorizations,
            single.telemetry().factorizations
        );
        assert_eq!(
            batch.telemetry().solves,
            16 * single.telemetry().solves,
            "every member still back-substitutes each step"
        );
    }

    /// Each capacitor's voltage `v(a) − v(b)` in the solution `x`, in
    /// element order: the state the reference stores between steps.
    fn stored_cap_voltages(circuit: &Circuit, x: &[f64]) -> Vec<f64> {
        let voltage = |node: Node| Circuit::node_row(node).map_or(0.0, |row| x[row]);
        circuit
            .elements
            .iter()
            .filter_map(|element| match element {
                Element::Capacitor { a, b, .. } => Some(voltage(*a) - voltage(*b)),
                _ => None,
            })
            .collect()
    }

    /// The naive reference for the capacitor rule: a transient of a linear
    /// circuit that stores each capacitor's voltage after every step and
    /// stamps its history from that stored value, restamping the dense
    /// matrix and refactoring at every step. Same grid, step sizes and
    /// per-entry accumulation order as [`Circuit::transient`] on the dense
    /// backend.
    fn transient_stored_state(circuit: &Circuit, options: &TranOptions) -> TranResult {
        let grid = circuit.tran_grid(options).expect("valid options");
        let mut ws = circuit.workspace(SolverStrategy::AlwaysRestamp, SolverBackend::Dense);
        let mut solution = vec![0.0; circuit.dim()];
        if options.start_from_dc {
            circuit
                .solve_point_with(&mut ws, Seconds::ZERO, &solution, None)
                .expect("dc start");
            solution.copy_from_slice(&ws.x);
        }
        let mut stored = stored_cap_voltages(circuit, &solution);
        let nodes = circuit.node_count();
        let mut traces: Vec<Vec<f64>> = vec![Vec::new(); nodes];
        let record = |x: &[f64], traces: &mut Vec<Vec<f64>>| {
            traces[0].push(0.0);
            for index in 1..nodes {
                traces[index].push(x[index - 1]);
            }
        };
        record(&solution, &mut traces);
        for (t, h) in tran_steps(&grid, options.dt.get()) {
            let MatrixStore::Dense { work, .. } = &mut ws.store else {
                unreachable!("the dense backend was forced")
            };
            work.clear();
            circuit.stamp_static(work);
            let rhs = &mut ws.rhs;
            rhs.fill(0.0);
            let mut stored_v = stored.iter();
            for element in &circuit.elements {
                match element {
                    Element::Resistor { .. } | Element::Vcvs { .. } => {}
                    Element::Switch {
                        a,
                        b,
                        r_on,
                        r_off,
                        schedule,
                    } => {
                        let resistance = if schedule.state_at(t) { *r_on } else { *r_off };
                        stamp_conductance(work, *a, *b, 1.0 / resistance);
                    }
                    Element::Capacitor { a, b, farads } => {
                        let g = farads / h;
                        let v = stored_v.next().expect("one stored voltage per capacitor");
                        stamp_conductance(work, *a, *b, g);
                        stamp_current_into(rhs, *a, *b, g * v);
                    }
                    Element::VoltageSource { wave, branch, .. } => {
                        rhs[circuit.branch_row(*branch)] += wave.value_at(t);
                    }
                    Element::CurrentSource { pos, neg, wave } => {
                        stamp_current_into(rhs, *pos, *neg, wave.value_at(t));
                    }
                    Element::Mosfet { .. } | Element::Nonlinear { .. } => {
                        unreachable!("the reference integrates linear circuits")
                    }
                }
            }
            ws.store.refactor().expect("nonsingular step");
            ws.store
                .solve(&ws.rhs, &mut ws.x)
                .expect("nonsingular step");
            solution.copy_from_slice(&ws.x);
            stored = stored_cap_voltages(circuit, &solution);
            record(&solution, &mut traces);
        }
        TranResult {
            times: grid,
            traces,
            telemetry: ws.telemetry,
        }
    }

    /// A linear read circuit with every kind of capacitor: grounded caps
    /// declared either end first, a floating cap across a ladder segment,
    /// and a switched hold cap. A supply rail through a resistor and a VCVS buffer gives
    /// the system both kinds of branch row, and the switch events make the
    /// grid's step sizes (and so each step's companion conductances) vary.
    fn mixed_cap_circuit() -> (Circuit, CurrentSourceId, Vec<Node>) {
        let mut circuit = Circuit::new();
        let bl = circuit.node("bl");
        let mid = circuit.node("mid");
        let far = circuit.node("far");
        let hold = circuit.node("hold");
        let rail = circuit.node("rail");
        let amp = circuit.node("amp");
        let driver = circuit.current_source(
            bl,
            Node::GROUND,
            Waveform::pulse(0.0, 80e-6, nanos(0.3), nanos(0.1), nanos(0.1), nanos(2.0)),
        );
        circuit.resistor(bl, mid, Ohms::new(60.0));
        circuit.capacitor(mid, Node::GROUND, Farads::from_femto(8.0));
        circuit.resistor(mid, far, Ohms::new(90.0));
        circuit.capacitor(Node::GROUND, far, Farads::from_femto(12.0));
        circuit.capacitor(bl, far, Farads::from_femto(3.0));
        circuit.resistor(far, Node::GROUND, Ohms::from_kilo(3.0));
        circuit.switch(
            far,
            hold,
            Ohms::new(250.0),
            Ohms::from_mega(1_000.0),
            SwitchSchedule::closed_during(nanos(1.13), nanos(2.37)),
        );
        circuit.capacitor(hold, Node::GROUND, Farads::from_femto(30.0));
        circuit.voltage_source(rail, Node::GROUND, Waveform::Dc(0.9));
        circuit.vcvs(amp, Node::GROUND, rail, Node::GROUND, 0.5);
        circuit.resistor(amp, hold, Ohms::from_mega(5.0));
        (circuit, driver, vec![bl, mid, far, hold, amp])
    }

    fn assert_bits_equal(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: sample count");
        for (step, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: step {step} ({g} vs {w})");
        }
    }

    #[test]
    fn derived_capacitor_voltages_match_the_stored_state_reference() {
        let scales = [1.0, 0.7, 1.3];
        for from_zero in [false, true] {
            for dt in [0.05, 0.023] {
                let case = format!("zero {from_zero}, dt {dt}");
                let mut options =
                    TranOptions::new(nanos(3.0), nanos(dt)).with_backend(SolverBackend::Dense);
                if from_zero {
                    options = options.from_zero_state();
                }
                let (circuit, driver, probes) = mixed_cap_circuit();
                let base =
                    Waveform::pulse(0.0, 80e-6, nanos(0.3), nanos(0.1), nanos(0.1), nanos(2.0));
                let members: Vec<BatchMember> = scales
                    .iter()
                    .map(|&s| BatchMember::new().current_wave(driver, base.scaled(s)))
                    .collect();
                let batch = circuit
                    .transient_batch(&options, &members, &probes)
                    .expect("batch");
                for (m, &s) in scales.iter().enumerate() {
                    let mut member = circuit.clone();
                    member.set_current_source_wave(driver, base.scaled(s));
                    let reference = transient_stored_state(&member, &options);
                    for strategy in [SolverStrategy::CachedLu, SolverStrategy::AlwaysRestamp] {
                        let run = member
                            .transient(&options.clone().with_strategy(strategy))
                            .expect("transient");
                        assert_eq!(run.times(), reference.times(), "{case}: grid");
                        for &probe in &probes {
                            let what = format!("{case}, member {m}, {strategy:?}, {probe:?}");
                            assert_bits_equal(run.voltage(probe), reference.voltage(probe), &what);
                        }
                    }
                    assert_eq!(batch.times(), reference.times(), "{case}: batch grid");
                    for &probe in &probes {
                        let what = format!("{case}, batch member {m}, {probe:?}");
                        assert_bits_equal(
                            &batch.voltage(m, probe),
                            reference.voltage(probe),
                            &what,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transient_batch_rejects_bad_inputs() {
        let (circuit, far, _driver) = ladder_circuit(4);
        let options = TranOptions::new(nanos(5.0), nanos(0.1)).from_zero_state();
        let err = circuit
            .transient_batch(&options, &[], &[far])
            .expect_err("empty batch");
        assert!(err.to_string().contains("at least one member"));

        // Foreign current-source id (out of range for this circuit).
        let (other, _, _) = ladder_circuit(4);
        let bogus = CurrentSourceId(7);
        let member = BatchMember::new().current_wave(bogus, Waveform::Dc(1e-6));
        let err = other
            .transient_batch(&options, &[member], &[far])
            .expect_err("foreign id");
        assert!(err.to_string().contains("current source id"));

        // Nonlinear circuits are rejected.
        let mut nonlinear = Circuit::new();
        let a = nonlinear.node("a");
        let g = nonlinear.node("g");
        nonlinear.voltage_source(g, Node::GROUND, Waveform::Dc(1.0));
        nonlinear.current_source(a, Node::GROUND, Waveform::Dc(1e-6));
        nonlinear.mosfet(a, g, Node::GROUND, MosfetParams::new(0.4, 1e-3, 0.0));
        let err = nonlinear
            .transient_batch(&options, &[BatchMember::new()], &[a])
            .expect_err("nonlinear");
        assert!(err.to_string().contains("linear circuit"));
    }

    #[test]
    fn error_display_formats() {
        let singular = AnalysisError::Singular {
            source: crate::matrix::SingularMatrixError { column: 2 },
            time: nanos(1.0),
        };
        assert!(singular.to_string().contains("singular"));
        assert!(std::error::Error::source(&singular).is_some());
        let non_convergent = AnalysisError::NonConvergent {
            time: nanos(2.0),
            residual: 0.1,
        };
        assert!(non_convergent.to_string().contains("converge"));
        assert!(std::error::Error::source(&non_convergent).is_none());
    }
}
