//! Circuit description: nodes, elements and the netlist builder.
//!
//! A [`Circuit`] is built imperatively — create nodes, then connect elements
//! between them — mirroring how the paper's Fig. 3/5 sensing circuits are
//! drawn: bit-line, sample capacitors, switch transistors, the voltage
//! divider, the 1T1J cell.

use std::fmt;
use std::sync::Arc;

use stt_units::{Farads, Ohms, Seconds};

use crate::waveform::Waveform;

/// A circuit node. `Node::GROUND` is the reference (0 V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(pub(crate) usize);

impl Node {
    /// The ground / reference node.
    pub const GROUND: Node = Node(0);

    /// The internal index of this node (0 = ground).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// `true` for the ground node.
    #[must_use]
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ground() {
            write!(f, "gnd")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// Identifier of a voltage source (indexes its MNA branch current).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceId(pub(crate) usize);

/// Identifier of an independent current source (creation order), usable to
/// override its waveform per member in
/// [`Circuit::transient_batch`](crate::Circuit::transient_batch) or to
/// rewrite it in place with [`Circuit::set_current_source_wave`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CurrentSourceId(pub(crate) usize);

/// A two-terminal nonlinear device law: `I(V)` and its derivative.
///
/// Implemented by the sensing crate to drop MTJ bias-dependent resistance
/// into a netlist. Laws must be odd-symmetric (`I(−V) = −I(V)`) if the
/// element can see either polarity, and `conductance` must return `dI/dV`
/// consistent with `current` for Newton convergence.
pub trait DeviceLaw: Send + Sync + fmt::Debug {
    /// Device current for a terminal voltage `v` (volts → amperes).
    fn current(&self, v: f64) -> f64;
    /// Differential conductance `dI/dV` at `v` (siemens).
    fn conductance(&self, v: f64) -> f64;
}

/// Level-1 (square-law) NMOS parameters.
///
/// Sufficient for the access and switch transistors here: the paper operates
/// them deep in the linear region, and what matters to the sensing analysis
/// is the on-resistance and its slight current dependence (`ΔR_T`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetParams {
    /// Threshold voltage (V).
    pub vt: f64,
    /// Transconductance factor `k = µ·Cox·W/L` (A/V²).
    pub k: f64,
    /// Channel-length modulation (1/V); 0 disables it.
    pub lambda: f64,
}

impl MosfetParams {
    /// Creates level-1 parameters.
    ///
    /// # Panics
    ///
    /// Panics if `k` is non-positive or `lambda` negative.
    #[must_use]
    pub fn new(vt: f64, k: f64, lambda: f64) -> Self {
        assert!(k > 0.0, "transconductance factor must be positive");
        assert!(
            lambda >= 0.0,
            "channel-length modulation must be non-negative"
        );
        Self { vt, k, lambda }
    }

    /// Parameters tuned so that with `vgs` on the gate the device shows the
    /// requested linear-region on-resistance at small `vds`.
    ///
    /// In deep triode `R_on ≈ 1 / (k · (V_GS − V_T))`, so
    /// `k = 1 / (R_on · (V_GS − V_T))`.
    ///
    /// # Panics
    ///
    /// Panics if `vgs <= vt` or `r_on` is non-positive.
    #[must_use]
    pub fn with_on_resistance(r_on: Ohms, vgs: f64, vt: f64) -> Self {
        assert!(r_on.get() > 0.0, "on-resistance must be positive");
        assert!(vgs > vt, "gate drive must exceed threshold");
        Self::new(vt, 1.0 / (r_on.get() * (vgs - vt)), 0.0)
    }
}

/// A time-scheduled ideal switch state: `true` = closed (on).
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchSchedule {
    initial: bool,
    /// `(time, state)` events, strictly ascending in time.
    events: Vec<(Seconds, bool)>,
}

impl SwitchSchedule {
    /// A switch with an initial state and a list of `(time, state)` events.
    ///
    /// # Panics
    ///
    /// Panics if event times are not strictly ascending.
    #[must_use]
    pub fn new(initial: bool, events: Vec<(Seconds, bool)>) -> Self {
        for pair in events.windows(2) {
            assert!(
                pair[1].0 > pair[0].0,
                "switch event times must be strictly ascending"
            );
        }
        Self { initial, events }
    }

    /// A switch closed exactly during `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to`.
    #[must_use]
    pub fn closed_during(from: Seconds, to: Seconds) -> Self {
        assert!(from < to, "window must be non-empty");
        Self::new(false, vec![(from, true), (to, false)])
    }

    /// The switch state at time `t`.
    #[must_use]
    pub fn state_at(&self, t: Seconds) -> bool {
        let applied = self.events.partition_point(|(time, _)| *time <= t);
        if applied == 0 {
            self.initial
        } else {
            self.events[applied - 1].1
        }
    }

    /// The event times at which the state changes (used by the transient
    /// engine to align time steps with switching instants).
    fn event_times(&self) -> Vec<Seconds> {
        self.events.iter().map(|(time, _)| *time).collect()
    }
}

/// One netlist element.
#[derive(Debug, Clone)]
pub(crate) enum Element {
    Resistor {
        a: Node,
        b: Node,
        ohms: f64,
    },
    Capacitor {
        a: Node,
        b: Node,
        farads: f64,
        /// Forced initial voltage `v(a) − v(b)` at `t = 0`, overriding
        /// whatever the chosen initial-state policy would produce.
        ic: Option<f64>,
    },
    VoltageSource {
        pos: Node,
        neg: Node,
        wave: Waveform,
        branch: usize,
    },
    CurrentSource {
        /// Current `wave` is injected *into* `pos` (returned from `neg`).
        pos: Node,
        neg: Node,
        wave: Waveform,
    },
    Switch {
        a: Node,
        b: Node,
        r_on: f64,
        r_off: f64,
        schedule: SwitchSchedule,
    },
    Mosfet {
        drain: Node,
        gate: Node,
        source: Node,
        params: MosfetParams,
    },
    Nonlinear {
        a: Node,
        b: Node,
        law: Arc<dyn DeviceLaw>,
    },
    Vcvs {
        out_pos: Node,
        out_neg: Node,
        in_pos: Node,
        in_neg: Node,
        gain: f64,
        branch: usize,
    },
}

/// A netlist under construction (and the input to the analyses).
///
/// # Examples
///
/// A resistive divider from a 1 V supply:
///
/// ```
/// use stt_mna::{Circuit, Node, Waveform};
/// use stt_units::{Ohms, Seconds};
///
/// let mut circuit = Circuit::new();
/// let top = circuit.node("top");
/// let mid = circuit.node("mid");
/// circuit.voltage_source(top, Node::GROUND, Waveform::Dc(1.0));
/// circuit.resistor(top, mid, Ohms::from_kilo(1.0));
/// circuit.resistor(mid, Node::GROUND, Ohms::from_kilo(1.0));
/// let op = circuit.dc_operating_point(Seconds::ZERO).expect("solvable");
/// assert!((op.voltage(mid) - 0.5).abs() < 1e-9);
/// ```
#[derive(Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    pub(crate) elements: Vec<Element>,
    pub(crate) vsource_count: usize,
    pub(crate) isource_count: usize,
}

impl fmt::Debug for Circuit {
    /// Includes the system dimension and the pre/post-RCM matrix bandwidth,
    /// so sweep logs show at a glance why the engine picked a backend.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Circuit")
            .field("nodes", &self.node_count())
            .field("elements", &self.elements.len())
            .field("vsources", &self.vsource_count)
            .field("isources", &self.isource_count)
            .field("bandwidth", &self.bandwidth_report())
            .finish()
    }
}

impl Circuit {
    /// Creates an empty circuit (ground pre-exists).
    #[must_use]
    pub fn new() -> Self {
        Self {
            node_names: vec!["gnd".to_string()],
            elements: Vec::new(),
            vsource_count: 0,
            isource_count: 0,
        }
    }

    /// Creates a named node and returns its handle.
    pub fn node(&mut self, name: &str) -> Node {
        self.node_names.push(name.to_string());
        Node(self.node_names.len() - 1)
    }

    /// Number of nodes, including ground.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Looks a node up by name.
    #[must_use]
    pub fn find_node(&self, name: &str) -> Option<Node> {
        self.node_names
            .iter()
            .position(|candidate| candidate == name)
            .map(Node)
    }

    fn check_node(&self, node: Node) {
        assert!(
            node.0 < self.node_names.len(),
            "node {node} does not belong to this circuit"
        );
    }

    /// Adds a resistor between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if the resistance is non-positive or a node is foreign.
    pub fn resistor(&mut self, a: Node, b: Node, ohms: Ohms) {
        self.check_node(a);
        self.check_node(b);
        assert!(ohms.get() > 0.0, "resistance must be positive");
        self.elements.push(Element::Resistor {
            a,
            b,
            ohms: ohms.get(),
        });
    }

    /// Adds a capacitor between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if the capacitance is non-positive or a node is foreign.
    pub fn capacitor(&mut self, a: Node, b: Node, farads: Farads) {
        self.check_node(a);
        self.check_node(b);
        assert!(farads.get() > 0.0, "capacitance must be positive");
        self.elements.push(Element::Capacitor {
            a,
            b,
            farads: farads.get(),
            ic: None,
        });
    }

    /// Adds a capacitor with a forced initial voltage `v(a) − v(b)` at
    /// `t = 0` (like SPICE's `.IC` with `UIC`): the transient starts from
    /// this capacitor state regardless of the initial-state policy. Used to
    /// chain multi-phase analyses — e.g. carrying the sampled `V_BL1` on C1
    /// into the second phase of a destructive self-reference read.
    ///
    /// # Panics
    ///
    /// Panics if the capacitance is non-positive or a node is foreign.
    pub fn capacitor_with_ic(&mut self, a: Node, b: Node, farads: Farads, ic: f64) {
        self.check_node(a);
        self.check_node(b);
        assert!(farads.get() > 0.0, "capacitance must be positive");
        self.elements.push(Element::Capacitor {
            a,
            b,
            farads: farads.get(),
            ic: Some(ic),
        });
    }

    /// Adds an independent voltage source; `wave` is in volts.
    ///
    /// Returns the source's id, usable to read its branch current from
    /// analysis results.
    pub fn voltage_source(&mut self, pos: Node, neg: Node, wave: Waveform) -> SourceId {
        self.check_node(pos);
        self.check_node(neg);
        let branch = self.vsource_count;
        self.vsource_count += 1;
        self.elements.push(Element::VoltageSource {
            pos,
            neg,
            wave,
            branch,
        });
        SourceId(branch)
    }

    /// Adds an independent current source; `wave` (amperes) is injected into
    /// `pos` and returned from `neg`.
    ///
    /// Returns the source's id, usable to override the waveform per member
    /// in [`Circuit::transient_batch`](crate::Circuit::transient_batch).
    pub fn current_source(&mut self, pos: Node, neg: Node, wave: Waveform) -> CurrentSourceId {
        self.check_node(pos);
        self.check_node(neg);
        let id = CurrentSourceId(self.isource_count);
        self.isource_count += 1;
        self.elements
            .push(Element::CurrentSource { pos, neg, wave });
        id
    }

    /// Replaces the waveform of current source `id` in place — the cheap way
    /// to run many variations of one netlist without rebuilding it.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this circuit.
    pub fn set_current_source_wave(&mut self, id: CurrentSourceId, wave: Waveform) {
        let mut index = 0;
        for element in &mut self.elements {
            if let Element::CurrentSource { wave: slot, .. } = element {
                if index == id.0 {
                    *slot = wave;
                    return;
                }
                index += 1;
            }
        }
        panic!("current source id does not belong to this circuit");
    }

    /// Replaces the waveform of voltage source `id` in place.
    ///
    /// # Panics
    ///
    /// Panics if the id does not name an independent voltage source of this
    /// circuit (VCVS branches share the id space but have no waveform).
    pub fn set_voltage_source_wave(&mut self, id: SourceId, wave: Waveform) {
        for element in &mut self.elements {
            if let Element::VoltageSource {
                branch, wave: slot, ..
            } = element
            {
                if *branch == id.0 {
                    *slot = wave;
                    return;
                }
            }
        }
        panic!("source id does not name an independent voltage source of this circuit");
    }

    /// Adds a scheduled ideal switch with the given on/off resistances.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < r_on < r_off`.
    pub fn switch(&mut self, a: Node, b: Node, r_on: Ohms, r_off: Ohms, schedule: SwitchSchedule) {
        self.check_node(a);
        self.check_node(b);
        assert!(
            r_on.get() > 0.0 && r_on < r_off,
            "switch needs 0 < r_on < r_off"
        );
        self.elements.push(Element::Switch {
            a,
            b,
            r_on: r_on.get(),
            r_off: r_off.get(),
            schedule,
        });
    }

    /// Adds a level-1 NMOS transistor.
    pub fn mosfet(&mut self, drain: Node, gate: Node, source: Node, params: MosfetParams) {
        self.check_node(drain);
        self.check_node(gate);
        self.check_node(source);
        self.elements.push(Element::Mosfet {
            drain,
            gate,
            source,
            params,
        });
    }

    /// Adds a two-terminal nonlinear device obeying `law`, with current
    /// flowing `a → b` for positive terminal voltage `v_a − v_b`.
    pub fn nonlinear(&mut self, a: Node, b: Node, law: Arc<dyn DeviceLaw>) {
        self.check_node(a);
        self.check_node(b);
        self.elements.push(Element::Nonlinear { a, b, law });
    }

    /// Adds a voltage-controlled voltage source (an ideal differential
    /// amplifier): `v(out_pos) − v(out_neg) = gain · (v(in_pos) − v(in_neg))`.
    ///
    /// The control inputs draw no current. Returns the id of the output
    /// branch (its current is readable from analysis results like a voltage
    /// source's).
    ///
    /// # Panics
    ///
    /// Panics if `gain` is not finite or any node is foreign.
    pub fn vcvs(
        &mut self,
        out_pos: Node,
        out_neg: Node,
        in_pos: Node,
        in_neg: Node,
        gain: f64,
    ) -> SourceId {
        self.check_node(out_pos);
        self.check_node(out_neg);
        self.check_node(in_pos);
        self.check_node(in_neg);
        assert!(gain.is_finite(), "VCVS gain must be finite");
        let branch = self.vsource_count;
        self.vsource_count += 1;
        self.elements.push(Element::Vcvs {
            out_pos,
            out_neg,
            in_pos,
            in_neg,
            gain,
            branch,
        });
        SourceId(branch)
    }

    /// All switch event times, sorted and deduplicated — the transient
    /// engine aligns its step grid to these.
    #[must_use]
    pub fn switch_event_times(&self) -> Vec<Seconds> {
        let mut times: Vec<Seconds> = self
            .elements
            .iter()
            .filter_map(|element| match element {
                Element::Switch { schedule, .. } => Some(schedule.event_times()),
                _ => None,
            })
            .flatten()
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("switch times are finite"));
        times.dedup();
        times
    }

    /// Symmetrised adjacency of the MNA system rows (non-ground node rows
    /// followed by one branch row per voltage source/VCVS): row `i` and row
    /// `j` are adjacent when any element stamps entry `(i, j)` or `(j, i)`.
    /// Neighbour lists are sorted and deduplicated, so the reverse
    /// Cuthill–McKee pass over them is deterministic.
    pub(crate) fn system_adjacency(&self) -> Vec<Vec<usize>> {
        let dim = (self.node_count() - 1) + self.vsource_count;
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); dim];
        let row_of = |node: Node| -> Option<usize> {
            if node.is_ground() {
                None
            } else {
                Some(node.index() - 1)
            }
        };
        let branch_base = self.node_count() - 1;
        let connect = |adjacency: &mut Vec<Vec<usize>>, a: Option<usize>, b: Option<usize>| {
            if let (Some(a), Some(b)) = (a, b) {
                if a != b {
                    adjacency[a].push(b);
                    adjacency[b].push(a);
                }
            }
        };
        for element in &self.elements {
            match element {
                Element::Resistor { a, b, .. }
                | Element::Capacitor { a, b, .. }
                | Element::Switch { a, b, .. }
                | Element::Nonlinear { a, b, .. } => {
                    connect(&mut adjacency, row_of(*a), row_of(*b));
                }
                // Current sources only touch the RHS.
                Element::CurrentSource { .. } => {}
                Element::VoltageSource {
                    pos, neg, branch, ..
                } => {
                    let branch_row = Some(branch_base + branch);
                    connect(&mut adjacency, row_of(*pos), branch_row);
                    connect(&mut adjacency, row_of(*neg), branch_row);
                }
                Element::Mosfet {
                    drain,
                    gate,
                    source,
                    ..
                } => {
                    connect(&mut adjacency, row_of(*drain), row_of(*gate));
                    connect(&mut adjacency, row_of(*drain), row_of(*source));
                    connect(&mut adjacency, row_of(*source), row_of(*gate));
                }
                Element::Vcvs {
                    out_pos,
                    out_neg,
                    in_pos,
                    in_neg,
                    branch,
                    ..
                } => {
                    let branch_row = Some(branch_base + branch);
                    connect(&mut adjacency, row_of(*out_pos), branch_row);
                    connect(&mut adjacency, row_of(*out_neg), branch_row);
                    connect(&mut adjacency, row_of(*in_pos), branch_row);
                    connect(&mut adjacency, row_of(*in_neg), branch_row);
                }
            }
        }
        for neighbours in &mut adjacency {
            neighbours.sort_unstable();
            neighbours.dedup();
        }
        adjacency
    }

    /// Reverse Cuthill–McKee ordering of the system-row graph: a BFS from a
    /// minimum-degree start vertex per component, visiting neighbours in
    /// ascending degree, then reversed. Returns `order` with
    /// `order[new_row] = old_row`; on bit-line ladders this collapses the
    /// bandwidth to a small constant, which is what makes the banded
    /// backend's O(n·b) solves possible.
    pub(crate) fn rcm_order(adjacency: &[Vec<usize>]) -> Vec<usize> {
        let n = adjacency.len();
        let mut order = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        let mut neighbours = Vec::new();
        while let Some(start) = (0..n)
            .filter(|&v| !visited[v])
            .min_by_key(|&v| (adjacency[v].len(), v))
        {
            visited[start] = true;
            queue.push_back(start);
            while let Some(vertex) = queue.pop_front() {
                order.push(vertex);
                neighbours.clear();
                neighbours.extend(adjacency[vertex].iter().copied().filter(|&u| !visited[u]));
                neighbours.sort_by_key(|&u| (adjacency[u].len(), u));
                for &u in &neighbours {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
        order.reverse();
        order
    }

    /// Bandwidth of the adjacency under `inverse` (`inverse[old] = new`):
    /// the largest `|new(i) − new(j)|` over stamped pairs.
    pub(crate) fn bandwidth_under(adjacency: &[Vec<usize>], inverse: &[usize]) -> usize {
        let mut bandwidth = 0usize;
        for (vertex, neighbours) in adjacency.iter().enumerate() {
            for &other in neighbours {
                bandwidth = bandwidth.max(inverse[vertex].abs_diff(inverse[other]));
            }
        }
        bandwidth
    }

    /// Matrix bandwidth of this circuit's MNA system, before and after the
    /// reverse Cuthill–McKee reordering — the telemetry behind
    /// [`SolverBackend::Auto`](crate::SolverBackend)'s backend choice, and
    /// part of the circuit's `Debug` output.
    #[must_use]
    fn bandwidth_report(&self) -> BandwidthReport {
        let adjacency = self.system_adjacency();
        let dim = adjacency.len();
        if dim == 0 {
            return BandwidthReport {
                dim: 0,
                natural: 0,
                reordered: 0,
            };
        }
        let identity: Vec<usize> = (0..dim).collect();
        let natural = Self::bandwidth_under(&adjacency, &identity);
        let order = Self::rcm_order(&adjacency);
        let mut inverse = vec![0usize; dim];
        for (new_row, &old_row) in order.iter().enumerate() {
            inverse[old_row] = new_row;
        }
        let reordered = Self::bandwidth_under(&adjacency, &inverse);
        BandwidthReport {
            dim,
            natural,
            reordered,
        }
    }
}

/// Matrix bandwidth of a circuit's MNA system before and after reverse
/// Cuthill–McKee reordering (see `Circuit::bandwidth_report`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BandwidthReport {
    /// System dimension (non-ground nodes + source branches).
    pub dim: usize,
    /// Bandwidth in netlist construction order.
    pub natural: usize,
    /// Bandwidth under the RCM ordering (never used if worse than natural).
    pub reordered: usize,
}

impl fmt::Display for BandwidthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dim {}, bandwidth {} natural / {} after RCM",
            self.dim, self.natural, self.reordered
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nanos(t: f64) -> Seconds {
        Seconds::from_nano(t)
    }

    #[test]
    fn nodes_are_named_and_findable() {
        let mut circuit = Circuit::new();
        let bl = circuit.node("bl");
        let c1 = circuit.node("c1_top");
        assert_eq!(circuit.node_count(), 3);
        assert_eq!(circuit.find_node("bl"), Some(bl));
        assert_eq!(circuit.find_node("c1_top"), Some(c1));
        assert_eq!(circuit.find_node("gnd"), Some(Node::GROUND));
        assert_eq!(circuit.find_node("missing"), None);
        assert_eq!(format!("{bl}"), "n1");
        assert_eq!(format!("{}", Node::GROUND), "gnd");
    }

    #[test]
    fn switch_schedule_state_transitions() {
        let schedule = SwitchSchedule::new(
            false,
            vec![(nanos(2.0), true), (nanos(5.0), false), (nanos(7.0), true)],
        );
        assert!(!schedule.state_at(nanos(0.0)));
        assert!(!schedule.state_at(nanos(1.999)));
        assert!(schedule.state_at(nanos(2.0)));
        assert!(schedule.state_at(nanos(4.9)));
        assert!(!schedule.state_at(nanos(5.0)));
        assert!(schedule.state_at(nanos(100.0)));
        assert_eq!(schedule.event_times().len(), 3);
    }

    #[test]
    fn closed_during_window() {
        let schedule = SwitchSchedule::closed_during(nanos(1.0), nanos(3.0));
        assert!(!schedule.state_at(nanos(0.5)));
        assert!(schedule.state_at(nanos(2.0)));
        assert!(!schedule.state_at(nanos(3.5)));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn schedule_rejects_out_of_order_events() {
        let _ = SwitchSchedule::new(false, vec![(nanos(5.0), true), (nanos(2.0), false)]);
    }

    #[test]
    fn on_resistance_parameterisation() {
        // R_on = 917 Ω at Vgs = 1.2 V, Vt = 0.4 V ⇒ k = 1/(917·0.8).
        let params = MosfetParams::with_on_resistance(Ohms::new(917.0), 1.2, 0.4);
        assert!((params.k - 1.0 / (917.0 * 0.8)).abs() < 1e-15);
        assert_eq!(params.vt, 0.4);
    }

    #[test]
    fn event_times_collected_across_switches() {
        let mut circuit = Circuit::new();
        let a = circuit.node("a");
        let b = circuit.node("b");
        circuit.switch(
            a,
            b,
            Ohms::new(100.0),
            Ohms::from_mega(1.0),
            SwitchSchedule::closed_during(nanos(1.0), nanos(4.0)),
        );
        circuit.switch(
            a,
            Node::GROUND,
            Ohms::new(100.0),
            Ohms::from_mega(1.0),
            SwitchSchedule::closed_during(nanos(4.0), nanos(6.0)),
        );
        let times = circuit.switch_event_times();
        assert_eq!(
            times,
            vec![nanos(1.0), nanos(4.0), nanos(6.0)],
            "sorted and deduplicated"
        );
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn rejects_non_positive_resistor() {
        let mut circuit = Circuit::new();
        let a = circuit.node("a");
        circuit.resistor(a, Node::GROUND, Ohms::ZERO);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn rejects_foreign_node() {
        let mut donor = Circuit::new();
        let foreign = donor.node("a");
        let _ = donor.node("b");
        let mut circuit = Circuit::new();
        // `foreign` has index 1 which exists… but index 2 does not.
        let also_foreign = Node(2);
        circuit.resistor(foreign, also_foreign, Ohms::new(1.0));
    }

    /// A deliberately badly ordered ladder: far-end probe nodes created
    /// first, so the natural bandwidth spans the whole matrix.
    fn scrambled_ladder(segments: usize) -> Circuit {
        let mut circuit = Circuit::new();
        let probe = circuit.node("probe");
        let mut tap = circuit.node("drive");
        circuit.current_source(tap, Node::GROUND, crate::waveform::Waveform::Dc(1e-6));
        for k in 0..segments {
            let next = if k + 1 == segments {
                probe
            } else {
                circuit.node(&format!("seg{k}"))
            };
            circuit.resistor(tap, next, Ohms::new(10.0));
            circuit.capacitor(next, Node::GROUND, Farads::from_femto(5.0));
            tap = next;
        }
        circuit
    }

    #[test]
    fn rcm_collapses_ladder_bandwidth() {
        let report = scrambled_ladder(32).bandwidth_report();
        assert_eq!(report.dim, 33);
        // `probe` is node row 0 but sits at the far end of the chain.
        assert!(report.natural > 20, "natural bandwidth {report}");
        // A path graph reorders to bandwidth 1.
        assert_eq!(report.reordered, 1, "{report}");
        assert!(report.to_string().contains("after RCM"));
    }

    #[test]
    fn rcm_handles_disconnected_components_and_branch_rows() {
        let mut circuit = Circuit::new();
        let a = circuit.node("a");
        let b = circuit.node("b");
        let lone = circuit.node("lone");
        circuit.voltage_source(a, Node::GROUND, crate::waveform::Waveform::Dc(1.0));
        circuit.resistor(a, b, Ohms::new(100.0));
        circuit.resistor(lone, Node::GROUND, Ohms::new(100.0));
        let adjacency = circuit.system_adjacency();
        // Rows: a, b, lone, branch. Edges: a—b, a—branch.
        assert_eq!(adjacency.len(), 4);
        assert_eq!(adjacency[0], vec![1, 3]);
        assert!(adjacency[2].is_empty(), "lone node has no stamped pairs");
        let order = Circuit::rcm_order(&adjacency);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3], "a permutation of every row");
        let report = circuit.bandwidth_report();
        assert!(report.reordered <= report.natural.max(1));
    }

    #[test]
    fn empty_circuit_bandwidth_is_zero() {
        let report = Circuit::new().bandwidth_report();
        assert_eq!(report.dim, 0);
        assert_eq!(report.natural, 0);
        assert_eq!(report.reordered, 0);
    }

    #[test]
    fn debug_output_reports_bandwidth() {
        let circuit = scrambled_ladder(8);
        let debug = format!("{circuit:?}");
        assert!(debug.contains("bandwidth"), "{debug}");
        assert!(debug.contains("isources: 1"), "{debug}");
    }

    #[test]
    fn source_waveforms_can_be_rewritten_in_place() {
        use crate::waveform::Waveform;
        let mut circuit = Circuit::new();
        let a = circuit.node("a");
        let vsrc = circuit.voltage_source(a, Node::GROUND, Waveform::Dc(1.0));
        let b = circuit.node("b");
        let _first = circuit.current_source(b, Node::GROUND, Waveform::Dc(1e-6));
        let second = circuit.current_source(a, b, Waveform::Dc(2e-6));
        circuit.set_voltage_source_wave(vsrc, Waveform::Dc(2.5));
        circuit.set_current_source_wave(second, Waveform::Dc(9e-6));
        let waves: Vec<String> = circuit
            .elements
            .iter()
            .filter_map(|element| match element {
                Element::VoltageSource { wave, .. } | Element::CurrentSource { wave, .. } => {
                    Some(format!("{wave:?}"))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            waves,
            ["Dc(2.5)", "Dc(1e-6)", "Dc(9e-6)"],
            "first source untouched"
        );
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_current_source_id_panics() {
        use crate::waveform::Waveform;
        let mut circuit = Circuit::new();
        circuit.set_current_source_wave(CurrentSourceId(0), Waveform::Dc(1.0));
    }

    #[test]
    #[should_panic(expected = "independent voltage source")]
    fn vcvs_id_has_no_waveform() {
        use crate::waveform::Waveform;
        let mut circuit = Circuit::new();
        let a = circuit.node("a");
        let b = circuit.node("b");
        let amp = circuit.vcvs(b, Node::GROUND, a, Node::GROUND, 2.0);
        circuit.set_voltage_source_wave(amp, Waveform::Dc(1.0));
    }
}
