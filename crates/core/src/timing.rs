//! Read-sequencer timing: Fig. 9 control timelines and per-scheme
//! latency/energy roll-ups.
//!
//! The paper's Fig. 9 shows the nondestructive read's control signals: WL
//! selects the cell throughout, SLT1 closes for the first read (sampling
//! `V_BL1` onto C1), SLT2 closes for the second read (driving the divider),
//! `SenEn` fires the auto-zero SA, and `Data_latch` captures the output. The
//! whole operation completes "in about 15 ns" (Fig. 10). The destructive
//! baseline inserts an erase pulse before the second read and a write-back
//! after sensing, and its second read is slower because C2 loads the
//! bit-line (§V, the Elmore-delay argument).

use stt_array::{OperationCost, Phase, PhaseKind};
use stt_units::{Amps, Seconds, Volts};

use crate::design::DesignPoint;
use crate::scheme::SchemeKind;

/// Chip-level timing and supply parameters (TSMC 0.13 µm-class defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipTiming {
    /// Core supply.
    pub vdd: Volts,
    /// Row/column decode + word-line assertion.
    pub decode: Seconds,
    /// Settling window of a read phase (bit-line + sample node).
    pub read_settle: Seconds,
    /// Extra settling the destructive scheme's second read pays for the
    /// sample capacitor loading the bit-line (§V Elmore argument).
    pub destructive_read2_extra: Seconds,
    /// Programming pulse width.
    pub write_pulse: Seconds,
    /// Write-driver setup/recovery around each programming pulse.
    pub write_overhead: Seconds,
    /// Sense-amplifier evaluation.
    pub sense: Seconds,
    /// Output latch.
    pub latch: Seconds,
    /// Decoder/periphery current during decode.
    pub decode_current: Amps,
    /// Programming current drawn from the supply.
    pub write_current: Amps,
    /// SA + periphery current during sensing/latching.
    pub sense_current: Amps,
}

impl ChipTiming {
    /// The defaults used throughout the reproduction: 1.2 V supply, 1 ns
    /// decode, 5 ns read settling (+1 ns for the destructive second read),
    /// 4 ns writes with 1 ns driver overhead, 2 ns sense, 1 ns latch.
    ///
    /// # Examples
    ///
    /// ```
    /// use stt_sense::{ChipTiming, SchemeKind};
    /// use stt_array::CellSpec;
    /// use stt_sense::DesignPoint;
    ///
    /// let timing = ChipTiming::date2010();
    /// let cell = CellSpec::date2010_chip().nominal_cell();
    /// let design = DesignPoint::date2010(&cell);
    /// let read = timing.read_cost(SchemeKind::Nondestructive, &design);
    /// assert!((read.latency().get() - 14e-9).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn date2010() -> Self {
        Self {
            vdd: Volts::new(1.2),
            decode: Seconds::from_nano(1.0),
            read_settle: Seconds::from_nano(5.0),
            destructive_read2_extra: Seconds::from_nano(1.0),
            write_pulse: Seconds::from_nano(4.0),
            write_overhead: Seconds::from_nano(1.0),
            sense: Seconds::from_nano(2.0),
            latch: Seconds::from_nano(1.0),
            decode_current: Amps::from_micro(50.0),
            write_current: Amps::from_micro(600.0),
            sense_current: Amps::from_micro(20.0),
        }
    }

    /// The phase sequence (latency + energy) of one read under `kind`.
    #[must_use]
    pub fn read_cost(&self, kind: SchemeKind, design: &DesignPoint) -> OperationCost {
        let decode = Phase::new(
            PhaseKind::Decode,
            "decode + WL",
            self.decode,
            self.decode_current,
            self.vdd,
        );
        let sense = Phase::new(
            PhaseKind::Sense,
            "SenEn",
            self.sense,
            self.sense_current,
            self.vdd,
        );
        let latch = Phase::new(
            PhaseKind::Sense,
            "Data_latch",
            self.latch,
            self.sense_current,
            self.vdd,
        );
        let write = |label: &'static str| {
            Phase::new(
                PhaseKind::Write,
                label,
                self.write_pulse + self.write_overhead,
                self.write_current,
                self.vdd,
            )
        };
        match kind {
            SchemeKind::Conventional => OperationCost::new(vec![
                decode,
                Phase::new(
                    PhaseKind::Read,
                    "read (vs V_REF)",
                    self.read_settle,
                    design.conventional.i_read,
                    self.vdd,
                ),
                sense,
                latch,
            ]),
            SchemeKind::Destructive => OperationCost::new(vec![
                decode,
                Phase::new(
                    PhaseKind::Read,
                    "read1 (SLT1 on)",
                    self.read_settle,
                    design.destructive.i_r1,
                    self.vdd,
                ),
                write("erase (write 0)"),
                Phase::new(
                    PhaseKind::Read,
                    "read2 (SLT2 on, C2 loads BL)",
                    self.read_settle + self.destructive_read2_extra,
                    design.destructive.i_r2,
                    self.vdd,
                ),
                sense,
                latch,
                write("write back"),
            ]),
            SchemeKind::Nondestructive => OperationCost::new(vec![
                decode,
                Phase::new(
                    PhaseKind::Read,
                    "read1 (SLT1 on)",
                    self.read_settle,
                    design.nondestructive.i_r1,
                    self.vdd,
                ),
                Phase::new(
                    PhaseKind::Read,
                    "read2 (SLT2 on, divider)",
                    self.read_settle,
                    design.nondestructive.i_r2,
                    self.vdd,
                ),
                sense,
                latch,
            ]),
        }
    }

    /// The Fig. 9-style control timeline of one read under `kind`.
    #[must_use]
    pub fn timeline(&self, kind: SchemeKind) -> ControlTimeline {
        let cost = self.read_cost(
            kind,
            // Currents are irrelevant for the timeline; reuse any design.
            &placeholder_design(),
        );
        let mut t = Seconds::ZERO;
        let mut boundaries: Vec<(String, Seconds, Seconds)> = Vec::new();
        for phase in cost.phases() {
            let start = t;
            t += phase.duration;
            boundaries.push((phase.label.clone(), start, t));
        }
        let total = t;
        let window_of = |label_match: &str| -> Vec<(Seconds, Seconds)> {
            boundaries
                .iter()
                .filter(|(label, _, _)| label.contains(label_match))
                .map(|(_, start, end)| (*start, *end))
                .collect()
        };
        let mut signals = vec![ControlSignal {
            name: "WL".to_string(),
            // Word-line held for the whole operation after decode.
            windows: vec![(self.decode, total)],
        }];
        let read_windows = window_of("read");
        if let Some(&(start, end)) = read_windows.first() {
            signals.push(ControlSignal {
                name: "SLT1".to_string(),
                windows: vec![(start, end)],
            });
        }
        if let Some(&(start, end)) = read_windows.get(1) {
            signals.push(ControlSignal {
                name: "SLT2".to_string(),
                windows: vec![(start, end)],
            });
        }
        let write_windows = window_of("write back");
        let erase_windows = window_of("erase");
        let mut we: Vec<(Seconds, Seconds)> = erase_windows;
        we.extend(write_windows);
        if !we.is_empty() {
            we.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
            signals.push(ControlSignal {
                name: "WriteEn".to_string(),
                windows: we,
            });
        }
        signals.push(ControlSignal {
            name: "SenEn".to_string(),
            windows: window_of("SenEn"),
        });
        signals.push(ControlSignal {
            name: "Data_latch".to_string(),
            windows: window_of("Data_latch"),
        });
        ControlTimeline { total, signals }
    }
}

/// Dummy design used when only phase durations matter.
fn placeholder_design() -> DesignPoint {
    use crate::design::{ConventionalDesign, DestructiveDesign, NondestructiveDesign};
    let i = Amps::from_micro(100.0);
    DesignPoint {
        conventional: ConventionalDesign {
            i_read: i,
            v_ref: Volts::new(0.5),
        },
        destructive: DestructiveDesign {
            i_r1: i,
            i_r2: i * 2.0,
        },
        nondestructive: NondestructiveDesign {
            i_r1: i,
            i_r2: i * 2.0,
            alpha: 0.5,
        },
    }
}

/// The logic level of a control signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalLevel {
    /// Asserted.
    High,
    /// De-asserted.
    Low,
}

/// One digital control signal: a name plus the windows in which it is high.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlSignal {
    /// Signal name (WL, SLT1, …).
    pub name: String,
    /// `(start, end)` assertion windows, ascending and non-overlapping.
    pub windows: Vec<(Seconds, Seconds)>,
}

impl ControlSignal {
    /// The signal level at time `t`.
    fn level_at(&self, t: Seconds) -> SignalLevel {
        if self
            .windows
            .iter()
            .any(|&(start, end)| t >= start && t < end)
        {
            SignalLevel::High
        } else {
            SignalLevel::Low
        }
    }
}

/// A Fig. 9-style timing diagram: several control signals over one
/// operation.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlTimeline {
    /// Operation length.
    pub total: Seconds,
    /// The control signals, in display order.
    pub signals: Vec<ControlSignal>,
}

impl ControlTimeline {
    /// Renders the timeline as ASCII art (one row per signal, `▔` high /
    /// `▁` low), `columns` characters wide.
    ///
    /// # Panics
    ///
    /// Panics if `columns == 0`.
    #[must_use]
    pub fn render(&self, columns: usize) -> String {
        assert!(columns > 0, "diagram needs at least one column");
        let name_width = self
            .signals
            .iter()
            .map(|signal| signal.name.chars().count())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for signal in &self.signals {
            let pad = name_width - signal.name.chars().count();
            out.push_str(&signal.name);
            for _ in 0..pad {
                out.push(' ');
            }
            out.push_str("  ");
            for column in 0..columns {
                let t = self.total * ((column as f64 + 0.5) / columns as f64);
                out.push(match signal.level_at(t) {
                    SignalLevel::High => '▔',
                    SignalLevel::Low => '▁',
                });
            }
            out.push('\n');
        }
        let mut scale = String::new();
        for _ in 0..name_width + 2 {
            scale.push(' ');
        }
        scale.push_str(&format!("0 … {}", self.total));
        out.push_str(&scale);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignPoint;
    use stt_array::CellSpec;

    fn design() -> DesignPoint {
        DesignPoint::date2010(&CellSpec::date2010_chip().nominal_cell())
    }

    #[test]
    fn decoded_wordline_fits_and_shortens_the_budget() {
        let modelled = ChipTiming {
            decode: stt_array::WordlineSpec::date2010_chip().decode_time(128),
            ..ChipTiming::date2010()
        };
        assert!(modelled.decode.get() > 0.3e-9);
        assert!(modelled.decode.get() < 1e-9);
        // The overall read shortens accordingly but stays ≈14 ns-class.
        let cost = modelled.read_cost(SchemeKind::Nondestructive, &design());
        assert!(
            cost.latency()
                < ChipTiming::date2010()
                    .read_cost(SchemeKind::Nondestructive, &design())
                    .latency()
        );
    }

    #[test]
    fn nondestructive_read_is_about_15ns() {
        let timing = ChipTiming::date2010();
        let cost = timing.read_cost(SchemeKind::Nondestructive, &design());
        let latency = cost.latency().get();
        assert!(
            (13e-9..16e-9).contains(&latency),
            "paper: ≈15 ns; got {latency}"
        );
    }

    #[test]
    fn destructive_read_pays_for_two_writes() {
        let timing = ChipTiming::date2010();
        let design = design();
        let destructive = timing.read_cost(SchemeKind::Destructive, &design);
        let nondestructive = timing.read_cost(SchemeKind::Nondestructive, &design);
        // Two 5 ns write slots + 1 ns slower second read.
        let gap = (destructive.latency() - nondestructive.latency()).get();
        assert!((gap - 11e-9).abs() < 1e-12, "latency gap {gap}");
        // Write energy dominates: the destructive read costs ≥ 2× the energy.
        let ratio = destructive.energy().get() / nondestructive.energy().get();
        assert!(ratio > 2.0, "energy ratio {ratio}");
        assert!(
            destructive.energy_in(PhaseKind::Write).get()
                > destructive.energy_in(PhaseKind::Read).get()
        );
    }

    #[test]
    fn conventional_read_is_fastest_but_unprotected() {
        let timing = ChipTiming::date2010();
        let design = design();
        let conventional = timing.read_cost(SchemeKind::Conventional, &design);
        let nondestructive = timing.read_cost(SchemeKind::Nondestructive, &design);
        assert!(conventional.latency() < nondestructive.latency());
    }

    #[test]
    fn fig9_timeline_sequences_slt1_before_slt2() {
        let timeline = ChipTiming::date2010().timeline(SchemeKind::Nondestructive);
        let slt1 = timeline
            .signals
            .iter()
            .find(|signal| signal.name == "SLT1")
            .expect("SLT1 present");
        let slt2 = timeline
            .signals
            .iter()
            .find(|signal| signal.name == "SLT2")
            .expect("SLT2 present");
        let sen = timeline
            .signals
            .iter()
            .find(|signal| signal.name == "SenEn")
            .expect("SenEn present");
        assert!(
            slt1.windows[0].1 <= slt2.windows[0].0,
            "SLT1 ends before SLT2 begins"
        );
        assert!(
            slt2.windows[0].1 <= sen.windows[0].0,
            "sensing after second read"
        );
        // No write-enable signal in a nondestructive read.
        assert!(timeline
            .signals
            .iter()
            .all(|signal| signal.name != "WriteEn"));
    }

    #[test]
    fn fig9_destructive_timeline_has_write_windows() {
        let timeline = ChipTiming::date2010().timeline(SchemeKind::Destructive);
        let we = timeline
            .signals
            .iter()
            .find(|signal| signal.name == "WriteEn")
            .expect("destructive scheme drives writes");
        assert_eq!(we.windows.len(), 2, "erase + write back");
        assert!(we.windows[0].1 <= we.windows[1].0);
    }

    #[test]
    fn signal_levels_and_rendering() {
        let timeline = ChipTiming::date2010().timeline(SchemeKind::Nondestructive);
        let wl = &timeline.signals[0];
        assert_eq!(wl.name, "WL");
        assert_eq!(wl.level_at(Seconds::ZERO), SignalLevel::Low);
        assert_eq!(wl.level_at(Seconds::from_nano(2.0)), SignalLevel::High);
        let art = timeline.render(60);
        assert!(art.contains("WL"));
        assert!(art.contains("SLT1"));
        assert!(art.contains('▔') && art.contains('▁'));
        assert_eq!(art.lines().count(), timeline.signals.len() + 1);
    }
}
