//! Type-safe electrical unit newtypes for the STT-RAM sensing reproduction.
//!
//! Every crate in this workspace moves physical quantities around: MTJ
//! resistances, read currents, bit-line voltages, capacitances, pulse widths,
//! switching energies. Mixing up a current in microamps with a voltage in
//! millivolts is exactly the kind of silent catastrophe that newtypes prevent
//! (Rust API guideline C-NEWTYPE), so the fundamental quantities are wrapped
//! here once and shared everywhere.
//!
//! The wrappers are deliberately thin: a single `f64` in SI base units
//! (ohms, volts, amperes, seconds, farads, watts, joules). Cross-unit
//! arithmetic is implemented only where it is physically meaningful —
//! `Amps * Ohms = Volts`, `Volts / Ohms = Amps`, `Ohms * Farads = Seconds`,
//! and so on — which turns Ohm's law into something the type checker verifies.
//!
//! # Examples
//!
//! ```
//! use stt_units::{Amps, Ohms, Volts};
//!
//! let read_current = Amps::from_micro(200.0);
//! let cell = Ohms::new(2500.0) + Ohms::new(917.0);
//! let bitline: Volts = read_current * cell;
//! assert!((bitline.get() - 0.6834).abs() < 1e-12);
//! assert_eq!(format!("{bitline}"), "683.4 mV");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Formats a value with an engineering (power-of-1000) SI prefix.
///
/// Used by the `Display` impls of every unit in this crate so that a
/// `Volts(0.0766)` prints as `76.6 mV` rather than `0.0766 V`.
fn engineering(f: &mut fmt::Formatter<'_>, value: f64, symbol: &str) -> fmt::Result {
    if value == 0.0 || !value.is_finite() {
        return write!(f, "{value} {symbol}");
    }
    const PREFIXES: [(f64, &str); 9] = [
        (1e9, "G"),
        (1e6, "M"),
        (1e3, "k"),
        (1.0, ""),
        (1e-3, "m"),
        (1e-6, "µ"),
        (1e-9, "n"),
        (1e-12, "p"),
        (1e-15, "f"),
    ];
    let magnitude = value.abs();
    let (scale, prefix) = PREFIXES
        .iter()
        .find(|(scale, _)| magnitude >= *scale)
        .copied()
        .unwrap_or((1e-15, "f"));
    let scaled = value / scale;
    // Four significant digits reads naturally for the quantities in this
    // workspace (margins in mV, currents in µA, resistances in Ω/kΩ).
    let rendered = format!("{scaled:.4}");
    let trimmed = rendered.trim_end_matches('0').trim_end_matches('.');
    write!(f, "{trimmed} {prefix}{symbol}")
}

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $symbol:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from a value in SI base units.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Creates a quantity from a value in thousandths (milli) of the base unit.
            #[must_use]
            pub fn from_milli(value: f64) -> Self {
                Self(value * 1e-3)
            }

            /// Creates a quantity from a value in millionths (micro) of the base unit.
            #[must_use]
            pub fn from_micro(value: f64) -> Self {
                Self(value * 1e-6)
            }

            /// Creates a quantity from a value in billionths (nano) of the base unit.
            #[must_use]
            pub fn from_nano(value: f64) -> Self {
                Self(value * 1e-9)
            }

            /// Creates a quantity from a value in trillionths (pico) of the base unit.
            #[must_use]
            pub fn from_pico(value: f64) -> Self {
                Self(value * 1e-12)
            }

            /// Creates a quantity from a value in quadrillionths (femto) of the base unit.
            #[must_use]
            pub fn from_femto(value: f64) -> Self {
                Self(value * 1e-15)
            }

            /// Creates a quantity from a value in thousands (kilo) of the base unit.
            #[must_use]
            pub fn from_kilo(value: f64) -> Self {
                Self(value * 1e3)
            }

            /// Creates a quantity from a value in millions (mega) of the base unit.
            #[must_use]
            pub fn from_mega(value: f64) -> Self {
                Self(value * 1e6)
            }

            /// Returns the raw value in SI base units.
            #[must_use]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Returns the absolute value of the quantity.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of two quantities.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two quantities.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns `true` when the value is finite (neither NaN nor ±∞).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                engineering(f, self.0, $symbol)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// The ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                // `f64`'s own empty sum is −0.0; fold from +0.0 so an empty
                // sum of quantities formats as "0", not "-0".
                Self(iter.map(|unit| unit.0).fold(0.0, |acc, x| acc + x))
            }
        }
    };
}

unit!(
    /// Electrical resistance in ohms (Ω).
    ///
    /// Used for MTJ resistance states, access-transistor on-resistance, and
    /// bit-line parasitics.
    Ohms,
    "Ω"
);
unit!(
    /// Electrical potential in volts (V).
    ///
    /// Bit-line voltages, sense margins, supply rails.
    Volts,
    "V"
);
unit!(
    /// Electrical current in amperes (A).
    ///
    /// Read currents, write/switching currents, leakage.
    Amps,
    "A"
);
unit!(
    /// Time in seconds (s).
    ///
    /// Pulse widths, read phases, settling times.
    Seconds,
    "s"
);
unit!(
    /// Capacitance in farads (F).
    ///
    /// Sample-and-hold caps C1/C2, bit-line parasitics.
    Farads,
    "F"
);
unit!(
    /// Power in watts (W).
    Watts,
    "W"
);
unit!(
    /// Energy in joules (J).
    ///
    /// Per-operation read/write energy accounting.
    Joules,
    "J"
);

impl Mul<Ohms> for Amps {
    type Output = Volts;
    /// Ohm's law: `V = I · R`.
    fn mul(self, rhs: Ohms) -> Volts {
        Volts::new(self.get() * rhs.get())
    }
}

impl Mul<Amps> for Ohms {
    type Output = Volts;
    fn mul(self, rhs: Amps) -> Volts {
        rhs * self
    }
}

impl Div<Ohms> for Volts {
    type Output = Amps;
    /// Ohm's law: `I = V / R`.
    fn div(self, rhs: Ohms) -> Amps {
        Amps::new(self.get() / rhs.get())
    }
}

impl Div<Amps> for Volts {
    type Output = Ohms;
    /// Ohm's law: `R = V / I`.
    fn div(self, rhs: Amps) -> Ohms {
        Ohms::new(self.get() / rhs.get())
    }
}

impl Mul<Amps> for Volts {
    type Output = Watts;
    /// Instantaneous power: `P = V · I`.
    fn mul(self, rhs: Amps) -> Watts {
        Watts::new(self.get() * rhs.get())
    }
}

impl Mul<Volts> for Amps {
    type Output = Watts;
    fn mul(self, rhs: Volts) -> Watts {
        rhs * self
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    /// Energy: `E = P · t`.
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.get() * rhs.get())
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    /// Average power: `P = E / t`.
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.get() / rhs.get())
    }
}

impl Mul<Farads> for Ohms {
    type Output = Seconds;
    /// RC time constant: `τ = R · C`.
    fn mul(self, rhs: Farads) -> Seconds {
        Seconds::new(self.get() * rhs.get())
    }
}

impl Mul<Ohms> for Farads {
    type Output = Seconds;
    fn mul(self, rhs: Ohms) -> Seconds {
        rhs * self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ohms_law_round_trip() {
        let current = Amps::from_micro(200.0);
        let resistance = Ohms::new(917.0);
        let voltage = current * resistance;
        assert!((voltage.get() - 183.4e-3).abs() < 1e-12);
        let back: Amps = voltage / resistance;
        assert!((back.get() - current.get()).abs() < 1e-18);
        let recovered: Ohms = voltage / current;
        assert!((recovered.get() - resistance.get()).abs() < 1e-9);
    }

    #[test]
    fn power_and_energy() {
        let power = Volts::new(1.2) * Amps::from_micro(500.0);
        assert!((power.get() - 600e-6).abs() < 1e-15);
        let energy = power * Seconds::from_nano(4.0);
        assert!((energy.get() - 2.4e-12).abs() < 1e-24);
        let average = energy / Seconds::from_nano(4.0);
        assert!((average.get() - power.get()).abs() < 1e-15);
    }

    #[test]
    fn rc_time_constant() {
        let tau = Ohms::from_kilo(3.0) * Farads::from_femto(300.0);
        assert!((tau.get() - 0.9e-9).abs() < 1e-21);
    }

    #[test]
    fn display_uses_engineering_prefixes() {
        assert_eq!(format!("{}", Volts::from_milli(76.6)), "76.6 mV");
        assert_eq!(format!("{}", Amps::from_micro(200.0)), "200 µA");
        assert_eq!(format!("{}", Ohms::new(917.0)), "917 Ω");
        assert_eq!(format!("{}", Ohms::from_kilo(2.5)), "2.5 kΩ");
        assert_eq!(format!("{}", Seconds::from_nano(15.0)), "15 ns");
        assert_eq!(format!("{}", Farads::from_femto(25.0)), "25 fF");
        assert_eq!(format!("{}", Volts::ZERO), "0 V");
        assert_eq!(format!("{}", -Volts::from_milli(9.3)), "-9.3 mV");
    }

    #[test]
    fn ratio_of_like_units_is_dimensionless() {
        let beta = Amps::from_micro(200.0) / Amps::from_micro(93.9);
        assert!((beta - 2.1299255).abs() < 1e-6);
    }

    #[test]
    fn sum_of_units() {
        let total: Ohms = [Ohms::new(100.0), Ohms::new(200.0), Ohms::new(300.0)]
            .into_iter()
            .sum();
        assert_eq!(total, Ohms::new(600.0));
    }

    proptest! {
        #[test]
        fn prop_add_sub_inverse(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let sum = Ohms::new(a) + Ohms::new(b);
            let back = sum - Ohms::new(b);
            prop_assert!((back.get() - a).abs() <= 1e-6 * (1.0 + a.abs()));
        }

        #[test]
        fn prop_ohms_law_consistency(i in 1e-9f64..1e-2, r in 1.0f64..1e7) {
            let v = Amps::new(i) * Ohms::new(r);
            let i_back = v / Ohms::new(r);
            prop_assert!((i_back.get() - i).abs() <= 1e-12 * (1.0 + i.abs()));
        }

        #[test]
        fn prop_scalar_mul_distributes(a in -1e3f64..1e3, b in -1e3f64..1e3, k in -1e3f64..1e3) {
            let lhs = (Volts::new(a) + Volts::new(b)) * k;
            let rhs = Volts::new(a) * k + Volts::new(b) * k;
            prop_assert!((lhs.get() - rhs.get()).abs() <= 1e-6 * (1.0 + lhs.get().abs()));
        }

        #[test]
        fn prop_min_max_ordering(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let low = Volts::new(a).min(Volts::new(b));
            let high = Volts::new(a).max(Volts::new(b));
            prop_assert!(low <= high);
            prop_assert!(low == Volts::new(a) || low == Volts::new(b));
        }
    }
}
