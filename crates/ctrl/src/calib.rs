//! Online per-bank β-recalibration (DESIGN.md §15).
//!
//! The paper's β* (Eq. 5/10) is a *static* optimum: it equalises the two
//! sense margins for the device the design was calibrated against. Under
//! dynamic drift (see [`DriftPlan`](crate::faults::DriftPlan)) the
//! high-state roll-off flattens and the margins de-equalise — the stored-1
//! margin collapses long before the stored-0 margin moves — so a bank
//! serving hot or aged cells starts exhausting read retries and eventually
//! misreading, while its β is still the room-temperature value.
//!
//! The calibration daemon closes the loop per bank:
//!
//! 1. **Watch** — each check compares the misread + retry-exhaustion
//!    count since the previous check against [`CalibConfig::trip_rate`].
//! 2. **Burst** — when tripped, the bank is charged the read time and
//!    energy of [`CalibConfig::burst_reads`] reference-cell reads on its
//!    calibration clock. The burst is priced, not sensed: the refit below
//!    needs only the drifted nominal device, so no cell is read and no RNG
//!    is drawn.
//! 3. **Refit** — the bank re-runs the Eq. 5/10 β optimiser against its
//!    drifted nominal device and swaps the new operating point into its
//!    read path.
//!
//! Retry exhaustion fires while the margin is still several SA sigmas wide
//! (an unconfident read needs `|observation|` under the 8 mV guard band of
//! [`RetryPolicy::date2010`](crate::RetryPolicy::date2010);
//! a misread needs the noise to cross the full margin), so a trip normally
//! lands **before** the first misread — the recalibrated bank never leaves
//! the paper's equal-margin operating point far behind.
//!
//! The daemon is mounted on the scheduler frontend
//! ([`FrontendConfig::with_calib`](crate::sched::FrontendConfig::with_calib)):
//! every [`CalibConfig::interval_ns`] each bank is offered one check
//! ([`Bank::calibration_tick`](crate::bank::Bank::calibration_tick)),
//! arbitrated as background work (demand > test > calibration/scrub), so
//! checks and bursts only run in lane-idle gaps and never delay or reorder
//! demand traffic.

/// Configuration for the per-bank calibration daemon, validated when
/// [`Frontend::new`](crate::Frontend::new) mounts it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibConfig {
    /// Trip threshold: recalibrate when
    /// `(misreads + unconfident reads) / reads` since the previous check
    /// reaches this rate.
    pub trip_rate: f64,
    /// Reference-cell reads priced per calibration burst.
    pub burst_reads: u32,
    /// Period (ns) between calibration checks on each bank.
    pub interval_ns: f64,
}

impl CalibConfig {
    /// Baseline tuning: trip at a 1 % error rate, 32-read bursts, one
    /// check per bank every 500 ns.
    #[must_use]
    pub fn date2010() -> Self {
        Self {
            trip_rate: 0.01,
            burst_reads: 32,
            interval_ns: 500.0,
        }
    }

    /// `true` when `errors` bad reads over `reads` demand reads meet the
    /// trip threshold.
    #[must_use]
    pub fn trips(&self, errors: u64, reads: u64) -> bool {
        #[allow(clippy::cast_precision_loss)]
        let rate = if reads == 0 {
            0.0
        } else {
            errors as f64 / reads as f64
        };
        rate >= self.trip_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Controller, ControllerConfig, Frontend, FrontendConfig};
    use stt_sense::SchemeKind;

    #[test]
    fn baseline_trips_on_one_error_per_window() {
        let config = CalibConfig::date2010();
        assert!(!config.trips(0, 64));
        assert!(config.trips(1, 64), "1/64 ≥ 1 %");
        assert!(config.trips(5, 64));
        assert!(!config.trips(0, 0), "no reads, no trip");
    }

    /// Mounts `calib` on a one-bank frontend, which validates it.
    fn mount(calib: CalibConfig) {
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 1);
        let _ = Frontend::new(
            Controller::new(config),
            FrontendConfig::fcfs_unbounded().with_calib(calib),
        );
    }

    #[test]
    #[should_panic(expected = "trip rate")]
    fn trip_rate_must_be_a_probability() {
        mount(CalibConfig {
            trip_rate: 0.0,
            ..CalibConfig::date2010()
        });
    }

    #[test]
    #[should_panic(expected = "at least one read")]
    fn burst_must_be_nonempty() {
        mount(CalibConfig {
            burst_reads: 0,
            ..CalibConfig::date2010()
        });
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn interval_must_be_positive() {
        mount(CalibConfig {
            interval_ns: 0.0,
            ..CalibConfig::date2010()
        });
    }
}
