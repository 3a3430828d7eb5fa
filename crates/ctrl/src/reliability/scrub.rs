//! Background scrub: configuration and bookkeeping for the daemon that
//! walks each bank re-reading ECC words during idle time.
//!
//! The scrub *daemon* lives in the scheduler frontend (see
//! [`crate::sched::frontend`]): it is a background-priority traffic source
//! that offers one word-scrub per bank every [`ScrubConfig::interval_ns`]
//! and is served only when the dispatch policy finds no demand work — the
//! demand class always preempts it at arbitration. The scrub *operation*
//! lives on the bank ([`crate::Bank::scrub_next`]): re-read the next word
//! through the bank's demand read datapath, decode it, rewrite any
//! corrected cell in place, and restore an uncorrectable word from the
//! host's copy. What each step found lands in
//! [`EccTelemetry`](crate::EccTelemetry).
//!
//! Scrub reads sense through a **dedicated per-bank RNG stream**, so an
//! interleaved scrub never changes the offsets (and therefore the results)
//! demand reads would have seen — the bit-identity property the
//! reliability integration suite asserts.

use serde::{Deserialize, Serialize};

/// Configuration of the background scrub daemon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScrubConfig {
    /// Target gap between two scrub word-reads on one bank (nanoseconds).
    /// The daemon is best-effort: a tick that finds the bank busy or demand
    /// waiting defers to the next tick, so under saturation scrub starves —
    /// visible in the coverage gauge, exactly as on real hardware.
    pub interval_ns: f64,
}

impl ScrubConfig {
    /// A scrub word-read per bank every `interval_ns` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `interval_ns` is not finite and positive.
    #[must_use]
    pub fn every_ns(interval_ns: f64) -> Self {
        assert!(
            interval_ns.is_finite() && interval_ns > 0.0,
            "scrub interval must be positive, got {interval_ns}"
        );
        Self { interval_ns }
    }
}

/// Round-robin word cursor for one bank's scrub walk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubCursor {
    next: usize,
    words: usize,
}

impl ScrubCursor {
    /// A cursor over `words` ECC words, starting at word 0.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    #[must_use]
    pub fn new(words: usize) -> Self {
        assert!(words > 0, "scrub cursor needs at least one word");
        Self { next: 0, words }
    }

    /// The word the next scrub scan will visit.
    #[must_use]
    pub fn peek(&self) -> usize {
        self.next
    }

    /// Returns the word to scan and advances; the second element is `true`
    /// when the walk wrapped (a full pass completed).
    pub fn advance(&mut self) -> (usize, bool) {
        let word = self.next;
        self.next = (self.next + 1) % self.words;
        (word, self.next == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_walks_round_robin_and_reports_passes() {
        let mut cursor = ScrubCursor::new(3);
        assert_eq!(cursor.advance(), (0, false));
        assert_eq!(cursor.advance(), (1, false));
        assert_eq!(cursor.advance(), (2, true));
        assert_eq!(cursor.peek(), 0);
        assert_eq!(cursor.advance(), (0, false));
    }

    #[test]
    fn single_word_banks_complete_a_pass_every_scan() {
        let mut cursor = ScrubCursor::new(1);
        assert_eq!(cursor.advance(), (0, true));
        assert_eq!(cursor.advance(), (0, true));
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn empty_cursor_is_rejected() {
        let _ = ScrubCursor::new(0);
    }

    #[test]
    #[should_panic(expected = "scrub interval")]
    fn non_positive_interval_is_rejected() {
        let _ = ScrubConfig::every_ns(0.0);
    }
}
