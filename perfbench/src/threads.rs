//! Measured thread count: a watcher samples the process's live thread count
//! from `/proc/self/stat` and keeps the peak, so the bound "no more running
//! threads than cores" is checked against what actually ran, not against
//! what a workload says it spawns.
//!
//! A joined thread is still counted until the kernel finishes its exit, and
//! on a busy two-core host that can take a scheduler time slice, so a
//! fan-out that spawns right after another one finished can read one thread
//! too many for a few milliseconds. The watcher therefore keeps the peak of
//! counts that held for [`WINDOW`] samples in a row (about 20 ms).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Time between two samples.
const PERIOD: Duration = Duration::from_millis(2);
/// Consecutive samples a count must hold to be kept.
pub const WINDOW: usize = 10;

/// Live threads of this process (the `num_threads` field of
/// `/proc/self/stat`), or `None` where that file does not exist.
fn live_threads() -> Option<usize> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3;
    // `num_threads` is field 20.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(17)?.parse().ok()
}

/// Samples the live thread count until stopped.
pub struct ThreadWatch {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicUsize>,
    handle: JoinHandle<()>,
}

impl ThreadWatch {
    /// Starts the watcher thread.
    ///
    /// # Panics
    ///
    /// Panics if this platform has no `/proc/self/stat`.
    #[must_use]
    pub fn start() -> Self {
        assert!(
            live_threads().is_some(),
            "thread counts are read from /proc/self/stat"
        );
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicUsize::new(0));
        let handle = {
            let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
            std::thread::spawn(move || {
                let mut recent = [0; WINDOW];
                let mut next = 0;
                while !stop.load(Ordering::Relaxed) {
                    if let Some(live) = live_threads() {
                        recent[next % WINDOW] = live;
                        next += 1;
                        let held = recent.iter().copied().min().unwrap_or(0);
                        peak.fetch_max(held, Ordering::Relaxed);
                    }
                    std::thread::sleep(PERIOD);
                }
            })
        };
        Self { stop, peak, handle }
    }

    /// Stops the watcher and returns the most threads that ran work at once:
    /// the sampled peak less the watcher itself and the main thread, which
    /// only waits while workers run, and at least the main thread.
    ///
    /// # Panics
    ///
    /// Panics if the watcher thread panicked.
    #[must_use]
    pub fn stop(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread watcher panicked");
        self.peak.load(Ordering::Relaxed).saturating_sub(2).max(1)
    }
}
