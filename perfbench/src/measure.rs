//! Timing, digests and the per-run result every workload reports.

use std::fmt::Debug;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;
use std::time::Instant;

/// Fewest timed passes a run makes, however long each pass takes.
pub const MIN_PASSES: usize = 3;

/// One named metric with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Wall time of `f` in seconds, with its result.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Seconds the reference kernel takes at the nominal host speed. Scaled
/// times are expressed at this speed.
pub const REFERENCE_NOMINAL_S: f64 = 0.004;
/// Words in the reference kernel's buffer (16 MiB, well past the per-core
/// caches, like the workloads' banks, traces and logs).
const REFERENCE_WORDS: usize = 1 << 21;
/// Read-modify-writes per reference run.
const REFERENCE_STEPS: usize = 200_000;

/// The reference kernel's buffer: static, so it never shows in the heap
/// the counting allocator reports.
static REFERENCE_BUFFER: [AtomicU64; REFERENCE_WORDS] =
    [const { AtomicU64::new(0) }; REFERENCE_WORDS];

/// Times the reference kernel: a fixed sequence of read-modify-writes at
/// pseudo-random words of a 16 MiB buffer, independent of the program under
/// test. Its time tracks the host's current speed for cache- and
/// memory-bound work.
pub fn reference_secs() -> f64 {
    // The first run pages the buffer in; keep it out of every sample.
    static PAGED_IN: Once = Once::new();
    PAGED_IN.call_once(|| {
        black_box(reference_kernel());
    });
    let (acc, secs) = time(reference_kernel);
    black_box(acc);
    secs
}

fn reference_kernel() -> u64 {
    let (mut x, mut acc) = (0x1234_5678_u64, 0_u64);
    for _ in 0..REFERENCE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let word = &REFERENCE_BUFFER[x as usize & (REFERENCE_WORDS - 1)];
        acc = acc
            .wrapping_add(word.load(Ordering::Relaxed))
            .wrapping_mul(acc | 1);
        word.store(acc, Ordering::Relaxed);
    }
    acc
}

/// One timed repetition and the reference kernel's time just before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Host seconds of the repetition's timed region.
    pub secs: f64,
    /// Host seconds of the reference kernel run just before it.
    pub reference_secs: f64,
}

impl Sample {
    /// The repetition's seconds at the nominal host speed.
    #[must_use]
    pub fn scaled(self) -> f64 {
        self.secs / self.reference_secs * REFERENCE_NOMINAL_S
    }
}

/// Reference-scaled seconds of a set of repetitions: the median over
/// repetitions of each one's time divided by the reference kernel's time
/// next to it, in units of the kernel's nominal time.
///
/// The host this benchmark runs on shares its cores, caches and memory with
/// other tenants, and its speed drifts by tens of per cent in phases of
/// seconds to minutes. A repetition and the reference run just before it
/// see the same phase, so their ratio cancels most of the drift; the median
/// drops the repetitions a phase change split.
///
/// # Panics
///
/// Panics on an empty sample set.
#[must_use]
pub fn scaled_secs(samples: &[Sample]) -> f64 {
    let scaled: Vec<f64> = samples.iter().map(|s| s.scaled()).collect();
    median(&scaled)
}

/// Calls `f` `reps` times, running the reference kernel before each call,
/// and keeps the last result.
/// The previous result is released before the next call, so every call sees
/// the same heap.
///
/// # Panics
///
/// Panics if `reps` is zero.
pub fn repeat_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Vec<Sample>) {
    assert!(reps > 0, "need at least one repetition");
    let mut samples = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let reference_secs = reference_secs();
        let (out, secs) = time(&mut f);
        samples.push(Sample {
            secs,
            reference_secs,
        });
        kept = Some(out);
    }
    (kept.expect("reps > 0"), samples)
}

/// Reference-scaled seconds of `reps` calls of `f`, with the last result.
pub fn scaled_time<T>(reps: usize, f: impl FnMut() -> T) -> (T, f64) {
    let (out, samples) = repeat_setup(reps, f);
    (out, scaled_secs(&samples))
}

/// Reference-scaled seconds of `reps` calls of `pass`, each returning the
/// seconds of its own timed region (so untimed preparation stays outside).
pub fn scaled_of(reps: usize, mut pass: impl FnMut() -> f64) -> f64 {
    let samples: Vec<Sample> = (0..reps).map(|_| pass_sample(&mut pass)).collect();
    scaled_secs(&samples)
}

fn pass_sample(pass: &mut impl FnMut() -> f64) -> Sample {
    let reference_secs = reference_secs();
    Sample {
        secs: pass(),
        reference_secs,
    }
}

/// Set-up repetitions and timed passes of one run, with the state the last
/// set-up built.
pub struct Measured<T> {
    /// What the last set-up repetition returned.
    pub state: T,
    /// Every set-up repetition.
    pub setups: Vec<Sample>,
    /// Every timed pass.
    pub passes: Vec<Sample>,
}

/// Calls `pass` on the state `setup` builds until `seconds` of wall time
/// outside set-up have gone by (and at least [`MIN_PASSES`] times), and
/// calls `setup` `setup_reps` times in all, spread evenly over those
/// seconds: the first before any pass, the next once a `1 / setup_reps`
/// share of the seconds has gone by, and so on. Each set-up replaces the
/// state, after the previous one is released, so every call sees the same
/// heap. The reference kernel runs before every call.
///
/// Spreading the set-ups over the run lets them sample the same host phases
/// as the passes, so `setup_s` drifts no more than `ops_per_s` does. Each
/// pass does its own untimed preparation and checking and returns the
/// seconds of its timed region.
///
/// # Panics
///
/// Panics if `setup_reps` is zero.
pub fn setup_and_passes<T>(
    seconds: f64,
    setup_reps: usize,
    mut setup: impl FnMut() -> T,
    mut pass: impl FnMut(&mut T) -> f64,
) -> Measured<T> {
    assert!(setup_reps > 0, "need at least one set-up repetition");
    let start = Instant::now();
    let mut setup_wall = 0.0;
    let mut setups = Vec::with_capacity(setup_reps);
    let mut passes = Vec::new();
    let mut state = None;
    loop {
        let pass_wall = start.elapsed().as_secs_f64() - setup_wall;
        let done = passes.len() >= MIN_PASSES && pass_wall >= seconds;
        let due = pass_wall >= seconds * setups.len() as f64 / setup_reps as f64;
        if setups.len() < setup_reps && (due || done) {
            let (sample, wall) = time(|| {
                drop(state.take());
                let reference_secs = reference_secs();
                let (out, secs) = time(&mut setup);
                state = Some(out);
                Sample {
                    secs,
                    reference_secs,
                }
            });
            setups.push(sample);
            setup_wall += wall;
        } else if done {
            break;
        } else {
            let current = state
                .as_mut()
                .expect("the first set-up runs before any pass");
            passes.push(pass_sample(&mut || pass(current)));
        }
    }
    Measured {
        state: state.expect("at least one set-up"),
        setups,
        passes,
    }
}

/// FNV-1a over everything a run simulated (bytes for text, whole words for
/// numbers): equal digests across commits mean bit-identical simulated
/// statistics.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a whole word in at once (FNV-1a's step over 64-bit words), so
    /// digesting a large completion log stays cheap.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.0 ^= value;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        self
    }

    /// Folds a float in by its bit pattern.
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    /// Folds in a value's `Debug` rendering (Rust prints floats in their
    /// shortest round-trip form, so this is exact).
    pub fn debug(&mut self, value: &impl Debug) -> &mut Self {
        self.bytes(format!("{value:?}").as_bytes())
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Counts failed ops over all timed passes: a pass whose digest equals the
/// verified first pass inherits its failures; any other pass fails whole.
#[must_use]
pub fn failed_over_passes(digests: &[u64], first_pass_failed: u64, ops_per_pass: u64) -> u64 {
    digests
        .iter()
        .map(|&d| {
            if d == digests[0] {
                first_pass_failed
            } else {
                ops_per_pass
            }
        })
        .sum()
}

/// Everything one untraced run of a workload measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Input size, in words.
    pub input: String,
    /// Ops (demand transactions or Monte-Carlo trials) per timed pass.
    pub ops_per_pass: u64,
    /// Every timed pass.
    pub passes: Vec<Sample>,
    /// Every set-up repetition.
    pub setups: Vec<Sample>,
    /// Peak live heap over set-up and the timed passes (bytes).
    pub peak_heap_bytes: usize,
    /// Ops dropped or belonging to a unit that failed its check, over all
    /// passes.
    pub failed: u64,
    /// Simulated (host-independent) end-to-end results.
    pub sim: Vec<Metric>,
    /// Digest of the first pass's simulated statistics.
    pub digest: u64,
}

impl Outcome {
    /// Ops attempted over all timed passes.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.ops_per_pass * self.passes.len() as u64
    }

    /// Reference-scaled seconds per op.
    #[must_use]
    pub fn secs_per_op(&self) -> f64 {
        scaled_secs(&self.passes) / self.ops_per_pass as f64
    }

    /// Unscaled host ops per second of the median pass, printed for the
    /// record next to the gated figure.
    #[must_use]
    pub fn host_ops_per_s(&self) -> f64 {
        let secs: Vec<f64> = self.passes.iter().map(|s| s.secs).collect();
        self.ops_per_pass as f64 / median(&secs)
    }

    /// Share of attempted ops that failed.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted() as f64
    }

    /// The end-to-end metrics `BENCHMARK.json` lists, in its order.
    #[must_use]
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric::new("ops_per_s", 1.0 / self.secs_per_op(), "op/s"),
            Metric::new("setup_s", scaled_secs(&self.setups), "s"),
            Metric::new("peak_heap_mb", self.peak_heap_bytes as f64 / 1e6, "MB"),
        ]
    }
}

/// A traced run's per-layer results for one workload's stack.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Per-layer metrics this stack produces.
    pub metrics: Vec<Metric>,
    /// Self time per op of each layer on the op path: deltas between
    /// successively fuller stacks, in stack order.
    pub self_ns_per_op: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// The fullest stack's time per op (the sum of the layer self times).
    #[must_use]
    pub fn full_stack_ns_per_op(&self) -> f64 {
        self.self_ns_per_op.iter().map(|(_, ns)| ns).sum()
    }
}

/// Renders metrics as the `metrics` object of the result line.
#[must_use]
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn a_repetition_on_a_slowed_host_scales_back_to_nominal_speed() {
        let at = |slowdown: f64| Sample {
            secs: 0.1 * slowdown,
            reference_secs: REFERENCE_NOMINAL_S * slowdown,
        };
        assert!((scaled_secs(&[at(1.0), at(1.5), at(1.2)]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn set_ups_are_spread_over_the_passes() {
        let order = std::cell::RefCell::new(String::new());
        let measured = setup_and_passes(
            0.2,
            3,
            || order.borrow_mut().push('s'),
            |()| {
                order.borrow_mut().push('p');
                std::thread::sleep(std::time::Duration::from_millis(10));
                0.01
            },
        );
        let order = order.into_inner();
        assert_eq!(measured.setups.len(), 3);
        assert_eq!(measured.passes.len(), order.matches('p').count());
        // A set-up first, then passes between every two set-ups.
        assert!(order.starts_with("sp"), "{order}");
        assert!(!order.contains("ss"), "{order}");
    }

    #[test]
    fn passes_inherit_the_first_pass_verdict_unless_their_digest_differs() {
        assert_eq!(failed_over_passes(&[7, 7, 7], 0, 10), 0);
        assert_eq!(failed_over_passes(&[7, 7, 8], 1, 10), 12);
    }
}
