//! Deterministic, parallel Monte-Carlo trial running.
//!
//! The chip experiments evaluate tens of thousands of independent bits;
//! [`run_trials`] fans them out over threads with **per-trial seeded RNGs**,
//! so results are bit-identical regardless of thread count or scheduling —
//! a requirement for reproducible experiment tables.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `count` independent trials of `trial`, in parallel, returning the
/// results in trial order.
///
/// Each trial receives its own `StdRng` seeded from `(seed, index)` via
/// SplitMix64 scrambling, so trial `k` sees the same random stream no matter
/// how many threads run or how work is scheduled.
///
/// # Examples
///
/// ```
/// use stt_stats::run_trials;
/// use rand::Rng;
///
/// let once = run_trials(100, 42, |rng, _k| rng.gen::<f64>());
/// let again = run_trials(100, 42, |rng, _k| rng.gen::<f64>());
/// assert_eq!(once, again); // deterministic across runs and thread counts
/// ```
pub fn run_trials<T, F>(count: usize, seed: u64, trial: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut StdRng, usize) -> T + Sync,
{
    if count < 64 {
        return (0..count)
            .map(|index| trial(&mut trial_rng(seed, index), index))
            .collect();
    }
    fill_indexed(count, |index| trial(&mut trial_rng(seed, index), index))
}

/// Computes `fill(index)` for every index in `0..count` across scoped worker
/// threads, returning the results in index order.
///
/// This is the scoped-thread fan-out behind [`run_trials`]; it is exposed so
/// other crates (the chip experiment's per-bit tally, the traffic engine's
/// bank dispatch) can parallelise index-addressed loops the same way.
/// Results are a pure function of `index`, so the output is identical for
/// any thread count or scheduling.
///
/// # Panics
///
/// Re-raises a panicking `fill` on the calling thread with its original
/// payload (the lowest-indexed worker's, when several panic).
pub fn fill_indexed<T, F>(count: usize, fill: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(count.max(1));
    if threads <= 1 || count <= 1 {
        return (0..count).map(&fill).collect();
    }

    let mut results: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let chunk = count.div_ceil(threads);
    // Join every worker inside the scope so a panic keeps its payload (an
    // unjoined panicking thread would make the scope panic with a generic
    // message), then re-raise the first one on the calling thread.
    let panicked = std::thread::scope(|scope| {
        let workers: Vec<_> = results
            .chunks_mut(chunk)
            .enumerate()
            .map(|(worker, slice)| {
                let fill = &fill;
                scope.spawn(move || {
                    let base = worker * chunk;
                    for (offset, slot) in slice.iter_mut().enumerate() {
                        *slot = Some(fill(base + offset));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .fold(None, |first, worker| first.or(worker.join().err()))
    });
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|slot| slot.expect("every slot filled"))
        .collect()
}

/// Runs `count` trials in batches of up to `batch` at a time, in parallel
/// across batches, returning the results in trial order.
///
/// This is the fan-out shape for batched solvers (e.g.
/// `Circuit::transient_batch`): `run_batch(rngs, start)` receives one
/// deterministic [`trial_rng`] per trial in the batch — the *same* streams
/// [`run_trials`] would hand trials `start..start + rngs.len()` — and must
/// return one result per RNG. Per-trial determinism is therefore preserved
/// across batch sizes: a `batch` of 1 reproduces `run_trials` exactly.
///
/// # Panics
///
/// Panics if `batch == 0` or `run_batch` returns the wrong number of
/// results.
pub fn run_trial_batches<T, F>(count: usize, batch: usize, seed: u64, run_batch: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut [StdRng], usize) -> Vec<T> + Sync,
{
    assert!(batch > 0, "batch size must be positive");
    let batches = count.div_ceil(batch);
    let chunks = fill_indexed(batches, |batch_index| {
        let start = batch_index * batch;
        let len = batch.min(count - start);
        let mut rngs: Vec<StdRng> = (0..len).map(|k| trial_rng(seed, start + k)).collect();
        let out = run_batch(&mut rngs, start);
        assert_eq!(out.len(), len, "run_batch must return one result per trial");
        out
    });
    chunks.into_iter().flatten().collect()
}

/// Builds the deterministic RNG for trial `index` under master `seed`.
///
/// Public so other deterministic fan-outs (e.g. the traffic engine's
/// per-bank RNGs) can derive independent streams with the same scrambling.
pub fn trial_rng(seed: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(index as u64)))
}

/// SplitMix64 scrambling step: decorrelates sequential trial indices so
/// neighbouring trials do not share low-entropy seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_are_in_trial_order() {
        let results = run_trials(500, 7, |_rng, index| index);
        assert_eq!(results, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_across_invocations() {
        let a = run_trials(1000, 99, |rng, _| rng.gen::<u64>());
        let b = run_trials(1000, 99, |rng, _| rng.gen::<u64>());
        assert_eq!(a, b);
    }

    #[test]
    fn small_counts_use_the_same_streams_as_large() {
        // The sequential fast path (count < 64) and the parallel path must
        // produce identical per-trial streams: trial k's value is a pure
        // function of (seed, k).
        let small = run_trials(10, 123, |rng, _| rng.gen::<u64>());
        let large = run_trials(1000, 123, |rng, _| rng.gen::<u64>());
        assert_eq!(small[..], large[..10]);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_trials(64, 1, |rng, _| rng.gen::<u64>());
        let b = run_trials(64, 2, |rng, _| rng.gen::<u64>());
        assert_ne!(a, b);
    }

    #[test]
    fn neighbouring_trials_are_decorrelated() {
        let values = run_trials(2000, 5, |rng, _| rng.gen::<f64>());
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let mut covariance = 0.0;
        let mut variance = 0.0;
        for pair in values.windows(2) {
            covariance += (pair[0] - mean) * (pair[1] - mean);
        }
        for value in &values {
            variance += (value - mean).powi(2);
        }
        let lag1 = covariance / variance;
        assert!(lag1.abs() < 0.1, "lag-1 autocorrelation {lag1}");
    }

    #[test]
    fn zero_trials_is_empty() {
        let results: Vec<u8> = run_trials(0, 1, |_, _| 0u8);
        assert!(results.is_empty());
    }

    #[test]
    fn batched_trials_match_sequential_trials() {
        // The per-trial RNG streams are independent of the batch size, so
        // any batching reproduces run_trials bit for bit.
        let reference = run_trials(100, 17, |rng, index| (index, rng.gen::<u64>()));
        for batch in [1usize, 7, 64, 100, 128] {
            let batched = run_trial_batches(100, batch, 17, |rngs, start| {
                rngs.iter_mut()
                    .enumerate()
                    .map(|(k, rng)| (start + k, rng.gen::<u64>()))
                    .collect()
            });
            assert_eq!(batched, reference, "batch size {batch}");
        }
    }

    #[test]
    #[should_panic(expected = "one result per trial")]
    fn batched_trials_enforce_result_count() {
        let _ = run_trial_batches(10, 4, 1, |_rngs, _start| Vec::<u8>::new());
    }

    #[test]
    #[should_panic(expected = "index 700 failed")]
    fn fill_indexed_keeps_the_worker_panic_message() {
        let _ = fill_indexed(1000, |index| {
            assert_ne!(index, 700, "index 700 failed");
            index
        });
    }

    #[test]
    fn fill_indexed_is_in_order_and_complete() {
        let results = fill_indexed(1000, |index| index * 2);
        assert_eq!(results, (0..1000).map(|k| k * 2).collect::<Vec<_>>());
        let empty: Vec<usize> = fill_indexed(0, |index| index);
        assert!(empty.is_empty());
    }
}
