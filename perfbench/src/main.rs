//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, last on stdout, one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The lines before it
//! record the host facts, the input size, every end-to-end and simulated
//! value with its unit, and a digest of the simulated statistics for
//! bit-identity diffs between commits.

use std::process::ExitCode;

use perfbench::alloc::CountingAlloc;
use perfbench::measure::{metrics_json, Metric, Sample};
use perfbench::threads::ThreadWatch;
use perfbench::{git_revision, nproc, traced, Scale, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload <replay-fcfs|policy-ecc-bg|chip-closed-loop|fig5-mc> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn print_metrics(label: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{label}: {} = {} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let watch = ThreadWatch::start();
    println!(
        "host: workload={} seed={} seconds={} trace={} nproc={} git_rev={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        git_revision()
    );

    let outcome = workload.run(Scale::Full, args.seed, args.seconds);
    println!("input: {}", outcome.input);
    println!(
        "run: passes={} attempted={} failed={}",
        outcome.passes.len(),
        outcome.attempted(),
        outcome.failed
    );
    let secs = |samples: &[Sample]| samples.iter().map(|s| s.secs).collect::<Vec<_>>();
    let reference =
        |samples: &[Sample]| samples.iter().map(|s| s.reference_secs).collect::<Vec<_>>();
    println!("pass_s: {:?}", secs(&outcome.passes));
    println!("pass_reference_s: {:?}", reference(&outcome.passes));
    println!("setup_s: {:?}", secs(&outcome.setups));
    println!("setup_reference_s: {:?}", reference(&outcome.setups));
    println!(
        "host: unscaled median-pass ops_per_s = {}",
        outcome.host_ops_per_s()
    );
    print_metrics("end-to-end", &outcome.end_to_end());
    print_metrics(
        "end-to-end",
        &[Metric::new("failed_frac", outcome.failed_frac(), "ratio")],
    );
    print_metrics("sim", &outcome.sim);
    println!("digest: {:016x}", outcome.digest);

    let metrics = if args.trace {
        let traced = traced(workload, Scale::Full, args.seed, &outcome);
        for (layer, ns) in &traced.own.self_ns_per_op {
            println!("ledger: {layer} self = {ns} ns/op");
        }
        println!(
            "ledger: layers sum to {} ns/op vs {} ns/op untraced ({:+.1} %, {} ~10 %; recorded, \
             not enforced)",
            traced.own.full_stack_ns_per_op(),
            traced.untraced_ns_per_op,
            traced.overhead_frac * 100.0,
            if traced.overhead_frac.abs() <= 0.10 {
                "within"
            } else {
                "outside"
            }
        );
        traced.metrics
    } else {
        outcome.end_to_end()
    };
    assert!(
        metrics.iter().all(|m| m.value.is_finite()),
        "non-finite metric in {metrics:?}"
    );
    let threads = watch.stop();
    println!(
        "threads: peak running = {threads} (sampled), nproc = {}",
        nproc()
    );
    assert!(
        threads <= nproc(),
        "{} ran {threads} threads at once on {} cores",
        workload.name(),
        nproc()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted(),
        outcome.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
