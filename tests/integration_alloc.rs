//! The scheduler frontend's allocation-free steady state, as a test.
//!
//! `Frontend::run` preallocates all of its working storage from the
//! trace's census before the event loop starts (DESIGN.md §12), and reports
//! in `SchedRun::steady_state_allocs` how many allocations a counting
//! allocator saw inside the loop. This binary installs such an allocator,
//! wired to `stt_ctrl::alloc_probe`, and asserts the count is zero for
//! every dispatch policy at unbounded depth and every backpressure mode at
//! depth 8. The traces stay under the fast path's 16,384-transaction
//! parallel threshold, so no service worker is spawned.
//!
//! The allocator counts every thread of the process, so this binary holds
//! exactly one test: a second test running alongside would leak its
//! allocations into the count.

use std::alloc::{GlobalAlloc, Layout, System};

use rand::rngs::StdRng;
use rand::SeedableRng;
use stt_ctrl::{
    Backpressure, Controller, ControllerConfig, Frontend, FrontendConfig, Policy, Trace, Workload,
};
use stt_sense::SchemeKind;

/// The system allocator with an allocation counter bolted on: every
/// `alloc`/`realloc` reports to `stt_ctrl::alloc_probe` before delegating.
struct CountingAlloc;

// SAFETY: delegates every operation unchanged to `System`; the probe bump
// is a relaxed atomic increment with no allocator interaction.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        stt_ctrl::alloc_probe::on_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        stt_ctrl::alloc_probe::on_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const OPS: usize = 2_000;
const BANKS: usize = 4;

fn trace(config: &ControllerConfig, gap_ns: f64) -> Trace {
    Workload::Uniform { read_fraction: 0.7 }
        .generate(config.footprint(), OPS, &mut StdRng::seed_from_u64(42))
        .with_poisson_arrivals(gap_ns, &mut StdRng::seed_from_u64(43))
}

#[test]
fn the_event_loop_does_not_allocate() {
    let config = ControllerConfig::small(SchemeKind::Nondestructive, BANKS);
    // ~0.9 of the nondestructive service rate: queues build, so policy
    // choice and event churn run constantly.
    let loaded = trace(&config, 14.0 / 0.9 / BANKS as f64);
    // 2 ns mean gaps, ~7x over the service rate: every bounded queue stays
    // full and its backpressure path fires constantly.
    let saturating = trace(&config, 2.0);
    let unbounded = FrontendConfig::fcfs_unbounded();
    let cases = [
        ("fcfs", unbounded, &loaded),
        (
            "read-priority",
            unbounded.with_policy(Policy::ReadPriority {
                write_high_water: 8,
            }),
            &loaded,
        ),
        (
            "oldest-first",
            unbounded.with_policy(Policy::OldestFirst),
            &loaded,
        ),
        (
            "stall",
            unbounded
                .with_queue_depth(8)
                .with_backpressure(Backpressure::Stall),
            &saturating,
        ),
        (
            "drop",
            unbounded
                .with_queue_depth(8)
                .with_backpressure(Backpressure::Drop),
            &saturating,
        ),
        (
            "retry",
            unbounded
                .with_queue_depth(8)
                .with_backpressure(Backpressure::Retry { delay_ns: 50.0 }),
            &saturating,
        ),
    ];
    for (label, frontend_config, trace) in cases {
        let mut frontend = Frontend::new(Controller::new(config.clone()), frontend_config);
        let run = frontend.run(trace);
        assert!(!run.completions.is_empty(), "{label}: nothing was served");
        assert_eq!(
            run.steady_state_allocs, 0,
            "{label}: the steady-state event loop allocated {} times",
            run.steady_state_allocs
        );
    }
}
