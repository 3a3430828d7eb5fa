//! Throughput of the analytical sensing core: margin evaluation, reads,
//! design-point optimisation, robustness windows.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stt_array::CellSpec;
use stt_mtj::ResistanceState;
use stt_sense::robustness::robustness_summary;
use stt_sense::{
    DesignPoint, DestructiveDesign, NondestructiveDesign, NondestructiveScheme, Perturbations,
    SenseScheme,
};
use stt_units::Amps;

fn bench_scheme_eval(c: &mut Criterion) {
    let cell = CellSpec::date2010_chip().nominal_cell();
    let design = DesignPoint::date2010(&cell);

    c.bench_function("margins/nondestructive", |b| {
        b.iter(|| {
            std::hint::black_box(
                design
                    .nondestructive
                    .margins(std::hint::black_box(&cell), &Perturbations::NONE),
            )
        })
    });

    c.bench_function("margins/destructive", |b| {
        b.iter(|| {
            std::hint::black_box(
                design
                    .destructive
                    .margins(std::hint::black_box(&cell), &Perturbations::NONE),
            )
        })
    });

    let scheme = NondestructiveScheme::new(design.nondestructive);
    c.bench_function("read/nondestructive", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let stored = ResistanceState::AntiParallel;
        b.iter(|| std::hint::black_box(scheme.read(&cell, stored, &mut rng)))
    });

    c.bench_function("optimize/beta_destructive", |b| {
        b.iter(|| {
            std::hint::black_box(DestructiveDesign::optimize(
                std::hint::black_box(&cell),
                Amps::from_micro(200.0),
            ))
        })
    });

    c.bench_function("optimize/beta_nondestructive", |b| {
        b.iter(|| {
            std::hint::black_box(NondestructiveDesign::optimize(
                std::hint::black_box(&cell),
                Amps::from_micro(200.0),
                0.5,
            ))
        })
    });

    c.bench_function("robustness/table2_summary", |b| {
        b.iter(|| {
            std::hint::black_box(robustness_summary(
                std::hint::black_box(&cell),
                Amps::from_micro(200.0),
                0.5,
            ))
        })
    });

    c.bench_function("trim/beta_over_64_cells", |b| {
        let spec = CellSpec::date2010_chip();
        let mut rng = StdRng::seed_from_u64(2);
        let sample: Vec<_> = (0..64).map(|_| spec.sample_cell(&mut rng)).collect();
        b.iter_batched(
            || sample.clone(),
            |cells| {
                std::hint::black_box(NondestructiveDesign::trimmed(
                    &cells,
                    Amps::from_micro(200.0),
                    0.5,
                ))
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_scheme_eval);
criterion_main!(benches);
