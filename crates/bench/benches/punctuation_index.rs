//! Ablation of punctuation-index building (DESIGN.md §7): eager
//! (per-punctuation) vs lazy (batched) builds over the same load. The
//! load is constant punctuations, which a build answers from the tuples
//! stored under each closed value: the two cadences visit the same
//! candidates, and the scan the lazy build used to share is gone.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pjoin::record::PRecord;
use pjoin::JoinState;
use punct_types::{Punctuation, Tuple};
use stream_sim::Work;

fn state_with(tuples: usize) -> JoinState {
    let mut s = JoinState::new(2, 0, 8, 64);
    for k in 0..tuples {
        s.store.insert(PRecord::arriving(Tuple::of(((k % 100) as i64, k as i64)), k as u64));
    }
    s
}

/// Eager: one build per punctuation (N builds, 1 new punctuation each).
fn bench_eager_builds(c: &mut Criterion) {
    c.bench_function("index_build_eager_16_puncts", |b| {
        b.iter_batched(
            || state_with(5_000),
            |mut s| {
                let mut w = Work::ZERO;
                for k in 0..16i64 {
                    s.index.insert(Punctuation::close_value(2, 0, k));
                    s.index_build(&mut w);
                }
                black_box(w.index_evals)
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

/// Lazy: one build covering all punctuations (1 build, N new).
fn bench_lazy_build(c: &mut Criterion) {
    c.bench_function("index_build_lazy_16_puncts", |b| {
        b.iter_batched(
            || state_with(5_000),
            |mut s| {
                let mut w = Work::ZERO;
                for k in 0..16i64 {
                    s.index.insert(Punctuation::close_value(2, 0, k));
                }
                s.index_build(&mut w);
                black_box(w.index_evals)
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

/// Incremental rebuild on an already-indexed state: the paper's "avoid
/// duplicate expression evaluations" claim — only pid-null tuples are
/// evaluated.
fn bench_incremental_rebuild(c: &mut Criterion) {
    c.bench_function("index_build_incremental_rebuild", |b| {
        b.iter_batched(
            || {
                let mut s = state_with(5_000);
                let mut w = Work::ZERO;
                for k in 0..50i64 {
                    s.index.insert(Punctuation::close_value(2, 0, k));
                }
                s.index_build(&mut w);
                s
            },
            |mut s| {
                // One more punctuation: the rebuild visits the tuples under
                // its value and evaluates only the still-unindexed ones.
                let mut w = Work::ZERO;
                s.index.insert(Punctuation::close_value(2, 0, 50));
                s.index_build(&mut w);
                black_box(w.index_evals)
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_eager_builds, bench_lazy_build, bench_incremental_rebuild);
criterion_main!(benches);
