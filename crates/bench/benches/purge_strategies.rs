//! Ablation of the purge design choices (DESIGN.md §7): total purge cost
//! eager vs batched, and the on-the-fly drop check.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pjoin::components::purge::purge_state;
use pjoin::record::PRecord;
use pjoin::JoinState;
use punct_types::{Pattern, Tuple, Value};
use stream_sim::Work;

const BUCKETS: usize = 8;

fn state_with(tuples: usize) -> JoinState {
    let mut s = JoinState::new(2, 0, BUCKETS, 64);
    for k in 0..tuples {
        s.store.insert(PRecord::arriving(Tuple::of(((k % 100) as i64, k as i64)), k as u64));
    }
    s
}

/// One purge applying `n_patterns` at once over a state of `tuples` —
/// the unit of both eager (n=1) and lazy (n=threshold) purging.
fn bench_purge_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("purge_scan");
    for (tuples, n_patterns) in [(1_000, 1), (1_000, 10), (10_000, 1), (10_000, 10)] {
        let patterns: Vec<Pattern> =
            (0..n_patterns).map(|k| Pattern::Constant(Value::Int(k as i64))).collect();
        let id = format!("{tuples}t_{n_patterns}p");
        g.bench_with_input(BenchmarkId::from_parameter(id), &tuples, |b, &n| {
            b.iter_batched(
                || state_with(n),
                |mut s| {
                    let mut w = Work::ZERO;
                    let r = purge_state(&mut s, &patterns, |_| false, 1_000_000, &mut w);
                    black_box(r)
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// Eager (1 punctuation per purge, N purges) vs batched (N punctuations
/// per purge, 1 purge) over the same punctuation load: the scan-sharing
/// the lazy strategy exists for.
fn bench_eager_vs_batched_total(c: &mut Criterion) {
    let mut g = c.benchmark_group("purge_total_cost");
    let n = 32usize;
    let patterns: Vec<Pattern> = (0..n).map(|k| Pattern::Constant(Value::Int(k as i64))).collect();

    g.bench_function("eager_32_purges", |b| {
        b.iter_batched(
            || state_with(5_000),
            |mut s| {
                let mut w = Work::ZERO;
                for p in &patterns {
                    purge_state(
                        &mut s,
                        std::slice::from_ref(p),
                        |_| false,
                        1_000_000,
                        &mut w,
                    );
                }
                black_box(w.purge_scanned)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("batched_1_purge", |b| {
        b.iter_batched(
            || state_with(5_000),
            |mut s| {
                let mut w = Work::ZERO;
                purge_state(&mut s, &patterns, |_| false, 1_000_000, &mut w);
                black_box(w.purge_scanned)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// The per-arrival on-the-fly drop check (`covers_join_value`).
fn bench_on_the_fly_check(c: &mut Criterion) {
    let mut s = JoinState::new(2, 0, BUCKETS, 64);
    for k in 0..1_000i64 {
        s.index.insert(punct_types::Punctuation::close_value(2, 0, k));
    }
    let hit = Value::Int(500);
    let miss = Value::Int(5_000);
    c.bench_function("on_the_fly_covers_hit", |b| {
        b.iter(|| black_box(s.index.covers_join_value(black_box(&hit))))
    });
    c.bench_function("on_the_fly_covers_miss", |b| {
        b.iter(|| black_box(s.index.covers_join_value(black_box(&miss))))
    });
}

criterion_group!(
    benches,
    bench_purge_scan,
    bench_eager_vs_batched_total,
    bench_on_the_fly_check
);
criterion_main!(benches);
