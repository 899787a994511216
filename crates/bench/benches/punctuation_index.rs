//! The punctuation index's bookkeeping (DESIGN.md §7): stored tuples
//! counted in and out by join value, punctuations held by those counts
//! and released when the last matching tuple leaves. There is no index
//! build to time; what a punctuation costs is its check on arrival and
//! the re-checks its value's 1 → 0 transitions trigger.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pjoin::components::{propagate_side, purge_state};
use pjoin::record::PRecord;
use pjoin::{JoinState, PunctuationIndex};
use punct_types::{Pattern, Punctuation, Tuple};
use stream_sim::{OpOutput, Work};

/// 5 000 tuples over 100 join values.
fn tuples() -> Vec<Tuple> {
    (0..5_000)
        .map(|k| Tuple::of(((k % 100) as i64, k as i64)))
        .collect()
}

/// Every tuple counted in, then out: two map updates per tuple, one
/// value transition per distinct value each way.
fn bench_count_in_out(c: &mut Criterion) {
    let tuples = tuples();
    c.bench_function("punctuation_index_count_5000_in_and_out", |b| {
        b.iter(|| {
            let mut ix = PunctuationIndex::new(0);
            ix.insert(Punctuation::close_value(2, 0, 7i64), 0);
            tuples.iter().for_each(|t| ix.enter(t));
            tuples.iter().for_each(|t| ix.leave(t));
            black_box(ix.propagable().count())
        })
    });
}

/// Sixteen values closed on both sides: each own-side close is held by
/// the stored tuples, the opposite closes purge them, and one
/// propagation run releases all sixteen.
fn bench_close_purge_propagate(c: &mut Criterion) {
    let tuples = tuples();
    c.bench_function("punctuation_index_close_purge_propagate_16", |b| {
        b.iter_batched(
            || {
                let mut s = JoinState::new(2, 0, 8, 64);
                for (i, t) in tuples.iter().enumerate() {
                    s.insert(PRecord::arriving(t.clone(), i as u64));
                }
                s
            },
            |mut s| {
                let mut w = Work::ZERO;
                let closes: Vec<Pattern> = (0..16i64)
                    .map(|k| {
                        s.index.insert(Punctuation::close_value(2, 0, k), 0);
                        Pattern::Constant(k.into())
                    })
                    .collect();
                purge_state(&mut s, &closes, |_| false, 10_000, &mut w);
                let mut out = OpOutput::new();
                let mut ids = Vec::new();
                propagate_side(&mut s, 0, 4, &mut out, &mut w, &mut ids);
                black_box(ids.len())
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

/// A range punctuation arriving over 100 counted values walks the
/// counts once.
fn bench_range_check(c: &mut Criterion) {
    let mut ix = PunctuationIndex::new(0);
    tuples().iter().for_each(|t| ix.enter(t));
    c.bench_function("punctuation_index_range_over_100_values", |b| {
        b.iter_batched(
            || ix.clone(),
            |mut ix| {
                ix.insert(Punctuation::on_attr(2, 0, Pattern::int_range(200, 299)), 0);
                black_box(ix.propagable().count())
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_count_in_out,
    bench_close_purge_propagate,
    bench_range_check
);
criterion_main!(benches);
