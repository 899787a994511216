//! Microbenchmarks of the punctuation pattern machinery: per-tuple
//! pattern evaluation is the inner loop of purge scans, and the
//! punctuation index's value maps answer the on-the-fly drop and the
//! propagation re-checks.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pjoin::PunctuationIndex;
use punct_types::{Pattern, Punctuation, Tuple, Value};

fn bench_pattern_matches(c: &mut Criterion) {
    let mut g = c.benchmark_group("pattern_matches");
    let v = Value::Int(500);
    let cases = [
        ("wildcard", Pattern::Wildcard),
        ("constant_hit", Pattern::Constant(Value::Int(500))),
        ("constant_miss", Pattern::Constant(Value::Int(7))),
        ("range", Pattern::int_range(400, 600)),
        (
            "enumeration16",
            Pattern::enumeration((0..16).map(|i| Value::Int(i * 100)).collect()),
        ),
    ];
    for (name, p) in cases {
        g.bench_function(name, |b| b.iter(|| black_box(p.matches(black_box(&v)))));
    }
    g.finish();
}

fn bench_punctuation_matches(c: &mut Criterion) {
    let p = Punctuation::close_value(4, 0, 42i64);
    let hit = Tuple::of((42i64, 1i64, 2i64, 3i64));
    let miss = Tuple::of((41i64, 1i64, 2i64, 3i64));
    c.bench_function("punctuation_matches_hit", |b| {
        b.iter(|| black_box(p.matches(black_box(&hit))))
    });
    c.bench_function("punctuation_matches_miss", |b| {
        b.iter(|| black_box(p.matches(black_box(&miss))))
    });
}

fn bench_set_match(c: &mut Criterion) {
    let mut g = c.benchmark_group("covers_value");
    for size in [16usize, 256, 4096] {
        // Constant punctuations: the hash fast path.
        let mut constants = PunctuationIndex::new(0);
        for k in 0..size {
            constants.insert(Punctuation::close_value(2, 0, k as i64), 0);
        }
        let v = Value::Int((size / 2) as i64);
        g.bench_with_input(BenchmarkId::new("constants", size), &size, |b, _| {
            b.iter(|| black_box(constants.covers_value(black_box(&v))))
        });

        // Range punctuations: the interval index's stabbing query.
        let mut ranges = PunctuationIndex::new(0);
        for k in 0..size {
            ranges.insert(
                Punctuation::on_attr(2, 0, Pattern::int_range(k as i64 * 10, k as i64 * 10 + 9)),
                0,
            );
        }
        let v = Value::Int((size as i64 / 2) * 10);
        g.bench_with_input(BenchmarkId::new("ranges", size), &size, |b, _| {
            b.iter(|| black_box(ranges.covers_value(black_box(&v))))
        });
    }
    g.finish();
}

/// The candidates a value's count transition re-checks.
fn bench_for_each_cover(c: &mut Criterion) {
    let mut set = PunctuationIndex::new(0);
    for k in 0..1024i64 {
        set.insert(Punctuation::close_value(2, 0, k), 0);
    }
    let v = Value::Int(1000);
    c.bench_function("for_each_cover_constants", |b| {
        b.iter(|| {
            let mut n = 0usize;
            set.for_each_cover(black_box(&v), |_| n += 1);
            black_box(n)
        })
    });
}

criterion_group!(
    benches,
    bench_pattern_matches,
    bench_punctuation_matches,
    bench_set_match,
    bench_for_each_cover
);
criterion_main!(benches);
