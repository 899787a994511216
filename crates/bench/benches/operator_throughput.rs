//! End-to-end operator throughput (real CPU time, not virtual time):
//! PJoin configurations vs the XJoin baseline over the same punctuated
//! workload, plus the on-the-fly-drop ablation.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pjoin::PJoinBuilder;
use pjoin_bench::paper_workload;
use punct_types::{StreamElement, Timestamped};
use stream_sim::{BinaryStreamOp, CostModel, Driver, DriverConfig};
use xjoin::{XJoin, XJoinConfig};

const TUPLES: usize = 5_000;

fn run(op: &mut dyn BinaryStreamOp, left: &[Timestamped<StreamElement>], right: &[Timestamped<StreamElement>]) -> u64 {
    let driver = Driver::new(DriverConfig {
        cost: CostModel::free(),
        sample_every_micros: 10_000_000,
        collect_outputs: false,
        ..DriverConfig::default()
    });
    driver.run(op, left, right).total_out_tuples
}

fn bench_operators(c: &mut Criterion) {
    let w = paper_workload(TUPLES, 40.0, 40.0, 7);
    let mut g = c.benchmark_group("operator_throughput");
    g.throughput(Throughput::Elements((w.left.len() + w.right.len()) as u64));
    g.sample_size(10);

    g.bench_function("pjoin_eager", |b| {
        b.iter(|| {
            let mut op = PJoinBuilder::new(2, 2).buckets(64).eager_purge().no_propagation().build();
            black_box(run(&mut op, &w.left, &w.right))
        })
    });
    g.bench_function("pjoin_lazy100", |b| {
        b.iter(|| {
            let mut op =
                PJoinBuilder::new(2, 2).buckets(64).lazy_purge(100).no_propagation().build();
            black_box(run(&mut op, &w.left, &w.right))
        })
    });
    g.bench_function("pjoin_propagating", |b| {
        b.iter(|| {
            let mut op = PJoinBuilder::new(2, 2)
                .buckets(64)
                .eager_purge()
                .propagate_every(10)
                .build();
            black_box(run(&mut op, &w.left, &w.right))
        })
    });
    g.bench_function("xjoin", |b| {
        b.iter(|| {
            let mut op = XJoin::new(XJoinConfig { buckets: 64, ..XJoinConfig::default() });
            black_box(run(&mut op, &w.left, &w.right))
        })
    });
    g.finish();
}

fn bench_on_the_fly_ablation(c: &mut Criterion) {
    // Asymmetric rates: the regime where the on-the-fly drop matters.
    let w = paper_workload(TUPLES, 5.0, 50.0, 7);
    let mut g = c.benchmark_group("on_the_fly_ablation");
    g.sample_size(10);
    for (name, enabled) in [("drop_on", true), ("drop_off", false)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut op = PJoinBuilder::new(2, 2)
                    .buckets(64)
                    .eager_purge()
                    .no_propagation()
                    .on_the_fly_drop(enabled)
                    .build();
                black_box(run(&mut op, &w.left, &w.right))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_operators, bench_on_the_fly_ablation);
criterion_main!(benches);
