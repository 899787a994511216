//! Cross-crate integration of the threaded executor at its smallest
//! size: feeding a generated workload through a 1-shard `ShardedPJoin`
//! (router, one shard worker and merger behind channels) must produce
//! the same result multiset as the single-threaded driver.

use punctuated_streams::core::{PJoinBuilder, PJoinConfig, PropagationTrigger, PurgeStrategy, IndexBuildStrategy};
use punctuated_streams::gen::{generate_pair, interleave_sides, StreamConfig};
use punctuated_streams::prelude::*;

fn spawn() -> ShardedPJoin {
    ShardedPJoin::spawn(ExecConfig::new(
        1,
        PJoinConfig {
            purge: PurgeStrategy::Eager,
            index_build: IndexBuildStrategy::Eager,
            propagation: PropagationTrigger::PushCount { count: 5 },
            ..PJoinConfig::new(2, 2)
        },
    ))
}

#[test]
fn threaded_matches_single_threaded() {
    let cfg = StreamConfig { tuples: 1_200, key_window: 6, seed: 31, ..StreamConfig::default() };
    let (a, b) = generate_pair(&cfg, 15.0, 15.0);

    // Single-threaded reference.
    let mut reference_op = PJoinBuilder::new(2, 2)
        .eager_purge()
        .eager_index_build()
        .propagate_every(5)
        .build();
    let driver = Driver::new(DriverConfig {
        cost: CostModel::free(),
        sample_every_micros: 1_000_000,
        collect_outputs: true,
        ..DriverConfig::default()
    });
    let reference = driver.run(&mut reference_op, &a.elements, &b.elements);
    let mut want: Vec<Tuple> =
        reference.outputs.iter().filter_map(|o| o.item.as_tuple().cloned()).collect();
    want.sort();

    // Threaded run: pushes interleaved in timestamp order.
    let exec = spawn();
    for (side, e) in interleave_sides(&a.elements, &b.elements) {
        exec.push(side, e);
    }
    let (outputs, stats) = exec.finish();
    let mut got: Vec<Tuple> =
        outputs.iter().filter_map(|o| o.item.as_tuple().cloned()).collect();
    got.sort();

    assert_eq!(got, want);
    assert!(stats.total_stats().tuples_purged > 0);
    assert!(stats.total_stats().puncts_propagated > 0);
}

#[test]
fn runtime_metrics_track_progress() {
    let exec = spawn();
    for i in 0..50i64 {
        exec.push(
            Side::Left,
            Timestamped::new(Timestamp(i as u64 * 10), StreamElement::Tuple(Tuple::of((i, 0i64)))),
        );
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while exec.metrics().consumed < 50 {
        assert!(std::time::Instant::now() < deadline, "worker stalled");
        std::thread::yield_now();
    }
    assert_eq!(exec.metrics().state_tuples, 50);
    let (_, _) = exec.finish();
}

/// `push_batch` is one channel send and nothing else: a feed with
/// interleaved sides and punctuations, pushed in uneven chunks, yields
/// the same output sequence — items and timestamps — as per-element
/// pushes.
#[test]
fn push_batch_matches_per_element_pushes() {
    let cfg = StreamConfig { tuples: 600, key_window: 6, seed: 47, ..StreamConfig::default() };
    let (a, b) = generate_pair(&cfg, 10.0, 10.0);
    let feed = interleave_sides(&a.elements, &b.elements);
    assert!(feed.iter().any(|(_, e)| e.item.is_punctuation()));

    let per_element = spawn();
    for (side, e) in feed.iter().cloned() {
        per_element.push(side, e);
    }
    let (want, want_stats) = per_element.finish();

    let batched = spawn();
    for chunk in feed.chunks(97) {
        batched.push_batch(chunk.to_vec());
    }
    let (got, got_stats) = batched.finish();

    assert!(want.iter().any(|e| e.item.is_tuple()) && want.iter().any(|e| e.item.is_punctuation()));
    assert_eq!(got, want);
    assert_eq!(got_stats.total_stats(), want_stats.total_stats());
}
