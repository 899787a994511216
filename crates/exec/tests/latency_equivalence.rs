//! Latency-histogram validation for the tracing tentpole:
//!
//! 1. **Hand-computed buckets** — a four-element deterministic workload
//!    whose three latency histograms (tuple emit, punctuation purge,
//!    punctuation propagation) are derived by hand and asserted bucket
//!    by bucket.
//! 2. **Shard-merge exactness** — per-shard histograms merged across
//!    1/2/4/8 shards equal the single-threaded operator's totals, on a
//!    workload whose keys and closing punctuations co-locate.

use pjoin::{PJoin, PJoinConfig, PropagationTrigger, PurgeStrategy};
use punct_exec::{ExecConfig, ShardedPJoin};
use punct_trace::{JoinLatencies, LatencyHistogram};
use punct_types::{Punctuation, StreamElement, Timestamp, Timestamped, Tuple};
use stream_sim::{BinaryStreamOp, OpOutput, Side};

fn tup(ts: u64, key: i64, payload: i64) -> Timestamped<StreamElement> {
    Timestamped::new(Timestamp(ts), Tuple::of((key, payload)).into())
}

fn punct(ts: u64, key: i64) -> Timestamped<StreamElement> {
    Timestamped::new(Timestamp(ts), Punctuation::close_value(2, 0, key).into())
}

fn traced_config(purge: PurgeStrategy) -> PJoinConfig {
    PJoinConfig {
        purge,
        propagation: PropagationTrigger::PushCount { count: 1 },
        ..PJoinConfig::new(2, 2)
    }
    .with_tracing()
}

/// Runs a ts-ordered feed through a single (non-sharded) PJoin and
/// returns its latency histograms.
fn run_single(
    config: PJoinConfig,
    feed: &[(Side, Timestamped<StreamElement>)],
) -> JoinLatencies {
    let mut join = PJoin::new(config);
    let mut out = OpOutput::new();
    let mut last_ts = Timestamp::ZERO;
    for (side, e) in feed {
        last_ts = last_ts.max(e.ts);
        join.on_element(*side, e.item.clone(), e.ts, &mut out);
        out.drain().for_each(drop);
    }
    while join.on_end(last_ts, &mut out) {
        out.drain().for_each(drop);
    }
    *join.latencies()
}

#[test]
fn hand_computed_latency_histograms() {
    // Workload (virtual µs):
    //   t=1000  left  tuple  k=7   (stored)
    //   t=2000  right tuple  k=7   (joins the stored left tuple:
    //                               emit latency = 2000-1000 = 1000)
    //   t=3000  left  punct  close(7)
    //   t=4000  right punct  close(7)
    //
    // Purge is Lazy{2}: the purge runs while processing the second
    // punctuation (now = 4000), so the left punctuation waited
    // 4000-3000 = 1000 µs and the right one 0 µs.
    //
    // Propagation is PushCount{1}, but a punctuation can only be
    // released downstream once its cross-input match arrives — so both
    // are released at now = 4000: latency 1000 for the left, 0 for the
    // right.
    let feed = vec![
        (Side::Left, tup(1_000, 7, 0)),
        (Side::Right, tup(2_000, 7, 1)),
        (Side::Left, punct(3_000, 7)),
        (Side::Right, punct(4_000, 7)),
    ];
    let l = run_single(traced_config(PurgeStrategy::Lazy { threshold: 2 }), &feed);

    // 1000 µs lands in bucket ⌊log2(1000)⌋ = 9 ([512, 1023]); 0 in
    // bucket 0.
    assert_eq!(LatencyHistogram::bucket_index(1_000), 9);
    assert_eq!(LatencyHistogram::bucket_index(0), 0);

    assert_eq!(l.tuple_emit.count(), 1);
    assert_eq!(l.tuple_emit.bucket(9), 1);
    assert_eq!(l.tuple_emit.sum(), 1_000);
    assert_eq!(l.tuple_emit.max(), 1_000);

    assert_eq!(l.punct_purge.count(), 2);
    assert_eq!(l.punct_purge.bucket(0), 1);
    assert_eq!(l.punct_purge.bucket(9), 1);
    assert_eq!(l.punct_purge.max(), 1_000);

    assert_eq!(l.punct_propagate.count(), 2);
    assert_eq!(l.punct_propagate.bucket(0), 1);
    assert_eq!(l.punct_propagate.bucket(9), 1);
    assert_eq!(l.punct_propagate.max(), 1_000);

    // Every other bucket is empty in all three histograms.
    for (hist, name) in [
        (&l.tuple_emit, "tuple_emit"),
        (&l.punct_purge, "punct_purge"),
        (&l.punct_propagate, "punct_propagate"),
    ] {
        for (i, &n) in hist.buckets().iter().enumerate() {
            if i != 0 && i != 9 {
                assert_eq!(n, 0, "{name} bucket {i} should be empty");
            }
        }
    }
}

/// A deterministic ts-ordered workload: every key gets a left tuple, a
/// right tuple `g` µs later, then closing punctuations on both sides —
/// all within the key's own non-overlapping time block, so each key's
/// latencies depend only on its own elements and are identical no
/// matter which shard the key lands on. Gaps vary per key (powers of
/// two, 1..2048 µs) to populate many histogram buckets.
fn keyed_feed(keys: i64) -> Vec<(Side, Timestamped<StreamElement>)> {
    let mut feed = Vec::new();
    let mut t = 0u64;
    for k in 0..keys {
        let g = 1u64 << (k % 12) as u32;
        t += 1;
        feed.push((Side::Left, tup(t, k, 10 * k)));
        t += g;
        feed.push((Side::Right, tup(t, k, -k)));
        t += g;
        feed.push((Side::Left, punct(t, k)));
        t += g;
        feed.push((Side::Right, punct(t, k)));
    }
    feed
}

#[test]
fn shard_merged_histograms_equal_single_threaded() {
    let feed = keyed_feed(96);
    let config = traced_config(PurgeStrategy::Eager);
    let reference = run_single(config.clone(), &feed);
    assert!(
        reference.tuple_emit.nonzero_buckets().len() >= 10,
        "workload should spread across many buckets"
    );
    assert_eq!(reference.tuple_emit.count(), 96);
    assert_eq!(reference.punct_propagate.count(), 2 * 96);

    for shards in [1usize, 2, 4, 8] {
        let exec = ShardedPJoin::spawn(ExecConfig::new(shards, config.clone()));
        exec.push_batch(feed.clone());
        let (_outputs, stats) = exec.finish();
        let merged = stats.total_metrics().latencies;
        assert_eq!(
            merged, reference,
            "merged histograms diverge from single-threaded at {shards} shards"
        );
    }
}

#[test]
fn tracing_disabled_records_no_latencies() {
    let feed = keyed_feed(8);
    let config = PJoinConfig {
        purge: PurgeStrategy::Eager,
        propagation: PropagationTrigger::PushCount { count: 1 },
        ..PJoinConfig::new(2, 2)
    };
    assert!(run_single(config.clone(), &feed).is_empty());
    let exec = ShardedPJoin::spawn(ExecConfig::new(4, config));
    exec.push_batch(feed);
    let (_outputs, stats) = exec.finish();
    assert!(stats.total_metrics().latencies.is_empty());
    assert!(stats.all_trace_events().events.is_empty());
}
