//! Batching must be invisible: for any well-formed punctuated workload,
//! any shard count, and any batch size, the sharded executor's output is
//! the same multiset of joined tuples and the same multiset of aligned
//! punctuations as the per-element (batch size 1) run — which is
//! itself anchored against the single-threaded operator.
//!
//! Beyond the property test this file pins down the deterministic
//! corners of the batched data path:
//!
//! * at every shard count no joined tuple comes after an emitted
//!   punctuation it satisfies, whatever the batch size;
//! * at one shard the *sequence* (not just the multiset) must be
//!   identical across batch sizes, and identical to the plain operator's
//!   — single shard, FIFO channels, elements applied in arrival order;
//! * punctuations are flush barriers: a punctuation staged behind a
//!   partial batch must come out promptly, without `finish()`, ordered
//!   after the results of the tuples it flushed;
//! * the shard decision (high hash bits) and the store's bucket
//!   decision (low hash bits) stay decorrelated, so carrying one hash
//!   end-to-end does not collapse each shard's keys into a few buckets.

use std::time::Duration;

use pjoin::{PJoinConfig, PropagationTrigger, PurgeStrategy};
use proptest::prelude::*;
use punct_exec::{shard_of_hash, ExecConfig, ShardedPJoin};
use punct_types::{Punctuation, StreamElement, Timestamp, Timestamped, Tuple, Value};
use stream_sim::{BinaryStreamOp, OpOutput, Side};
use streamgen::{generate_pair, PunctScheme, StreamConfig};

/// Interleaves the two generated streams into one timestamp-ordered
/// feed, stable on ties (left first) so every run consumes the identical
/// sequence.
fn interleave(
    left: &[Timestamped<StreamElement>],
    right: &[Timestamped<StreamElement>],
) -> Vec<(Side, Timestamped<StreamElement>)> {
    let mut feed = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0, 0);
    while i < left.len() || j < right.len() {
        let take_left = match (left.get(i), right.get(j)) {
            (Some(l), Some(r)) => l.ts <= r.ts,
            (Some(_), None) => true,
            _ => false,
        };
        if take_left {
            feed.push((Side::Left, left[i].clone()));
            i += 1;
        } else {
            feed.push((Side::Right, right[j].clone()));
            j += 1;
        }
    }
    feed
}

/// Runs the plain single-threaded operator over the feed (the semantic
/// anchor every executor configuration must agree with).
fn reference_run(
    config: &PJoinConfig,
    feed: &[(Side, Timestamped<StreamElement>)],
) -> Vec<StreamElement> {
    let mut join = pjoin::PJoin::new(config.clone());
    let mut out = OpOutput::new();
    let mut collected = Vec::new();
    let mut last = Timestamp::ZERO;
    for (side, e) in feed {
        last = last.max(e.ts);
        join.on_element(*side, e.item.clone(), e.ts, &mut out);
        collected.extend(out.drain());
    }
    while join.on_end(last, &mut out) {
        collected.extend(out.drain());
    }
    collected.extend(out.drain());
    collected
}

/// Canonical multiset form: sorted debug renderings, split into tuples
/// and punctuations so failures report which class diverged.
fn canonical(elements: &[StreamElement]) -> (Vec<String>, Vec<String>) {
    let mut tuples = Vec::new();
    let mut puncts = Vec::new();
    for e in elements {
        match e {
            StreamElement::Tuple(t) => tuples.push(format!("{t:?}")),
            StreamElement::Punctuation(p) => puncts.push(format!("{p:?}")),
        }
    }
    tuples.sort();
    puncts.sort();
    (tuples, puncts)
}

/// One full executor run at the given shard count and router batch.
fn exec_run(
    shards: usize,
    batch: usize,
    join_config: &PJoinConfig,
    feed: &[(Side, Timestamped<StreamElement>)],
) -> (Vec<StreamElement>, punct_exec::ExecStats) {
    let mut config = ExecConfig::new(shards, join_config.clone());
    config.router_batch = batch;
    let exec = ShardedPJoin::spawn(config);
    exec.push_batch(feed.to_vec());
    let (outputs, stats) = exec.finish();
    (outputs.into_iter().map(|e| e.item).collect(), stats)
}

/// The first joined tuple that comes after an emitted punctuation it
/// satisfies, as `(punctuation position, tuple position)` — `None` when
/// every punctuation follows all the results it covers (paper §3.5,
/// Theorem 1), the order a downstream operator relies on.
fn tuple_after_its_punctuation(items: &[StreamElement]) -> Option<(usize, usize)> {
    let mut emitted: Vec<(usize, &Punctuation)> = Vec::new();
    for (i, e) in items.iter().enumerate() {
        match e {
            StreamElement::Punctuation(p) => emitted.push((i, p)),
            StreamElement::Tuple(t) => {
                if let Some(&(at, _)) = emitted.iter().find(|(_, p)| p.matches(t)) {
                    return Some((at, i));
                }
            }
        }
    }
    None
}

/// The batch sizes under test.
const BATCH_SIZES: [usize; 4] = [1, 7, 64, 256];

/// The shard counts under test.
const SHARD_COUNTS: [usize; 2] = [1, 4];

/// Join configs with and without on-the-fly dropping, plus purge and
/// propagation variation — batching must be invisible under all of them.
fn join_config_strategy() -> impl Strategy<Value = PJoinConfig> {
    (
        prop_oneof![
            Just(PurgeStrategy::Eager),
            (1u64..20).prop_map(|t| PurgeStrategy::Lazy { threshold: t }),
        ],
        prop_oneof![
            (1u64..15).prop_map(|c| PropagationTrigger::PushCount { count: c }),
            Just(PropagationTrigger::MatchedPair),
        ],
        any::<bool>(),
        1usize..6,
    )
        .prop_map(
            |(purge, propagation, on_the_fly_drop, buckets)| PJoinConfig {
                purge,
                propagation,
                on_the_fly_drop,
                buckets: buckets * 4,
                ..PJoinConfig::new(2, 2)
            },
        )
}

fn workload_strategy() -> impl Strategy<Value = StreamConfig> {
    (
        any::<u64>(),
        100usize..400,
        1u64..12,
        prop_oneof![
            Just(PunctScheme::ConstantPerKey),
            (1u64..6).prop_map(|b| PunctScheme::RangeBatch { batch: b }),
        ],
        4f64..40.0,
    )
        .prop_map(
            |(seed, tuples, key_window, punct_scheme, punct_mean)| StreamConfig {
                seed,
                tuples,
                key_window,
                punct_scheme,
                punct_mean_tuples: punct_mean,
                payload_attrs: 1,
                ..StreamConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn batched_output_matches_unbatched(
        workload in workload_strategy(),
        join_config in join_config_strategy(),
    ) {
        let (left, right) = generate_pair(&workload, workload.punct_mean_tuples, workload.punct_mean_tuples);
        let feed = interleave(&left.elements, &right.elements);
        let anchor = canonical(&reference_run(&join_config, &feed));

        for shards in SHARD_COUNTS {
            // The per-element run (batch size 1) is the baseline each
            // batched run must reproduce — and it must itself agree with
            // the single-threaded operator.
            let (base_items, _) = exec_run(shards, 1, &join_config, &feed);
            let expected = canonical(&base_items);
            prop_assert_eq!(
                &expected.0, &anchor.0,
                "per-element run diverged from the single-threaded operator at {} shards", shards
            );
            prop_assert_eq!(&expected.1, &anchor.1);
            prop_assert_eq!(tuple_after_its_punctuation(&base_items), None, "at {} shards", shards);

            for batch in BATCH_SIZES {
                if batch == 1 {
                    continue;
                }
                let (items, stats) = exec_run(shards, batch, &join_config, &feed);
                let got = canonical(&items);
                prop_assert_eq!(
                    &got.0, &expected.0,
                    "tuple multiset diverged at {} shards, batch {}", shards, batch
                );
                prop_assert_eq!(
                    &got.1, &expected.1,
                    "punctuation multiset diverged at {} shards, batch {}", shards, batch
                );
                prop_assert_eq!(stats.align.puncts_unexpected, 0);
                prop_assert_eq!(
                    tuple_after_its_punctuation(&items), None,
                    "at {} shards, batch {}", shards, batch
                );
            }
        }
    }

    /// Range punctuations reach every shard, so each emission goes
    /// through the aligner; the order must hold at every batch size.
    #[test]
    fn punctuations_follow_every_tuple_they_cover(
        workload in range_workload_strategy(),
        count in 1u64..4,
    ) {
        let (left, right) = generate_pair(&workload, workload.punct_mean_tuples, workload.punct_mean_tuples);
        let feed = interleave(&left.elements, &right.elements);
        let join_config = PJoinConfig {
            propagation: PropagationTrigger::PushCount { count },
            ..prompt_config()
        };
        for shards in [2, 4, 8] {
            for batch in [1, 7, 64] {
                let (items, _) = exec_run(shards, batch, &join_config, &feed);
                prop_assert_eq!(
                    tuple_after_its_punctuation(&items), None,
                    "at {} shards, batch {}", shards, batch
                );
            }
        }
    }
}

/// [`workload_strategy`] restricted to range punctuations.
fn range_workload_strategy() -> impl Strategy<Value = StreamConfig> {
    (workload_strategy(), 1u64..6).prop_map(|(workload, batch)| StreamConfig {
        punct_scheme: PunctScheme::RangeBatch { batch },
        ..workload
    })
}

fn tup(ts: u64, key: i64, payload: i64) -> Timestamped<StreamElement> {
    Timestamped::new(Timestamp(ts), Tuple::of((key, payload)).into())
}

fn punct(ts: u64, key: i64) -> Timestamped<StreamElement> {
    Timestamped::new(Timestamp(ts), Punctuation::close_value(2, 0, key).into())
}

/// A feed with long same-side runs (all left tuples, then all right,
/// then paired punctuations), so every batch larger than one is full.
fn run_heavy_feed(keys: i64) -> Vec<(Side, Timestamped<StreamElement>)> {
    let mut feed = Vec::new();
    let mut ts = 0u64;
    for k in 0..keys {
        ts += 1;
        feed.push((Side::Left, tup(ts, k, 10 * k)));
    }
    for k in 0..keys {
        ts += 1;
        feed.push((Side::Right, tup(ts, k, -k)));
    }
    for k in 0..keys {
        ts += 1;
        feed.push((Side::Left, punct(ts, k)));
        ts += 1;
        feed.push((Side::Right, punct(ts, k)));
    }
    feed
}

/// A config with prompt propagation and purge.
fn prompt_config() -> PJoinConfig {
    PJoinConfig {
        purge: PurgeStrategy::Eager,
        propagation: PropagationTrigger::PushCount { count: 1 },
        ..PJoinConfig::new(2, 2)
    }
}

/// One shard, FIFO channels: batching must preserve the exact output
/// *sequence*, not merely the multiset — the shard applies elements in
/// arrival order whatever the batch size, so the sequence is also the
/// plain single-threaded operator's.
#[test]
fn single_shard_sequence_is_identical_across_batch_sizes() {
    let feed = run_heavy_feed(150);
    let config = prompt_config();
    let (baseline, base_stats) = exec_run(1, 1, &config, &feed);
    assert!(baseline.iter().any(|e| e.is_tuple()) && baseline.iter().any(|e| e.is_punctuation()));
    assert_eq!(
        baseline,
        reference_run(&config, &feed),
        "one shard at batch 1 diverged from the plain PJoin::on_element run"
    );
    for batch in [7usize, 64, 256] {
        let (items, stats) = exec_run(1, batch, &config, &feed);
        assert_eq!(items, baseline, "output sequence diverged at one shard with batch {batch}");
        // The whole point of batching: far fewer channel sends than
        // the per-element run for the same answer.
        assert!(
            stats.router.batches < base_stats.router.batches,
            "batch {batch} sent {} batches, per-element sent {}",
            stats.router.batches,
            base_stats.router.batches
        );
    }
}

/// Punctuations are flush barriers: even with a batch size far larger
/// than the workload, the punctuation — and the join results of every
/// tuple staged before it — must emerge promptly, with no `finish()`.
#[test]
fn punctuation_flushes_partial_batches_promptly() {
    let mut config = ExecConfig::new(4, prompt_config());
    config.router_batch = 1 << 20;
    let exec = ShardedPJoin::spawn(config);
    let mut feed = Vec::new();
    for k in 0..8i64 {
        feed.push((Side::Left, tup(k as u64 + 1, k, k)));
        feed.push((Side::Right, tup(k as u64 + 1, k, -k)));
    }
    feed.push((Side::Left, punct(100, 3)));
    feed.push((Side::Right, punct(101, 3)));
    exec.push_batch(feed);

    // Without the barrier (and with a 2^20-element batch) nothing would
    // leave the router until finish(); the barrier bounds alignment
    // latency by the pipeline, not the batch size.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut got: Vec<Timestamped<StreamElement>> = Vec::new();
    while !got.iter().any(|e| e.item.is_punctuation()) {
        assert!(
            std::time::Instant::now() < deadline,
            "punctuation never emerged without finish(); got {got:?}"
        );
        got.extend(exec.recv_outputs(Duration::from_millis(50)));
    }
    // The eight joined pairs flushed ahead of the barrier; the key-3
    // results must already be out by the time its punctuation is.
    let punct_at = got.iter().position(|e| e.item.is_punctuation()).unwrap();
    let tuples_before = got[..punct_at].iter().filter(|e| e.item.is_tuple()).count();
    assert!(
        tuples_before >= 1,
        "the barrier must flush staged tuples ahead of the punctuation: {got:?}"
    );

    let (rest, stats) = exec.finish();
    let all: Vec<_> = got.into_iter().chain(rest).collect();
    assert_eq!(all.iter().filter(|e| e.item.is_tuple()).count(), 8);
    assert_eq!(stats.align.puncts_unexpected, 0);
}

/// The single carried hash serves two decisions that must stay
/// independent: high 32 bits pick the shard, low bits pick the bucket.
/// Within one shard's key population, buckets must still spread — if
/// both took `hash % n` the shard filter would collapse every resident
/// key into `buckets / shards` congruence classes.
#[test]
fn shard_and_bucket_decisions_are_decorrelated() {
    let shards = 4;
    let buckets = 64u64;
    for shard in 0..shards {
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..4000i64 {
            let hash = Value::from(k).join_hash();
            if shard_of_hash(hash, shards) == shard {
                seen.insert(hash.unwrap() % buckets);
            }
        }
        assert!(
            seen.len() > (buckets as usize) / 2,
            "shard {shard}'s keys occupy only {} of {buckets} buckets",
            seen.len()
        );
    }
}
