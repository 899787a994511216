//! Property test: for any well-formed punctuated workload and any shard
//! count in {1, 2, 4, 8}, the sharded executor's output is a
//! permutation of the single-threaded PJoin's output — the same
//! multiset of joined tuples AND the same multiset of propagated
//! punctuations (each ingested punctuation exactly once, post-
//! alignment).
//!
//! Workloads come from the streamgen sliding-key-window generator, which
//! guarantees punctuation semantics (no tuple ever arrives on a key its
//! own side already closed) — the precondition under which purge timing
//! cannot change the result multiset.

use pjoin::{IndexBuildStrategy, PJoinConfig, PropagationTrigger, PurgeStrategy};
use proptest::prelude::*;
use punct_exec::{ExecConfig, ShardedPJoin};
use punct_types::{StreamElement, Timestamp, Timestamped};
use stream_sim::{BinaryStreamOp, OpOutput, Side};
use streamgen::{generate_pair, PunctScheme, StreamConfig};

/// Interleaves the two generated streams into one timestamp-ordered
/// feed, stable on ties (left first) so the reference and every sharded
/// run consume the identical sequence.
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

/// Runs the plain single-threaded operator over the feed.
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

/// The shard counts under test.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn join_config_strategy() -> impl Strategy<Value = PJoinConfig> {
    (
        prop_oneof![
            Just(PurgeStrategy::Eager),
            (1u64..20).prop_map(|t| PurgeStrategy::Lazy { threshold: t }),
            Just(PurgeStrategy::Never),
        ],
        prop_oneof![
            Just(IndexBuildStrategy::Lazy),
            Just(IndexBuildStrategy::Eager),
        ],
        prop_oneof![
            Just(PropagationTrigger::Disabled),
            (1u64..15).prop_map(|c| PropagationTrigger::PushCount { count: c }),
            Just(PropagationTrigger::MatchedPair),
        ],
        any::<bool>(),
        1usize..6,
    )
        .prop_map(
            |(purge, index_build, propagation, on_the_fly_drop, buckets)| PJoinConfig {
                purge,
                index_build,
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
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn sharded_output_is_a_permutation_of_single_threaded(
        workload in workload_strategy(),
        join_config in join_config_strategy(),
    ) {
        let (left, right) = generate_pair(&workload, workload.punct_mean_tuples, workload.punct_mean_tuples);
        let feed = interleave(&left.elements, &right.elements);
        let expected = canonical(&reference_run(&join_config, &feed));
        let ingested_puncts = feed.iter().filter(|(_, e)| e.item.is_punctuation()).count();

        for shards in SHARD_COUNTS {
            let exec = ShardedPJoin::spawn(ExecConfig::new(shards, join_config.clone()));
            exec.push_batch(feed.clone());
            let (outputs, stats) = exec.finish();
            let items: Vec<StreamElement> = outputs.into_iter().map(|e| e.item).collect();
            let got = canonical(&items);

            prop_assert_eq!(
                &got.0, &expected.0,
                "tuple multiset diverged at {} shards", shards
            );
            prop_assert_eq!(
                &got.1, &expected.1,
                "punctuation multiset diverged at {} shards", shards
            );
            prop_assert_eq!(stats.merge.puncts_unexpected, 0);
            // Every registered expectation either completed or (with
            // propagation disabled) none did.
            let (registered, emitted, _) = (
                stats.router.puncts_targeted
                    + stats.router.puncts_multicast
                    + stats.router.puncts_broadcast,
                stats.merge.puncts,
                (),
            );
            prop_assert!(emitted <= registered);
            prop_assert!(registered as usize <= ingested_puncts);
        }
    }
}
