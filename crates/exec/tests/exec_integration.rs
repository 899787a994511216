//! End-to-end tests of the sharded executor: clean shutdown under tiny
//! channel capacities, exactly-once punctuation alignment, ordered
//! merging, and metrics aggregation.

use pjoin::PJoinConfig;
use punct_exec::{ExecConfig, ShardedPJoin};
use punct_types::{Punctuation, StreamElement, Timestamp, Timestamped, Tuple};
use stream_sim::Side;

fn tup(ts: u64, key: i64, payload: i64) -> Timestamped<StreamElement> {
    Timestamped::new(Timestamp(ts), Tuple::of((key, payload)).into())
}

fn punct(ts: u64, key: i64) -> Timestamped<StreamElement> {
    Timestamped::new(Timestamp(ts), Punctuation::close_value(2, 0, key).into())
}

/// A workload where every key appears once per side: k keys → k joined
/// outputs, plus per-key punctuations on both sides.
fn keyed_workload(keys: i64) -> Vec<(Side, Timestamped<StreamElement>)> {
    let mut feed = Vec::new();
    let mut ts = 0;
    for k in 0..keys {
        ts += 1;
        feed.push((Side::Left, tup(ts, k, 10 * k)));
        ts += 1;
        feed.push((Side::Right, tup(ts, k, -k)));
        ts += 1;
        feed.push((Side::Left, punct(ts, k)));
        ts += 1;
        feed.push((Side::Right, punct(ts, k)));
    }
    feed
}

#[test]
fn tiny_channels_finish_without_deadlock() {
    // Capacities far smaller than the workload: every channel must back-
    // pressure and the drain-while-feeding paths must keep it moving.
    // One shard is the single-worker runtime: its only worker blocks on
    // the capacity-1 output path and `finish` alone must drain it.
    for shards in [1, 4] {
        let mut config = ExecConfig::new(shards, PJoinConfig::new(2, 2));
        config.input_capacity = 2;
        config.shard_capacity = 1;
        config.event_capacity = 2;
        config.output_capacity = 1;
        config.router_batch = 4;

        let exec = ShardedPJoin::spawn(config);
        let keys = 500i64;
        for (side, e) in keyed_workload(keys) {
            exec.push(side, e);
        }
        let (outputs, stats) = exec.finish();

        let tuples = outputs.iter().filter(|e| e.item.is_tuple()).count();
        let puncts = outputs.iter().filter(|e| e.item.is_punctuation()).count();
        assert_eq!(tuples as i64, keys);
        // Every ingested punctuation aligned and emitted exactly once.
        assert_eq!(puncts as i64, 2 * keys);
        assert_eq!(stats.merge.puncts_unexpected, 0);
        assert_eq!(stats.merge.puncts_unaligned, 0);
        // Constant-key punctuations are targeted, never broadcast.
        assert_eq!(stats.router.puncts_targeted, 2 * keys as u64);
        assert_eq!(stats.router.puncts_broadcast, 0);
        // Both sides fully purged by the paired punctuations.
        assert_eq!(stats.total_stats().tuples_purged + stats.total_stats().dropped_on_fly, 2 * keys as u64);
    }
}

#[test]
fn broadcast_punctuation_emitted_exactly_once_after_all_shards() {
    let shards = 8;
    let exec = ShardedPJoin::spawn(ExecConfig::new(shards, PJoinConfig::new(2, 2)));
    // Tuples scattered over all shards, then one wildcard-range
    // punctuation on the left closing every key so far.
    for k in 0..64i64 {
        exec.push(Side::Left, tup(k as u64 + 1, k, k));
        exec.push(Side::Right, tup(k as u64 + 1, k, -k));
    }
    let range = Punctuation::on_attr(
        2,
        0,
        punct_types::Pattern::range(
            punct_types::Bound::Inclusive(punct_types::Value::from(0i64)),
            punct_types::Bound::Inclusive(punct_types::Value::from(63i64)),
        )
        .unwrap(),
    );
    exec.push(Side::Left, Timestamped::new(Timestamp(100), range.into()));
    let (outputs, stats) = exec.finish();

    assert_eq!(stats.router.puncts_broadcast, 1);
    let puncts: Vec<_> = outputs.iter().filter(|e| e.item.is_punctuation()).collect();
    // All `shards` copies propagated, merged into exactly one emission.
    assert_eq!(puncts.len(), 1);
    assert_eq!(stats.merge.puncts_held, shards as u64 - 1);
    assert_eq!(stats.merge.puncts_unaligned, 0);
    // The range purged the whole left state on every shard.
    assert_eq!(stats.total_stats().tuples_purged, 64);
}

#[test]
fn ordered_merge_emits_in_timestamp_order() {
    let mut config = ExecConfig::new(4, PJoinConfig::new(2, 2)).ordered();
    config.router_batch = 8;
    let exec = ShardedPJoin::spawn(config);
    let feed = keyed_workload(300);
    for (side, e) in feed {
        exec.push(side, e);
    }
    let (outputs, stats) = exec.finish();
    assert_eq!(outputs.iter().filter(|e| e.item.is_tuple()).count(), 300);
    assert!(
        outputs.windows(2).all(|w| w[0].ts <= w[1].ts),
        "ordered merge produced out-of-order timestamps"
    );
    assert_eq!(stats.merge.puncts_unexpected, 0);
}

#[test]
fn ordered_and_arrival_merge_agree_on_the_multiset() {
    let run = |ordered: bool| {
        let base = ExecConfig::new(4, PJoinConfig::new(2, 2));
        let config = if ordered { base.ordered() } else { base };
        let exec = ShardedPJoin::spawn(config);
        for (side, e) in keyed_workload(200) {
            exec.push(side, e);
        }
        let (outputs, _) = exec.finish();
        let mut items: Vec<String> =
            outputs.iter().map(|e| format!("{:?}", e.item)).collect();
        items.sort();
        items
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn shard_metrics_aggregate_and_expose_per_shard_state() {
    let shards = 4;
    let exec = ShardedPJoin::spawn(ExecConfig::new(shards, PJoinConfig::new(2, 2)));
    // Left tuples only: all state retained (no punctuations to purge).
    for k in 0..400i64 {
        exec.push(Side::Left, tup(k as u64 + 1, k, k));
    }
    // Wait until the pipeline has consumed everything so the live
    // snapshot is meaningful.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while exec.metrics().consumed < 400 {
        assert!(std::time::Instant::now() < deadline, "pipeline stalled");
        std::thread::yield_now();
    }
    let per_shard = exec.shard_metrics();
    assert_eq!(per_shard.len(), shards);
    let live = exec.metrics();
    assert_eq!(live.consumed, 400);
    assert_eq!(live.state_tuples, 400);
    // Hash partitioning spread the keys: no shard holds everything.
    assert!(per_shard.iter().all(|m| m.state_tuples < 400));
    assert_eq!(exec.tuples_routed(), 400);

    let (_, stats) = exec.finish();
    assert_eq!(stats.total_metrics().consumed, 400);
    assert_eq!(stats.total_metrics().state_tuples, 400);
    assert_eq!(stats.shards.len(), shards);
    // Work accrued on several shards, so the critical path is strictly
    // less than the total: the virtual-time parallel speedup.
    let cost = stream_sim::CostModel::default();
    let critical = stats.critical_path_nanos(&cost);
    let total = cost.nanos(&stats.total_work());
    assert!(critical > 0 && critical < total);
}

#[test]
fn recorder_collects_per_shard_series() {
    let exec = ShardedPJoin::spawn(ExecConfig::new(2, PJoinConfig::new(2, 2)));
    for (side, e) in keyed_workload(50) {
        exec.push(side, e);
    }
    let mut recorder = stream_metrics::Recorder::new();
    for (shard, m) in exec.shard_metrics().into_iter().enumerate() {
        recorder.record_shard("state_tuples", shard, 0.0, m.state_tuples as f64);
    }
    let (_, stats) = exec.finish();
    for (shard, report) in stats.shards.iter().enumerate() {
        recorder.record_shard("state_tuples", shard, 1.0, report.metrics.state_tuples as f64);
    }
    assert_eq!(recorder.shard_series("state_tuples").len(), 2);
    let summed = recorder.sum_shards("state_tuples").unwrap();
    // Everything purged by the end on both shards.
    assert_eq!(summed.points().last().unwrap().1, 0.0);
}

#[test]
fn drop_without_finish_does_not_hang() {
    let exec = ShardedPJoin::spawn(ExecConfig::new(4, PJoinConfig::new(2, 2)));
    for (side, e) in keyed_workload(100) {
        exec.push(side, e);
    }
    drop(exec); // must tear the pipeline down without joining outputs
}

#[test]
fn single_shard_matches_direct_pjoin_exactly() {
    use stream_sim::{BinaryStreamOp, OpOutput};

    let feed = keyed_workload(150);
    let exec = ShardedPJoin::spawn(ExecConfig::new(1, PJoinConfig::new(2, 2)));
    exec.push_batch(feed.clone());
    let (outputs, stats) = exec.finish();

    let mut reference = pjoin::PJoin::new(PJoinConfig::new(2, 2));
    let mut out = OpOutput::new();
    let mut expected = Vec::new();
    let mut last = Timestamp::ZERO;
    for (side, e) in feed {
        last = e.ts;
        reference.on_element(side, e.item, e.ts, &mut out);
        expected.extend(out.drain());
    }
    while reference.on_end(last, &mut out) {
        expected.extend(out.drain());
    }
    expected.extend(out.drain());

    // One shard, FIFO channels: even the order must match.
    let got: Vec<StreamElement> = outputs.into_iter().map(|e| e.item).collect();
    assert_eq!(got, expected);
    assert_eq!(stats.total_stats(), *reference.stats());
}

/// Regression: a shard dying mid-stream must surface promptly as a
/// typed error — historically it was invisible until `finish`, which
/// then panicked while the caller kept feeding a pipeline silently
/// dropping the dead shard's keys.
#[test]
fn killed_shard_surfaces_promptly_and_finish_reports_it() {
    use punct_exec::ExecError;

    let exec = ShardedPJoin::spawn(ExecConfig::new(4, PJoinConfig::new(2, 2)));
    for (side, e) in keyed_workload(20) {
        exec.try_push(side, e).expect("healthy pipeline accepts pushes");
    }
    assert!(exec.failure().is_none());

    exec.debug_kill_shard(2);

    // The failure must surface on a subsequent push, well before finish.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let err = loop {
        match exec.try_push(Side::Left, tup(1000, 1, 1)) {
            Err(err) => break err,
            Ok(()) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "shard death never surfaced through try_push"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    };
    match &err {
        ExecError::ShardPanicked { shard, message } => {
            assert_eq!(*shard, 2);
            assert!(message.contains("killed by test hook"), "message: {message}");
        }
        other => panic!("expected ShardPanicked, got {other:?}"),
    }
    assert_eq!(exec.failure(), Some(err.clone()));

    // finish() must not panic; it reports the failure and omits the
    // dead shard's report.
    let (_outputs, stats) = exec.finish();
    assert_eq!(stats.failure, Some(err));
    assert_eq!(stats.shards.len(), 3);
    assert!(stats.shards.iter().all(|r| r.shard != 2));
}

/// An output's timestamp names the newest input that produced it: at one
/// shard with an ordered merge, every joined tuple is stamped with the
/// later of its two inputs' timestamps — per element, not per batch,
/// although the shard drains its collector once per batch. The workload
/// is sized so that late elements each produce more joined tuples than
/// one shared block holds (256 of width 4) and every batch spans many
/// blocks: neither a mid-element seal nor the per-batch drain may move a
/// stamp or lose a result.
#[test]
fn output_timestamp_is_the_later_input_timestamp() {
    use stream_sim::{BinaryStreamOp, OpOutput};

    let exec = ShardedPJoin::spawn(ExecConfig::new(1, PJoinConfig::new(2, 2)).ordered());
    // Same-side runs of 7 over 2 keys; each payload is the tuple's own
    // timestamp, so a result carries both input timestamps.
    let feed: Vec<_> = (1..=1_400u64)
        .map(|ts| {
            let side = if (ts / 7) % 2 == 0 { Side::Left } else { Side::Right };
            (side, tup(ts, (ts % 2) as i64, ts as i64))
        })
        .collect();
    exec.push_batch(feed.clone());
    let (outputs, _) = exec.finish();

    let payload_ts = |t: &Tuple, i| t.get(i).and_then(punct_types::Value::as_int).expect("int");
    let mut per_element = std::collections::HashMap::new();
    let mut got = Vec::with_capacity(outputs.len());
    for out in outputs {
        let StreamElement::Tuple(t) = out.item else { panic!("tuple-only feed") };
        let newer = payload_ts(&t, 1).max(payload_ts(&t, 3)) as u64;
        assert_eq!(out.ts, Timestamp(newer), "result {t:?} stamped {:?}", out.ts);
        *per_element.entry(newer).or_insert(0usize) += 1;
        got.push(t);
    }
    assert!(
        per_element.values().any(|&n| n > 256),
        "some element must overflow a block on its own"
    );

    let mut reference = pjoin::PJoin::new(PJoinConfig::new(2, 2));
    let mut out = OpOutput::new();
    let mut expected = Vec::with_capacity(got.len());
    for (side, e) in feed {
        reference.on_element(side, e.item, e.ts, &mut out);
        expected.extend(out.drain().filter_map(|e| e.as_tuple().cloned()));
    }
    got.sort();
    expected.sort();
    assert_eq!(got.len(), expected.len());
    assert!(got == expected, "joined tuple multiset diverged from the plain operator's");
}

/// A short tuple and a wrong-width punctuation through two shards: no
/// shard thread dies, the output multiset is untouched, and each is
/// counted exactly once — the tuple by the operator that received it,
/// the punctuation by the router.
#[test]
fn malformed_elements_are_counted_drops_across_shards() {
    let run = |malformed: bool| {
        let exec = ShardedPJoin::spawn(ExecConfig::new(2, PJoinConfig::new(2, 2)));
        let mut feed = keyed_workload(100);
        if malformed {
            let short = Tuple::new(Vec::new());
            let wide = Punctuation::close_value(3, 0, 1i64);
            feed.insert(150, (Side::Left, Timestamped::new(Timestamp(150), short.into())));
            feed.insert(250, (Side::Right, Timestamped::new(Timestamp(250), wide.into())));
        }
        exec.push_batch(feed);
        let (outputs, stats) = exec.finish();
        let mut items: Vec<String> = outputs.iter().map(|e| format!("{:?}", e.item)).collect();
        items.sort();
        (items, stats)
    };
    let (expected, clean) = run(false);
    let (got, dirty) = run(true);
    assert_eq!(got, expected);
    assert_eq!(dirty.total_stats().malformed_dropped, 1);
    assert_eq!(dirty.router.puncts_malformed, 1);
    assert_eq!(clean.total_stats().malformed_dropped, 0);
    assert_eq!(clean.router.puncts_malformed, 0);
}
