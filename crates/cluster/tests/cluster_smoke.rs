//! In-process cluster smoke tests: workers as threads (the worker loop
//! is self-contained), small workloads, direct visibility into worker
//! errors. The full multi-process gate lives in `cluster_equivalence`.

use std::thread::JoinHandle;

use pjoin::PJoin;
use punct_cluster::{
    run_worker, Cluster, ClusterError, ClusterOptions, DurabilityOptions, JoinSpec,
    TelemetrySettings, WorkerOptions, WorkerReport,
};
use punct_durable::CheckpointStore;
use punct_types::{
    partition, Bound, Pattern, Punctuation, StreamElement, Timestamp, Timestamped, Tuple, Value,
    MAX_SHARDS,
};
use stream_sim::{BinaryStreamOp, OpOutput, Side};
use streamgen::{generate_pair, interleave_sides, PunctScheme, StreamConfig};

type Workers = Vec<JoinHandle<Result<WorkerReport, ClusterError>>>;

fn start(opts: ClusterOptions) -> (Cluster, Workers) {
    let workers = opts.workers as u32;
    let mut cluster = Cluster::bind(opts).expect("bind");
    let ctrl = cluster.ctrl_addr();
    let handles: Vec<_> = (0..workers)
        .map(|i| std::thread::spawn(move || run_worker(WorkerOptions::new(i, ctrl))))
        .collect();
    cluster.accept_workers().expect("assemble");
    (cluster, handles)
}

#[test]
fn joins_across_workers_without_resize() {
    let (mut cluster, handles) = start(ClusterOptions::new(JoinSpec::new(2, 2), 2, 4));
    for k in 0..16i64 {
        cluster.push_tuple(Side::Left, 2 * k as u64, Tuple::of((k, 10 * k))).expect("push");
        cluster
            .push_tuple(Side::Right, 2 * k as u64 + 1, Tuple::of((k, -k)))
            .expect("push");
    }
    cluster
        .push_punct(Side::Left, 40, Punctuation::close_value(2, 0, 3i64))
        .expect("push punct");
    let report = cluster.finish().expect("finish");
    let tuples = report.outputs.iter().filter(|e| e.item.is_tuple()).count();
    let puncts = report.outputs.iter().filter(|e| e.item.is_punctuation()).count();
    assert_eq!(tuples, 16, "every key joins exactly once");
    assert_eq!(puncts, 1, "the punctuation propagates exactly once");
    let mut elements = 0;
    for h in handles {
        let wr = h.join().expect("worker thread").expect("worker ok");
        elements += wr.elements;
        assert_eq!(wr.final_epoch, 1);
    }
    // 32 tuples + 1 punctuation, each delivered to exactly one worker.
    assert_eq!(elements, 33);
}

#[test]
fn single_resize_preserves_state() {
    let (mut cluster, handles) = start(ClusterOptions::new(JoinSpec::new(2, 2), 2, 2));
    // Left state only, then resize, then the matching right tuples: every
    // join result is produced *after* the state moved shards.
    for k in 0..12i64 {
        cluster.push_tuple(Side::Left, k as u64, Tuple::of((k, 10 * k))).expect("push");
    }
    let stats = cluster.repartition(4).expect("repartition");
    assert_eq!(stats.records_moved, 12, "all left records migrate");
    for k in 0..12i64 {
        cluster
            .push_tuple(Side::Right, 100 + k as u64, Tuple::of((k, -k)))
            .expect("push");
    }
    let report = cluster.finish().expect("finish");
    let tuples: Vec<&StreamElement> =
        report.outputs.iter().map(|e| &e.item).filter(|e| e.is_tuple()).collect();
    assert_eq!(tuples.len(), 12, "every migrated record joins its partner");
    let mut imported = 0;
    for h in handles {
        let wr = h.join().expect("worker thread").expect("worker ok");
        imported += wr.records_imported;
        assert_eq!(wr.final_epoch, 2);
        assert_eq!(wr.migrations, 1);
    }
    assert_eq!(imported, 12);
}

#[test]
fn out_of_range_repartition_is_refused_and_the_cluster_stays_usable() {
    let (mut cluster, handles) = start(ClusterOptions::new(JoinSpec::new(2, 2), 2, 2));
    for k in 0..8i64 {
        cluster.push_tuple(Side::Left, k as u64, Tuple::of((k, 10 * k))).expect("push");
    }
    assert!(cluster.repartition(1).is_err(), "fewer shards than workers");
    assert!(cluster.repartition(65).is_err(), "more shards than routing masks");
    for k in 0..8i64 {
        cluster
            .push_tuple(Side::Right, 100 + k as u64, Tuple::of((k, -k)))
            .expect("push");
    }
    let report = cluster.finish().expect("finish");
    assert_eq!(report.outputs.iter().filter(|e| e.item.is_tuple()).count(), 8);
    assert!(report.telemetry.migrations().is_empty(), "a refused resize arms nothing");
    for h in handles {
        let wr = h.join().expect("worker thread").expect("worker ok");
        assert_eq!(wr.final_epoch, 1);
    }
}

#[test]
fn bind_refuses_a_layout_routing_cannot_serve() {
    let spec = JoinSpec::new(2, 2);
    for (workers, shards, why) in [
        (0, 1, "no workers"),
        (65, 65, "more workers than the aligner masks"),
        (4, 3, "fewer shards than workers"),
        (2, MAX_SHARDS + 1, "more shards than routing masks"),
    ] {
        let bound = Cluster::bind(ClusterOptions::new(spec.clone(), workers, shards));
        assert!(bound.is_err(), "{why}");
    }
}

/// The recovery example's workload: keyed pairs trailed by closing
/// punctuations, with stream-end wildcards.
fn keyed_workload(keys: i64) -> Vec<(Side, StreamElement)> {
    let mut work: Vec<(Side, StreamElement)> = Vec::new();
    for k in 0..keys {
        work.push((Side::Left, Tuple::of((k, 10 * k)).into()));
        work.push((Side::Right, Tuple::of((k, -k)).into()));
        if k >= 4 {
            let c = k - 4;
            work.push((Side::Left, Punctuation::close_value(2, 0, c).into()));
            work.push((Side::Right, Punctuation::close_value(2, 0, c).into()));
        }
    }
    let wild = Punctuation::on_attr(2, 0, Pattern::Wildcard);
    work.push((Side::Left, wild.clone().into()));
    work.push((Side::Right, wild.into()));
    work
}

fn multiset(els: impl IntoIterator<Item = StreamElement>) -> Vec<String> {
    let mut v: Vec<String> = els.into_iter().map(|e| format!("{e:?}")).collect();
    v.sort();
    v
}

/// One single-threaded PJoin's output for `work`, element `i` at time `i`.
fn single_pjoin(spec: &JoinSpec, work: &[(Side, StreamElement)]) -> Vec<StreamElement> {
    let mut reference = Vec::new();
    let mut join = PJoin::new(spec.pjoin_config());
    let mut out = OpOutput::new();
    for (i, (side, el)) in work.iter().enumerate() {
        join.on_element(*side, el.clone(), Timestamp(i as u64), &mut out);
        reference.extend(out.drain());
    }
    while join.on_end(Timestamp(work.len() as u64), &mut out) {}
    reference.extend(out.drain());
    reference
}

/// Keyed pairs (every third key with a second left tuple) closed four
/// keys behind by constants — except four pairs of keys that land on
/// global shards 0 and 2 of 4, both owned by worker 0 of two, each
/// closed by one two-key `In`, and keys 40..48, closed by one `Range` —
/// then the stream-end wildcards.
fn multi_shard_workload() -> Vec<(Side, StreamElement)> {
    let ranged = 40..48i64;
    let shard_of = |k: i64| partition(Value::Int(k).join_hash(), 4);
    let on_shard = |s| (0..ranged.start).filter(move |&k| shard_of(k) == s);
    let pairs: Vec<(i64, i64)> = on_shard(0).zip(on_shard(2)).take(4).collect();
    assert_eq!(pairs.len(), 4, "keys on both of worker 0's shards");
    let mut work: Vec<(Side, StreamElement)> = Vec::new();
    let both = |work: &mut Vec<(Side, StreamElement)>, p: Punctuation| {
        work.push((Side::Left, p.clone().into()));
        work.push((Side::Right, p.into()));
    };
    for k in 0..64i64 {
        work.push((Side::Left, Tuple::of((k, 10 * k)).into()));
        work.push((Side::Right, Tuple::of((k, -k)).into()));
        if k % 3 == 0 {
            work.push((Side::Left, Tuple::of((k, 10 * k + 1)).into()));
        }
        let c = k - 4;
        if c < 0 {
            continue;
        }
        if c == ranged.end - 1 {
            let (lo, hi) = (Value::Int(ranged.start), Value::Int(c));
            let range = Pattern::range(Bound::Inclusive(lo), Bound::Inclusive(hi)).expect("range");
            both(&mut work, Punctuation::on_attr(2, 0, range));
        } else if let Some(&(a, b)) = pairs.iter().find(|&&(a, b)| a.max(b) == c) {
            let pair = Pattern::In(vec![Value::Int(a), Value::Int(b)]);
            both(&mut work, Punctuation::on_attr(2, 0, pair));
        } else if !ranged.contains(&c) && !pairs.iter().any(|&(a, b)| a == c || b == c) {
            both(&mut work, Punctuation::close_value(2, 0, c));
        }
    }
    both(&mut work, Punctuation::on_attr(2, 0, Pattern::Wildcard));
    work
}

/// A worker that owns several global shards hosts one join over them:
/// two workers on four shards, resized to three half-way, emit one
/// single-threaded PJoin's tuples and punctuations — including `In`
/// punctuations over both of worker 0's shards and a broadcast `Range` —
/// and each reports exactly one state entry, labelled with the lowest
/// global shard it owns.
#[test]
fn a_worker_owning_several_shards_is_one_join() {
    let spec = JoinSpec::new(2, 2);
    let work = multi_shard_workload();
    let reference = single_pjoin(&spec, &work);

    let mut opts = ClusterOptions::new(spec, 2, 4);
    opts.telemetry = TelemetrySettings { enabled: true, interval_ms: 50, trace: true };
    let (mut cluster, handles) = start(opts);
    let mut outputs: Vec<StreamElement> = Vec::new();
    for (i, (side, el)) in work.iter().enumerate() {
        if i == work.len() / 2 {
            assert_eq!(cluster.repartition(3).expect("repartition").shards, 3);
        }
        cluster.push(*side, Timestamped::new(Timestamp(i as u64), el.clone())).expect("push");
        if i % 16 == 0 {
            outputs.extend(cluster.poll_outputs().expect("poll").into_iter().map(|e| e.item));
        }
    }
    let report = cluster.finish().expect("finish");
    outputs.extend(report.outputs.into_iter().map(|e| e.item));
    for h in handles {
        h.join().expect("worker thread").expect("worker ok");
    }
    let (tuples, puncts): (Vec<_>, Vec<_>) = outputs.into_iter().partition(|e| e.is_tuple());
    let (want_tuples, want_puncts): (Vec<_>, Vec<_>) =
        reference.into_iter().partition(|e| e.is_tuple());
    assert_eq!(multiset(tuples), multiset(want_tuples), "joined tuple multiset diverged");
    assert_eq!(multiset(puncts), multiset(want_puncts), "punctuation multiset diverged");

    let telem = &report.telemetry;
    for w in 0..2u32 {
        let last = telem.worker(w as usize).expect("a final report");
        assert!(last.final_flush);
        assert_eq!(last.shards.len(), 1, "worker {w} reports one join: {:?}", last.shards);
        // Round robin over three shards: worker 0 owns 0 and 2, worker 1 owns 1.
        assert_eq!(last.shards[0].shard, w, "the lowest global shard worker {w} owns");
    }
    for span in telem.spans() {
        for lane in &span.workers {
            assert!(lane.complete() && lane.monotone(), "span {}: {lane:?}", span.seq);
        }
    }
}

/// How many sink elements the coordinator absorbs from a worker between
/// two acknowledgements to it (`ACK_EVERY` in `coordinator.rs`).
const ACK_EVERY: u64 = 4096;

/// Most outputs one ingest message can add to a worker's sink at once:
/// a 64-element `DataBatch` (the default client batch) at the ≈ 10
/// matches per tuple of a 16-key window, with room to spare.
const MESSAGE_OUTPUTS: u64 = 64 * 32;

/// Outputs the coordinator has not received yet are not its to
/// acknowledge, so the bound below holds for a caller that keeps the
/// workers close: unacknowledged received outputs stay under one ack
/// interval, and what is still in flight under three more.
const PEAK_BOUND: u64 = 4 * ACK_EVERY + MESSAGE_OUTPUTS;

/// Without durability a worker's sink keeps only what the coordinator
/// has not acknowledged yet: over a long match-heavy stream each worker
/// publishes far more than it ever holds, and the merged output is
/// still one single-threaded PJoin's.
#[test]
fn worker_sinks_stay_bounded_without_durability() {
    let cfg = StreamConfig {
        tuples: 25_000,
        key_window: 16,
        punct_scheme: PunctScheme::ConstantPerKey,
        punct_mean_tuples: 20.0,
        payload_attrs: 1,
        seed: 28,
        ..StreamConfig::default()
    };
    let (a, b) = generate_pair(&cfg, 20.0, 20.0);
    let work = interleave_sides(&a.elements, &b.elements);
    assert!(work.len() >= 50_000, "{} elements", work.len());
    let spec = JoinSpec::new(cfg.width(), cfg.width());

    let mut reference: Vec<StreamElement> = Vec::new();
    let mut join = PJoin::new(spec.pjoin_config());
    let mut out = OpOutput::new();
    for (side, el) in &work {
        join.on_element(*side, el.item.clone(), el.ts, &mut out);
        reference.extend(out.drain());
    }
    while join.on_end(work.last().expect("a stream").1.ts, &mut out) {}
    reference.extend(out.drain());

    // Poll every 128 pushes, as the benchmark's cluster lane does, and drain to
    // quiet every `CHUNK` pushes (and before `finish`, which finishes the
    // senders before it reads a sink again), so that what a worker can
    // publish ahead of the coordinator is the output of at most one
    // chunk however the two cores are shared out.
    const CHUNK: usize = 1024;
    let (mut cluster, handles) = start(ClusterOptions::new(spec, 2, 2));
    let mut outputs: Vec<StreamElement> = Vec::new();
    let mut poll = |cluster: &mut Cluster| {
        let polled = cluster.poll_outputs().expect("poll");
        let any = !polled.is_empty();
        outputs.extend(polled.into_iter().map(|e| e.item));
        any
    };
    let total = work.len();
    for (i, (side, el)) in work.into_iter().enumerate() {
        cluster.push(side, el).expect("push");
        if i % 128 == 127 {
            poll(&mut cluster);
        }
        if i % CHUNK == CHUNK - 1 || i + 1 == total {
            let mut quiet = 0;
            while quiet < 3 {
                quiet = if poll(&mut cluster) { 0 } else { quiet + 1 };
            }
        }
    }
    let report = cluster.finish().expect("finish");
    outputs.extend(report.outputs.into_iter().map(|e| e.item));
    for h in handles {
        let wr = h.join().expect("worker thread").expect("worker ok");
        let peak = wr.sink_peak_retained;
        assert!(
            wr.outputs >= 10 * peak,
            "worker {} published {} outputs but held up to {peak}",
            wr.worker,
            wr.outputs
        );
        assert!(peak <= PEAK_BOUND, "worker {} held up to {peak} outputs", wr.worker);
    }
    assert!(reference.len() >= 5 * total, "{} outputs is not match-heavy", reference.len());
    assert_eq!(multiset(outputs), multiset(reference), "the cluster must emit one PJoin's output");
}

#[test]
fn a_cut_after_a_resize_restores_into_the_original_shard_count() {
    let spec = JoinSpec::new(2, 2);
    let work = keyed_workload(96);
    let reference = single_pjoin(&spec, &work);
    let dir = std::env::temp_dir().join(format!("pjoin_smoke_cut_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let element = |i: usize, el: &StreamElement| Timestamped::new(Timestamp(i as u64), el.clone());

    // Phase 1 at 2 shards: checkpoint, resize to 3, push, checkpoint at
    // 3 shards, push, then drop the coordinator without finishing.
    let (first_cut, resize_at, second_cut) = (work.len() / 5, work.len() / 4, work.len() / 2);
    let crash_at = 3 * work.len() / 4;
    let mut committed: Vec<StreamElement> = Vec::new();
    {
        let mut opts = ClusterOptions::new(spec.clone(), 2, 2);
        opts.durability = DurabilityOptions::at(&dir);
        let (mut cluster, handles) = start(opts);
        for (i, (side, el)) in work.iter().enumerate().take(crash_at) {
            if i == first_cut || i == second_cut {
                cluster.checkpoint().expect("checkpoint");
            }
            if i == resize_at {
                let stats = cluster.repartition(3).expect("repartition");
                assert_eq!(stats.shards, 3);
            }
            cluster.push(*side, element(i, el)).expect("push");
            if i % 16 == 0 {
                committed.extend(cluster.poll_outputs().expect("poll").into_iter().map(|e| e.item));
            }
        }
        committed.extend(cluster.poll_outputs().expect("poll").into_iter().map(|e| e.item));
        drop(cluster);
        for h in handles {
            let _ = h.join().expect("worker thread");
        }
    }
    let latest = CheckpointStore::open(&dir, 2)
        .and_then(|store| store.latest_complete())
        .expect("read the store")
        .expect("a complete epoch");
    assert_eq!(latest.meta.shards, 3, "the latest epoch was cut after the resize");

    // Phase 2: a fresh 2-shard cluster restores the 3-shard cut and
    // re-feeds from its cursor.
    let mut opts = ClusterOptions::new(spec, 2, 2);
    opts.durability = DurabilityOptions::at(&dir);
    let (mut cluster, handles) = start(opts);
    let cursor = cluster.restore_latest().expect("restore").expect("an epoch") as usize;
    assert_eq!(cursor, second_cut, "the cursor is where the last cut was taken");
    let mut outputs: Vec<StreamElement> = Vec::new();
    for (i, (side, el)) in work.iter().enumerate().skip(cursor) {
        cluster.push(*side, element(i, el)).expect("push");
        if i % 16 == 0 {
            outputs.extend(cluster.poll_outputs().expect("poll").into_iter().map(|e| e.item));
        }
    }
    let report = cluster.finish().expect("finish");
    outputs.extend(report.outputs.into_iter().map(|e| e.item));
    for h in handles {
        h.join().expect("worker thread").expect("worker ok");
    }
    let _ = std::fs::remove_dir_all(&dir);

    assert!(committed.len() < reference.len(), "the drop must lose withheld outputs");
    committed.extend(outputs);
    assert_eq!(
        multiset(committed),
        multiset(reference),
        "committed phase-1 outputs plus phase-2 outputs must equal one uninterrupted PJoin"
    );
}

fn join_all(workers: Workers) {
    for w in workers {
        w.join().expect("worker thread").expect("worker ok");
    }
}

/// A checkpoint restores only into the join it was cut under: the same
/// widths and join attributes with another bucket count restore, while
/// another width is refused before anything is installed, and the
/// refused cluster still runs to its end.
#[test]
fn restore_refuses_a_checkpoint_cut_under_another_join() {
    let dir = std::env::temp_dir().join(format!("pjoin_smoke_refuse_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = |spec: JoinSpec| {
        let mut opts = ClusterOptions::new(spec, 2, 2);
        opts.durability = DurabilityOptions::at(&dir);
        opts
    };
    let (mut cluster, handles) = start(durable(JoinSpec::new(2, 2)));
    for k in 0..8i64 {
        cluster.push_tuple(Side::Left, k as u64, Tuple::of((k, 10 * k))).expect("push");
    }
    cluster.checkpoint().expect("checkpoint");
    cluster.finish().expect("finish");
    join_all(handles);

    let mut rebucketed = JoinSpec::new(2, 2);
    rebucketed.buckets = 16;
    let (mut cluster, handles) = start(durable(rebucketed));
    assert_eq!(cluster.restore_latest().expect("restore under another bucket count"), Some(8));
    cluster.finish().expect("finish");
    join_all(handles);

    let (mut cluster, handles) = start(durable(JoinSpec::new(3, 2)));
    let refused = cluster.restore_latest();
    assert!(matches!(refused, Err(ClusterError::Protocol(_))), "{refused:?}");
    let report = cluster.finish().expect("the refused cluster finishes");
    assert!(report.outputs.is_empty(), "nothing was restored");
    join_all(handles);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restore that falls back past a damaged newest epoch keeps
/// checkpointing: the MANIFEST still names the damaged epoch, so the next
/// cut must be numbered above it, not above the epoch restored.
#[test]
fn checkpoints_resume_after_restoring_past_a_damaged_newest_epoch() {
    let dir = std::env::temp_dir().join(format!("pjoin_smoke_damaged_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = || {
        let mut opts = ClusterOptions::new(JoinSpec::new(2, 2), 2, 2);
        opts.durability = DurabilityOptions::at(&dir);
        opts
    };
    let (mut cluster, handles) = start(durable());
    for k in 0..8i64 {
        if k == 4 {
            assert_eq!(cluster.checkpoint().expect("first checkpoint"), 1);
        }
        cluster.push_tuple(Side::Left, k as u64, Tuple::of((k, 10 * k))).expect("push");
    }
    assert_eq!(cluster.checkpoint().expect("second checkpoint"), 2);
    cluster.finish().expect("finish");
    join_all(handles);
    std::fs::write(dir.join("epoch-000000000002.ckpt"), b"not an epoch").expect("damage epoch 2");

    let (mut cluster, handles) = start(durable());
    assert_eq!(cluster.restore_latest().expect("restore"), Some(4), "epoch 1 is the fallback");
    assert_eq!(cluster.checkpoint().expect("checkpoint after the fallback"), 3);
    cluster.finish().expect("finish");
    join_all(handles);
    let latest = CheckpointStore::open(&dir, 2)
        .and_then(|store| store.latest_complete())
        .expect("read the store")
        .expect("a complete epoch");
    assert_eq!((latest.epoch, latest.meta.input_cursor), (3, 4));
    let _ = std::fs::remove_dir_all(&dir);
}
