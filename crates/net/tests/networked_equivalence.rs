//! The transport-invisibility gate: putting a lossy network between the
//! generators and the sharded join must not change the join's answer.
//!
//! Two tests:
//!
//! * `networked_run_matches_in_process_run` — the PR's acceptance
//!   criterion. The same seeded workload is joined twice: once fed
//!   in-process (timestamp-interleaved, as every other executor test
//!   does) and once over real sockets through fault proxies injecting
//!   frame drops plus one forced disconnect per stream. The joined
//!   tuple multiset and the propagated punctuation multiset must be
//!   identical — with the executor behind the sockets flushing per
//!   element, at the default batch and at 256. The two runs consume
//!   *different* interleavings of the two sides — the test also certifies that the join's answer is
//!   interleaving-independent for well-formed punctuated streams, which
//!   is precisely why a network (which cannot promise cross-stream
//!   ordering) is safe to add.
//!
//! * `kill_and_resume_is_exactly_once` — the CI kill-and-resume gate. A
//!   single client survives repeated forced connection kills; the trace
//!   must show the reconnects (with monotone resume points), the server
//!   must have suppressed replayed duplicates, and every punctuation
//!   must come out of the channel exactly once.

use std::collections::BTreeMap;
use std::time::Duration;

use pjoin::PJoinConfig;
use punct_exec::config::DEFAULT_BATCH_ELEMS;
use punct_exec::{ExecConfig, ShardedPJoin};
use punct_net::{
    run_networked_join, spawn_source, BackoffPolicy, ClientOptions, FaultConfig, FaultProxy,
    IngestMsg, IngestOptions, IngestServer,
};
use punct_trace::{TraceKind, TraceSettings};
use punct_types::{StreamElement, Timestamped};
use stream_sim::Side;
use streamgen::{generate_pair, interleave_sides, PunctScheme, StreamConfig};

const SHARDS: usize = 4;

fn workload(seed: u64) -> (Vec<Timestamped<StreamElement>>, Vec<Timestamped<StreamElement>>) {
    let config = StreamConfig {
        tuples: 1_500,
        key_window: 12,
        punct_scheme: PunctScheme::ConstantPerKey,
        punct_mean_tuples: 20.0,
        seed,
        ..StreamConfig::default()
    };
    let (a, b) = generate_pair(&config, 20.0, 20.0);
    (a.elements, b.elements)
}

fn schema(seed: u64) -> punct_types::Schema {
    StreamConfig { seed, ..StreamConfig::default() }.schema()
}

/// Canonical multiset form of an output stream, split into joined
/// tuples and punctuations so a failure names the class that diverged.
/// Timestamps are ignored: an output's payload is determined by the
/// matched pair, but *when* a result is emitted depends on which side
/// arrived second, which legitimately differs between interleavings.
fn canonical(outputs: &[Timestamped<StreamElement>]) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let mut tuples = BTreeMap::new();
    let mut puncts = BTreeMap::new();
    for e in outputs {
        match &e.item {
            StreamElement::Tuple(t) => *tuples.entry(format!("{t:?}")).or_insert(0) += 1,
            StreamElement::Punctuation(p) => *puncts.entry(format!("{p:?}")).or_insert(0) += 1,
        }
    }
    (tuples, puncts)
}

/// The reference: both sides interleaved by timestamp and fed straight
/// into the sharded executor, no sockets anywhere.
fn in_process_run(
    left: &[Timestamped<StreamElement>],
    right: &[Timestamped<StreamElement>],
) -> Vec<Timestamped<StreamElement>> {
    let feed = interleave_sides(left, right);
    let exec = ShardedPJoin::spawn(ExecConfig::new(SHARDS, PJoinConfig::new(2, 2)));
    let mut outputs = Vec::new();
    for chunk in feed.chunks(512) {
        exec.push_batch(chunk.to_vec());
        outputs.extend(exec.poll_outputs());
    }
    let (rest, _stats) = exec.finish();
    outputs.extend(rest);
    outputs
}

#[test]
fn networked_run_matches_in_process_run() {
    let seed = 23;
    let (left, right) = workload(seed);
    let reference = in_process_run(&left, &right);
    let (ref_tuples, ref_puncts) = canonical(&reference);
    assert!(!ref_tuples.is_empty() && !ref_puncts.is_empty(), "workload must join and punctuate");

    // The executor behind the sockets flushes per element, at the
    // default router batch and at full 256-element batches.
    for batch in [1, DEFAULT_BATCH_ELEMS, 256] {
        // The acceptance criterion: identical joined-tuple multiset and
        // identical punctuation multiset, network or no network.
        let (net_tuples, net_puncts) = canonical(&networked_run(&left, &right, seed, batch));
        assert_eq!(net_tuples, ref_tuples, "joined-tuple multiset diverged across the network at batch {batch}");
        assert_eq!(net_puncts, ref_puncts, "punctuation multiset diverged across the network at batch {batch}");
    }
}

/// One run over real sockets through the fault proxies, with the
/// executor's router batch set to `batch`; returns the join's outputs.
fn networked_run(
    left: &[Timestamped<StreamElement>],
    right: &[Timestamped<StreamElement>],
    seed: u64,
    batch: usize,
) -> Vec<Timestamped<StreamElement>> {
    // The networked run: each client dials its own fault proxy so each
    // stream is guaranteed exactly one forced disconnect (the proxy
    // kills its first connection only), on top of random data-frame
    // drops which surface as server-detected sequence gaps.
    let (server, rx) = IngestServer::bind(&[Side::Left, Side::Right], IngestOptions::default())
        .expect("bind ingest server");
    // Fault thresholds are in *frames*, and with the default wire
    // batching a stream is only a few dozen `DataBatch` frames — so a
    // drop loses a whole batch and the kill lands a few batches in.
    let faults = |i: u64| FaultConfig::lossy(8, 2, 1, 6, 90 + i);
    let proxy_l = FaultProxy::spawn(server.addr(), faults(0)).expect("left proxy");
    let proxy_r = FaultProxy::spawn(server.addr(), faults(1)).expect("right proxy");
    let opts = |seed: u64| ClientOptions {
        policy: BackoffPolicy::fast(),
        seed,
        ..ClientOptions::default()
    };
    let ls = spawn_source(proxy_l.addr(), 0, Side::Left, schema(seed), left.to_vec(), opts(1));
    let rs = spawn_source(proxy_r.addr(), 1, Side::Right, schema(seed), right.to_vec(), opts(2));

    let mut config = ExecConfig::new(SHARDS, PJoinConfig::new(2, 2));
    config.router_batch = batch;
    let report = run_networked_join(
        config,
        &server,
        &rx,
        None,
    );
    let lr = ls.join().expect("left thread").expect("left client");
    let rr = rs.join().expect("right thread").expect("right client");

    // The faults actually happened: every stream was forcibly cut once
    // and had to reconnect and resume.
    assert_eq!(proxy_l.stats().disconnects_forced, 1, "left stream must be killed once");
    assert_eq!(proxy_r.stats().disconnects_forced, 1, "right stream must be killed once");
    assert!(lr.reconnects >= 1, "left client must have reconnected");
    assert!(rr.reconnects >= 1, "right client must have reconnected");
    assert!(
        proxy_l.stats().frames_dropped + proxy_r.stats().frames_dropped > 0,
        "the proxies should have dropped data frames"
    );

    // Exactly-once ingest despite the replays.
    assert_eq!(report.fed, (left.len() + right.len()) as u64);
    report.outputs
}

#[test]
fn kill_and_resume_is_exactly_once() {
    let seed = 31;
    let (elements, _) = workload(seed);
    let puncts_in =
        elements.iter().filter(|e| e.item.is_punctuation()).count();
    assert!(puncts_in > 0);

    let (server, rx) = IngestServer::bind(
        &[Side::Left],
        IngestOptions { trace: TraceSettings::enabled(), ..IngestOptions::default() },
    )
    .expect("bind ingest server");
    // Kill the connection every 8 frames (the Hello plus seven
    // 64-element `DataBatch` frames), twice; no random drops, so every
    // reconnect in this test is a clean kill-and-resume.
    let proxy = FaultProxy::spawn(
        server.addr(),
        FaultConfig {
            disconnect_after_frames: 8,
            max_disconnects: 2,
            seed: 77,
            ..FaultConfig::default()
        },
    )
    .expect("proxy");
    let opts = ClientOptions {
        policy: BackoffPolicy::fast(),
        seed: 9,
        trace: TraceSettings::enabled(),
        ..ClientOptions::default()
    };
    let handle =
        spawn_source(proxy.addr(), 0, Side::Left, schema(seed), elements.clone(), opts);

    let mut got: Vec<Timestamped<StreamElement>> = Vec::new();
    let take = |msg: IngestMsg, got: &mut Vec<Timestamped<StreamElement>>| {
        assert_eq!(msg.side(), Side::Left);
        match msg {
            IngestMsg::Batch(_, batch) => got.extend(batch),
        }
    };
    loop {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(msg) => take(msg, &mut got),
            Err(_) => {
                if server.all_finished() {
                    while let Ok(msg) = rx.try_recv() {
                        take(msg, &mut got);
                    }
                    break;
                }
            }
        }
    }
    let report = handle.join().expect("client thread").expect("client");

    // The kills happened, and the client survived them.
    assert_eq!(proxy.stats().disconnects_forced, 2);
    assert!(report.reconnects >= 2, "client must reconnect after each kill");
    assert_eq!(report.acked, elements.len() as u64);

    // The trace shows each resume: NetReconnect instants whose resume
    // points (payload `b`) never move backwards — the client always
    // picks up at the server's ack mark, never before sequence zero
    // twice, never past the end.
    let reconnects: Vec<_> = report.trace.of_kind(TraceKind::NetReconnect).collect();
    assert!(reconnects.len() >= 2);
    let resumes: Vec<u64> = reconnects.iter().map(|e| e.b).collect();
    assert!(resumes.windows(2).all(|w| w[0] <= w[1]), "resume points regressed: {resumes:?}");
    assert!(*resumes.last().unwrap() <= elements.len() as u64);
    assert!(
        resumes.iter().any(|&r| r > 0),
        "a kill after 8 frames must resume mid-stream, not from zero: {resumes:?}"
    );

    // Elements the kill cut in flight (written by the client, never
    // forwarded by the proxy) are re-sent from the server's ack mark —
    // so the client sent each element at least once, usually more —
    // while the server's sequence discipline keeps the channel clean.
    assert!(report.elements_sent >= elements.len() as u64);
    assert_eq!(got, elements, "channel must carry each element exactly once, in order");

    // The punctuation gate: every punctuation crossed exactly once.
    let puncts_out = got.iter().filter(|e| e.item.is_punctuation()).count();
    assert_eq!(puncts_out, puncts_in);
}
