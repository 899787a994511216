//! The cluster equivalence gate: a multi-process cluster resized
//! mid-stream — 2 → 4 shards, then 4 → 3 — produces **exactly** the
//! joined-tuple multiset and the propagated-punctuation multiset of one
//! single-threaded PJoin, on clean links and through seeded fault
//! proxies on every worker's ingest path.
//!
//! Workers run as real OS processes (`punct-worker`), so the gate also
//! covers process startup, the `JoinCluster` handshake, and orderly
//! shutdown.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pjoin::PJoin;
use punct_cluster::{Cluster, ClusterOptions, JoinSpec, MigrationStats};
use punct_net::{BackoffPolicy, ClientOptions, FaultConfig};
use punct_types::{Pattern, Punctuation, StreamElement, Timestamp, Timestamped, Tuple, Value};
use stream_sim::{BinaryStreamOp, OpOutput, Side};

fn spec() -> JoinSpec {
    JoinSpec::new(2, 2)
}

/// A grammatical punctuated workload over sequentially-arriving keys:
/// per key a couple of tuples on each side, trailed (four keys later) by
/// closing punctuations — constants for single-shard routing, `In` sets
/// for multicast — and stream-end wildcards for broadcast coverage.
/// Punctuations always close keys whose tuples have all been pushed, so
/// the streams keep their grammar.
fn workload(keys: i64) -> Vec<(Side, u64, StreamElement)> {
    let mut els: Vec<(Side, u64, StreamElement)> = Vec::new();
    let mut ts = 0u64;
    let mut push = |els: &mut Vec<(Side, u64, StreamElement)>, side, el| {
        els.push((side, ts, el));
        ts += 1;
    };
    for k in 0..keys {
        push(&mut els, Side::Left, Tuple::of((k, 10 * k)).into());
        push(&mut els, Side::Right, Tuple::of((k, -k)).into());
        if k % 3 == 0 {
            push(&mut els, Side::Left, Tuple::of((k, 10 * k + 1)).into());
        }
        if k % 4 == 1 {
            push(&mut els, Side::Right, Tuple::of((k, -k - 1000)).into());
        }
        if k >= 4 {
            let c = k - 4;
            match c % 4 {
                0 | 1 => {
                    push(&mut els, Side::Left, Punctuation::close_value(2, 0, c).into());
                    push(&mut els, Side::Right, Punctuation::close_value(2, 0, c).into());
                }
                3 => {
                    let pair = Pattern::In(vec![Value::Int(c - 1), Value::Int(c)]);
                    let p = Punctuation::on_attr(2, 0, pair);
                    push(&mut els, Side::Left, p.clone().into());
                    push(&mut els, Side::Right, p.into());
                }
                _ => {}
            }
        }
    }
    // Stream-end wildcards: no more tuples on either side. Broadcast
    // routing, and they close the four never-individually-closed keys.
    let wild = Punctuation::on_attr(2, 0, Pattern::Wildcard);
    push(&mut els, Side::Left, wild.clone().into());
    push(&mut els, Side::Right, wild.into());
    els
}

/// Sorted-debug-string multisets of (joined tuples, punctuations).
fn multisets(outputs: impl IntoIterator<Item = StreamElement>) -> (Vec<String>, Vec<String>) {
    let mut tuples = Vec::new();
    let mut puncts = Vec::new();
    for el in outputs {
        match &el {
            StreamElement::Tuple(_) => tuples.push(format!("{el:?}")),
            StreamElement::Punctuation(_) => puncts.push(format!("{el:?}")),
        }
    }
    tuples.sort();
    puncts.sort();
    (tuples, puncts)
}

/// The single-threaded reference: one PJoin, same configuration, same
/// element sequence, end-of-stream flush.
fn reference(work: &[(Side, u64, StreamElement)]) -> (Vec<String>, Vec<String>) {
    let mut join = PJoin::new(spec().pjoin_config());
    let mut out = OpOutput::new();
    let mut all: Vec<StreamElement> = Vec::new();
    let mut last = 0u64;
    for (side, ts, el) in work {
        join.on_element(*side, el.clone(), Timestamp(*ts), &mut out);
        all.extend(out.drain());
        last = *ts;
    }
    while join.on_end(Timestamp(last + 1), &mut out) {}
    all.extend(out.drain());
    multisets(all)
}

fn spawn_worker(ctrl: std::net::SocketAddr, idx: u32) -> Child {
    Command::new(env!("CARGO_BIN_EXE_punct-worker"))
        .arg(ctrl.to_string())
        .arg(idx.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn punct-worker")
}

fn wait_worker(mut child: Child, idx: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match child.try_wait().expect("wait punct-worker") {
            Some(status) => {
                assert!(status.success(), "worker {idx} exited with {status}");
                return;
            }
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                panic!("worker {idx} did not exit in time");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Drives the full gate: assemble a 2-worker cluster on `shards` global
/// shards, feed the workload in thirds with `repartition(4)` and
/// `repartition(3)` between them, finish, and compare multisets against
/// the single-threaded reference.
fn run_gate(fault: Option<FaultConfig>) -> Vec<MigrationStats> {
    let work = workload(60);
    let (want_tuples, want_puncts) = reference(&work);

    let mut opts = ClusterOptions::new(spec(), 2, 2);
    opts.client = ClientOptions {
        policy: BackoffPolicy::fast(),
        seed: 0xC1F0,
        ..ClientOptions::default()
    };
    opts.fault = fault;
    let mut cluster = Cluster::bind(opts).expect("bind coordinator");
    let ctrl = cluster.ctrl_addr();
    let children: Vec<Child> = (0..2).map(|i| spawn_worker(ctrl, i)).collect();
    cluster.accept_workers().expect("assemble cluster");
    assert_eq!(cluster.shard_map().epoch, 1);
    assert_eq!(cluster.shard_map().shards(), 2);

    let resize_at = [(work.len() / 3, 4usize), (2 * work.len() / 3, 3usize)];
    let mut outputs: Vec<Timestamped<StreamElement>> = Vec::new();
    for (i, (side, ts, el)) in work.iter().enumerate() {
        if let Some(&(_, to)) = resize_at.iter().find(|(at, _)| *at == i) {
            let stats = cluster.repartition(to).expect("repartition");
            assert_eq!(stats.shards, to);
            assert_eq!(cluster.shard_map().shards(), to);
        }
        cluster
            .push(*side, Timestamped::new(Timestamp(*ts), el.clone()))
            .expect("push");
        if i % 32 == 0 {
            outputs.extend(cluster.poll_outputs().expect("poll"));
        }
    }
    let report = cluster.finish().expect("finish cluster");
    outputs.extend(report.outputs);
    for (i, child) in children.into_iter().enumerate() {
        wait_worker(child, i);
    }

    let migrations = report.telemetry.migrations();
    assert_eq!(migrations.len(), 2);
    assert_eq!(migrations[0].epoch, 2);
    assert_eq!(migrations[1].epoch, 3);
    assert!(
        migrations.iter().any(|m| m.records_moved > 0),
        "the resize points must move live state: {migrations:?}"
    );

    let (got_tuples, got_puncts) = multisets(outputs.into_iter().map(|e| e.item));
    assert_eq!(
        got_tuples.len(),
        want_tuples.len(),
        "joined tuple count diverged from the single-threaded reference"
    );
    assert_eq!(got_tuples, want_tuples, "joined tuple multiset diverged");
    assert_eq!(got_puncts, want_puncts, "punctuation multiset diverged");
    migrations.to_vec()
}

#[test]
fn resize_preserves_join_and_punctuation_multisets() {
    let migrations = run_gate(None);
    assert_eq!(migrations.len(), 2);
}

#[test]
fn resize_preserves_multisets_through_faulty_links() {
    // Every worker's ingest path drops frames and forces disconnects
    // (independently seeded per link); the barrier and the data around
    // the resizes must still arrive exactly once.
    let migrations = run_gate(Some(FaultConfig::lossy(7, 10, 3, 60, 0xFA11)));
    assert_eq!(migrations.len(), 2);
}

#[test]
fn version_mismatch_rejected_at_join_cluster() {
    use punct_net::{encode_frame, error_code, Frame, FrameBuffer, WIRE_VERSION};
    use std::io::{Read, Write};

    let cluster = Cluster::bind(ClusterOptions::new(spec(), 1, 1)).expect("bind");
    // `accept_workers` runs on this thread; probe from another.
    let ctrl = cluster.ctrl_addr();
    let probe = std::thread::spawn(move || {
        let mut sock = std::net::TcpStream::connect(ctrl).expect("connect");
        sock.write_all(&encode_frame(&Frame::JoinCluster {
            wire_version: WIRE_VERSION + 1,
            worker: 0,
            ingest_addr: "127.0.0.1:1".into(),
            sink_addr: "127.0.0.1:1".into(),
        }))
        .expect("send stale handshake");
        let mut fb = FrameBuffer::new();
        let mut buf = [0u8; 1024];
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(frame) = fb.next_frame().expect("well-formed reply") {
                return frame;
            }
            assert!(Instant::now() < deadline, "no reply to stale handshake");
            let n = sock.read(&mut buf).expect("read reply");
            assert!(n > 0, "coordinator closed without an error frame");
            fb.extend(&buf[..n]);
        }
    });
    let mut cluster = cluster;
    let err = cluster.accept_workers().expect_err("stale worker must be rejected");
    assert!(err.to_string().contains("wire v"), "unexpected error: {err}");
    match probe.join().expect("probe thread") {
        Frame::Error { code, message } => {
            assert_eq!(code, error_code::VERSION_MISMATCH);
            assert!(message.contains("wire v"), "uninformative message: {message}");
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
}
