//! The readiness gates: every thread on the cluster's data path blocks
//! on one thing and is woken by data, so nothing an element or a
//! steady-state control frame crosses may cost a timer tick.
//!
//! Workers run as threads (the worker loop is self-contained); the
//! control-latency gate plays the coordinator's side of the control
//! protocol by hand so it can time single frames.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use punct_cluster::{
    encode_config, run_worker, Cluster, ClusterError, ClusterOptions, CtrlConn,
    HeartbeatSettings, JoinSpec, TelemetrySettings, WorkerOptions, WorkerReport,
};
use punct_net::{ClientOptions, Frame, SinkSubscriber, StreamSender};
use punct_trace::{wall_now_ns, TelemetryMsg};
use punct_types::{ShardMap, StreamElement, Timestamp, Timestamped, Tuple};
use stream_sim::Side;

type Workers = Vec<JoinHandle<Result<WorkerReport, ClusterError>>>;

fn start(workers: usize) -> (Cluster, Workers) {
    let mut cluster =
        Cluster::bind(ClusterOptions::new(JoinSpec::new(2, 2), workers, workers)).expect("bind");
    let ctrl = cluster.ctrl_addr();
    let handles = (0..workers as u32)
        .map(|i| std::thread::spawn(move || run_worker(WorkerOptions::new(i, ctrl))))
        .collect();
    cluster.accept_workers().expect("assemble");
    (cluster, handles)
}

fn join_all(workers: Workers) {
    for w in workers {
        w.join().expect("worker thread").expect("worker ok");
    }
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// A caller that pushes a burst and then only polls must get every
/// output: `poll_outputs` services the senders, so nothing held back
/// for credit (or still coalescing) waits for `finish` to move. Fifty
/// hot keys make the workers (50 results per tuple at the end) slower
/// than the pusher, so a tail does pile up in the senders.
#[test]
fn polling_alone_delivers_a_burst() {
    const KEYS: i64 = 50;
    const PER_KEY: i64 = 50;
    let (mut cluster, workers) = start(2);
    for i in 0..KEYS * PER_KEY {
        cluster.push_tuple(Side::Left, 2 * i as u64, Tuple::of((i % KEYS, i))).expect("push");
        cluster.push_tuple(Side::Right, 2 * i as u64 + 1, Tuple::of((i % KEYS, -i))).expect("push");
    }
    let expected = (KEYS * PER_KEY * PER_KEY) as usize;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut joined = 0;
    while joined < expected {
        assert!(
            Instant::now() < deadline,
            "only {joined} of {expected} outputs arrived by polling"
        );
        joined += cluster.poll_outputs().expect("poll").len();
    }
    assert_eq!(joined, expected, "every pair of a key joins exactly once");
    let report = cluster.finish().expect("finish");
    assert!(report.outputs.is_empty(), "finish delivered outputs that polling was owed");
    join_all(workers);
}

/// An idle `poll_outputs` costs its ~1 ms wait, not one socket-timeout
/// tick per worker.
#[test]
fn idle_poll_costs_about_a_millisecond() {
    let (mut cluster, workers) = start(2);
    // The first poll subscribes to the worker sinks.
    cluster.poll_outputs().expect("warm-up poll");
    let samples = (0..50)
        .map(|_| {
            let t = Instant::now();
            assert!(cluster.poll_outputs().expect("poll").is_empty());
            t.elapsed()
        })
        .collect();
    let median = median(samples);
    assert!(median <= Duration::from_millis(4), "median idle poll took {median:?}");
    cluster.finish().expect("finish");
    join_all(workers);
}

/// One clock-probe round trip on `ctrl`.
fn probe(ctrl: &mut CtrlConn, n: u32) -> Duration {
    let sent = Instant::now();
    let payload = TelemetryMsg::ClockProbe { probe: n, t0_ns: wall_now_ns() }.encode();
    ctrl.send(&Frame::Telemetry { payload }).expect("send probe");
    let deadline = sent + Duration::from_secs(5);
    match ctrl.recv_deadline(deadline, "clock ack").expect("clock ack") {
        Frame::Telemetry { payload } => match TelemetryMsg::decode(&payload).expect("decode") {
            TelemetryMsg::ClockAck { probe, .. } => assert_eq!(probe, n),
            other => panic!("expected a clock ack, got {other:?}"),
        },
        other => panic!("expected a telemetry frame, got {other:?}"),
    }
    sent.elapsed()
}

/// A worker answers a control frame at once, whether it is idle or in
/// the middle of a data stream: control frames and elements wake the
/// same wait, so neither queues behind the other's timer.
#[test]
fn worker_answers_control_frames_promptly() {
    let spec = JoinSpec::new(2, 2);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind control endpoint");
    let addr = listener.local_addr().expect("control addr");
    let worker = std::thread::spawn(move || run_worker(WorkerOptions::new(0, addr)));
    let (sock, _) = listener.accept().expect("worker connects");
    let mut ctrl = CtrlConn::from_stream(sock).expect("control link");
    let deadline = Instant::now() + Duration::from_secs(10);
    let (ingest, sink) = match ctrl.recv_deadline(deadline, "JoinCluster").expect("handshake") {
        Frame::JoinCluster { ingest_addr, sink_addr, .. } => (
            ingest_addr.parse().expect("ingest addr"),
            sink_addr.parse().expect("sink addr"),
        ),
        other => panic!("expected JoinCluster, got {other:?}"),
    };
    // Telemetry and heartbeats off: the only frames on the link are the
    // probes and their acks.
    let config =
        encode_config(&spec, &TelemetrySettings::disabled(), &HeartbeatSettings::disabled());
    ctrl.send(&Frame::ShardMapUpdate { worker: 0, map: ShardMap::round_robin(1, 1, 1), config })
        .expect("shard map");
    ctrl.send(&Frame::MigrateCommit { epoch: 1 }).expect("commit");
    match ctrl.recv_deadline(deadline, "commit echo").expect("commit echo") {
        Frame::MigrateCommit { epoch: 1 } => {}
        other => panic!("expected the commit echo, got {other:?}"),
    }

    let idle = median((0..40).map(|n| probe(&mut ctrl, n)).collect());
    assert!(idle <= Duration::from_millis(2), "idle control round trip took {idle:?}");

    // A paced left stream (unique keys: no join work piles up) while the
    // probes continue.
    let flowing = Arc::new(AtomicBool::new(true));
    let flow = {
        let flowing = Arc::clone(&flowing);
        let sender = move |stream, side| {
            StreamSender::new(ingest, stream, side, spec.side_schema(side), ClientOptions::default())
        };
        std::thread::spawn(move || {
            let (mut left, mut right) = (sender(0, Side::Left), sender(1, Side::Right));
            for k in 0..6_400i64 {
                let tuple = StreamElement::Tuple(Tuple::of((k, k)));
                left.push(Timestamped::new(Timestamp(k as u64), tuple)).expect("push");
                if k % 32 == 31 {
                    left.service().expect("service");
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
            flowing.store(false, Ordering::SeqCst);
            left.finish().expect("finish left");
            right.finish().expect("finish right");
        })
    };
    let mut busy = Vec::new();
    while flowing.load(Ordering::SeqCst) {
        busy.push(probe(&mut ctrl, busy.len() as u32));
    }
    assert!(busy.len() >= 40, "only {} probes overlapped the data flow", busy.len());
    let busy = median(busy);
    assert!(busy <= Duration::from_millis(2), "control round trip under load took {busy:?}");

    flow.join().expect("flow thread");
    // Both streams finished: the worker closes its sink, and once a
    // subscriber has seen that, waits for the control hang-up.
    let mut outputs = SinkSubscriber::new(sink);
    while !outputs.finished() {
        let joined = outputs.next(Duration::from_secs(5)).expect("sink");
        assert!(joined.is_none(), "unique keys join nothing, got {joined:?}");
    }
    drop(ctrl);
    let report = worker.join().expect("worker thread").expect("worker ok");
    assert_eq!(report.elements, 6_400);
}
