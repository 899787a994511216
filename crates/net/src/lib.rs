//! # punct-net
//!
//! Networked transport for punctuated streams: length-prefixed binary
//! framing over TCP, credit-based backpressure, and fault-tolerant
//! resume that keeps punctuation delivery **exactly-once** across
//! disconnects — the property downstream purge correctness hangs on.
//!
//! # Architecture
//!
//! ```text
//! generator ──TCP──▶ ┌──────────────┐                ┌────────────┐
//!   client A        │ IngestServer  │──bounded──▶    │ ShardedPJoin│──▶ SinkServer ──TCP──▶ consumer
//! generator ──TCP──▶ │ (per-stream  │   channel      │  (exec)     │      (history,
//!   client B        │  seq + credit)│                └────────────┘       replayable)
//!                    └──────────────┘
//! ```
//!
//! * [`frame`] — the wire protocol: 9 frame kinds over the wire-stable
//!   payload encodings of `punct_types::wire`. Decoding never panics.
//! * [`server`] — the TCP ingest server: per-stream persistent sequence
//!   numbers (dedup + resume), credit grants tied to downstream channel
//!   acceptance (backpressure), gap detection.
//! * [`client`] — the source client: credit-paced sending, reconnect
//!   with deterministic exponential backoff + seeded jitter, resume from
//!   the server's acknowledged sequence.
//! * [`sink`] — a replayable output publisher and its fault-tolerant
//!   consumer.
//! * [`proxy`] — an in-process frame-aware fault injector (latency,
//!   jitter, data-frame drops, forced disconnects, bandwidth caps) for
//!   tests and benchmarks.
//! * [`pipeline`] — glue feeding the sharded executor from an ingest
//!   channel and streaming its output into a sink.
//! * [`backoff`] — the deterministic backoff schedule.
//! * [`wait`] — the one way the crate waits on sockets: `poll(2)`, so
//!   every wait is woken by data and a timeout is only a deadline.
//!
//! # Exactly-once resume, in one paragraph
//!
//! Every stream numbers its elements densely from zero; tuples and
//! punctuations share the sequence. The server's per-stream `next_seq`
//! survives connections, and its `HelloAck { resume_from }` is the
//! single source of truth for where a reconnecting client restarts.
//! Frames below `next_seq` are suppressed as duplicates (still earning
//! credit); a frame above it means loss in transit, and the server
//! refuses the connection with `SEQUENCE_GAP`, forcing the client back
//! through the handshake — where `resume_from` closes the gap. The sink
//! side runs the same discipline in reverse via `Subscribe`.

pub mod backoff;
pub mod client;
pub mod error;
pub mod frame;
pub mod pipeline;
pub mod proxy;
pub mod server;
pub mod sink;
pub mod wait;

pub use backoff::{Backoff, BackoffPolicy};
pub use client::{
    send_stream, send_stream_cancellable, spawn_source, spawn_source_cancellable, ClientOptions,
    SendReport, StreamSender,
};
pub use error::NetError;
pub use frame::{
    decode_frame, encode_data_batch_into, encode_frame, encode_frame_into, error_code, Frame,
    FrameBuffer, MAX_FRAME_LEN, WIRE_VERSION,
};
pub use pipeline::{run_networked_join, NetJoinReport};
pub use proxy::{FaultConfig, FaultProxy, ProxyStats};
pub use server::{
    IngestEvent, IngestMsg, IngestOptions, IngestReceiver, IngestServer, IngestStats,
};
pub use wait::{read_available, wait_readable};
pub use sink::{collect_all, SinkOptions, SinkReport, SinkServer, SinkSubscriber};

#[cfg(test)]
mod tests {
    use super::*;
    use punct_types::{Schema, StreamElement, Timestamp, Timestamped, Tuple, ValueType};
    use std::io::{ErrorKind, Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};
    use stream_sim::Side;

    fn tup(ts: u64, k: i64) -> Timestamped<StreamElement> {
        Timestamped::new(Timestamp(ts), StreamElement::Tuple(Tuple::of((k, k * 10))))
    }

    fn schema() -> Schema {
        Schema::of(&[("k", ValueType::Int), ("v", ValueType::Int)])
    }

    /// Reads one frame off a raw test socket, failing loudly on EOF or a
    /// five-second silence.
    fn read_one(sock: &mut TcpStream, fb: &mut FrameBuffer) -> Frame {
        sock.set_read_timeout(Some(Duration::from_millis(50))).expect("set timeout");
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut buf = [0u8; 4096];
        loop {
            if let Some(f) = fb.next_frame().expect("well-formed frame") {
                return f;
            }
            assert!(Instant::now() < deadline, "timed out waiting for a frame");
            match sock.read(&mut buf) {
                Ok(0) => panic!("peer closed while a frame was expected"),
                Ok(n) => fb.extend(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) => panic!("socket error: {e}"),
            }
        }
    }

    /// Unwraps an ingest message into its side and elements.
    fn msg_elements(msg: IngestMsg) -> (Side, Vec<Timestamped<StreamElement>>) {
        match msg {
            IngestMsg::One(side, e) => (side, vec![e]),
            IngestMsg::Batch(side, batch) => (side, batch),
        }
    }

    #[test]
    fn loopback_transfer_delivers_everything_once() {
        let elements: Vec<_> = (0..500).map(|i| tup(i, i as i64)).collect();
        let (server, rx) =
            IngestServer::bind(&[Side::Left], IngestOptions::default()).expect("bind");
        let report = send_stream(
            server.addr(),
            0,
            Side::Left,
            &schema(),
            &elements,
            &ClientOptions::default(),
        )
        .expect("send");
        assert_eq!(report.acked, 500);
        assert_eq!(report.reconnects, 0);
        assert!(server.all_finished());
        let mut got = Vec::new();
        while let Ok(msg) = rx.try_recv() {
            let (side, es) = msg_elements(msg);
            assert_eq!(side, Side::Left);
            got.extend(es);
        }
        assert_eq!(got, elements);
        assert_eq!(server.stats().duplicates_suppressed, 0);
    }

    #[test]
    fn wrong_side_and_unknown_stream_are_rejected_without_retry() {
        let (server, _rx) =
            IngestServer::bind(&[Side::Left], IngestOptions::default()).expect("bind");
        let opts = ClientOptions {
            policy: BackoffPolicy { max_attempts: 2, ..BackoffPolicy::fast() },
            ..ClientOptions::default()
        };
        let err = send_stream(server.addr(), 0, Side::Right, &schema(), &[tup(0, 1)], &opts)
            .expect_err("side mismatch");
        assert!(matches!(err, NetError::Protocol { code: frame::error_code::BAD_HELLO, .. }));
        let err = send_stream(server.addr(), 9, Side::Left, &schema(), &[tup(0, 1)], &opts)
            .expect_err("unknown stream");
        assert!(matches!(err, NetError::Protocol { code: frame::error_code::UNKNOWN_STREAM, .. }));
    }

    #[test]
    fn transfer_through_lossy_proxy_still_exactly_once() {
        let elements: Vec<_> = (0..400).map(|i| tup(i, i as i64)).collect();
        let (server, rx) =
            IngestServer::bind(&[Side::Right], IngestOptions::default()).expect("bind");
        // With the default wire batching, 400 elements move as only a
        // handful of `DataBatch` frames — so the fault profile works in
        // those units: drop ~1 in 4 data frames (up to 2, each losing a
        // whole batch) and force one disconnect after 5 frames.
        let proxy =
            FaultProxy::spawn(server.addr(), FaultConfig::lossy(4, 2, 1, 5, 7)).expect("proxy");
        let opts = ClientOptions {
            policy: BackoffPolicy::fast(),
            seed: 11,
            ..ClientOptions::default()
        };
        let report = send_stream(proxy.addr(), 0, Side::Right, &schema(), &elements, &opts)
            .expect("send through faults");
        assert_eq!(report.acked, 400);
        let stats = proxy.stats();
        assert!(
            stats.frames_dropped > 0 || stats.disconnects_forced > 0,
            "the fault profile should have fired: {stats:?}"
        );
        assert!(report.reconnects > 0, "faults should have forced at least one reconnect");
        let mut got = Vec::new();
        while let Ok(msg) = rx.try_recv() {
            got.extend(msg_elements(msg).1);
        }
        assert_eq!(got, elements, "losses and reconnects must not reorder, drop or duplicate");
    }

    /// The REVIEW race: a handler the client abandoned (e.g. after a
    /// stall) must not forward anything once a newer connection has
    /// handshaken for the same stream — otherwise an element could be
    /// delivered twice. The superseded connection is refused with
    /// `SUPERSEDED`, and the sequence counter never regresses.
    #[test]
    fn superseded_connection_cannot_duplicate_delivery() {
        let (server, rx) =
            IngestServer::bind(&[Side::Left], IngestOptions::default()).expect("bind");
        let hello = encode_frame(&Frame::Hello {
            stream: 0,
            side: 0,
            wire_version: WIRE_VERSION,
            schema: schema(),
        });

        // Connection A handshakes and owns the stream...
        let mut a = TcpStream::connect(server.addr()).expect("connect a");
        a.write_all(&hello).expect("hello a");
        let mut fb_a = FrameBuffer::new();
        assert!(matches!(read_one(&mut a, &mut fb_a), Frame::HelloAck { resume_from: 0, .. }));

        // ...until connection B handshakes for the same stream. Reading
        // B's HelloAck guarantees the server has transferred ownership.
        let mut b = TcpStream::connect(server.addr()).expect("connect b");
        b.write_all(&hello).expect("hello b");
        let mut fb_b = FrameBuffer::new();
        assert!(matches!(read_one(&mut b, &mut fb_b), Frame::HelloAck { resume_from: 0, .. }));

        // A's in-flight element must be refused, not forwarded.
        a.write_all(&encode_frame(&Frame::Data { seq: 0, element: tup(0, 1) }))
            .expect("data a");
        match read_one(&mut a, &mut fb_a) {
            Frame::Error { code, .. } => assert_eq!(code, frame::error_code::SUPERSEDED),
            other => panic!("expected SUPERSEDED, got {other:?}"),
        }
        assert_eq!(server.forwarded(), vec![0], "a superseded handler must not advance the seq");

        // B delivers the same element exactly once.
        b.write_all(&encode_frame(&Frame::Data { seq: 0, element: tup(0, 1) }))
            .expect("data b");
        b.write_all(&encode_frame(&Frame::Fin { count: 1 })).expect("fin b");
        // The element is acknowledged — once if it and the Fin were
        // read together, twice (with its credit) if the socket ran dry
        // in between — and then the Fin.
        loop {
            match read_one(&mut b, &mut fb_b) {
                Frame::Ack { up_to: 1 } | Frame::Credit { n: 1 } => {}
                Frame::FinAck => break,
                other => panic!("expected Ack(1)/Credit(1)/FinAck, got {other:?}"),
            }
        }
        assert!(server.all_finished());

        let mut got = Vec::new();
        while let Ok(msg) = rx.try_recv() {
            got.extend(msg_elements(msg).1);
        }
        assert_eq!(got, vec![tup(0, 1)], "exactly one copy must cross the channel");
    }

    /// The retry budget counts consecutive non-progressing failures: a
    /// transfer that advances on every reconnect survives arbitrarily
    /// many disconnects, even far past `max_attempts`.
    #[test]
    fn progress_resets_the_retry_budget() {
        let elements: Vec<_> = (0..1500).map(|i| tup(i, i as i64)).collect();
        // The channel must hold the whole stream: this test drains it
        // only after the (synchronous) transfer completes, and a full
        // channel would otherwise stall the client on credit forever.
        let (server, rx) = IngestServer::bind(
            &[Side::Left],
            IngestOptions { channel_capacity: 2048, ..IngestOptions::default() },
        )
        .expect("bind");
        // Kill every connection after 3 forwarded frames (the Hello plus
        // two 64-element `DataBatch` frames), 12 times — more kills than
        // the policy's whole attempt budget, but each session lands ~128
        // fresh elements before dying.
        let disconnects = 12;
        let proxy = FaultProxy::spawn(
            server.addr(),
            FaultConfig {
                disconnect_after_frames: 3,
                max_disconnects: disconnects,
                seed: 5,
                ..FaultConfig::default()
            },
        )
        .expect("proxy");
        let opts = ClientOptions {
            policy: BackoffPolicy::fast(),
            seed: 4,
            ..ClientOptions::default()
        };
        assert!(
            opts.policy.max_attempts < disconnects,
            "the test must disconnect more often than the raw attempt budget"
        );
        let report = send_stream(proxy.addr(), 0, Side::Left, &schema(), &elements, &opts)
            .expect("a transfer progressing on every reconnect must complete");
        assert_eq!(report.reconnects, disconnects);
        assert_eq!(report.acked, elements.len() as u64);
        let mut got = Vec::new();
        while let Ok(msg) = rx.try_recv() {
            got.extend(msg_elements(msg).1);
        }
        assert_eq!(got, elements);
    }

    /// A backpressure stall is not a dead connection: a consumer that
    /// pauses for longer than the handshake timeout must stall the
    /// client, not make it reconnect (the old behaviour reused the
    /// handshake timeout as a stall deadline).
    #[test]
    fn backpressure_stall_outlives_the_handshake_timeout() {
        let elements: Vec<_> = (0..300).map(|i| tup(i, i as i64)).collect();
        let (server, rx) = IngestServer::bind(
            &[Side::Left],
            IngestOptions {
                initial_credits: 32,
                ack_every: 16,
                channel_capacity: 8,
                ..IngestOptions::default()
            },
        )
        .expect("bind");
        let opts = ClientOptions {
            policy: BackoffPolicy::fast(),
            handshake_timeout: Duration::from_millis(100),
            ..ClientOptions::default()
        };
        let handle =
            spawn_source(server.addr(), 0, Side::Left, schema(), elements.clone(), opts);
        // Nobody consumes: the client burns its 32 credits, the server
        // fills its 8-slot channel and blocks, and the client sits on
        // the credit wall for well past the 100ms handshake timeout.
        std::thread::sleep(Duration::from_millis(400));
        let mut got = Vec::new();
        while got.len() < elements.len() {
            let msg = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("the transfer must flow once the consumer drains");
            got.extend(msg_elements(msg).1);
        }
        let report = handle.join().expect("client thread").expect("send");
        assert!(report.credit_stalls > 0, "the consumer pause must have stalled the client");
        assert_eq!(report.reconnects, 0, "a backpressure stall is not a dead connection");
        assert_eq!(got, elements);
    }

    #[test]
    fn sink_truncation_frees_history_and_refuses_stale_resume() {
        let sink = SinkServer::bind(SinkOptions::default()).expect("bind sink");
        for i in 0..100 {
            sink.publish(tup(i, i as i64));
        }
        sink.truncate_below(60);
        assert_eq!(sink.len(), 100, "publish sequence numbering is permanent");
        assert_eq!(sink.retained(), 40);
        // Truncation never moves backwards.
        sink.truncate_below(10);
        assert_eq!(sink.retained(), 40);
        sink.close();

        // A subscriber at or past the watermark replays the tail exactly.
        let mut sock = TcpStream::connect(sink.addr()).expect("connect");
        sock.write_all(&encode_frame(&Frame::Subscribe {
            resume_from: 60,
            wire_version: WIRE_VERSION,
        }))
        .expect("subscribe");
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        loop {
            match read_one(&mut sock, &mut fb) {
                Frame::Data { seq, element } => {
                    assert_eq!(seq, 60 + got.len() as u64);
                    got.push(element);
                }
                Frame::DataBatch { first_seq, elements } => {
                    assert_eq!(first_seq, 60 + got.len() as u64);
                    got.extend(elements);
                }
                Frame::Fin { count } => {
                    assert_eq!(count, 100);
                    break;
                }
                other => panic!("unexpected sink frame: {other:?}"),
            }
        }
        assert_eq!(got, (60..100).map(|i| tup(i, i as i64)).collect::<Vec<_>>());

        // A subscriber below it is refused — a silent gap would be worse.
        let mut sock = TcpStream::connect(sink.addr()).expect("connect");
        sock.write_all(&encode_frame(&Frame::Subscribe {
            resume_from: 10,
            wire_version: WIRE_VERSION,
        }))
        .expect("subscribe");
        let mut fb = FrameBuffer::new();
        match read_one(&mut sock, &mut fb) {
            Frame::Error { code, .. } => assert_eq!(code, frame::error_code::TRUNCATED),
            other => panic!("expected TRUNCATED, got {other:?}"),
        }

        // And the high-level consumer surfaces it as a clean failure.
        let err = collect_all(
            sink.addr(),
            BackoffPolicy::fast(),
            1,
            punct_trace::TraceSettings::default(),
        )
        .expect_err("resume below the watermark cannot succeed");
        assert!(matches!(
            err,
            NetError::Protocol { code: frame::error_code::TRUNCATED, .. }
        ));
    }

    #[test]
    fn sink_round_trip_with_replay() {
        let sink = SinkServer::bind(SinkOptions::default()).expect("bind sink");
        for i in 0..100 {
            sink.publish(tup(i, i as i64));
        }
        sink.close();
        let (got, report) = collect_all(
            sink.addr(),
            BackoffPolicy::fast(),
            3,
            punct_trace::TraceSettings::default(),
        )
        .expect("collect");
        assert_eq!(got.len(), 100);
        assert_eq!(report.reconnects, 0);
        assert_eq!(got, (0..100).map(|i| tup(i, i as i64)).collect::<Vec<_>>());
    }

    fn punct(ts: u64, k: i64) -> Timestamped<StreamElement> {
        Timestamped::new(
            Timestamp(ts),
            StreamElement::Punctuation(punct_types::Punctuation::on_attr(
                2,
                0,
                punct_types::Pattern::Constant(punct_types::Value::Int(k)),
            )),
        )
    }

    /// Satellite: a version mismatch gets the dedicated clean error on
    /// both handshake directions — never a decode failure.
    #[test]
    fn version_mismatch_rejected_cleanly_on_both_paths() {
        // Ingest side: a Hello speaking a future version.
        let (server, _rx) =
            IngestServer::bind(&[Side::Left], IngestOptions::default()).expect("bind");
        let mut sock = TcpStream::connect(server.addr()).expect("connect");
        sock.write_all(&encode_frame(&Frame::Hello {
            stream: 0,
            side: 0,
            wire_version: WIRE_VERSION + 1,
            schema: schema(),
        }))
        .expect("hello");
        let mut fb = FrameBuffer::new();
        match read_one(&mut sock, &mut fb) {
            Frame::Error { code, .. } => assert_eq!(code, frame::error_code::VERSION_MISMATCH),
            other => panic!("expected VERSION_MISMATCH, got {other:?}"),
        }

        // Sink side: a Subscribe speaking a future version.
        let sink = SinkServer::bind(SinkOptions::default()).expect("bind sink");
        let mut sock = TcpStream::connect(sink.addr()).expect("connect");
        sock.write_all(&encode_frame(&Frame::Subscribe {
            resume_from: 0,
            wire_version: WIRE_VERSION + 1,
        }))
        .expect("subscribe");
        let mut fb = FrameBuffer::new();
        match read_one(&mut sock, &mut fb) {
            Frame::Error { code, .. } => assert_eq!(code, frame::error_code::VERSION_MISMATCH),
            other => panic!("expected VERSION_MISMATCH, got {other:?}"),
        }
    }

    /// The persistent incremental sender: elements pushed one at a time
    /// arrive exactly once, `flush` really waits for acknowledgement
    /// (punctuations ack eagerly), and `finish` completes the stream.
    #[test]
    fn stream_sender_delivers_incrementally() {
        let (server, rx) =
            IngestServer::bind(&[Side::Left], IngestOptions::default()).expect("bind");
        let mut sender = StreamSender::new(
            server.addr(),
            0,
            Side::Left,
            schema(),
            ClientOptions::default(),
        );
        let mut expected = Vec::new();
        for i in 0..100u64 {
            let e = tup(i, i as i64);
            expected.push(e.clone());
            sender.push(e).expect("push");
        }
        // A punctuation acks eagerly, so this flush converges without
        // filling the 64-frame ack window.
        let p = punct(100, 7);
        expected.push(p.clone());
        sender.push(p).expect("push punct");
        sender.flush().expect("flush");
        assert_eq!(sender.acked(), 101, "flush means acknowledged, not just written");
        sender.finish().expect("finish");
        assert!(server.all_finished());
        let mut got = Vec::new();
        while let Ok(msg) = rx.try_recv() {
            got.extend(msg_elements(msg).1);
        }
        assert_eq!(got, expected);
    }

    /// A burst of tuples crosses the wire coalesced: whole `DataBatch`
    /// frames, not one frame (and one write) per element.
    #[test]
    fn stream_sender_coalesces_a_burst() {
        let (server, rx) =
            IngestServer::bind(&[Side::Left], IngestOptions::default()).expect("bind");
        let mut sender =
            StreamSender::new(server.addr(), 0, Side::Left, schema(), ClientOptions::default());
        let expected: Vec<_> = (0..1000).map(|i| tup(i, i as i64)).collect();
        for e in &expected {
            sender.push(e.clone()).expect("push");
        }
        sender.finish().expect("finish");
        let stats = server.stats();
        assert_eq!(stats.frames_received, 1000);
        assert!(
            stats.data_frames <= 1000 / 8,
            "1000 tuples arrived in {} data frames",
            stats.data_frames
        );
        let mut got = Vec::new();
        while let Ok(msg) = rx.try_recv() {
            got.extend(msg_elements(msg).1);
        }
        assert_eq!(got, expected);
    }

    /// The sender's flush survives a lossy proxy: dropped tails are
    /// detected by the ack probe and retransmitted via the resume
    /// handshake, so every flush still means "receiver has everything".
    #[test]
    fn stream_sender_flush_survives_faults() {
        let (server, rx) =
            IngestServer::bind(&[Side::Left], IngestOptions::default()).expect("bind");
        let proxy = FaultProxy::spawn(
            server.addr(),
            FaultConfig::lossy(5, 8, 2, 40, 0xC1C1),
        )
        .expect("spawn proxy");
        let mut opts = ClientOptions { seed: 9, ..ClientOptions::default() };
        opts.policy = BackoffPolicy::fast();
        let mut sender =
            StreamSender::new(proxy.addr(), 0, Side::Left, schema(), opts);
        let mut expected = Vec::new();
        for round in 0..4u64 {
            for i in 0..50u64 {
                let e = tup(round * 51 + i, (round * 51 + i) as i64);
                expected.push(e.clone());
                sender.push(e).expect("push");
            }
            let p = punct(round * 51 + 50, round as i64);
            expected.push(p.clone());
            sender.push(p).expect("push punct");
            sender.flush().expect("flush through faults");
            assert_eq!(sender.acked(), (round + 1) * 51);
        }
        sender.finish().expect("finish");
        assert!(server.all_finished());
        let mut got = Vec::new();
        while let Ok(msg) = rx.try_recv() {
            got.extend(msg_elements(msg).1);
        }
        assert_eq!(got, expected, "exactly-once through drops and disconnects");
    }

    /// The streaming sink consumer: elements arrive as published, a
    /// timeout with nothing pending returns None, and Fin finishes it.
    #[test]
    fn sink_subscriber_streams_incrementally() {
        let sink = SinkServer::bind(SinkOptions::default()).expect("bind sink");
        let mut sub = SinkSubscriber::new(sink.addr());
        sink.publish(tup(0, 0));
        let first = sub
            .next(Duration::from_secs(5))
            .expect("next")
            .expect("one element published");
        assert_eq!(first, tup(0, 0));
        assert!(
            sub.next(Duration::from_millis(40)).expect("next").is_none(),
            "nothing published yet"
        );
        for i in 1..50 {
            sink.publish(tup(i, i as i64));
        }
        sink.close();
        let mut got = vec![first];
        while let Some(e) = sub.next(Duration::from_secs(5)).expect("next") {
            got.push(e);
        }
        assert!(sub.finished());
        assert_eq!(got, (0..50).map(|i| tup(i, i as i64)).collect::<Vec<_>>());
        assert_eq!(sub.received(), 50);
    }
}
