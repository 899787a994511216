//! Format pins: the exact bytes of one frame of every kind and of one
//! telemetry report. Frames and telemetry payloads cross process
//! boundaries, so a codec refactor must leave them byte-identical (or
//! bump `WIRE_VERSION`); these constants make any drift a test failure
//! instead of a silent incompatibility between binaries.
//!
//! On a mismatch the test prints every actual encoding in the constants'
//! own format, so an intended format change is re-pinned by pasting.

use punct_net::frame::error_code;
use punct_net::{encode_frame, Frame, WIRE_VERSION};
use punct_trace::{
    IngestCounters, JoinLatencies, KindSummary, PunctRecord, ShardSnapshot, TelemetryMsg,
    WorkerTelemetry,
};
use punct_types::{
    Bound, Pattern, Punctuation, Schema, ShardMap, StreamElement, Timestamp, Timestamped, Tuple,
    Value, ValueType,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn tuple() -> Tuple {
    Tuple::new(vec![
        Value::Int(-7),
        Value::Float(f64::NAN),
        Value::Float(-0.0),
        Value::str("héllo"),
        Value::Bool(true),
        Value::Null,
    ])
}

fn punctuation() -> Punctuation {
    Punctuation::new(vec![
        Pattern::Constant(Value::Int(3)),
        Pattern::Range {
            lo: Bound::Inclusive(Value::Int(1)),
            hi: Bound::Exclusive(Value::Float(2.5)),
        },
        Pattern::In(vec![Value::str("a"), Value::str("b")]),
        Pattern::Wildcard,
        Pattern::Empty,
        Pattern::Range { lo: Bound::Unbounded, hi: Bound::Unbounded },
    ])
}

fn report() -> TelemetryMsg {
    let mut latencies = JoinLatencies::new();
    for v in [0u64, 1, 7, 900, u64::MAX] {
        latencies.tuple_emit.record(v);
    }
    latencies.punct_purge.record(40);
    latencies.punct_propagate.record(1 << 33);
    TelemetryMsg::Report(Box::new(WorkerTelemetry {
        worker: 3,
        seq: 17,
        final_flush: true,
        elements: 1000,
        outputs: 950,
        latencies,
        shards: vec![
            ShardSnapshot { shard: 0, consumed: 500, state_tuples: 12, emitted: 480 },
            ShardSnapshot { shard: 2, consumed: 500, state_tuples: 0, emitted: 470 },
        ],
        summaries: vec![
            KindSummary { kind: 3, count: 9, total_dur_ns: 12345 },
            KindSummary { kind: 6, count: 4, total_dur_ns: 0 },
        ],
        lifecycle: [Vec::new(), vec![PunctRecord { ingest_ns: 10, purge_ns: 20, sink_ns: 40 }]],
        ingest: IngestCounters {
            connections: 2,
            frames_received: 1000,
            bytes_received: 65536,
            duplicates_suppressed: 3,
            stalls: 5,
        },
    }))
}

/// One frame of each of the 17 kinds, in tag order (the retired tags —
/// 2, the per-element `Data` frame, 12, 18 and 20, the three arm frames,
/// and 21, checkpoint-done — have none).
fn frames() -> Vec<Frame> {
    let schema =
        Schema::of(&[("k", ValueType::Int), ("v", ValueType::Str), ("f", ValueType::Float)]);
    vec![
        Frame::Hello { stream: 3, side: 1, wire_version: WIRE_VERSION, schema },
        Frame::HelloAck { resume_from: 42, credits: 128, wire_version: WIRE_VERSION },
        Frame::Ack { up_to: 8 },
        Frame::Credit { n: 64 },
        Frame::Fin { count: 100 },
        Frame::FinAck,
        Frame::Error { code: error_code::SEQUENCE_GAP, message: "gap at 9".into() },
        Frame::Subscribe { resume_from: 5, wire_version: WIRE_VERSION },
        Frame::DataBatch {
            first_seq: 10,
            elements: vec![
                Timestamped::new(Timestamp::from_micros(100), StreamElement::Tuple(tuple())),
                Timestamped::new(
                    Timestamp::from_micros(101),
                    StreamElement::Punctuation(punctuation()),
                ),
                Timestamped::new(
                    Timestamp::from_micros(102),
                    StreamElement::Tuple(Tuple::new(vec![])),
                ),
            ],
        },
        Frame::JoinCluster {
            wire_version: WIRE_VERSION,
            worker: 1,
            ingest_addr: "127.0.0.1:4100".into(),
            sink_addr: "127.0.0.1:4101".into(),
        },
        Frame::ShardMapUpdate {
            worker: 1,
            map: ShardMap { epoch: 3, assignment: vec![0, 1, 0, 1] },
            config: vec![1, 2, 3, 4, 5],
        },
        Frame::MigrateState {
            shard: 2,
            side: 1,
            records: vec![(17, tuple()), (u64::MAX, Tuple::of((2i64, "b")))],
        },
        Frame::MigrateStateDone { records: 2 },
        Frame::MigrateCommit { epoch: 4 },
        Frame::BarrierReached { nonce: 0xDEAD_BEEF },
        Frame::Telemetry { payload: TelemetryMsg::ClockProbe { probe: 2, t0_ns: 77 }.encode() },
        Frame::Heartbeat { seq: 12 },
    ]
}

const FRAME_PINS: [&str; 17] = [
    "200000000003000000010a00000003000000010000006b02010000007604010000006603",
    "11000000012a00000000000000800000000a000000",
    "09000000030800000000000000",
    "050000000440000000",
    "09000000056400000000000000",
    "0100000006",
    "0f000000070100080000006761702061742039",
    "0d0000000805000000000000000a000000",
    "\
        92000000090a00000000000000030000006400000000000000000600000002f9ffffffffffffff03\
        000000000000f87f030000000000000080040600000068c3a96c6c6f010100650000000000000001\
        06000000010203000000000000000201020100000000000000020300000000000004400302000000\
        040100000061040100000062000402000066000000000000000000000000",
    "\
        2d0000000a0a000000010000000e0000003132372e302e302e313a343130300e0000003132372e30\
        2e302e313a34313031",
    "\
        2a0000000b0100000003000000000000000400000000000000010000000000000001000000050000\
        000102030405",
    "\
        5a0000000d02000000010200000011000000000000000600000002f9ffffffffffffff0300000000\
        0000f87f030000000000000080040600000068c3a96c6c6f010100ffffffffffffffff0200000002\
        0200000000000000040100000062",
    "090000000e0200000000000000",
    "090000000f0400000000000000",
    "0900000010efbeadde00000000",
    "12000000110d00000000020000004d00000000000000",
    "09000000130c00000000000000",
];

const REPORT_PIN: &str = "\
    0203000000110000000000000001e803000000000000b60300000000000004000200000000000000\
    0201000000000000000901000000000000003f0100000000000000ffffffffffffffffffffffffff\
    ffffff01050100000000000000280000000000000028000000000000000121010000000000000000\
    0000000200000000000000020000000200000000000000f4010000000000000c00000000000000e0\
    0100000000000002000000f4010000000000000000000000000000d6010000000000000203090000\
    00000000003930000000000000060400000000000000000000000000000000000000010000000a00\
    000000000000140000000000000028000000000000000200000000000000e8030000000000000000\
    01000000000003000000000000000500000000000000";

#[test]
fn frames_and_telemetry_bytes_are_pinned() {
    let frames = frames();
    let tags: Vec<u8> = frames.iter().map(Frame::tag).collect();
    let live_tags: Vec<u8> = (0..20).filter(|tag| ![2, 12, 18].contains(tag)).collect();
    assert_eq!(tags, live_tags, "one frame per kind, in tag order");
    let actual: Vec<String> = frames.iter().map(|f| hex(&encode_frame(f))).collect();
    let report = hex(&report().encode());
    let pinned = actual.iter().zip(FRAME_PINS).all(|(a, p)| a == p) && report == REPORT_PIN;
    if !pinned {
        eprintln!("const FRAME_PINS: [&str; 17] = [");
        for a in &actual {
            eprintln!("    \"{a}\",");
        }
        eprintln!("];\n\nconst REPORT_PIN: &str = \"{report}\";");
    }
    for (i, (a, p)) in actual.iter().zip(FRAME_PINS).enumerate() {
        assert_eq!(a, p, "frame kind {i} ({:?}) changed bytes", frames[i].tag());
    }
    assert_eq!(report, REPORT_PIN, "the telemetry report payload changed bytes");
}
