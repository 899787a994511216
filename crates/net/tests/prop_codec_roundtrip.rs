//! Property tests of the wire codec: every frame kind round-trips
//! bit-exactly over randomized payloads covering all five pattern kinds
//! and every `Value` variant (including `NaN` and `-0.0` floats), and a
//! malformed-byte corpus decodes to errors — never panics.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use punct_net::frame::error_code;
use punct_net::{decode_frame, encode_frame, Frame, FrameBuffer, WIRE_VERSION};
use punct_types::wire::{get_timestamped, put_timestamped, WireError, WireReader};
use punct_types::{
    Bound, Pattern, Punctuation, Schema, StreamElement, Timestamp, Timestamped, Tuple, Value,
    ValueType,
};

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<i64>().prop_map(|bits| Value::Float(f64::from_bits(bits as u64))),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::INFINITY)),
        "[a-z0-9 ]{0,12}".prop_map(Value::from),
    ]
}

fn arb_bound() -> impl Strategy<Value = Bound> {
    prop_oneof![
        Just(Bound::Unbounded),
        arb_value().prop_map(Bound::Inclusive),
        arb_value().prop_map(Bound::Exclusive),
    ]
}

/// All five pattern kinds of the paper, with arbitrary payloads. Built
/// with raw constructors (not the normalizing helpers) so the round
/// trip is compared structurally, bit for bit.
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        Just(Pattern::Wildcard),
        Just(Pattern::Empty),
        arb_value().prop_map(Pattern::Constant),
        (arb_bound(), arb_bound()).prop_map(|(lo, hi)| Pattern::Range { lo, hi }),
        proptest::collection::vec(arb_value(), 0..5).prop_map(Pattern::In),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_value(), 0..6).prop_map(Tuple::new)
}

fn arb_punctuation() -> impl Strategy<Value = Punctuation> {
    proptest::collection::vec(arb_pattern(), 0..6).prop_map(Punctuation::new)
}

fn arb_element() -> impl Strategy<Value = StreamElement> {
    prop_oneof![
        arb_tuple().prop_map(StreamElement::Tuple),
        arb_punctuation().prop_map(StreamElement::Punctuation),
    ]
}

fn arb_timestamped() -> impl Strategy<Value = Timestamped<StreamElement>> {
    (any::<u64>(), arb_element()).prop_map(|(us, e)| Timestamped::new(Timestamp(us), e))
}

/// Data-frame elements weighted toward what the one-block decode must get
/// right: zero-width tuples, `Str` values, punctuations between tuples.
fn arb_run_element() -> impl Strategy<Value = Timestamped<StreamElement>> {
    let element = prop_oneof![
        arb_tuple().prop_map(StreamElement::Tuple),
        Just(StreamElement::Tuple(Tuple::new(Vec::new()))),
        proptest::collection::vec("[a-z]{0,6}".prop_map(Value::from), 1..4)
            .prop_map(|values| StreamElement::Tuple(Tuple::new(values))),
        arb_punctuation().prop_map(StreamElement::Punctuation),
    ];
    (any::<u64>(), element).prop_map(|(us, e)| Timestamped::new(Timestamp(us), e))
}

fn arb_schema() -> impl Strategy<Value = Schema> {
    proptest::collection::vec(
        ("[a-z]{1,8}", 0u8..5),
        0..5,
    )
    .prop_map(|fields| {
        let pairs: Vec<(&str, ValueType)> = fields
            .iter()
            .map(|(name, ty)| {
                let ty = match ty {
                    0 => ValueType::Null,
                    1 => ValueType::Bool,
                    2 => ValueType::Int,
                    3 => ValueType::Float,
                    _ => ValueType::Str,
                };
                (name.as_str(), ty)
            })
            .collect();
        Schema::of(&pairs)
    })
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u32>(), 0u8..2, arb_schema()).prop_map(|(stream, side, schema)| Frame::Hello {
            stream,
            side,
            wire_version: WIRE_VERSION,
            schema,
        }),
        (any::<u64>(), any::<u32>(), any::<u32>()).prop_map(
            |(resume_from, credits, wire_version)| Frame::HelloAck {
                resume_from,
                credits,
                wire_version,
            }
        ),
        any::<u64>().prop_map(|up_to| Frame::Ack { up_to }),
        any::<u32>().prop_map(|n| Frame::Credit { n }),
        any::<u64>().prop_map(|count| Frame::Fin { count }),
        Just(Frame::FinAck),
        (any::<u16>(), "[ -~]{0,30}")
            .prop_map(|(code, message)| Frame::Error { code, message }),
        (any::<u64>(), any::<u32>()).prop_map(|(resume_from, wire_version)| Frame::Subscribe {
            resume_from,
            wire_version,
        }),
        (any::<u64>(), proptest::collection::vec(arb_timestamped(), 0..5))
            .prop_map(|(first_seq, elements)| Frame::DataBatch { first_seq, elements }),
        (any::<u32>(), "[ -~]{0,20}", "[ -~]{0,20}").prop_map(
            |(worker, ingest_addr, sink_addr)| Frame::JoinCluster {
                wire_version: WIRE_VERSION,
                worker,
                ingest_addr,
                sink_addr,
            }
        ),
        (
            any::<u32>(),
            any::<u64>(),
            proptest::collection::vec(any::<u32>(), 1..8),
            proptest::collection::vec(any::<u8>(), 0..32),
        )
            .prop_map(|(worker, epoch, assignment, config)| Frame::ShardMapUpdate {
                worker,
                map: punct_types::ShardMap { epoch, assignment },
                config,
            }),
        (
            any::<u32>(),
            0u8..2,
            proptest::collection::vec((any::<u64>(), arb_tuple()), 0..5),
        )
            .prop_map(|(shard, side, records)| Frame::MigrateState { shard, side, records }),
        any::<u64>().prop_map(|records| Frame::MigrateStateDone { records }),
        any::<u64>().prop_map(|epoch| Frame::MigrateCommit { epoch }),
        any::<u64>().prop_map(|nonce| Frame::BarrierReached { nonce }),
        proptest::collection::vec(any::<u8>(), 0..64)
            .prop_map(|payload| Frame::Telemetry { payload }),
        arb_worker_telemetry().prop_map(|t| Frame::Telemetry {
            payload: TelemetryMsg::Report(Box::new(t)).encode(),
        }),
    ]
}

// ---------------------------------------------------------------------
// Telemetry strategies
// ---------------------------------------------------------------------

use punct_trace::telemetry::{decode_histogram, encode_histogram_into};
use punct_trace::{
    IngestCounters, JoinLatencies, KindSummary, LatencyHistogram, PunctRecord, ShardSnapshot,
    TelemetryMsg, TraceKind, WorkerTelemetry,
};

/// Histograms built from raw samples, so bucket placement, saturating
/// sums, and max tracking are all exercised by the codec round trip.
fn arb_histogram() -> impl Strategy<Value = LatencyHistogram> {
    proptest::collection::vec(any::<u64>(), 0..48).prop_map(|samples| {
        let mut h = LatencyHistogram::new();
        for s in samples {
            h.record(s);
        }
        h
    })
}

fn arb_latencies() -> impl Strategy<Value = JoinLatencies> {
    (arb_histogram(), arb_histogram(), arb_histogram()).prop_map(
        |(tuple_emit, punct_purge, punct_propagate)| JoinLatencies {
            tuple_emit,
            punct_purge,
            punct_propagate,
        },
    )
}

/// One input side's lifecycle records, in arrival order.
fn arb_lifecycle() -> impl Strategy<Value = Vec<PunctRecord>> {
    proptest::collection::vec(
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(ingest_ns, purge_ns, sink_ns)| PunctRecord { ingest_ns, purge_ns, sink_ns }),
        0..10,
    )
}

fn arb_worker_telemetry() -> impl Strategy<Value = WorkerTelemetry> {
    (
        (any::<u32>(), any::<u64>(), any::<bool>()),
        (any::<u64>(), any::<u64>()),
        arb_latencies(),
        proptest::collection::vec(
            (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>())
                .prop_map(|(shard, consumed, state_tuples, emitted)| ShardSnapshot {
                    shard,
                    consumed,
                    state_tuples,
                    emitted,
                }),
            0..8,
        ),
        proptest::collection::vec(
            (0u8..TraceKind::ALL.len() as u8, any::<u64>(), any::<u64>()).prop_map(
                |(kind, count, total_dur_ns)| KindSummary { kind, count, total_dur_ns },
            ),
            0..6,
        ),
        (arb_lifecycle(), arb_lifecycle()).prop_map(|(left, right)| [left, right]),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(connections, frames_received, bytes_received, duplicates_suppressed, stalls)| {
                IngestCounters {
                    connections,
                    frames_received,
                    bytes_received,
                    duplicates_suppressed,
                    stalls,
                }
            },
        ),
    )
        .prop_map(
            |((worker, seq, final_flush), (elements, outputs), latencies, shards, summaries,
              lifecycle, ingest)| WorkerTelemetry {
                worker,
                seq,
                final_flush,
                elements,
                outputs,
                latencies,
                shards,
                summaries,
                lifecycle,
                ingest,
            },
        )
}

// ---------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------

proptest! {
    /// Every frame — covering every Value variant and all five pattern
    /// kinds — decodes back to a structurally identical frame.
    /// `Frame`'s `PartialEq` goes through `Value`'s bit-exact float
    /// equality, so NaN payloads and signed zeros must survive.
    #[test]
    fn frame_round_trip_is_bit_exact(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        let decoded = decode_frame(&bytes[4..]).expect("well-formed frame must decode");
        prop_assert_eq!(decoded, frame);
    }

    /// Re-encoding a decoded frame reproduces the original bytes: the
    /// encoding is canonical, so dedup/debug tooling can compare raw
    /// frames.
    #[test]
    fn encoding_is_canonical(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        let decoded = decode_frame(&bytes[4..]).expect("decode");
        prop_assert_eq!(encode_frame(&decoded), bytes);
    }

    /// A concatenated wire stream reassembles into the same frames under
    /// arbitrary fragmentation.
    #[test]
    fn fragmented_stream_reassembles(
        frames in proptest::collection::vec(arb_frame(), 1..6),
        cut in any::<u64>(),
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        let split = (cut as usize) % wire.len().max(1);
        let mut fb = FrameBuffer::new();
        fb.extend(&wire[..split]);
        let mut out = Vec::new();
        while let Some(f) = fb.next_frame().expect("prefix of a valid stream") {
            out.push(f);
        }
        fb.extend(&wire[split..]);
        while let Some(f) = fb.next_frame().expect("valid stream") {
            out.push(f);
        }
        prop_assert_eq!(out, frames);
    }

    /// Decoding any truncation of a valid frame errors (or, for a
    /// prefix that happens to parse, leaves trailing-byte detection to
    /// the framing layer) — and never panics.
    #[test]
    fn truncations_never_panic(frame in arb_frame(), cut in any::<u64>()) {
        let bytes = encode_frame(&frame);
        let payload = &bytes[4..];
        let cut = (cut as usize) % payload.len().max(1);
        let _ = decode_frame(&payload[..cut]);
    }

    /// Decoding arbitrary garbage never panics.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_frame(&bytes);
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        // Drain until the buffer is exhausted or the stream errors.
        while let Ok(Some(_)) = fb.next_frame() {}
    }

    /// Single-bit corruption of a valid frame either still decodes (the
    /// flipped bit was payload data) or errors cleanly — never panics.
    #[test]
    fn bit_flips_never_panic(frame in arb_frame(), flip in any::<u64>()) {
        let bytes = encode_frame(&frame);
        let mut corrupted = bytes.clone();
        let bit = (flip as usize) % (corrupted.len() * 8);
        corrupted[bit / 8] ^= 1 << (bit % 8);
        let mut fb = FrameBuffer::new();
        fb.extend(&corrupted);
        while let Ok(Some(_)) = fb.next_frame() {}
    }

    /// A `DataBatch` decodes to exactly the elements `get_timestamped`
    /// reads one at a time from the same bytes: decoding a frame into
    /// one block changes where the values live, not what they are.
    #[test]
    fn data_batch_decodes_like_one_element_at_a_time(
        first_seq in any::<u64>(),
        elements in proptest::collection::vec(arb_run_element(), 0..24),
    ) {
        let bytes = encode_frame(&Frame::DataBatch { first_seq, elements: elements.clone() });
        // Length prefix, tag, first_seq and count; then the elements.
        let mut r = WireReader::new(&bytes[4 + 1 + 8 + 4..]);
        let one_at_a_time: Vec<_> = elements
            .iter()
            .map(|_| get_timestamped(&mut r).expect("element decodes"))
            .collect();
        r.finish().expect("the elements fill the frame");
        match decode_frame(&bytes[4..]).expect("decode") {
            Frame::DataBatch { first_seq: seq, elements: batch } => {
                prop_assert_eq!(seq, first_seq);
                prop_assert_eq!(&batch, &one_at_a_time);
                prop_assert_eq!(&batch, &elements);
            }
            other => prop_assert!(false, "decoded {:?}", other),
        }
    }

    /// The tuples of one frame are views into one block, in frame order.
    /// With two non-empty tuples in the frame none of them owns its block,
    /// and `detached()` gives back an equal tuple that does.
    #[test]
    fn data_batch_tuples_share_one_block(
        elements in proptest::collection::vec(arb_run_element(), 2..24),
    ) {
        let non_empty = |e: &Timestamped<StreamElement>| {
            e.item.as_tuple().is_some_and(|t| !t.is_empty())
        };
        prop_assume!(elements.iter().filter(|e| non_empty(e)).count() >= 2);
        let bytes = encode_frame(&Frame::DataBatch { first_seq: 0, elements });
        let batch = match decode_frame(&bytes[4..]).expect("decode") {
            Frame::DataBatch { elements, .. } => elements,
            other => return Err(TestCaseError::fail(format!("decoded {other:?}"))),
        };
        for t in batch.iter().filter_map(|e| e.item.as_tuple()) {
            prop_assert!(!t.is_detached(), "{:?} owns its block", t);
            let alone = t.clone().detached();
            prop_assert!(alone.is_detached());
            prop_assert_eq!(&alone, t);
        }
        let mut filled = batch.iter().filter(|e| non_empty(e)).filter_map(|e| e.item.as_tuple());
        let mut prev = filled.next().expect("two non-empty tuples");
        for t in filled {
            prop_assert_eq!(prev.values().as_ptr_range().end, t.values().as_ptr());
            prev = t;
        }
    }

    /// Every strict prefix of a data frame's payload is an error, and a
    /// flipped bit is a clean decode or an error — for a one-element and
    /// a many-element batch: the one-block decode reads the bytes the
    /// element decoders read, with the same checks.
    #[test]
    fn damaged_data_frames_error_cleanly(
        elements in proptest::collection::vec(arb_run_element(), 2..8),
        cut in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let one = Frame::DataBatch { first_seq: 3, elements: vec![elements[0].clone()] };
        for frame in [one, Frame::DataBatch { first_seq: 3, elements }] {
            let bytes = encode_frame(&frame);
            let payload = &bytes[4..];
            let cut = (cut as usize) % payload.len();
            let truncated = decode_frame(&payload[..cut]);
            prop_assert!(truncated.is_err(), "{} of {} bytes decoded", cut, payload.len());
            let mut corrupted = payload.to_vec();
            let bit = (flip as usize) % (corrupted.len() * 8);
            corrupted[bit / 8] ^= 1 << (bit % 8);
            let _ = decode_frame(&corrupted);
        }
    }

    /// A latency histogram survives the telemetry codec losslessly:
    /// every bucket, the saturating sum, and the max.
    #[test]
    fn histogram_round_trip_is_lossless(h in arb_histogram()) {
        let mut buf = Vec::new();
        encode_histogram_into(&h, &mut buf);
        let decoded = decode_histogram(&buf).expect("well-formed histogram");
        prop_assert_eq!(decoded, h);
    }

    /// Merging histograms that crossed the wire is bit-identical to
    /// merging them locally — the cross-process merge is exact.
    #[test]
    fn wire_merge_equals_local_merge(a in arb_histogram(), b in arb_histogram()) {
        let mut over_wire = LatencyHistogram::new();
        for h in [&a, &b] {
            let mut buf = Vec::new();
            encode_histogram_into(h, &mut buf);
            over_wire.merge(&decode_histogram(&buf).expect("decode"));
        }
        let mut local = a;
        local.merge(&b);
        prop_assert_eq!(over_wire, local);
    }

    /// A full worker report — histograms, shard snapshots, trace
    /// summaries, lifecycle records, ingest counters — round-trips
    /// through the telemetry payload codec bit-exactly.
    #[test]
    fn worker_telemetry_round_trip_is_bit_exact(t in arb_worker_telemetry()) {
        let msg = TelemetryMsg::Report(Box::new(t));
        let bytes = msg.encode();
        prop_assert_eq!(TelemetryMsg::decode(&bytes).expect("decode"), msg);
    }

    /// Truncating a telemetry payload at any byte errors — never panics,
    /// never fabricates a report.
    #[test]
    fn telemetry_truncations_error_cleanly(t in arb_worker_telemetry(), cut in any::<u64>()) {
        let bytes = TelemetryMsg::Report(Box::new(t)).encode();
        let cut = (cut as usize) % bytes.len();
        prop_assert!(TelemetryMsg::decode(&bytes[..cut]).is_err());
    }
}

// ---------------------------------------------------------------------
// Deterministic malformed-frame corpus
// ---------------------------------------------------------------------

/// Hand-built malformed payloads hitting each decoder validation path.
#[test]
fn malformed_corpus_errors_cleanly() {
    let corpus: Vec<(&str, Vec<u8>)> = vec![
        ("empty payload", vec![]),
        ("unknown frame tag", vec![200]),
        ("hello cut at stream id", vec![0, 1, 0]),
        ("hello bad side", {
            let mut b = vec![0u8]; // Hello tag
            b.extend_from_slice(&0u32.to_le_bytes());
            b.push(9); // side must be 0/1
            b.extend_from_slice(&WIRE_VERSION.to_le_bytes());
            b.extend_from_slice(&0u32.to_le_bytes());
            b
        }),
        ("data frame cut mid-element", {
            let full = encode_frame(&Frame::DataBatch {
                first_seq: 1,
                elements: vec![Timestamped::new(
                    Timestamp(5),
                    StreamElement::Tuple(Tuple::of((1i64, "abc"))),
                )],
            });
            full[4..full.len() - 3].to_vec()
        }),
        ("string length beyond buffer", {
            let mut b = vec![7u8]; // Error tag
            b.extend_from_slice(&1u16.to_le_bytes());
            b.extend_from_slice(&1_000_000u32.to_le_bytes()); // huge message length
            b.extend_from_slice(b"hi");
            b
        }),
        ("collection length over the wire cap", {
            let mut b = one_element_batch_header();
            b.extend_from_slice(&0u64.to_le_bytes()); // ts
            b.push(0); // tuple element
            b.extend_from_slice(&(u32::MAX).to_le_bytes()); // width
            b
        }),
        ("batch count beyond its elements", {
            let mut b = encode_frame(&Frame::DataBatch {
                first_seq: 0,
                elements: vec![Timestamped::new(
                    Timestamp(1),
                    StreamElement::Tuple(Tuple::of((1i64, 2i64))),
                )],
            })[4..]
                .to_vec();
            b[9..13].copy_from_slice(&u32::MAX.to_le_bytes()); // after tag + first_seq
            b
        }),
        ("invalid utf-8 in error message", {
            let mut b = vec![7u8];
            b.extend_from_slice(&error_code::SHUTDOWN.to_le_bytes());
            b.extend_from_slice(&2u32.to_le_bytes());
            b.extend_from_slice(&[0xFF, 0xFE]);
            b
        }),
        ("trailing bytes after a valid frame", {
            let mut b = encode_frame(&Frame::FinAck)[4..].to_vec();
            b.push(42);
            b
        }),
        ("bad value tag inside a tuple", {
            let mut b = one_element_batch_header();
            b.extend_from_slice(&0u64.to_le_bytes()); // ts
            b.push(0); // tuple
            b.extend_from_slice(&1u32.to_le_bytes()); // width 1
            b.push(99); // unknown value tag
            b
        }),
        ("bad pattern tag inside a punctuation", {
            let mut b = one_element_batch_header();
            b.extend_from_slice(&0u64.to_le_bytes()); // ts
            b.push(1); // punctuation
            b.extend_from_slice(&1u32.to_le_bytes());
            b.push(77); // unknown pattern tag
            b
        }),
        // A worker would divide by zero routing its first tuple under a
        // map of no shards, and shard bitmasks hold at most 64.
        ("shard map of no shards", shard_map_update(0)),
        ("shard map of 65 shards", shard_map_update(65)),
    ];
    for (what, payload) in corpus {
        assert!(
            decode_frame(&payload).is_err(),
            "malformed case {what:?} must fail to decode"
        );
    }
}

/// The payload prefix of a one-element `DataBatch`: tag, `first_seq`,
/// count 1. The corpus cases above append one malformed element.
fn one_element_batch_header() -> Vec<u8> {
    let mut b = vec![9u8]; // DataBatch tag
    b.extend_from_slice(&0u64.to_le_bytes()); // first_seq
    b.extend_from_slice(&1u32.to_le_bytes()); // count
    b
}

/// Tag 2 was the per-element `Data` frame up to wire version 5. It is
/// retired and never reused: a well-formed v5 `Data` payload is an
/// unknown frame tag now, not a frame.
#[test]
fn retired_data_tag_decodes_as_bad_tag() {
    let mut v5_data = vec![2u8]; // the retired Data tag
    v5_data.extend_from_slice(&7u64.to_le_bytes()); // seq
    put_timestamped(
        &mut v5_data,
        &Timestamped::new(Timestamp(5), StreamElement::Tuple(Tuple::of((1i64, "abc")))),
    );
    assert!(matches!(
        decode_frame(&v5_data),
        Err(WireError::BadTag { what: "frame", tag: 2 })
    ));
}

/// Tags 12, 18 and 20 were the frames that armed a migration, a
/// checkpoint and a rollback, and tag 21 checkpoint-done, up to wire
/// version 8: two `u64`s each. They are retired and never reused, so a
/// well-formed v8 payload of any of them is an unknown frame tag now.
#[test]
fn retired_control_tags_decode_as_bad_tag() {
    for tag in [12u8, 18, 20, 21] {
        let mut v8_frame = vec![tag];
        v8_frame.extend_from_slice(&9u64.to_le_bytes()); // epoch
        v8_frame.extend_from_slice(&0x4B00_0000_0000_0009u64.to_le_bytes()); // nonce
        let decoded = decode_frame(&v8_frame);
        assert!(
            matches!(decoded, Err(WireError::BadTag { what: "frame", tag: t }) if t == tag),
            "tag {tag}: {decoded:?}"
        );
    }
}

/// A `ShardMapUpdate` payload assigning `shards` shards to worker 0.
fn shard_map_update(shards: usize) -> Vec<u8> {
    let map = punct_types::ShardMap { epoch: 1, assignment: vec![0; shards] };
    encode_frame(&Frame::ShardMapUpdate { worker: 0, map, config: Vec::new() })[4..].to_vec()
}

/// The framing layer rejects hostile length prefixes before allocating.
#[test]
fn framing_rejects_hostile_lengths() {
    for len in [0u32, u32::MAX, (punct_net::MAX_FRAME_LEN as u32) + 1] {
        let mut fb = FrameBuffer::new();
        fb.extend(&len.to_le_bytes());
        assert!(fb.next_frame().is_err(), "length {len} must be rejected");
    }
}
