//! Property test: bucket memory-slab serialization is *exact*. After an
//! arbitrary interleaving of tagged inserts, keyed extraction, predicate
//! extraction, and retain (which punch holes and recycle slots in
//! history-dependent order), `encode_memory` → `decode_memory` must
//! reproduce a bucket that is indistinguishable from the original:
//!
//! * re-encoding the decoded bucket yields the same bytes (slab layout,
//!   tag array, and free-list order all survived);
//! * every probe answers identically;
//! * iteration order is identical;
//! * *future* inserts land in the same slots (free-list behavior, not
//!   just content, was preserved).
//!
//! This is the contract cluster migration leans on: a bucket shipped to
//! another process continues exactly where the original left off.

use bytes::{BufMut, BytesMut};
use proptest::prelude::*;
use punct_types::{Tuple, Value};
use spillstore::{tag_of_key, Bucket, CodecError};

/// Operations that shape the slab: inserts grow or refill it, the
/// removal flavors punch holes in different orders.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a record with this join key (`None` = unkeyed).
    Insert(Option<i64>),
    /// Keyed extraction of every record under the key.
    ExtractKey(i64),
    /// Predicate extraction of records with even sequence numbers.
    ExtractEvenSeq,
    /// Retain only records with sequence number below the bound.
    RetainBelow(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..8).prop_map(|k| Op::Insert(Some(k))),
        (0i64..8).prop_map(|k| Op::Insert(Some(k))),
        (0i64..8).prop_map(|k| Op::Insert(Some(k))),
        Just(Op::Insert(None)),
        (0i64..8).prop_map(Op::ExtractKey),
        Just(Op::ExtractEvenSeq),
        (0i64..100).prop_map(Op::RetainBelow),
    ]
}

fn seq_of(t: &Tuple) -> i64 {
    t.get(1).and_then(Value::as_int).expect("seq attr")
}

fn apply(b: &mut Bucket<Tuple>, op: &Op, seq: &mut i64) {
    match *op {
        Op::Insert(key) => {
            let k = key.map(Value::Int).unwrap_or(Value::Null);
            let tag = tag_of_key(&k);
            b.push_tagged(Tuple::of((k, Value::Int(*seq))), tag);
            *seq += 1;
        }
        Op::ExtractKey(k) => {
            b.extract_tag(tag_of_key(&Value::Int(k)), |_| true);
        }
        Op::ExtractEvenSeq => {
            b.extract(|t| seq_of(t) % 2 == 0);
        }
        Op::RetainBelow(bound) => {
            b.retain(|t| seq_of(t) < bound);
        }
    }
}

fn encode(b: &Bucket<Tuple>) -> BytesMut {
    let mut buf = BytesMut::new();
    b.encode_memory(&mut buf);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn encode_decode_is_exact(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        post in proptest::collection::vec(op_strategy(), 0..20),
    ) {
        let mut original = Bucket::new();
        let mut seq = 0i64;
        for op in &ops {
            apply(&mut original, op, &mut seq);
        }

        let wire = encode(&original);
        let mut decoded =
            Bucket::<Tuple>::decode_memory(&mut wire.clone().freeze()).expect("decode");

        // Re-encoding reproduces the bytes: slab layout, tags, and
        // free-list order all survived the round trip.
        prop_assert_eq!(&encode(&decoded)[..], &wire[..]);

        // Observable state matches.
        prop_assert_eq!(decoded.memory_len(), original.memory_len());
        prop_assert_eq!(decoded.arena_len(), original.arena_len());
        prop_assert_eq!(
            decoded.iter().collect::<Vec<_>>(),
            original.iter().collect::<Vec<_>>()
        );
        for k in 0..8i64 {
            let tag = tag_of_key(&Value::Int(k));
            prop_assert_eq!(
                decoded.probe_tag(tag).collect::<Vec<_>>(),
                original.probe_tag(tag).collect::<Vec<_>>(),
                "probe for key {} diverged", k
            );
        }

        // Future behavior matches: the same operation suffix applied to
        // both buckets keeps them byte-identical (slot recycling reuses
        // the same holes in the same order).
        let mut seq2 = seq;
        for op in &post {
            apply(&mut original, op, &mut seq);
            apply(&mut decoded, op, &mut seq2);
        }
        prop_assert_eq!(&encode(&decoded)[..], &encode(&original)[..]);
    }

    #[test]
    fn truncations_never_panic(ops in proptest::collection::vec(op_strategy(), 0..30)) {
        let mut b = Bucket::new();
        let mut seq = 0i64;
        for op in &ops {
            apply(&mut b, op, &mut seq);
        }
        let wire = encode(&b);
        for cut in 0..wire.len() {
            let mut part = wire.clone().freeze().slice(0..cut);
            prop_assert!(
                Bucket::<Tuple>::decode_memory(&mut part).is_err(),
                "cut at {} decoded", cut
            );
        }
    }
}

/// Hand-rolled corruption: a free list naming an occupied slot must be
/// rejected, not trusted.
#[test]
fn corrupt_free_list_rejected() {
    let mut b = Bucket::new();
    b.push_tagged(Tuple::of((1i64, 0i64)), tag_of_key(&Value::Int(1)));
    let wire = encode(&b);
    let mut bytes = BytesMut::new();
    // arena=1, holes=1, free=[0], then the original (occupied) slot.
    bytes.put_slice(&1u32.to_le_bytes());
    bytes.put_slice(&1u32.to_le_bytes());
    bytes.put_slice(&0u32.to_le_bytes());
    bytes.put_slice(&wire[8..]);
    match Bucket::<Tuple>::decode_memory(&mut bytes.freeze()) {
        Err(CodecError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}
