//! Property tests: every structure a durable checkpoint carries must
//! survive its snapshot codec *exactly*, and no corrupted or truncated
//! snapshot may ever panic a reader — corruption surfaces as a typed
//! [`SnapshotError`], nothing else.
//!
//! Four round-trip families, each driven by arbitrary operation
//! histories (not arbitrary final states — the slab free-list and the
//! punctuation-set constant index are *timing*-dependent):
//!
//! * `Bucket<PRecord>` memory slabs through `encode_memory` /
//!   `decode_memory`: keyed and unkeyed (`TAG_UNKEYED`) slots, holes
//!   from extraction, NaN float payloads, `DTS_RESIDENT` sentinels —
//!   re-encoding must be byte-identical and *future* inserts must land
//!   in the same slots (free-list order survived, not just content).
//! * [`PunctuationSet`] through `encode_punct_set` / `decode_punct_set`:
//!   all five pattern kinds of the paper, interleaved removals, and the
//!   first-arrived-id rule for duplicate constants (the case that makes
//!   the constant index non-derivable from the final entries).
//! * [`Aligner`] through `encode_aligner` / `decode_aligner`: the
//!   per-punctuation FIFO queues, `PunctSeq`s, waiting masks, and
//!   counters — verified both structurally and behaviourally (the
//!   restored aligner answers every future observation identically).
//! * Pending input punctuations through `encode_pending` /
//!   `decode_pending`.
//!
//! Plus the corruption gates: epoch files and section payloads with a
//! flipped byte or a truncated tail are rejected (or, where the flip
//! only touches CRC-unprotected framing metadata, re-read with payload
//! bytes provably intact) — and never, under any input, panic.

use bytes::BytesMut;
use pjoin::record::DTS_RESIDENT;
use pjoin::PRecord;
use proptest::prelude::*;
use punct_durable::format::{read_epoch_file, write_epoch_file, RawSection, SectionPayload};
use punct_durable::snapshot::kind;
use punct_durable::{
    decode_aligner, decode_pending, decode_punct_set, encode_aligner, encode_pending,
    encode_punct_set, PendingPunct,
};
use punct_exec::Aligner;
use punct_types::{
    Bound, Pattern, PunctId, PunctSeq, Punctuation, PunctuationSet, Tuple, Value,
};
use spillstore::{tag_of_key, Bucket};

// ---------------------------------------------------------------------
// Value / pattern / punctuation strategies
// ---------------------------------------------------------------------

/// Arbitrary values, weighted towards collisions (small ints) and the
/// floats that break naive codecs: NaNs with payload bits, -0.0, ±inf.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-5i64..5).prop_map(Value::Int),
        any::<i64>().prop_map(|bits| Value::Float(f64::from_bits(bits as u64))),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::NEG_INFINITY)),
        "[a-c]{0,3}".prop_map(Value::from),
    ]
}

fn arb_bound() -> impl Strategy<Value = Bound> {
    prop_oneof![
        Just(Bound::Unbounded),
        arb_value().prop_map(Bound::Inclusive),
        arb_value().prop_map(Bound::Exclusive),
    ]
}

/// All five pattern kinds of the paper.
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        Just(Pattern::Wildcard),
        Just(Pattern::Empty),
        arb_value().prop_map(Pattern::Constant),
        (arb_bound(), arb_bound()).prop_map(|(lo, hi)| Pattern::Range { lo, hi }),
        proptest::collection::vec(arb_value(), 0..4).prop_map(Pattern::In),
    ]
}

/// Width-2 punctuations patterned on attribute 0 — the shape every
/// index of a `PunctuationSet::new(0)` engages with.
fn arb_punct() -> impl Strategy<Value = Punctuation> {
    arb_pattern().prop_map(|p| Punctuation::on_attr(2, 0, p))
}

// ---------------------------------------------------------------------
// Bucket<PRecord> slab round-trip
// ---------------------------------------------------------------------

/// Operations that shape the slab: keyed and unkeyed inserts grow or
/// refill it; the removal flavors punch holes in history-dependent
/// order, so the free list (and therefore future slot assignment) is a
/// function of the whole history.
#[derive(Debug, Clone)]
enum SlabOp {
    /// Insert under this join key (`None` = unkeyed ⇒ `TAG_UNKEYED`),
    /// with these float payload bits (NaNs included) and this pid.
    Insert(Option<i64>, u64, Option<u64>),
    /// Keyed extraction of everything under the key.
    ExtractKey(i64),
    /// Extract records with even sequence numbers (any tag).
    ExtractEvenSeq,
    /// Retain only records with sequence number below the bound.
    RetainBelow(i64),
}

fn slab_insert() -> impl Strategy<Value = SlabOp> {
    (
        prop_oneof![Just(None), (0i64..6).prop_map(Some)],
        any::<u64>(),
        prop_oneof![Just(None), (0u64..8).prop_map(Some)],
    )
        .prop_map(|(k, bits, pid)| SlabOp::Insert(k, bits, pid))
}

fn slab_op() -> impl Strategy<Value = SlabOp> {
    prop_oneof![
        slab_insert(),
        slab_insert(),
        slab_insert(),
        (0i64..6).prop_map(SlabOp::ExtractKey),
        Just(SlabOp::ExtractEvenSeq),
        (0i64..64).prop_map(SlabOp::RetainBelow),
    ]
}

fn seq_of(r: &PRecord) -> i64 {
    r.tuple.get(2).and_then(Value::as_int).expect("seq attr")
}

fn apply_slab(b: &mut Bucket<PRecord>, op: &SlabOp, seq: &mut i64) {
    match op {
        SlabOp::Insert(key, bits, pid) => {
            let k = key.map(Value::Int).unwrap_or(Value::Null);
            let tuple = Tuple::new(vec![
                k.clone(),
                Value::Float(f64::from_bits(*bits)),
                Value::Int(*seq),
            ]);
            let rec = PRecord {
                tuple,
                ats: *seq as u64,
                // Alternate the resident sentinel with finite instants.
                dts: if *seq % 2 == 0 { DTS_RESIDENT } else { *seq as u64 + 10 },
                pid: pid.map(PunctId),
                arrival_us: (*seq as u64) * 7,
            };
            match key {
                Some(k) => b.push_tagged(rec, tag_of_key(&Value::Int(*k))),
                None => b.push(rec),
            }
            *seq += 1;
        }
        SlabOp::ExtractKey(k) => {
            b.extract_tag(tag_of_key(&Value::Int(*k)), |_| true);
        }
        SlabOp::ExtractEvenSeq => {
            b.extract(|r| seq_of(r) % 2 == 0);
        }
        SlabOp::RetainBelow(bound) => {
            b.retain(|r| seq_of(r) < *bound);
        }
    }
}

fn encode_slab(b: &Bucket<PRecord>) -> BytesMut {
    let mut buf = BytesMut::new();
    b.encode_memory(&mut buf);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The slab survives bit-for-bit: identical re-encoding, identical
    /// iteration, and identical *future* slot assignment.
    #[test]
    fn bucket_precord_slab_roundtrip(ops in proptest::collection::vec(slab_op(), 0..40)) {
        let mut original: Bucket<PRecord> = Bucket::new();
        let mut seq = 0i64;
        for op in &ops {
            apply_slab(&mut original, op, &mut seq);
        }
        let bytes = encode_slab(&original);
        let mut decoded = Bucket::<PRecord>::decode_memory(&mut bytes.clone().freeze())
            .expect("a freshly encoded slab must decode");
        prop_assert_eq!(decoded.len(), original.len());
        prop_assert_eq!(decoded.arena_len(), original.arena_len(), "holes must survive");
        let got: Vec<&PRecord> = decoded.iter().collect();
        let want: Vec<&PRecord> = original.iter().collect();
        prop_assert_eq!(got, want, "iteration (order included) must survive");
        let reencoded = encode_slab(&decoded);
        prop_assert_eq!(
            reencoded.as_ref(),
            bytes.as_ref(),
            "re-encoding must be byte-identical (tags, holes, free-list order)"
        );
        // The free list survived as *behavior*: the next insert lands in
        // the same slot on both sides.
        for b in [&mut original, &mut decoded] {
            b.push(PRecord::arriving(Tuple::of((99i64, seq)), seq as u64));
        }
        let (after_orig, after_dec) = (encode_slab(&original), encode_slab(&decoded));
        prop_assert_eq!(
            after_orig.as_ref(),
            after_dec.as_ref(),
            "future inserts must land in the same recycled slots"
        );
    }

    /// Truncating an encoded slab never panics and (being a strict
    /// prefix) never decodes successfully into the same record count.
    #[test]
    fn bucket_precord_truncation_rejected(
        ops in proptest::collection::vec(slab_op(), 1..24),
        cut_seed in any::<u64>(),
    ) {
        let mut b: Bucket<PRecord> = Bucket::new();
        let mut seq = 0i64;
        for op in &ops {
            apply_slab(&mut b, op, &mut seq);
        }
        let bytes = encode_slab(&b);
        prop_assume!(!bytes.is_empty());
        let cut = (cut_seed as usize) % bytes.len();
        // Must return, not panic; a strict prefix can never round-trip.
        if let Ok(short) = Bucket::<PRecord>::decode_memory(&mut bytes.clone().freeze().slice(..cut)) {
            // A strict prefix must not reproduce the full slab.
            let short_bytes = encode_slab(&short);
            prop_assert_ne!(short_bytes.as_ref(), bytes.as_ref());
        }
        // A header claiming u32::MAX slots is rejected against the bytes
        // present, before anything is sized from it.
        let mut huge = bytes.to_vec();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        prop_assert!(Bucket::<PRecord>::decode_memory(&mut huge.into()).is_err());
    }
}

// ---------------------------------------------------------------------
// PunctuationSet round-trip
// ---------------------------------------------------------------------

/// Insert/remove histories. Removals interleaved between duplicate
/// constants are the reason the constant index is carried explicitly:
/// the final entries alone cannot reproduce it.
#[derive(Debug, Clone)]
enum SetOp {
    Insert(Punctuation),
    /// Remove the `k % live`-th id ever handed out (idempotent).
    Remove(usize),
}

fn set_op() -> impl Strategy<Value = SetOp> {
    prop_oneof![
        arb_punct().prop_map(SetOp::Insert),
        arb_punct().prop_map(SetOp::Insert),
        (0usize..16).prop_map(SetOp::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The decoded set compares equal, re-encodes identically, and
    /// answers `set_match` (the paper's first-arrived-id rule) the same
    /// for every probe value.
    #[test]
    fn punct_set_roundtrip(ops in proptest::collection::vec(set_op(), 0..32)) {
        let mut set = PunctuationSet::new(0);
        let mut ids: Vec<PunctId> = Vec::new();
        for op in &ops {
            match op {
                SetOp::Insert(p) => ids.push(set.insert(p.clone())),
                SetOp::Remove(k) if !ids.is_empty() => {
                    set.remove(ids[k % ids.len()]);
                }
                SetOp::Remove(_) => {}
            }
        }
        let bytes = encode_punct_set(&set);
        let decoded = decode_punct_set(&bytes).expect("a fresh encoding must decode");
        prop_assert_eq!(&decoded, &set);
        prop_assert_eq!(encode_punct_set(&decoded), bytes, "canonical re-encoding");
        for v in -5i64..5 {
            let probe = Tuple::of((v, 0i64));
            prop_assert_eq!(
                decoded.set_match(&probe),
                set.set_match(&probe),
                "first-arrived-id must survive for probe {}", v
            );
        }
    }

    /// Corrupted or truncated punct-set payloads yield a typed error or
    /// (for flips the codec cannot distinguish) a decodable set — never
    /// a panic.
    #[test]
    fn punct_set_corruption_never_panics(
        ops in proptest::collection::vec(set_op(), 1..16),
        cut_seed in any::<u64>(),
        flip_seed in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let mut set = PunctuationSet::new(0);
        let mut ids: Vec<PunctId> = Vec::new();
        for op in &ops {
            match op {
                SetOp::Insert(p) => ids.push(set.insert(p.clone())),
                SetOp::Remove(k) if !ids.is_empty() => {
                    set.remove(ids[k % ids.len()]);
                }
                SetOp::Remove(_) => {}
            }
        }
        let bytes = encode_punct_set(&set);
        prop_assume!(!bytes.is_empty());
        // Every strict prefix is rejected: the codec demands exact
        // consumption, so missing tail bytes always surface.
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(
            decode_punct_set(&bytes[..cut]).is_err(),
            "a truncated punct-set payload must be rejected"
        );
        // A flipped byte must return *something* — Err or a different
        // but valid set — without panicking.
        let mut flipped = bytes.clone();
        let pos = (flip_seed as usize) % flipped.len();
        flipped[pos] ^= mask;
        let _ = decode_punct_set(&flipped);
    }
}

// ---------------------------------------------------------------------
// Aligner round-trip
// ---------------------------------------------------------------------

/// A small punctuation pool so observations actually resolve against
/// registered expectations (and FIFO queues grow past length one).
fn pool_punct(i: usize) -> Punctuation {
    match i % 5 {
        0 => Punctuation::close_value(2, 0, 1i64),
        1 => Punctuation::close_value(2, 0, 2i64),
        2 => Punctuation::on_attr(2, 0, Pattern::In(vec![Value::Int(1), Value::Int(2)])),
        3 => Punctuation::on_attr(2, 0, Pattern::Wildcard),
        _ => Punctuation::on_attr(2, 0, Pattern::int_range(0, 3)),
    }
}

#[derive(Debug, Clone)]
enum AlignOp {
    /// Register expectation `pool[i]` against this nonzero target mask.
    Expect(usize, u64),
    /// Observe `pool[i]` propagated by this shard.
    Observe(usize, usize),
}

fn align_op() -> impl Strategy<Value = AlignOp> {
    prop_oneof![
        ((0usize..5), (1u64..16)).prop_map(|(i, m)| AlignOp::Expect(i, m)),
        ((0usize..5), (0usize..4)).prop_map(|(i, s)| AlignOp::Observe(i, s)),
        ((0usize..5), (0usize..4)).prop_map(|(i, s)| AlignOp::Observe(i, s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The restored aligner is structurally equal, re-encodes
    /// identically, and — the contract recovery actually leans on —
    /// resolves every future observation exactly like the original:
    /// same outcomes, same sequence attribution, same FIFO order.
    #[test]
    fn aligner_roundtrip(ops in proptest::collection::vec(align_op(), 0..48)) {
        let mut aligner = Aligner::new();
        let mut seq = 0u64;
        for op in &ops {
            match *op {
                AlignOp::Expect(i, mask) => {
                    aligner.expect(pool_punct(i), PunctSeq(seq), mask);
                    seq += 1;
                }
                AlignOp::Observe(i, shard) => {
                    let _ = aligner.observe(shard, &pool_punct(i));
                }
            }
        }
        let bytes = encode_aligner(&aligner);
        let mut decoded = decode_aligner(&bytes).expect("a fresh encoding must decode");
        prop_assert_eq!(&decoded, &aligner);
        prop_assert_eq!(encode_aligner(&decoded), bytes, "canonical re-encoding");
        prop_assert_eq!(decoded.pending_len(), aligner.pending_len());
        // Behavioral equivalence: drive both through the same exhaustive
        // observation schedule and require identical answers.
        for round in 0..2 {
            let _ = round;
            for i in 0..5 {
                for shard in 0..4 {
                    let p = pool_punct(i);
                    prop_assert_eq!(
                        decoded.observe_seq(shard, &p),
                        aligner.observe_seq(shard, &p),
                        "post-restore observation diverged"
                    );
                }
            }
        }
        prop_assert_eq!(decoded.counters(), aligner.counters());
    }

    /// Truncated aligner payloads are rejected with a typed error;
    /// flipped ones never panic. The zero-waiting-mask invariant is
    /// enforced on decode.
    #[test]
    fn aligner_corruption_never_panics(
        ops in proptest::collection::vec(align_op(), 1..24),
        cut_seed in any::<u64>(),
        flip_seed in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let mut aligner = Aligner::new();
        let mut seq = 0u64;
        for op in &ops {
            match *op {
                AlignOp::Expect(i, m) => {
                    aligner.expect(pool_punct(i), PunctSeq(seq), m);
                    seq += 1;
                }
                AlignOp::Observe(i, shard) => {
                    let _ = aligner.observe(shard, &pool_punct(i));
                }
            }
        }
        let bytes = encode_aligner(&aligner);
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(
            decode_aligner(&bytes[..cut]).is_err(),
            "a truncated aligner payload must be rejected"
        );
        let mut flipped = bytes.clone();
        let pos = (flip_seed as usize) % flipped.len();
        flipped[pos] ^= mask;
        let _ = decode_aligner(&flipped);
    }
}

// ---------------------------------------------------------------------
// Pending punctuation log round-trip
// ---------------------------------------------------------------------

fn arb_pending() -> impl Strategy<Value = PendingPunct> {
    ((0u64..64), (0u8..2), arb_punct())
        .prop_map(|(seq, side, punct)| PendingPunct { seq, side, punct })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The pending log round-trips in canonical (ingest-sequence) order
    /// and strict prefixes are rejected.
    #[test]
    fn pending_roundtrip_and_truncation(
        pending in proptest::collection::vec(arb_pending(), 0..16),
        cut_seed in any::<u64>(),
    ) {
        let bytes = encode_pending(&pending);
        let decoded = decode_pending(&bytes).expect("a fresh encoding must decode");
        let mut want = pending.clone();
        want.sort_by_key(|p| p.seq);
        prop_assert_eq!(&decoded, &want, "decode yields ingest-sequence order");
        prop_assert_eq!(encode_pending(&decoded), bytes, "canonical re-encoding");
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(
            decode_pending(&bytes[..cut]).is_err(),
            "a truncated pending payload must be rejected"
        );
    }
}

// ---------------------------------------------------------------------
// Epoch-file corruption gate
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The epoch-file layer round-trips arbitrary inline sections; any
    /// truncation is rejected; and a single flipped byte either yields a
    /// typed error or — when it only grazed CRC-unprotected framing
    /// metadata (epoch number, section key/kind) — a read whose payload
    /// *bytes* are provably intact. Never a panic, never silent payload
    /// corruption.
    #[test]
    fn epoch_file_flips_and_truncations_never_corrupt_payloads(
        epoch in any::<u64>(),
        sections in proptest::collection::vec(
            ((1u8..6), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..48)),
            0..5
        ),
        cut_seed in any::<u64>(),
        flip_seed in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let raw: Vec<RawSection> = sections
            .iter()
            .map(|(kind, key, payload)| RawSection {
                kind: *kind,
                key: *key,
                payload: SectionPayload::Inline(payload.clone()),
            })
            .collect();
        let file = write_epoch_file(epoch, &raw);

        // Clean round trip.
        let (got_epoch, got_sections) =
            read_epoch_file(&file).expect("a fresh epoch file must read back");
        prop_assert_eq!(got_epoch, epoch);
        prop_assert_eq!(&got_sections, &raw);

        // Every strict prefix is rejected (the end marker + section
        // count make even "lost last section" truncations detectable).
        let cut = (cut_seed as usize) % file.len();
        prop_assert!(
            read_epoch_file(&file[..cut]).is_err(),
            "a truncated epoch file must be rejected"
        );

        // One flipped byte: Err, or payload bytes bit-identical.
        let mut flipped = file.clone();
        let pos = (flip_seed as usize) % flipped.len();
        flipped[pos] ^= mask;
        if let Ok((_, sections)) = read_epoch_file(&flipped) {
            let payload_bytes = |ss: &[RawSection]| -> Vec<Vec<u8>> {
                let mut out: Vec<Vec<u8>> = ss
                    .iter()
                    .map(|s| match &s.payload {
                        SectionPayload::Inline(b) => b.clone(),
                        SectionPayload::Ref { .. } => unreachable!("inline sections only"),
                    })
                    .collect();
                out.sort();
                out
            };
            prop_assert_eq!(
                payload_bytes(&sections),
                payload_bytes(&raw),
                "a flip that reads back Ok may only touch framing metadata, \
                 never CRC-guarded payload bytes"
            );
        }
    }
}

/// The flip gates above allow `Ok` for metadata-only damage; this pins
/// the headline cases to their *specific* typed errors.
#[test]
fn corruption_errors_are_typed() {
    use punct_durable::SnapshotError;

    let raw = vec![RawSection {
        kind: kind::PUNCTSET,
        key: 7,
        payload: SectionPayload::Inline(encode_punct_set(&PunctuationSet::new(0))),
    }];
    let file = write_epoch_file(3, &raw);

    // Damaged magic.
    let mut bad = file.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(read_epoch_file(&bad), Err(SnapshotError::BadMagic)));

    // A reader from the future.
    let mut bad = file.clone();
    bad[8] = 0xFF;
    assert!(matches!(read_epoch_file(&bad), Err(SnapshotError::UnsupportedVersion(_))));

    // A payload bit flip trips the section CRC.
    let mut bad = file.clone();
    let n = bad.len();
    bad[n - 7] ^= 0x01; // inside the (non-empty) payload of the last section
    assert!(matches!(
        read_epoch_file(&bad),
        Err(SnapshotError::Crc { kind: kind::PUNCTSET, key: 7 })
    ));

    // A lost tail.
    assert!(matches!(
        read_epoch_file(&file[..file.len() - 1]),
        Err(SnapshotError::Truncated(_))
    ));

    // An aligner expectation waiting on no shard is structurally corrupt.
    let mut aligner = Aligner::new();
    aligner.expect(pool_punct(0), PunctSeq(0), 0b1);
    let mut bytes = encode_aligner(&aligner);
    let n = bytes.len();
    bytes[n - 8..].copy_from_slice(&0u64.to_le_bytes()); // zero the waiting mask
    assert!(matches!(decode_aligner(&bytes), Err(SnapshotError::Corrupt(_))));
}
