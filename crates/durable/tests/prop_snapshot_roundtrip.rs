//! Property tests: the pending punctuation log must survive its
//! snapshot codec *exactly*, and no corrupted or truncated snapshot may
//! ever panic a reader — corruption surfaces as a typed
//! [`SnapshotError`], nothing else.
//!
//! * Pending input punctuations through `encode_pending` /
//!   `decode_pending`, over all five pattern kinds of the paper.
//! * The corruption gates: epoch files and section payloads with a
//!   flipped byte or a truncated tail are rejected (or, where the flip
//!   only touches CRC-unprotected framing metadata, re-read with payload
//!   bytes provably intact) — and never, under any input, panic.

use proptest::prelude::*;
use punct_durable::format::{read_epoch_file, write_epoch_file, RawSection};
use punct_durable::snapshot::kind;
use punct_durable::{decode_pending, encode_pending, PendingPunct, Snapshot};
use punct_types::{Bound, Pattern, Punctuation, Value};

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

/// Width-2 punctuations patterned on attribute 0.
fn arb_punct() -> impl Strategy<Value = Punctuation> {
    arb_pattern().prop_map(|p| Punctuation::on_attr(2, 0, p))
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
            .map(|(kind, key, bytes)| RawSection { kind: *kind, key: *key, bytes: bytes.clone() })
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
                let mut out: Vec<Vec<u8>> = ss.iter().map(|s| s.bytes.clone()).collect();
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

    let pending = [PendingPunct { seq: 4, side: 1, punct: Punctuation::close_value(2, 0, 1i64) }];
    let raw = vec![RawSection { kind: kind::PENDING, key: 0, bytes: encode_pending(&pending) }];
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
        Err(SnapshotError::Crc { kind: kind::PENDING, key: 0 })
    ));

    // A lost tail.
    assert!(matches!(
        read_epoch_file(&file[..file.len() - 1]),
        Err(SnapshotError::Truncated(_))
    ));

    // The retired section kinds (serialized punctuation sets and
    // aligners) no longer read back.
    for retired in [3, 4] {
        let sections = [RawSection { kind: retired, key: 0, bytes: Vec::new() }];
        assert!(matches!(
            Snapshot::from_sections(3, &sections),
            Err(SnapshotError::BadSection(k)) if k == retired
        ));
    }
}
