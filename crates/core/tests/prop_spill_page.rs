//! Property tests of the spill-page format: the pages state relocation
//! writes and the disk join reads back (paper §3) hold both operators'
//! stored records in the one `punct_types::wire` codec.
//!
//! * `Page<PRecord>` and `Page<XRecord>` round-trip arbitrary records
//!   bit-exactly — NaN payload bits, `-0.0`, empty and multibyte
//!   strings, `Null`, `Bool`, zero-width tuples and the `DTS_RESIDENT`
//!   sentinel — and re-encode to the same bytes.
//! * Every strict prefix of a page decodes to a typed error.
//! * A `u32::MAX` record count is rejected by the count rule before
//!   anything is sized from it.

use pjoin::record::DTS_RESIDENT;
use pjoin::PRecord;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use punct_types::wire::{put_u32_at, WireError};
use punct_types::{Tuple, Value};
use spillstore::{Page, Record};
use xjoin::XRecord;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(f64::from_bits(0x7FF0_0000_0000_0001))),
        Just(Value::Float(-0.0)),
        Just(Value::str("")),
        Just(Value::str("héllo, wörld — ✓")),
        "[a-z]{0,4}".prop_map(Value::from),
    ]
}

/// Zero-width tuples included.
fn arb_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_value(), 0..5).prop_map(Tuple::new)
}

/// A finite instant or the resident sentinel.
fn arb_instant() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), Just(DTS_RESIDENT), Just(0u64)]
}

fn arb_precord() -> impl Strategy<Value = PRecord> {
    (arb_tuple(), arb_instant(), arb_instant(), any::<u64>()).prop_map(
        |(tuple, ats, dts, arrival_us)| PRecord {
            tuple,
            ats,
            dts,
            arrival_us,
        },
    )
}

fn arb_xrecord() -> impl Strategy<Value = XRecord> {
    (arb_tuple(), arb_instant(), arb_instant()).prop_map(|(tuple, ats, dts)| XRecord {
        tuple,
        ats,
        dts,
    })
}

/// Round trip, canonical re-encoding, typed errors on every strict
/// prefix, and a count no page could hold rejected up front.
fn check_page<R: Record + PartialEq + std::fmt::Debug>(
    records: Vec<R>,
) -> Result<(), TestCaseError> {
    let page = Page::new(records);
    let bytes = page.encode();
    let back = Page::<R>::decode(&bytes).expect("a fresh page must decode");
    prop_assert_eq!(&back, &page);
    prop_assert_eq!(back.encode(), bytes.clone(), "re-encoding must be byte-identical");
    for cut in 0..bytes.len() {
        prop_assert!(Page::<R>::decode(&bytes[..cut]).is_err(), "a {}-byte prefix decoded", cut);
    }
    let mut huge = bytes;
    put_u32_at(&mut huge, 0, u32::MAX);
    prop_assert!(
        matches!(
            Page::<R>::decode(&huge),
            Err(WireError::TooLarge { what: "page record count", .. })
        ),
        "a u32::MAX count must fail the count rule"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn precord_pages_round_trip_bit_exactly(records in proptest::collection::vec(arb_precord(), 0..8)) {
        check_page(records)?;
    }

    #[test]
    fn xrecord_pages_round_trip_bit_exactly(records in proptest::collection::vec(arb_xrecord(), 0..8)) {
        check_page(records)?;
    }
}

/// The edge values by name, so none of them depends on the generator
/// drawing it.
#[test]
fn edge_records_round_trip() {
    let tuple = Tuple::new(vec![
        Value::Float(f64::from_bits(0x7FF8_0000_DEAD_BEEF)),
        Value::Float(-0.0),
        Value::str(""),
        Value::str("日本語"),
        Value::Null,
        Value::Bool(false),
    ]);
    let records: Vec<PRecord> = [0, 7, u64::MAX]
        .into_iter()
        .map(|arrival_us| PRecord { tuple: tuple.clone(), ats: 1, dts: DTS_RESIDENT, arrival_us })
        .chain([PRecord::arriving(Tuple::new(Vec::new()), u64::MAX - 1)])
        .collect();
    let back = Page::<PRecord>::decode(&Page::new(records.clone()).encode()).expect("decode");
    assert_eq!(back.records(), &records[..]);
    let bits = |r: &PRecord| r.tuple.get(0).and_then(Value::as_float).map(f64::to_bits);
    assert_eq!(bits(&back.records()[0]), Some(0x7FF8_0000_DEAD_BEEF), "NaN payload kept");
    assert!(back.records()[0].is_resident());

    let x = vec![XRecord::arriving(tuple, 3), XRecord::arriving(Tuple::new(Vec::new()), 4)];
    let back = Page::<XRecord>::decode(&Page::new(x.clone()).encode()).expect("decode");
    assert_eq!(back.records(), &x[..]);
}
