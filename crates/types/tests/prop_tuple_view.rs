//! A tuple is a view into a block of values it may share with its
//! neighbours (join outputs are carved out of shared blocks). Where the
//! values sit must not be observable: for random rows, the tuple built
//! alone and the same row viewed at a random offset of a larger block
//! agree under every reader — comparison, hashing, formatting, access,
//! the derived constructors and the wire codec — and `detached()` lets a
//! view go of the block.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use proptest::prelude::*;
use punct_types::wire::{self, WireReader};
use punct_types::{StreamElement, Timestamp, Timestamped, Tuple, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-50i64..50).prop_map(Value::Int),
        (-50i64..50).prop_map(|i| Value::Float(i as f64 / 2.0)),
        "[a-e]{0,3}".prop_map(Value::from),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(arb_value(), 0..6)
}

fn hash_of(t: &Tuple) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// `row` as a view into `before ⧺ row ⧺ after`.
fn view_of(before: &[Value], row: &[Value], after: &[Value]) -> Tuple {
    let block: Arc<[Value]> = before.iter().chain(row).chain(after).cloned().collect();
    Tuple::view(block, before.len()..before.len() + row.len())
}

fn wire_round_trip(t: &Tuple) -> (Vec<u8>, Timestamped<StreamElement>) {
    let e = Timestamped::new(Timestamp(7), StreamElement::Tuple(t.clone()));
    let mut buf = Vec::new();
    wire::put_timestamped(&mut buf, &e);
    let mut r = WireReader::new(&buf);
    let back = wire::get_timestamped(&mut r).expect("decodes");
    r.finish().expect("no trailing bytes");
    (buf, back)
}

proptest! {
    #[test]
    fn a_view_is_indistinguishable_from_the_tuple_built_alone(
        row in arb_row(),
        other in arb_row(),
        before in arb_row(),
        after in arb_row(),
    ) {
        let alone = Tuple::new(row.clone());
        let view = view_of(&before, &row, &after);
        let other_alone = Tuple::new(other.clone());
        let other_view = view_of(&after, &other, &before);

        prop_assert_eq!(&view, &alone);
        prop_assert_eq!(hash_of(&view), hash_of(&alone));
        prop_assert_eq!(view.to_string(), alone.to_string());
        prop_assert_eq!(format!("{view:?}"), format!("{alone:?}"));
        prop_assert_eq!(format!("{view:#?}"), format!("{alone:#?}"));
        prop_assert_eq!(view.approx_bytes(), alone.approx_bytes());

        // Comparison against a second row, in every pairing of kinds.
        prop_assert_eq!(view.cmp(&other_view), alone.cmp(&other_alone));
        prop_assert_eq!(view.cmp(&other_alone), alone.cmp(&other_alone));
        prop_assert_eq!(view.partial_cmp(&other_view), alone.partial_cmp(&other_alone));
        prop_assert_eq!(view == other_view, alone == other_alone);

        prop_assert_eq!(view.width(), row.len());
        prop_assert_eq!(view.is_empty(), row.is_empty());
        prop_assert_eq!(view.values(), &row[..]);
        for i in 0..row.len() + 2 {
            prop_assert_eq!(view.get(i), alone.get(i));
            prop_assert_eq!(view.try_get(i), alone.try_get(i));
        }
        let indices: Vec<usize> = (0..row.len()).rev().collect();
        prop_assert_eq!(view.project(&indices), alone.project(&indices));
        prop_assert!(view.project(&[row.len()]).is_err());
        prop_assert_eq!(view.concat(&other_view), alone.concat(&other_alone));
        prop_assert!(view.concat(&other_view).is_detached());

        let (view_bytes, view_back) = wire_round_trip(&view);
        let (alone_bytes, alone_back) = wire_round_trip(&alone);
        prop_assert_eq!(view_bytes, alone_bytes);
        prop_assert_eq!(&view_back, &alone_back);
        prop_assert_eq!(view_back.item.as_tuple(), Some(&alone));
    }

    #[test]
    fn detaching_lets_go_of_the_block(
        row in arb_row(),
        before in arb_row(),
        after in arb_row(),
    ) {
        let block: Arc<[Value]> = before.iter().chain(&row).chain(&after).cloned().collect();
        let view = Tuple::view(block.clone(), before.len()..before.len() + row.len());
        prop_assert_eq!(view.is_detached(), before.is_empty() && after.is_empty());
        prop_assert_eq!(Arc::strong_count(&block), 2);

        let detached = view.clone().detached();
        prop_assert!(detached.is_detached());
        prop_assert_eq!(&detached, &view);
        // Detaching copies only when there is something to let go of.
        let holders = if view.is_detached() { 3 } else { 2 };
        prop_assert_eq!(Arc::strong_count(&block), holders);
        drop(view);
        prop_assert_eq!(Arc::strong_count(&block), holders - 1);
    }
}
