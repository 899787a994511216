//! `OpOutput` keeps one word per output and the elements pushed whole
//! on a list of their own, so the order a drain yields is rebuilt from
//! two sequences and the blocks the joined values were sealed into. For
//! random interleavings of plain pushes (tuples and punctuations) and
//! join results (zero-width ones and ones wider than a block among
//! them), every way of draining — `drain` to the end, a `drain` dropped
//! after `k` items, `drain_with` to the end or stopped after `k` — yields
//! a prefix of exactly what a naive `Vec` built with `Tuple::concat`
//! holds, the whole of it when run to the end, and leaves the collector
//! empty for the next round.

use proptest::prelude::*;
use punct_types::{Pattern, Punctuation, StreamElement, Tuple, Value};
use stream_sim::{Drained, OpOutput};

/// Wider than the collector's blocks (1 024 values).
const WIDE: usize = 1030;

#[derive(Debug, Clone)]
enum Op {
    Push(StreamElement),
    Joined(Tuple, Tuple),
}

#[derive(Debug, Clone, Copy)]
enum Drain {
    All,
    DropAfter(usize),
    With,
    WithStopAfter(usize),
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-50i64..50).prop_map(Value::Int),
        (-50i64..50).prop_map(|i| Value::Float(i as f64 / 2.0)),
        "[a-e]{0,3}".prop_map(Value::from),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// A narrow tuple, or one time in twenty a tuple wider than a block.
fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (0u8..20, proptest::collection::vec(arb_value(), 0..5), -50i64..50).prop_map(
        |(pick, row, from)| match pick {
            0 => Tuple::new((from..from + WIDE as i64).map(Value::Int).collect()),
            _ => Tuple::new(row),
        },
    )
}

/// A join result four times in five, else a tuple or a punctuation.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..10, arb_tuple(), arb_tuple(), 0usize..4, -50i64..50).prop_map(|(pick, l, r, attr, k)| {
        match pick {
            0 => Op::Push(l.into()),
            1 => Op::Push(Punctuation::on_attr(4, attr, Pattern::Constant(Value::Int(k))).into()),
            _ => Op::Joined(l, r),
        }
    })
}

fn arb_drain() -> impl Strategy<Value = Drain> {
    prop_oneof![
        Just(Drain::All),
        (0usize..600).prop_map(Drain::DropAfter),
        Just(Drain::With),
        (0usize..600).prop_map(Drain::WithStopAfter),
    ]
}

fn owned(item: Drained<'_>) -> StreamElement {
    match item {
        Drained::Element(e) => e,
        Drained::Joined(values) => Tuple::new(values.to_vec()).into(),
    }
}

/// What `drain` hands over, in order, taking `k` items when given.
fn drain(out: &mut OpOutput, how: Drain) -> Vec<StreamElement> {
    match how {
        Drain::All => out.drain().collect(),
        Drain::DropAfter(k) => out.drain().take(k).collect(),
        Drain::With => {
            let mut got = Vec::new();
            out.drain_with(|item| {
                got.push(owned(item));
                Ok::<(), ()>(())
            })
            .expect("the callback never fails");
            got
        }
        Drain::WithStopAfter(k) => {
            let mut got = Vec::new();
            let _ = out.drain_with(|item| {
                if got.len() == k {
                    return Err(());
                }
                got.push(owned(item));
                Ok(())
            });
            got
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn every_drain_yields_push_order_and_empties_the_collector(
        rounds in proptest::collection::vec(
            (proptest::collection::vec(arb_op(), 0..600), arb_drain()),
            1..4,
        ),
    ) {
        let mut out = OpOutput::new();
        for (ops, how) in rounds {
            let mut expected = Vec::with_capacity(ops.len());
            for op in ops {
                match op {
                    Op::Push(e) => {
                        out.push(e.clone());
                        expected.push(e);
                    }
                    Op::Joined(l, r) => {
                        out.push_joined(&l, &r);
                        expected.push(l.concat(&r).into());
                    }
                }
            }
            prop_assert_eq!(out.len(), expected.len());
            let got = drain(&mut out, how);
            let want = match how {
                Drain::All | Drain::With => expected.len(),
                Drain::DropAfter(k) | Drain::WithStopAfter(k) => k.min(expected.len()),
            };
            prop_assert_eq!(&got[..], &expected[..want]);
            prop_assert!(out.is_empty());
        }
    }
}
