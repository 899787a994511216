//! A two-join plan, `(A ⋈ B) ⋈ C`: the first join's results are views
//! into blocks they share with their neighbours, and the second join
//! stores some of them. State must never pin a block — a resident that
//! kept its view would hold every value of up to a block of results for
//! as long as it stays — so every tuple resident in the second join owns
//! a block of exactly its own values.

use pjoin::{PJoin, PJoinConfig};
use punct_types::{StreamElement, Timestamp, Timestamped, Tuple};
use squery::Pipeline;
use stream_sim::{BinaryStreamOp, OpOutput, Side};

fn tup(ts: u64, key: i64, payload: i64) -> Timestamped<StreamElement> {
    Timestamped::new(Timestamp(ts), Tuple::of((key, payload)).into())
}

#[test]
fn residents_of_the_second_join_share_no_block() {
    // A ⋈ B on the key: 8 keys, 5 tuples a side each, 200 results.
    let a: Vec<_> = (0..40).map(|i| tup(2 * i, i as i64 % 8, i as i64)).collect();
    let b: Vec<_> = (0..40).map(|i| tup(2 * i + 1, i as i64 % 8, -(i as i64))).collect();
    let first = Pipeline::new(PJoin::new(PJoinConfig::new(2, 2))).execute(&a, &b);
    let ab = first.sink.tuples();
    assert_eq!(ab.len(), 200);
    // (A probe with a single match has its block to itself.)
    assert!(
        ab.iter().filter(|t| !t.is_detached()).count() > 100,
        "most of the first join's results are expected to share blocks"
    );

    // (A ⋈ B) ⋈ C, no punctuations: everything fed in stays resident.
    let mut second = PJoin::new(PJoinConfig::new(4, 2));
    let mut out = OpOutput::new();
    for (i, &t) in ab.iter().enumerate() {
        let ts = Timestamp(100 + i as u64);
        second.on_element(Side::Left, t.clone().into(), ts, &mut out);
    }
    for key in 0..8 {
        let c = tup(1_000, key, 0);
        second.on_element(Side::Right, c.item, c.ts, &mut out);
    }
    assert_eq!(out.drain().filter(StreamElement::is_tuple).count(), 200);

    let residents = second.export_records(Side::Left).expect("memory-only state");
    assert_eq!(residents.len(), 200);
    for (_, t) in &residents {
        assert!(t.is_detached(), "resident {t} still holds a shared block");
    }
    let mut stored: Vec<&Tuple> = residents.iter().map(|(_, t)| t).collect();
    let mut fed = ab;
    stored.sort();
    fed.sort();
    assert_eq!(stored, fed, "detaching must not change what is stored");
}
