//! Quickstart: build two punctuated streams by hand, run PJoin over
//! them, and watch punctuations purge state and propagate downstream.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use punctuated_streams::prelude::*;

fn main() {
    // Two streams of (key, payload) tuples, joining on the key.
    // PJoinBuilder::new takes the tuple widths of each input.
    let mut join = PJoinBuilder::new(2, 2)
        .eager_purge() // purge state on every punctuation
        .propagate_every(1) // propagate eagerly too
        .build();

    let mut out = OpOutput::new();
    let mut t = 0u64;
    let mut at = || {
        t += 1_000;
        Timestamp(t)
    };

    println!("== feeding tuples ==");
    // Two left tuples with key 7, one right tuple with key 7: two results.
    join.on_element(Side::Left, Tuple::of((7i64, 100i64)).into(), at(), &mut out);
    join.on_element(Side::Left, Tuple::of((7i64, 101i64)).into(), at(), &mut out);
    join.on_element(Side::Right, Tuple::of((7i64, 200i64)).into(), at(), &mut out);
    // An unrelated key on the right: no result yet.
    join.on_element(Side::Right, Tuple::of((8i64, 201i64)).into(), at(), &mut out);
    for e in out.drain() {
        println!("  result: {e}");
    }
    println!("  state now holds {} tuples", join.state_tuples());

    println!("\n== punctuations close key 7 on both inputs ==");
    // "No more tuples with key 7 will arrive on the right":
    // every left tuple with key 7 can be purged.
    join.on_element(
        Side::Right,
        Punctuation::close_value(2, 0, 7i64).into(),
        at(),
        &mut out,
    );
    println!("  after right punctuation: {} tuples in state", join.state_tuples());

    // The matching left punctuation makes the pair propagable downstream.
    join.on_element(
        Side::Left,
        Punctuation::close_value(2, 0, 7i64).into(),
        at(),
        &mut out,
    );
    for e in out.drain() {
        println!("  propagated: {e}");
    }

    println!("\n== the punctuation grammar ==");
    let p = punctuated_streams::types::parse::parse_punctuation("<[10,20), *>").unwrap();
    println!("  parsed: {p}");
    println!("  matches (15, 0): {}", p.matches(&Tuple::of((15i64, 0i64))));
    println!("  matches (25, 0): {}", p.matches(&Tuple::of((25i64, 0i64))));

    println!("\n== operator statistics ==");
    let stats = join.stats();
    println!("  purge runs:      {}", stats.purge_runs);
    println!("  tuples purged:   {}", stats.tuples_purged);
    println!("  propagated:      {}", stats.puncts_propagated);
}
