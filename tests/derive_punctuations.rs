//! Cross-crate integration of punctuation *derivation* (§1.1): a source
//! without punctuations, wrapped with a declared static constraint,
//! feeds a PJoin that then purges exactly as if the source had been
//! punctuated natively.

use punctuated_streams::prelude::*;
use punctuated_streams::query::{DerivePunctuations, StaticConstraint, UnaryOperator};

/// Applies a derivation operator to a whole timestamped stream.
fn derive(
    input: &[Timestamped<StreamElement>],
    constraint: StaticConstraint,
    attr: usize,
    width: usize,
) -> Vec<Timestamped<StreamElement>> {
    let mut op = DerivePunctuations::new(constraint, attr, width);
    let mut out = Vec::new();
    let mut last_ts = Timestamp::ZERO;
    for e in input {
        last_ts = e.ts;
        let mut produced = Vec::new();
        op.on_element(e.item.clone(), &mut produced);
        out.extend(produced.into_iter().map(|item| Timestamped::new(e.ts, item)));
    }
    let mut produced = Vec::new();
    op.on_end(&mut produced);
    out.extend(produced.into_iter().map(|item| Timestamped::new(last_ts, item)));
    out
}

fn tuples(ts_key_pairs: &[(u64, i64)]) -> Vec<Timestamped<StreamElement>> {
    ts_key_pairs
        .iter()
        .map(|&(ts, k)| {
            Timestamped::new(Timestamp(ts), StreamElement::Tuple(Tuple::of((k, ts as i64))))
        })
        .collect()
}

fn run_join(
    left: &[Timestamped<StreamElement>],
    right: &[Timestamped<StreamElement>],
) -> (stream_sim::RunStats, PJoin) {
    let mut op = PJoinBuilder::new(2, 2).eager_purge().propagate_every(1).build();
    let driver = Driver::new(DriverConfig {
        cost: CostModel::free(),
        sample_every_micros: 1_000_000,
        collect_outputs: true,
        ..DriverConfig::default()
    });
    let stats = driver.run(&mut op, left, right);
    (stats, op)
}

#[test]
fn unique_key_derivation_enables_purging() {
    // Left: unique keys 0..100 (no punctuations at the source).
    let left_raw = tuples(&(0..100).map(|k| (k * 10, k as i64)).collect::<Vec<_>>());
    // Right: two tuples per key, clustered.
    let right_raw = tuples(
        &(0..100)
            .flat_map(|k| [(k * 10 + 3, k as i64), (k * 10 + 6, k as i64)])
            .collect::<Vec<_>>(),
    );

    // Without derivation, nothing ever purges.
    let (stats_plain, join_plain) = run_join(&left_raw, &right_raw);
    assert_eq!(join_plain.stats().tuples_purged, 0);

    // Unique-key derivation on the left; clustered derivation on the right.
    let left = derive(&left_raw, StaticConstraint::UniqueKey, 0, 2);
    let right = derive(&right_raw, StaticConstraint::ClusteredArrival, 0, 2);
    let (stats_derived, join_derived) = run_join(&left, &right);

    // Identical join results…
    let collect = |s: &stream_sim::RunStats| {
        let mut v: Vec<Tuple> =
            s.outputs.iter().filter_map(|o| o.item.as_tuple().cloned()).collect();
        v.sort();
        v
    };
    assert_eq!(collect(&stats_plain), collect(&stats_derived));
    // …but the derived punctuations purge the state and propagate.
    assert!(join_derived.stats().tuples_purged + join_derived.stats().dropped_on_fly > 0);
    assert!(stats_derived.total_out_puncts > 0);
    assert!(stats_derived.peak_state() < stats_plain.peak_state());
}

#[test]
fn ordered_arrival_derivation_with_range_patterns() {
    // Both sides arrive in non-decreasing key order.
    let mk = |seed: u64| {
        tuples(
            &(0..60)
                .map(|i| (i * 7 + seed, (i / 3) as i64))
                .collect::<Vec<_>>(),
        )
    };
    let left = derive(&mk(0), StaticConstraint::OrderedArrival, 0, 2);
    let right = derive(&mk(3), StaticConstraint::OrderedArrival, 0, 2);
    assert!(left.iter().any(|e| e.item.is_punctuation()));

    let (stats, join) = run_join(&left, &right);
    assert!(join.stats().tuples_purged > 0, "range punctuations must purge");
    // Derived punctuations are honoured by all later results.
    let report = punctuated_streams::gen::validate_stream(&stats.outputs, 0);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}
