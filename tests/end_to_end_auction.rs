//! Cross-crate integration: the full auction query (streamgen → pjoin →
//! squery group-by) produces exactly the brute-force answer, and the
//! propagated punctuations unblock the group-by before stream end.

use std::collections::HashMap;

use punctuated_streams::gen::auction::{generate_auction, AuctionConfig};
use punctuated_streams::prelude::*;

fn brute_force_sums(workload: &punctuated_streams::gen::auction::AuctionWorkload) -> HashMap<i64, f64> {
    // SUM(bid_increase) per item having at least one bid; the join with
    // Open is 1:1 on item_id (item ids are unique in Open).
    let mut sums = HashMap::new();
    for e in &workload.bid {
        if let Some(t) = e.item.as_tuple() {
            let item = t.get(0).unwrap().as_int().unwrap();
            let inc = t.get(2).unwrap().as_numeric().unwrap();
            *sums.entry(item).or_insert(0.0) += inc;
        }
    }
    sums
}

#[test]
fn auction_query_matches_brute_force() {
    let config = AuctionConfig { items: 120, seed: 21, ..AuctionConfig::default() };
    let workload = generate_auction(&config);
    let expected = brute_force_sums(&workload);

    let join = PJoinBuilder::new(3, 3)
        .eager_purge()
        .propagate_every(1)
        .build();
    let pipeline = Pipeline::new(join).then(GroupBy::new(0, 5, Aggregate::Sum));
    let report = pipeline.execute(&workload.open, &workload.bid);

    let mut got = HashMap::new();
    for t in report.sink.tuples() {
        let item = t.get(0).unwrap().as_int().unwrap();
        let sum = t.get(1).unwrap().as_numeric().unwrap();
        assert!(got.insert(item, sum).is_none(), "each item emitted once");
    }
    assert_eq!(got.len(), expected.len());
    for (item, sum) in &expected {
        let g = got.get(item).unwrap_or_else(|| panic!("missing item {item}"));
        assert!((g - sum).abs() < 1e-6, "item {item}: got {g}, want {sum}");
    }
}

#[test]
fn propagation_unblocks_groups_before_stream_end() {
    let config = AuctionConfig { items: 80, seed: 5, ..AuctionConfig::default() };
    let workload = generate_auction(&config);

    let join = PJoinBuilder::new(3, 3)
        .eager_purge()
        .propagate_every(1)
        .build();
    let report = Pipeline::new(join)
        .then(GroupBy::new(0, 5, Aggregate::Sum))
        .execute(&workload.open, &workload.bid);
    // Punctuations flowed through the join into the group-by…
    assert!(report.join_output_puncts > 0);
    // …and the group-by itself re-punctuates each emitted group.
    assert!(report.sink.punctuation_count() > 0);
}

#[test]
fn count_aggregate_counts_bids() {
    let config = AuctionConfig { items: 50, seed: 9, ..AuctionConfig::default() };
    let workload = generate_auction(&config);

    let join = PJoinBuilder::new(3, 3).eager_purge().propagate_every(1).build();
    let report = Pipeline::new(join)
        .then(GroupBy::new(0, 5, Aggregate::Count))
        .execute(&workload.open, &workload.bid);
    let total: i64 = report
        .sink
        .tuples()
        .iter()
        .map(|t| t.get(1).unwrap().as_int().unwrap())
        .sum();
    assert_eq!(total as usize, workload.bids);
}
