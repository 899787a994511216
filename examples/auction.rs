//! The paper's motivating example (§1.1, Fig. 1): an online auction.
//!
//! The sellers portal emits an **Open** stream `(item_id, seller_id,
//! open_price)` — every item id is unique, so a punctuation follows each
//! tuple. The buyers portal emits a **Bid** stream `(item_id, bidder_id,
//! bid_increase)`; when an item's auction period expires the system
//! punctuates its id. The query joins the streams on `item_id` and sums
//! `bid_increase` per item:
//!
//! ```sql
//! SELECT   O.item_id, SUM(B.bid_increase)
//! FROM     Open O, Bid B
//! WHERE    O.item_id = B.item_id
//! GROUP BY O.item_id
//! ```
//!
//! Without punctuation propagation, the group-by could emit nothing
//! until the streams end; with it, every item's total goes out the
//! moment its auction closes.
//!
//! ```text
//! cargo run --example auction
//! ```

use punctuated_streams::gen::auction::{generate_auction, AuctionConfig};
use punctuated_streams::prelude::*;

fn main() {
    let config = AuctionConfig { items: 100, seed: 7, ..AuctionConfig::default() };
    let workload = generate_auction(&config);
    println!(
        "auction workload: {} items, {} bids, horizon {:.1}s",
        config.items,
        workload.bids,
        workload.bid.last().map(|e| e.ts.as_secs_f64()).unwrap_or(0.0)
    );

    // Fig. 1(c): PJoin(item_id) feeding a punctuation-aware group-by.
    // Open/Bid tuples are 3 attributes wide; join attribute 0 on both.
    let join = PJoinBuilder::new(3, 3)
        .join_on(0, 0)
        .eager_purge()
        .propagate_every(1)
        .build();

    // Group on the Open-side item_id (output column 0), sum the Bid-side
    // bid_increase (output column 5).
    let pipeline = Pipeline::new(join).then(GroupBy::new(0, 5, Aggregate::Sum));
    println!("plan: {}", pipeline.describe());

    let report = pipeline.execute(&workload.open, &workload.bid);

    println!(
        "\njoin emitted {} result tuples and propagated {} punctuations",
        report.join_output_tuples, report.join_output_puncts
    );
    println!("group-by produced {} item totals:\n", report.sink.tuple_count());

    let mut rows: Vec<(i64, f64)> = report
        .sink
        .tuples()
        .iter()
        .map(|t| {
            (
                t.get(0).unwrap().as_int().unwrap(),
                t.get(1).unwrap().as_numeric().unwrap(),
            )
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("  top items by total bid increase:");
    for (item, total) in rows.iter().take(10) {
        println!("    item {item:>4}  total {total:>10.1}");
    }
    let grand: f64 = rows.iter().map(|(_, v)| v).sum();
    println!("  … {} items, grand total {grand:.1}", rows.len());

    assert!(
        report.join_output_puncts > 0,
        "propagation is what unblocks the group-by — it must have happened"
    );
}
