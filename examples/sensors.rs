//! Correlating two sensor arrays with **range punctuations**.
//!
//! Both arrays report `(window_id, sensor_id, value)`; the join on
//! `window_id` pairs up readings taken in the same time window. Each
//! array's base station seals whole batches of windows with one range
//! punctuation `<[w_lo, w_hi], *, *>` — coarser than the per-key
//! punctuations of the auction, but just as effective for purging.
//!
//! ```text
//! cargo run --example sensors
//! ```

use punctuated_streams::gen::sensors::{generate_sensors, SensorConfig};
use punctuated_streams::prelude::*;

fn main() {
    let base = SensorConfig { windows: 60, batch: 5, ..SensorConfig::default() };
    let array_a = generate_sensors(&base.clone().with_seed(1));
    let array_b = generate_sensors(&base.with_seed(2));
    println!(
        "sensor arrays: {} / {} elements ({} range punctuations each)",
        array_a.len(),
        array_b.len(),
        array_a.iter().filter(|e| e.item.is_punctuation()).count(),
    );

    let mut join = PJoinBuilder::new(3, 3)
        .join_on(0, 0)
        .eager_purge()
        .propagate_every(1)
        .build();

    let driver = Driver::new(DriverConfig {
        cost: CostModel::free(),
        sample_every_micros: 200_000,
        collect_outputs: true,
        ..DriverConfig::default()
    });
    let stats = driver.run(&mut join, &array_a, &array_b);

    println!("\ncorrelated pairs: {}", stats.total_out_tuples);
    println!("punctuations propagated: {}", stats.total_out_puncts);
    println!("peak state: {} tuples (inputs total {})", stats.peak_state(), array_a.len() + array_b.len());

    // Show how the range punctuations keep the state bounded.
    println!("\nstate over time:");
    for s in stats.samples.iter().step_by(stats.samples.len().div_ceil(12).max(1)) {
        let bar = "#".repeat(s.state_total / 20);
        println!("  t={:>6.2}s  {:>5} {bar}", s.ts.as_secs_f64(), s.state_total);
    }

    // A sample propagated punctuation, in output-schema form.
    if let Some(p) = stats.outputs.iter().find_map(|o| o.item.as_punctuation()) {
        println!("\nfirst propagated punctuation: {p}");
    }

    assert!(stats.peak_state() < (array_a.len() + array_b.len()) / 2);
    assert!(stats.total_out_puncts > 0);
}
