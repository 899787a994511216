//! The sharded parallel executor, live: a punctuated workload streamed
//! through N hash-partitioned PJoin shards, with per-shard state
//! sampled into a recorder, punctuations broadcast and re-aligned, and
//! the per-shard load balance printed at the end.
//!
//! ```text
//! cargo run --release --example sharded
//! ```

use punctuated_streams::exec::{ExecConfig, ShardedPJoin};
use punctuated_streams::gen::{generate_pair, StreamConfig};
use punctuated_streams::metrics::{ChartOptions, Recorder};
use punctuated_streams::prelude::*;

fn main() {
    let shards = 4;
    let cfg = StreamConfig { tuples: 8_000, key_window: 12, seed: 3, ..StreamConfig::default() };
    let (a, b) = generate_pair(&cfg, 20.0, 20.0);
    println!(
        "workload: {} tuples + {} / {} punctuations per stream; {} shards\n",
        cfg.tuples, a.punctuations, b.punctuations, shards
    );

    // Interleave the two streams by timestamp, as a network scheduler
    // would deliver them.
    let mut feed: Vec<(Side, Timestamped<StreamElement>)> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.elements.len() || j < b.elements.len() {
        let left_next = match (a.elements.get(i), b.elements.get(j)) {
            (Some(l), Some(r)) => l.ts <= r.ts,
            (Some(_), None) => true,
            _ => false,
        };
        if left_next {
            feed.push((Side::Left, a.elements[i].clone()));
            i += 1;
        } else {
            feed.push((Side::Right, b.elements[j].clone()));
            j += 1;
        }
    }

    let exec = ShardedPJoin::spawn(ExecConfig::new(shards, PJoinConfig::new(2, 2)));
    let mut recorder = Recorder::new();
    let mut outputs = 0usize;
    let mut puncts_out = 0usize;
    let mut pushed = 0u64;
    for (step, chunk) in feed.chunks(256).enumerate() {
        exec.push_batch(chunk.to_vec());
        pushed += chunk.len() as u64;
        // Let the shard threads catch up so the state samples reflect
        // the stream position (the bounded channels otherwise absorb
        // whole chunks before any shard runs).
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(50);
        while exec.metrics().consumed < pushed && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        for e in exec.poll_outputs() {
            if e.item.is_punctuation() {
                puncts_out += 1;
            } else {
                outputs += 1;
            }
        }
        for (shard, m) in exec.shard_metrics().into_iter().enumerate() {
            recorder.record_shard("state_tuples", shard, step as f64, m.state_tuples as f64);
        }
    }
    let (rest, stats) = exec.finish();
    for e in &rest {
        if e.item.is_punctuation() {
            puncts_out += 1;
        } else {
            outputs += 1;
        }
    }

    if let Some(total) = recorder.sum_shards("state_tuples") {
        recorder.insert(total);
    }
    println!(
        "{}",
        punctuated_streams::metrics::ascii_chart::render(
            &recorder,
            &ChartOptions {
                width: 64,
                height: 12,
                title: "per-shard + aggregate state over time".into(),
                ..ChartOptions::default()
            }
        )
    );

    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "shard", "consumed", "emitted", "purged", "work (ops)", "final state"
    );
    for r in &stats.shards {
        println!(
            "{:<8} {:>10} {:>10} {:>10} {:>12} {:>12}",
            r.shard,
            r.metrics.consumed,
            r.metrics.emitted,
            r.stats.tuples_purged,
            r.work.total_ops(),
            r.metrics.state_tuples,
        );
    }

    let cost = CostModel::default();
    let critical = stats.critical_path_nanos(&cost);
    let total = cost.nanos(&stats.total_work());
    println!(
        "\nresults: {outputs} joined tuples, {puncts_out} punctuations (exactly-once aligned)"
    );
    println!(
        "router:  {} tuples routed, {} targeted / {} broadcast punctuations",
        stats.router.tuples, stats.router.puncts_targeted, stats.router.puncts_broadcast
    );
    println!(
        "align:   {} held for siblings, {} unexpected, {} unaligned at shutdown",
        stats.merge.puncts_held, stats.merge.puncts_unexpected, stats.merge.puncts_unaligned
    );
    println!(
        "virtual time: critical path {:.1} ms vs {:.1} ms single-threaded ({:.2}x speedup on {} shards)",
        critical as f64 / 1e6,
        total as f64 / 1e6,
        total as f64 / critical.max(1) as f64,
        shards
    );
}
