//! End-to-end observability demo: the sharded executor with tracing on,
//! a live ASCII dashboard while the stream flows, and a full trace
//! exported both as JSON lines and as a Chrome `trace_event` file you
//! can open in `chrome://tracing` or Perfetto.
//!
//! ```text
//! cargo run --release --example observability
//! ```
//!
//! The example doubles as the CI observability gate: after the run it
//! re-validates the emitted JSONL against the event schema and asserts
//! the punctuation exactly-once invariant from the trace itself —
//! every punctuation the router ingested aligns to exactly one
//! downstream emission, and every per-shard punctuation arrival has
//! exactly one matching per-shard propagate event. Any violation exits
//! nonzero.

use std::collections::HashMap;

use punctuated_streams::exec::{ExecConfig, ShardedPJoin};
use punctuated_streams::gen::{generate_pair, PunctScheme, StreamConfig};
use punctuated_streams::prelude::*;
use punctuated_streams::trace::{validate_jsonl, Dashboard, TraceKind, TraceLog};

fn main() {
    let shards = 4;
    let cfg = StreamConfig {
        tuples: 6_000,
        key_window: 12,
        punct_scheme: PunctScheme::ConstantPerKey,
        punct_mean_tuples: 20.0,
        seed: 11,
        ..StreamConfig::default()
    };
    let (a, b) = generate_pair(&cfg, 20.0, 20.0);
    println!(
        "workload: {} tuples + {} / {} punctuations per stream; {} shards; tracing ON\n",
        cfg.tuples, a.punctuations, b.punctuations, shards
    );

    // Interleave the two streams by timestamp.
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

    let join_config = PJoinConfig::new(2, 2).with_tracing();
    let exec = ShardedPJoin::spawn(ExecConfig::new(shards, join_config));
    let mut dash = Dashboard::new();
    let live = std::env::var_os("CI").is_none() && std::env::var_os("PJOIN_NO_LIVE").is_none();
    let mut outputs = 0usize;
    let mut puncts_out = 0usize;
    let mut pushed = 0u64;
    for (step, chunk) in feed.chunks(512).enumerate() {
        exec.push_batch(chunk.to_vec());
        pushed += chunk.len() as u64;
        // Let the shard threads catch up so samples track the stream.
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
        let metrics = exec.metrics();
        for (shard, m) in exec.shard_metrics().into_iter().enumerate() {
            dash.sample_shard("state_tuples", shard, step as f64, m.state_tuples as f64);
        }
        dash.set_latencies(metrics.latencies);
        if live {
            // Redraw in place: live view of state balance + latency
            // histograms while the stream is still flowing.
            print!("{}", Dashboard::CLEAR);
            println!("{}", dash.render("per-shard state while streaming"));
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

    // ---- final dashboard -------------------------------------------------
    dash.set_latencies(stats.total_latencies());
    if live {
        print!("{}", Dashboard::CLEAR);
    }
    println!("{}", dash.render("per-shard state over the run"));
    println!(
        "results: {outputs} joined tuples, {puncts_out} punctuations (exactly-once aligned)"
    );

    // ---- component profile ----------------------------------------------
    println!("\nframework profile (all shards merged):");
    println!("{}", stats.total_profile().render_table(&CostModel::default()));

    // ---- exporters -------------------------------------------------------
    let log = stats.all_trace_events();
    println!(
        "trace: {} events across {} lanes ({} dropped by ring buffers)",
        log.events.len(),
        stats.shards.len() + 2,
        log.dropped
    );
    let jsonl = stats.trace_jsonl();
    let chrome = stats.chrome_trace();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let jsonl_path = format!("{dir}/observability_trace.jsonl");
    let chrome_path = format!("{dir}/observability_trace.json");
    std::fs::write(&jsonl_path, &jsonl).expect("write JSONL trace");
    std::fs::write(&chrome_path, &chrome).expect("write Chrome trace");
    println!("wrote {jsonl_path}");
    println!("wrote {chrome_path} (open in chrome://tracing or Perfetto)");

    // ---- CI gate 1: the emitted JSONL validates against the schema ------
    let parsed = match validate_jsonl(&jsonl) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("FAIL: emitted JSONL does not validate: {e}");
            std::process::exit(1);
        }
    };
    assert_eq!(parsed.len(), log.events.len());
    println!("\nJSONL schema validation: OK ({} events)", parsed.len());

    // ---- CI gate 2: punctuation exactly-once, from the trace itself -----
    check_exactly_once(&log, &stats);
    println!("punctuation exactly-once check: OK");
}

/// Asserts, from trace events alone, that every ingested punctuation is
/// propagated exactly once:
///
/// * router level: every routed punctuation (`route` / `broadcast`
///   event) aligns to exactly one merger emission (`align` with outcome
///   0), and nothing was unexpected or left unaligned;
/// * shard level: each shard's punctuation arrivals match its
///   propagate events one-to-one (same id multiset per lane).
fn check_exactly_once(log: &TraceLog, stats: &punctuated_streams::exec::ExecStats) {
    if log.dropped > 0 {
        // Ring overwrites would make event counting unsound; the demo
        // capacity is sized to never drop.
        eprintln!("FAIL: {} trace events dropped; grow ring capacity", log.dropped);
        std::process::exit(1);
    }
    let routed = log.of_kind(TraceKind::Route).count() + log.of_kind(TraceKind::Broadcast).count();
    let aligned_emits = log.of_kind(TraceKind::Align).filter(|e| e.a == 0).count();
    if routed != aligned_emits {
        eprintln!("FAIL: {routed} punctuations routed but {aligned_emits} aligned emissions");
        std::process::exit(1);
    }
    if stats.merge.puncts as usize != aligned_emits
        || stats.merge.puncts_unexpected != 0
        || stats.merge.puncts_unaligned != 0
    {
        eprintln!(
            "FAIL: merge report disagrees with trace: {:?} vs {aligned_emits} emits",
            stats.merge
        );
        std::process::exit(1);
    }

    // Per-lane (id -> count) multisets of arrivals vs emissions. Both
    // sides of a shard can use the same punctuation id, but each side
    // contributes one arrival and one emission, so the multisets match
    // exactly when — and only when — propagation is per-shard
    // exactly-once.
    let mut balance: HashMap<(u32, u64), i64> = HashMap::new();
    for e in log.of_kind(TraceKind::PunctArrive) {
        *balance.entry((e.lane, e.a)).or_insert(0) += 1;
    }
    for e in log.of_kind(TraceKind::PunctEmit) {
        *balance.entry((e.lane, e.a)).or_insert(0) -= 1;
    }
    if let Some(((lane, id), n)) = balance.iter().find(|(_, &n)| n != 0) {
        eprintln!("FAIL: shard {lane} punctuation id {id}: arrivals - emits = {n} (want 0)");
        std::process::exit(1);
    }
}
