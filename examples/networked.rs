//! The full networked deployment, live: two generator clients stream a
//! punctuated workload over TCP sockets into the ingest server, the
//! sharded PJoin executor joins them, and the joined output (tuples +
//! punctuations) streams back out of a sink server to a subscriber —
//! with a live dashboard of per-shard state while the sockets are hot.
//!
//! ```text
//! cargo run --release --example networked
//! PJOIN_NET_FAULTS=1 cargo run --release --example networked   # lossy path
//! ```
//!
//! With `PJOIN_NET_FAULTS=1` both clients connect through the
//! fault-injection proxy (frame drops plus one forced disconnect per
//! stream) and the run demonstrates resume: the clients reconnect,
//! replay from the server's acknowledged sequence, and the join output
//! is identical to the clean run — which the example asserts, along
//! with end-to-end delivery: what the sink subscriber collected is
//! exactly what the executor emitted.

use std::time::Duration;

use punctuated_streams::exec::{ExecConfig, ShardedPJoin};
use punctuated_streams::gen::{generate_pair, PunctScheme, StreamConfig};
use punctuated_streams::net::{
    collect_all, spawn_source, BackoffPolicy, ClientOptions, FaultConfig, FaultProxy,
    IngestMsg, IngestOptions, IngestServer, SinkOptions, SinkServer,
};
use punctuated_streams::prelude::*;
use punctuated_streams::trace::{Dashboard, TraceSettings};

fn main() {
    let shards = 4;
    let faults = std::env::var_os("PJOIN_NET_FAULTS").is_some();
    let cfg = StreamConfig {
        tuples: 5_000,
        key_window: 12,
        punct_scheme: PunctScheme::ConstantPerKey,
        punct_mean_tuples: 20.0,
        seed: 17,
        ..StreamConfig::default()
    };
    let (a, b) = generate_pair(&cfg, 20.0, 20.0);
    let schema = cfg.schema();
    println!(
        "workload: {} tuples + {} / {} punctuations per stream; {} shards; faults {}\n",
        cfg.tuples,
        a.punctuations,
        b.punctuations,
        shards,
        if faults { "ON (drops + forced disconnects)" } else { "off" },
    );

    // ---- servers ---------------------------------------------------------
    let (server, rx) = IngestServer::bind(
        &[Side::Left, Side::Right],
        IngestOptions { trace: TraceSettings::enabled(), ..IngestOptions::default() },
    )
    .expect("bind ingest server");
    let sink = SinkServer::bind(SinkOptions::default()).expect("bind sink server");

    // Clients dial the proxy when faults are on, the server directly
    // otherwise. One proxy per client keeps the forced disconnects
    // per-stream (the proxy disconnects its first connection only).
    let mut proxies: Vec<FaultProxy> = Vec::new();
    let mut target = |i: u64| {
        if faults {
            // Thresholds are in *frames*: with the default wire batching
            // each stream is only ~85 `DataBatch` frames, so the kill
            // lands mid-stream and a drop loses a whole batch.
            let p = FaultProxy::spawn(server.addr(), FaultConfig::lossy(60, 2, 1, 10, 70 + i))
                .expect("spawn fault proxy");
            let addr = p.addr();
            proxies.push(p);
            addr
        } else {
            server.addr()
        }
    };

    // ---- source clients --------------------------------------------------
    let opts = |seed: u64| ClientOptions {
        policy: BackoffPolicy::fast(),
        seed,
        trace: TraceSettings::enabled(),
        ..ClientOptions::default()
    };
    let left = spawn_source(target(0), 0, Side::Left, schema.clone(), a.elements, opts(1));
    let right = spawn_source(target(1), 1, Side::Right, schema, b.elements, opts(2));

    // ---- sink subscriber -------------------------------------------------
    let sink_addr = sink.addr();
    let collector = std::thread::spawn(move || {
        collect_all(sink_addr, BackoffPolicy::fast(), 3, TraceSettings::enabled())
            .expect("collect sink output")
    });

    // ---- the join, fed from the sockets ----------------------------------
    let exec = ShardedPJoin::spawn(ExecConfig::new(shards, PJoinConfig::new(2, 2)));
    let mut dash = Dashboard::new();
    let live = std::env::var_os("CI").is_none() && std::env::var_os("PJOIN_NO_LIVE").is_none();
    let mut outputs: Vec<Timestamped<StreamElement>> = Vec::new();
    let mut fed = 0u64;
    let mut step = 0f64;
    // A `DataBatch` frame's elements go to the router as one batch; a
    // single `Data` frame's element is pushed directly.
    let feed = |msg: IngestMsg, fed: &mut u64| {
        *fed += msg.len() as u64;
        match msg {
            IngestMsg::One(side, element) => exec.push(side, element),
            IngestMsg::Batch(side, batch) => exec.push_side_batch(side, batch),
        }
    };
    loop {
        match rx.recv_timeout(Duration::from_millis(5)) {
            Ok(msg) => {
                feed(msg, &mut fed);
                while let Ok(msg) = rx.try_recv() {
                    feed(msg, &mut fed);
                }
            }
            Err(_) => {
                if server.all_finished() {
                    while let Ok(msg) = rx.try_recv() {
                        feed(msg, &mut fed);
                    }
                    break;
                }
            }
        }
        let batch = exec.poll_outputs();
        if !batch.is_empty() {
            sink.publish_batch(batch.clone());
            outputs.extend(batch);
        }
        // Sample the dashboard roughly every 512 elements fed.
        if fed as f64 >= (step + 1.0) * 512.0 {
            step += 1.0;
            for (shard, m) in exec.shard_metrics().into_iter().enumerate() {
                dash.sample_shard("state_tuples", shard, step, m.state_tuples as f64);
            }
            dash.set_latencies(exec.metrics().latencies);
            if live {
                print!("{}", Dashboard::CLEAR);
                println!("{}", dash.render("per-shard state while the sockets stream"));
            }
        }
    }
    let batch = exec.poll_outputs();
    sink.publish_batch(batch.clone());
    outputs.extend(batch);
    let (rest, stats) = exec.finish();
    sink.publish_batch(rest.clone());
    outputs.extend(rest);
    sink.close();

    // ---- final dashboard + reports ---------------------------------------
    dash.set_latencies(stats.total_latencies());
    if live {
        print!("{}", Dashboard::CLEAR);
    }
    println!("{}", dash.render("per-shard state over the run"));

    let left = left.join().expect("left client thread").expect("left client");
    let right = right.join().expect("right client thread").expect("right client");
    let (collected, sink_report) = collector.join().expect("collector thread");

    let joined = outputs.iter().filter(|e| !e.item.is_punctuation()).count();
    let puncts = outputs.len() - joined;
    println!("results: {joined} joined tuples, {puncts} punctuations (exactly-once aligned)");
    for (name, r) in [("left", &left), ("right", &right)] {
        println!(
            "client {name}: {} acked over {} frames / {} bytes, {} reconnects, {} credit stalls",
            r.acked, r.frames_sent, r.bytes_sent, r.reconnects, r.credit_stalls
        );
    }
    let istats = server.stats();
    println!(
        "ingest:  {} connections, {} frames, {} duplicates suppressed, {} backpressure stalls",
        istats.connections, istats.frames_received, istats.duplicates_suppressed, istats.stalls
    );
    for (i, p) in proxies.iter().enumerate() {
        let ps = p.stats();
        println!(
            "proxy {i}: {} frames forwarded, {} dropped, {} forced disconnects",
            ps.frames_forwarded, ps.frames_dropped, ps.disconnects_forced
        );
    }
    println!(
        "sink:    {} bytes to {} subscriber(s); collector saw {} reconnects, {} duplicates",
        sink.bytes_sent(),
        sink.subscribers(),
        sink_report.reconnects,
        sink_report.duplicates_suppressed
    );

    // Net-lane trace summary (client + server + sink sides merged).
    let mut log = server.take_trace();
    log.merge(sink.take_trace());
    log.merge(left.trace);
    log.merge(right.trace);
    log.merge(sink_report.trace);
    println!("trace:   {} events across the net lanes", log.events.len());

    // ---- the end-to-end gate ---------------------------------------------
    if faults {
        let total_faults: u64 = proxies
            .iter()
            .map(|p| p.stats().frames_dropped + p.stats().disconnects_forced)
            .sum();
        assert!(total_faults > 0, "fault run injected no faults");
        assert!(
            left.reconnects + right.reconnects > 0,
            "fault run should have forced at least one reconnect"
        );
    }
    // Exactly-once: every element each client got acked was forwarded
    // to the join exactly once, no matter how many frames the wire
    // dropped, duplicated, or cut mid-stream.
    assert_eq!(fed, left.acked + right.acked);
    assert_eq!(collected, outputs, "sink subscriber must see exactly the executor's output");
    println!("\nend-to-end delivery check: OK ({} elements, sockets in, sockets out)", fed);
}
