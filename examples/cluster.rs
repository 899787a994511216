//! Distributed cluster execution, live: a coordinator process assembles
//! worker processes (here: threads running the same `run_worker` loop the
//! `punct-worker` binary wraps), partitions a punctuated join across
//! them by key hash, and — mid-stream — elastically repartitions the
//! cluster twice, migrating live hash-table state between workers behind
//! a barrier punctuation while the streams keep flowing.
//!
//! ```text
//! cargo run --release --example cluster
//! PJOIN_CLUSTER_WORKERS=4 PJOIN_CLUSTER_FAULTS=1 cargo run --release --example cluster
//! ```
//!
//! With `PJOIN_CLUSTER_FAULTS=1` every worker's ingest link runs through
//! the fault-injection proxy (frame drops + forced disconnects); the
//! sequenced transport resumes, and the output is still exactly the
//! single-threaded join's output — which the example asserts.
//!
//! The telemetry plane runs alongside: workers push periodic snapshots,
//! the coordinator merges them, a live cluster dashboard is rendered
//! mid-stream and at the end, and the merged telemetry is exported to
//! `results/cluster_telemetry.jsonl`. The example re-validates that
//! artifact from disk alone — schema check plus an exactly-once
//! punctuation audit recomputed purely from the JSONL — and exits
//! nonzero if either fails.

use std::time::Instant;

use punctuated_streams::cluster::{
    check_exactly_once, run_worker, validate_cluster_jsonl, Cluster, ClusterOptions, JoinSpec,
    TelemetrySettings, WorkerOptions,
};
use punctuated_streams::net::{BackoffPolicy, ClientOptions, FaultConfig};
use punctuated_streams::prelude::*;

fn main() {
    let workers: usize = std::env::var("PJOIN_CLUSTER_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let faults = std::env::var_os("PJOIN_CLUSTER_FAULTS").is_some();
    let keys = 240i64;

    // ---- the workload: keyed pairs with trailing close punctuations ------
    // Per key one tuple each side; four keys later a punctuation closes
    // the key on both sides, letting every worker purge as it goes.
    let mut work: Vec<(Side, StreamElement)> = Vec::new();
    for k in 0..keys {
        work.push((Side::Left, Tuple::of((k, 10 * k)).into()));
        work.push((Side::Right, Tuple::of((k, -k)).into()));
        if k >= 4 {
            let c = k - 4;
            work.push((Side::Left, Punctuation::close_value(2, 0, c).into()));
            work.push((Side::Right, Punctuation::close_value(2, 0, c).into()));
        }
    }
    let wild = Punctuation::on_attr(2, 0, Pattern::Wildcard);
    work.push((Side::Left, wild.clone().into()));
    work.push((Side::Right, wild.into()));

    // ---- the single-threaded reference -----------------------------------
    let spec = JoinSpec::new(2, 2);
    let mut reference: Vec<StreamElement> = Vec::new();
    {
        let mut join = PJoin::new(spec.pjoin_config());
        let mut out = OpOutput::new();
        for (i, (side, el)) in work.iter().enumerate() {
            join.on_element(*side, el.clone(), Timestamp(i as u64), &mut out);
            reference.extend(out.drain());
        }
        while join.on_end(Timestamp(work.len() as u64), &mut out) {}
        reference.extend(out.drain());
    }

    // ---- assemble the cluster --------------------------------------------
    let mut opts = ClusterOptions::new(spec, workers, workers);
    opts.client =
        ClientOptions { policy: BackoffPolicy::fast(), seed: 42, ..ClientOptions::default() };
    if faults {
        opts.fault = Some(FaultConfig::lossy(50, 6, 2, 80, 0xFA11));
    }
    opts.telemetry = TelemetrySettings { enabled: true, interval_ms: 100, trace: true };
    let mut cluster = Cluster::bind(opts).expect("bind coordinator");
    let ctrl = cluster.ctrl_addr();
    println!(
        "coordinator: control plane at {ctrl}, {workers} workers, faults {}",
        if faults { "ON (drops + forced disconnects)" } else { "off" }
    );
    let handles: Vec<_> = (0..workers as u32)
        .map(|i| std::thread::spawn(move || run_worker(WorkerOptions::new(i, ctrl))))
        .collect();
    cluster.accept_workers().expect("assemble cluster");
    println!(
        "cluster up: epoch {}, {} shards over {workers} workers\n",
        cluster.shard_map().epoch,
        cluster.shard_map().shards()
    );

    // ---- stream, repartitioning twice mid-flight --------------------------
    let resize_at = [(work.len() / 3, workers * 2), (2 * work.len() / 3, workers * 2 - 1)];
    let mut outputs: Vec<Timestamped<StreamElement>> = Vec::new();
    let start = Instant::now();
    for (i, (side, el)) in work.iter().enumerate() {
        if let Some(&(_, to)) = resize_at.iter().find(|(at, _)| *at == i) {
            let stats = cluster.repartition(to).expect("repartition");
            println!(
                "repartition -> {} shards (epoch {}): {} records migrated, {} punctuations \
                 re-injected, pause {:?}",
                stats.shards, stats.epoch, stats.records_moved, stats.puncts_reinjected, stats.pause
            );
        }
        cluster
            .push(*side, Timestamped::new(Timestamp(i as u64), el.clone()))
            .expect("push");
        if i % 64 == 0 {
            outputs.extend(cluster.poll_outputs().expect("poll"));
        }
        if i == 3 * work.len() / 4 {
            println!("live dashboard at element {i}:\n{}", cluster.dashboard_text(100));
        }
    }
    let report = cluster.finish().expect("finish cluster");
    let elapsed = start.elapsed();
    outputs.extend(report.outputs);

    // ---- worker + link reports -------------------------------------------
    println!();
    for h in handles {
        let wr = h.join().expect("worker thread").expect("worker");
        println!(
            "worker {}: {} elements in, {} out, {} records exported / {} imported, \
             {} migrations, final epoch {}",
            wr.worker,
            wr.elements,
            wr.outputs,
            wr.records_exported,
            wr.records_imported,
            wr.migrations,
            wr.final_epoch
        );
    }
    for (i, ps) in report.proxy_stats.iter().enumerate() {
        println!(
            "proxy {i}: {} frames forwarded, {} dropped, {} forced disconnects",
            ps.frames_forwarded, ps.frames_dropped, ps.disconnects_forced
        );
    }
    let joined = outputs.iter().filter(|e| e.item.is_tuple()).count();
    let puncts = outputs.len() - joined;
    println!(
        "\nresults: {joined} joined tuples + {puncts} punctuations from {} pushed elements \
         in {elapsed:?} ({} sender reconnects)",
        report.pushed, report.sender_reconnects
    );

    // ---- the equivalence gate --------------------------------------------
    let multiset = |els: &[StreamElement]| {
        let mut v: Vec<String> = els.iter().map(|e| format!("{e:?}")).collect();
        v.sort();
        v
    };
    let got: Vec<StreamElement> = outputs.into_iter().map(|e| e.item).collect();
    assert_eq!(
        multiset(&got),
        multiset(&reference),
        "cluster output must equal the single-threaded join's output"
    );
    println!(
        "equivalence check: OK — output identical to the single-threaded PJoin across {} \
         repartitions",
        report.telemetry.migrations().len()
    );

    // ---- the telemetry gate ----------------------------------------------
    // The merged cluster view, rendered for a human …
    println!("\nfinal cluster dashboard:\n{}", report.telemetry.dashboard_text(100));

    // … and exported for machines. The audit below deliberately reloads
    // the artifact from disk: everything it checks is recomputed from
    // the JSONL alone, proving the export carries the full story.
    let puncts_pushed =
        work.iter().filter(|(_, el)| matches!(el, StreamElement::Punctuation(_))).count() as u64;
    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/cluster_telemetry.jsonl";
    std::fs::write(path, report.telemetry.to_jsonl()).expect("write telemetry artifact");
    let artifact = std::fs::read_to_string(path).expect("re-read telemetry artifact");
    let summary = match validate_cluster_jsonl(&artifact) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("telemetry artifact failed schema validation: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = check_exactly_once(&summary, puncts_pushed) {
        eprintln!("exactly-once audit failed: {e}");
        std::process::exit(1);
    }
    assert_eq!(summary.workers, workers as u64, "artifact must cover every worker");
    assert_eq!(summary.migrations, report.telemetry.migrations().len() as u64);
    assert_eq!(
        summary.tuple_emit_count, joined as u64,
        "merged ingress→emit histogram must count every joined tuple"
    );
    println!(
        "telemetry check: OK — {path} schema-valid, all {puncts_pushed} punctuations traced \
         end-to-end and merged exactly once"
    );
}
