//! The cluster observability gate: with the telemetry plane enabled (a
//! fast report interval, tracing on) and seeded fault proxies on every
//! worker's ingest path, a 2-worker cluster resized mid-stream still
//! produces exactly the single-threaded multisets — and the merged
//! telemetry is **exact**: the cluster-level ingress→emit histogram
//! counts every joined tuple, and every routed punctuation has a
//! complete, monotone cluster-wide lifecycle span.
//!
//! Workers run as real OS processes, so the clock-offset estimation and
//! the cross-process report plumbing are exercised for real.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pjoin::PJoin;
use punct_cluster::{
    check_exactly_once, validate_cluster_jsonl, Cluster, ClusterOptions, ClusterReport,
    JoinSpec, TelemetrySettings,
};
use punct_net::{BackoffPolicy, ClientOptions, FaultConfig};
use punct_types::{Pattern, Punctuation, StreamElement, Timestamp, Timestamped, Tuple, Value};
use stream_sim::{BinaryStreamOp, OpOutput, Side};

fn spec() -> JoinSpec {
    JoinSpec::new(2, 2)
}

/// Same grammar as the main equivalence gate: tuples per key, closing
/// punctuations four keys behind, stream-end wildcards.
fn workload(keys: i64) -> Vec<(Side, u64, StreamElement)> {
    let mut els: Vec<(Side, u64, StreamElement)> = Vec::new();
    let mut ts = 0u64;
    let mut push = |els: &mut Vec<(Side, u64, StreamElement)>, side, el| {
        els.push((side, ts, el));
        ts += 1;
    };
    for k in 0..keys {
        push(&mut els, Side::Left, Tuple::of((k, 10 * k)).into());
        push(&mut els, Side::Right, Tuple::of((k, -k)).into());
        if k % 3 == 0 {
            push(&mut els, Side::Left, Tuple::of((k, 10 * k + 1)).into());
        }
        if k >= 4 {
            let c = k - 4;
            match c % 4 {
                0 | 1 => {
                    push(&mut els, Side::Left, Punctuation::close_value(2, 0, c).into());
                    push(&mut els, Side::Right, Punctuation::close_value(2, 0, c).into());
                }
                3 => {
                    let pair = Pattern::In(vec![Value::Int(c - 1), Value::Int(c)]);
                    let p = Punctuation::on_attr(2, 0, pair);
                    push(&mut els, Side::Left, p.clone().into());
                    push(&mut els, Side::Right, p.into());
                }
                _ => {}
            }
        }
    }
    let wild = Punctuation::on_attr(2, 0, Pattern::Wildcard);
    push(&mut els, Side::Left, wild.clone().into());
    push(&mut els, Side::Right, wild.into());
    els
}

fn multisets(outputs: impl IntoIterator<Item = StreamElement>) -> (Vec<String>, Vec<String>) {
    let mut tuples = Vec::new();
    let mut puncts = Vec::new();
    for el in outputs {
        match &el {
            StreamElement::Tuple(_) => tuples.push(format!("{el:?}")),
            StreamElement::Punctuation(_) => puncts.push(format!("{el:?}")),
        }
    }
    tuples.sort();
    puncts.sort();
    (tuples, puncts)
}

fn reference(work: &[(Side, u64, StreamElement)]) -> (Vec<String>, Vec<String>) {
    let mut join = PJoin::new(spec().pjoin_config());
    let mut out = OpOutput::new();
    let mut all: Vec<StreamElement> = Vec::new();
    let mut last = 0u64;
    for (side, ts, el) in work {
        join.on_element(*side, el.clone(), Timestamp(*ts), &mut out);
        all.extend(out.drain());
        last = *ts;
    }
    while join.on_end(Timestamp(last + 1), &mut out) {}
    all.extend(out.drain());
    multisets(all)
}

fn spawn_worker(ctrl: std::net::SocketAddr, idx: u32) -> Child {
    Command::new(env!("CARGO_BIN_EXE_punct-worker"))
        .arg(ctrl.to_string())
        .arg(idx.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn punct-worker")
}

fn wait_worker(mut child: Child, idx: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match child.try_wait().expect("wait punct-worker") {
            Some(status) => {
                assert!(status.success(), "worker {idx} exited with {status}");
                return;
            }
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                panic!("worker {idx} did not exit in time");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Runs the workload through a telemetry-enabled 2-worker cluster with
/// one mid-stream resize, asserts output equivalence, and returns the
/// report plus the pushed-punctuation count.
fn run_gate(telemetry: TelemetrySettings) -> (ClusterReport, u64, usize) {
    let work = workload(48);
    let (want_tuples, want_puncts) = reference(&work);
    let puncts_pushed =
        work.iter().filter(|(_, _, el)| matches!(el, StreamElement::Punctuation(_))).count()
            as u64;

    let mut opts = ClusterOptions::new(spec(), 2, 2);
    opts.client = ClientOptions {
        policy: BackoffPolicy::fast(),
        seed: 0x7E1E,
        ..ClientOptions::default()
    };
    opts.fault = Some(FaultConfig::lossy(7, 10, 3, 60, 0x7E1E_0BAD));
    opts.telemetry = telemetry;
    let mut cluster = Cluster::bind(opts).expect("bind coordinator");
    let ctrl = cluster.ctrl_addr();
    let children: Vec<Child> = (0..2).map(|i| spawn_worker(ctrl, i)).collect();
    cluster.accept_workers().expect("assemble cluster");

    let resize_at = work.len() / 2;
    let mut outputs: Vec<Timestamped<StreamElement>> = Vec::new();
    for (i, (side, ts, el)) in work.iter().enumerate() {
        if i == resize_at {
            let stats = cluster.repartition(4).expect("repartition");
            assert_eq!(stats.shards, 4);
            // The pause breakdown partitions the pause: each phase share
            // is bounded by the whole.
            for phase in [stats.drain, stats.export, stats.install, stats.reinject] {
                assert!(phase <= stats.pause, "phase {phase:?} exceeds pause {:?}", stats.pause);
            }
        }
        cluster.push(*side, Timestamped::new(Timestamp(*ts), el.clone())).expect("push");
        if i % 16 == 0 {
            outputs.extend(cluster.poll_outputs().expect("poll"));
        }
    }
    let report = cluster.finish().expect("finish cluster");
    outputs.extend(report.outputs.iter().cloned());
    for (i, child) in children.into_iter().enumerate() {
        wait_worker(child, i);
    }

    let (got_tuples, got_puncts) = multisets(outputs.into_iter().map(|e| e.item));
    assert_eq!(got_tuples, want_tuples, "joined tuple multiset diverged");
    assert_eq!(got_puncts, want_puncts, "punctuation multiset diverged");
    (report, puncts_pushed, want_tuples.len())
}

#[test]
fn merged_telemetry_is_exact_through_faults_and_a_resize() {
    let settings = TelemetrySettings { enabled: true, interval_ms: 50, trace: true };
    let (report, puncts_pushed, joined) = run_gate(settings);
    let telem = &report.telemetry;

    // Every worker's final flush arrived and clock offsets were probed.
    assert!(telem.finals_pending().is_empty(), "missing final flushes");
    assert!(telem.reports_ingested() >= 2, "at least one report per worker");
    for w in 0..telem.workers() {
        assert!(telem.clock(w).samples() >= 1, "worker {w} was never clock-probed");
        assert!(telem.worker(w).expect("latest report").final_flush);
    }

    // Lifetime counters cover the whole run: both workers consumed every
    // routed element; outputs include every joined tuple.
    assert!(telem.total_elements() > 0);
    assert!(telem.total_outputs() >= joined as u64);

    // The acceptance bar: the merged cluster-level ingress→emit
    // histogram counts exactly the joined tuples emitted.
    let merged = telem.merged_latencies();
    assert_eq!(
        merged.tuple_emit.count(),
        joined as u64,
        "merged ingress→emit histogram must count every joined tuple"
    );
    assert!(merged.punct_purge.count() > 0);
    assert!(merged.punct_propagate.count() > 0);
    assert!(telem.trace_active());

    // Every routed punctuation has a span that completed downstream.
    let spans = telem.spans();
    assert_eq!(spans.len() as u64, puncts_pushed, "one span per pushed punctuation");
    let mut seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len() as u64, puncts_pushed, "span sequences must be unique");
    for span in &spans {
        assert!(span.route_ns > 0, "span {} was never routed", span.seq);
        assert!(span.merge_ns >= span.route_ns, "span {} merged before routing", span.seq);
        assert!(!span.workers.is_empty(), "span {} has no lanes", span.seq);
        for lane in &span.workers {
            assert!(
                lane.observe_ns > 0,
                "span {} lane {} was never observed",
                span.seq,
                lane.worker
            );
            assert!(
                lane.complete(),
                "span {} lane {} is missing stages: {lane:?}",
                span.seq,
                lane.worker
            );
            assert!(
                lane.monotone(),
                "span {} lane {} goes backwards: {lane:?}",
                span.seq,
                lane.worker
            );
            assert!(lane.ingest_ns == 0 || lane.ingest_ns >= span.route_ns);
            assert!(lane.observe_ns <= span.merge_ns);
        }
    }

    // The surfaced views agree with the raw state.
    let metrics = telem.metrics_text();
    assert!(metrics.contains("pjoin_worker_elements_total{worker=\"0\"}"));
    assert!(metrics.contains("pjoin_worker_elements_total{worker=\"1\"}"));
    assert!(metrics.contains(&format!("pjoin_cluster_punctuations_total {puncts_pushed}")));
    assert!(metrics.contains(&format!("pjoin_cluster_punctuations_merged_total {puncts_pushed}")));
    assert!(metrics.contains("pjoin_cluster_migrations_total 1"));

    let dump = telem.to_jsonl();
    let summary = validate_cluster_jsonl(&dump).expect("schema-valid JSONL");
    check_exactly_once(&summary, puncts_pushed)
        .expect("exactly-once recomputed from the artifact alone");
    assert_eq!(summary.migrations, 1);
    assert_eq!(summary.tuple_emit_count, joined as u64);

    let dash = telem.dashboard_text(100);
    assert!(dash.contains("worker 0"));
    assert!(dash.contains("worker 1"));
    assert!(dash.contains("migration: epoch 2"));
}

#[test]
fn disabled_telemetry_changes_nothing_and_ships_nothing() {
    let (report, _, _) = run_gate(TelemetrySettings::disabled());
    let telem = &report.telemetry;
    assert_eq!(telem.reports_ingested(), 0, "disabled telemetry must ship zero frames");
    assert!(telem.spans().is_empty());
    assert!(telem.merged_latencies().is_empty());
    for w in 0..telem.workers() {
        assert_eq!(telem.clock(w).samples(), 0, "no clock probes when disabled");
        assert!(telem.worker(w).is_none());
    }
}
