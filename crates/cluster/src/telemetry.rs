//! Coordinator-side telemetry aggregation: the cluster's merged view of
//! every worker's histograms, shard occupancy, trace summaries and
//! punctuation lifecycles.
//!
//! ## Merge semantics
//!
//! Workers send **cumulative** [`WorkerTelemetry`] snapshots; the
//! aggregator keeps the latest per worker (by report sequence) and
//! merges those — never deltas — so merged histogram counts are exact at
//! any report interval and under arbitrary report loss short of losing
//! the final flush. Histogram merging is element-wise bucket addition
//! (the same operation shard histograms already merge with inside a
//! process), so a cluster-level distribution is bit-identical to what a
//! single process observing every sample would have built.
//!
//! ## Punctuation lifecycle correlation
//!
//! The coordinator names punctuations by aligner sequence; workers never
//! see that sequence (it is not on the wire — the data plane carries the
//! punctuation itself). Correlation uses arrival order instead: each
//! `(worker, side)` stream is exactly-once and in order, and a worker
//! opens one lifecycle record per punctuation it receives on a side, so
//! its *i*-th record on side *s* describes the *i*-th punctuation the
//! coordinator sent it on *s*. [`ClusterTelemetry::note_route`] counts
//! those sends and stores each lane as `(worker, occurrence)`. A
//! punctuation keeps its sequence through re-injection (after a
//! repartition, a crash or a restore), so a re-route replaces the
//! span's lanes and clears its merge stamp: the copy a punctuation
//! completed on is the one its span shows, and a merge whose output a
//! crash dropped is stamped again when the replay merges it. A
//! replacement worker starts its records afresh:
//! [`ClusterTelemetry::reset_worker`] zeroes its counters and detaches
//! the lanes routed to its predecessor (a committed span keeps such a
//! lane, without worker stamps).
//!
//! ## Clock normalization
//!
//! Worker stage stamps arrive in the worker's own
//! [`wall_now_ns`](punct_trace::wall_now_ns) domain. Each is translated
//! through the worker's handshake-time [`ClockSync`] estimate, then
//! clamped into the causal window the coordinator observed locally
//! (route time → the coordinator's own observation of that worker's
//! propagation), with a running maximum across the stage sequence — so
//! merged spans are monotone *by construction*, and the residual
//! offset-estimation error (bounded by the winning probe's RTT) can
//! distort stage boundaries but never reorder them.

use std::collections::HashMap;

use punct_trace::{
    histogram_chart, meter, ClockSync, JoinLatencies, JsonValue, KindSummary, LatencyHistogram,
    PunctRecord, TraceKind, WorkerTelemetry,
};

use crate::coordinator::MigrationStats;
use crate::protocol::TelemetrySettings;

/// One worker's normalized lane of a punctuation span: every stamp in
/// the **coordinator's** clock domain, monotone from `ingest_ns` through
/// `observe_ns`. A zero stage was never recorded (tracing off, the
/// lane's record was cut short by a migration before the stage ran, or
/// the worker it was routed to died).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSpan {
    /// The worker this lane belongs to.
    pub worker: u32,
    /// Punctuation arrived at the worker's element handler.
    pub ingest_ns: u64,
    /// The worker's join finished applying it.
    pub purge_ns: u64,
    /// The join's propagation of it went to the worker's sink.
    pub sink_ns: u64,
    /// The coordinator observed the worker's propagation (coordinator's
    /// own stamp, no translation involved).
    pub observe_ns: u64,
}

impl WorkerSpan {
    /// True when every stage carries a stamp.
    pub fn complete(&self) -> bool {
        self.ingest_ns > 0 && self.purge_ns > 0 && self.sink_ns > 0 && self.observe_ns > 0
    }

    /// True when the recorded stages never go backwards.
    pub fn monotone(&self) -> bool {
        let stages = [self.ingest_ns, self.purge_ns, self.sink_ns, self.observe_ns];
        let mut prev = 0u64;
        for s in stages.into_iter().filter(|&s| s > 0) {
            if s < prev {
                return false;
            }
            prev = s;
        }
        true
    }
}

/// One punctuation's cluster-wide lifecycle: coordinator route → one
/// lane per target worker → coordinator merge. All stamps are in the
/// coordinator's clock domain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PunctSpan {
    /// The coordinator's aligner sequence for this punctuation.
    pub seq: u64,
    /// Input side: 0 = left, 1 = right.
    pub side: u8,
    /// The coordinator routed it to the target workers.
    pub route_ns: u64,
    /// The coordinator's aligner emitted the merged copy downstream.
    pub merge_ns: u64,
    /// One lane per target worker under the final routing (after any
    /// re-injection), ascending by worker.
    pub workers: Vec<WorkerSpan>,
}

impl PunctSpan {
    /// End-to-end propagation lag: route → merge (0 if never merged).
    pub fn lag_ns(&self) -> u64 {
        self.merge_ns.saturating_sub(self.route_ns)
    }
}

/// Span-assembly state for one routed punctuation.
#[derive(Debug, Clone)]
struct SpanBuilder {
    side: u8,
    route_ns: u64,
    merge_ns: u64,
    /// Target workers under the most recent routing, each with the
    /// position of this punctuation among the ones the coordinator sent
    /// it on `side` — `None` once that worker was replaced.
    lanes: Vec<(u32, Option<usize>)>,
    /// worker → the coordinator's observation stamp of that worker's
    /// propagation.
    observed: HashMap<u32, u64>,
}

/// The coordinator's telemetry aggregation state, exposed on
/// [`Cluster`](crate::Cluster) while running and moved into the
/// [`ClusterReport`](crate::ClusterReport) at finish.
#[derive(Debug, Clone)]
pub struct ClusterTelemetry {
    settings: TelemetrySettings,
    clocks: Vec<ClockSync>,
    latest: Vec<Option<WorkerTelemetry>>,
    final_seen: Vec<bool>,
    reports: u64,
    /// Punctuations sent so far per worker and side: the position the
    /// next one takes in that worker's record list for the side.
    sent: Vec<[usize; 2]>,
    spans: HashMap<u64, SpanBuilder>,
    /// Completed migrations with their pause breakdown.
    pub(crate) migrations: Vec<MigrationStats>,
}

impl ClusterTelemetry {
    /// Empty aggregation state for `workers` workers.
    pub fn new(workers: usize, settings: TelemetrySettings) -> ClusterTelemetry {
        ClusterTelemetry {
            settings,
            clocks: vec![ClockSync::new(); workers],
            latest: vec![None; workers],
            final_seen: vec![false; workers],
            reports: 0,
            sent: vec![[0; 2]; workers],
            spans: HashMap::new(),
            migrations: Vec::new(),
        }
    }

    /// The settings this cluster runs with.
    pub fn settings(&self) -> &TelemetrySettings {
        &self.settings
    }

    /// Folds in one clock probe's result for `worker`.
    pub fn observe_clock(&mut self, worker: usize, t0_ns: u64, peer_ns: u64, t1_ns: u64) {
        self.clocks[worker].observe(t0_ns, peer_ns, t1_ns);
    }

    /// The clock-offset estimate for `worker`.
    pub fn clock(&self, worker: usize) -> &ClockSync {
        &self.clocks[worker]
    }

    /// Ingests one worker report, keeping the newest per worker (by
    /// report sequence). Returns whether it was the worker's final flush.
    pub fn ingest_report(&mut self, worker: usize, report: WorkerTelemetry) -> bool {
        self.reports += 1;
        let is_final = report.final_flush;
        if is_final {
            self.final_seen[worker] = true;
        }
        let newer = self.latest[worker].as_ref().is_none_or(|old| report.seq >= old.seq);
        if newer {
            self.latest[worker] = Some(report);
        }
        is_final
    }

    /// Reports ingested so far (all workers, including superseded ones).
    pub fn reports_ingested(&self) -> u64 {
        self.reports
    }

    /// Forgets everything tied to `worker`'s current incarnation: clock
    /// sync, latest report, final-flush marker and send counters, and
    /// the records of lanes routed to it. Called when crash recovery
    /// adopts a replacement worker under the same index — the
    /// replacement restarts its report sequence at zero, which the
    /// stale-report guard in [`ingest_report`](Self::ingest_report)
    /// would otherwise drop forever, and its record lists start empty,
    /// so they line up with the sends made after it joined.
    pub fn reset_worker(&mut self, worker: usize) {
        self.clocks[worker] = ClockSync::new();
        self.latest[worker] = None;
        self.final_seen[worker] = false;
        self.sent[worker] = [0; 2];
        for span in self.spans.values_mut() {
            for lane in span.lanes.iter_mut().filter(|(w, _)| *w as usize == worker) {
                lane.1 = None;
            }
        }
    }

    /// Workers whose final flush has not arrived yet.
    pub fn finals_pending(&self) -> Vec<usize> {
        self.final_seen
            .iter()
            .enumerate()
            .filter(|(_, &seen)| !seen)
            .map(|(w, _)| w)
            .collect()
    }

    /// Records that punctuation `seq` was sent to `workers` on `side`:
    /// the first call opens the span; a re-route (re-injection or a
    /// replay after a crash) replaces its lanes and clears its merge
    /// stamp, so the span reflects the copies the punctuation actually
    /// completed on, merged once.
    pub fn note_route(&mut self, seq: u64, side: u8, now_ns: u64, workers: &[usize]) {
        let lanes = workers
            .iter()
            .map(|&w| {
                let sent = &mut self.sent[w][usize::from(side)];
                *sent += 1;
                (w as u32, Some(*sent - 1))
            })
            .collect();
        let span = self.spans.entry(seq).or_insert_with(|| SpanBuilder {
            side,
            route_ns: now_ns,
            merge_ns: 0,
            lanes: Vec::new(),
            observed: HashMap::new(),
        });
        span.lanes = lanes;
        span.merge_ns = 0;
        span.observed.clear();
    }

    /// Records that the coordinator saw `worker`'s propagation of
    /// punctuation `seq` on the merged sink stream.
    pub fn note_observe(&mut self, worker: usize, seq: u64, now_ns: u64) {
        if let Some(span) = self.spans.get_mut(&seq) {
            span.observed.entry(worker as u32).or_insert(now_ns);
        }
    }

    /// Records that the coordinator's aligner emitted punctuation `seq`
    /// downstream.
    pub fn note_merge(&mut self, seq: u64, now_ns: u64) {
        if let Some(span) = self.spans.get_mut(&seq) {
            if span.merge_ns == 0 {
                span.merge_ns = now_ns;
            }
        }
    }

    /// The latest report from `worker`, if any arrived.
    pub fn worker(&self, worker: usize) -> Option<&WorkerTelemetry> {
        self.latest.get(worker).and_then(Option::as_ref)
    }

    /// Number of workers the aggregator tracks.
    pub fn workers(&self) -> usize {
        self.latest.len()
    }

    /// Completed migrations with their pause breakdowns.
    pub fn migrations(&self) -> &[MigrationStats] {
        &self.migrations
    }

    /// Exact cluster-level latency distributions: the element-wise merge
    /// of every worker's cumulative histograms (ingress→emit,
    /// punct→purge, punct→propagation; virtual-time µs).
    pub fn merged_latencies(&self) -> JoinLatencies {
        let mut merged = JoinLatencies::new();
        for report in self.latest.iter().flatten() {
            merged.merge(&report.latencies);
        }
        merged
    }

    /// Cluster-wide per-kind trace totals, merged across workers.
    pub fn merged_summaries(&self) -> Vec<KindSummary> {
        let mut totals: Vec<(u64, u64)> = vec![(0, 0); TraceKind::ALL.len()];
        for report in self.latest.iter().flatten() {
            for s in &report.summaries {
                if let Some(t) = totals.get_mut(s.kind as usize) {
                    t.0 += s.count;
                    t.1 += s.total_dur_ns;
                }
            }
        }
        totals
            .into_iter()
            .enumerate()
            .filter(|(_, (count, _))| *count > 0)
            .map(|(kind, (count, total_dur_ns))| KindSummary {
                kind: kind as u8,
                count,
                total_dur_ns,
            })
            .collect()
    }

    /// Elements consumed across the cluster (sum of worker lifetimes).
    pub fn total_elements(&self) -> u64 {
        self.latest.iter().flatten().map(|r| r.elements).sum()
    }

    /// Elements published to worker sinks across the cluster.
    pub fn total_outputs(&self) -> u64 {
        self.latest.iter().flatten().map(|r| r.outputs).sum()
    }

    /// Backpressure stalls across every worker's ingest server.
    pub fn total_stalls(&self) -> u64 {
        self.latest.iter().flatten().map(|r| r.ingest.stalls).sum()
    }

    /// True when workers run with tracing on, so their reports carry
    /// latency histograms, trace summaries and lifecycle records — the
    /// settings this coordinator shipped to every worker.
    pub fn trace_active(&self) -> bool {
        self.settings.enabled && self.settings.trace
    }

    /// The lifecycle record of `worker`'s `occurrence`-th punctuation on
    /// `side`, if its latest report carries it.
    fn worker_record(&self, worker: u32, side: u8, occurrence: usize) -> Option<&PunctRecord> {
        let report = self.latest[worker as usize].as_ref()?;
        report.lifecycle[usize::from(side)].get(occurrence)
    }

    /// Assembles every routed punctuation's cluster-wide span, ascending
    /// by sequence. Worker stamps are clock-normalized and causally
    /// clamped (see the module docs), so each lane is monotone from
    /// route through observe.
    pub fn spans(&self) -> Vec<PunctSpan> {
        let mut seqs: Vec<u64> = self.spans.keys().copied().collect();
        seqs.sort_unstable();
        seqs.into_iter()
            .map(|seq| {
                let b = &self.spans[&seq];
                let mut workers = Vec::with_capacity(b.lanes.len());
                for &(w, occurrence) in &b.lanes {
                    let observe_ns = b.observed.get(&w).copied().unwrap_or(0);
                    // The causal window this lane's remote stamps must
                    // fall into: the coordinator routed before the worker
                    // could see it, and the worker published before the
                    // coordinator could observe it.
                    let hi = match (observe_ns, b.merge_ns) {
                        (0, 0) => u64::MAX,
                        (0, merge) => merge,
                        (obs, _) => obs,
                    };
                    let mut lane = WorkerSpan { worker: w, observe_ns, ..WorkerSpan::default() };
                    let clock = &self.clocks[w as usize];
                    let record = occurrence.and_then(|n| self.worker_record(w, b.side, n));
                    if let Some(rec) = record {
                        let mut floor = b.route_ns;
                        for (slot, raw) in [
                            (&mut lane.ingest_ns, rec.ingest_ns),
                            (&mut lane.purge_ns, rec.purge_ns),
                            (&mut lane.sink_ns, rec.sink_ns),
                        ] {
                            if raw == 0 {
                                continue;
                            }
                            let normalized = clock.to_local(raw);
                            let clamped =
                                punct_trace::telemetry::clamp_span(normalized, floor, hi);
                            *slot = clamped;
                            floor = floor.max(clamped);
                        }
                    }
                    workers.push(lane);
                }
                workers.sort_by_key(|l| l.worker);
                PunctSpan {
                    seq,
                    side: b.side,
                    route_ns: b.route_ns,
                    merge_ns: b.merge_ns,
                    workers,
                }
            })
            .collect()
    }

    /// Distribution of route→merge propagation lag over completed spans,
    /// in nanoseconds.
    pub fn propagation_lag(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for b in self.spans.values() {
            if b.merge_ns > 0 {
                h.record(b.merge_ns.saturating_sub(b.route_ns));
            }
        }
        h
    }

    /// Prometheus text exposition of the merged cluster state.
    pub fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "# TYPE pjoin_worker_elements_total counter");
        for (w, r) in self.latest.iter().enumerate() {
            let Some(r) = r else { continue };
            let _ = writeln!(out, "pjoin_worker_elements_total{{worker=\"{w}\"}} {}", r.elements);
        }
        let _ = writeln!(out, "# TYPE pjoin_worker_outputs_total counter");
        for (w, r) in self.latest.iter().enumerate() {
            let Some(r) = r else { continue };
            let _ = writeln!(out, "pjoin_worker_outputs_total{{worker=\"{w}\"}} {}", r.outputs);
        }
        let _ = writeln!(out, "# TYPE pjoin_worker_ingest_stalls_total counter");
        for (w, r) in self.latest.iter().enumerate() {
            let Some(r) = r else { continue };
            let _ = writeln!(
                out,
                "pjoin_worker_ingest_stalls_total{{worker=\"{w}\"}} {}",
                r.ingest.stalls
            );
        }
        let _ = writeln!(out, "# TYPE pjoin_shard_state_tuples gauge");
        for (w, r) in self.latest.iter().enumerate() {
            let Some(r) = r else { continue };
            for s in &r.shards {
                let _ = writeln!(
                    out,
                    "pjoin_shard_state_tuples{{worker=\"{w}\",shard=\"{}\"}} {}",
                    s.shard, s.state_tuples
                );
            }
        }
        let merged = self.merged_latencies();
        for (name, h) in [
            ("pjoin_cluster_tuple_emit_us", &merged.tuple_emit),
            ("pjoin_cluster_punct_purge_us", &merged.punct_purge),
            ("pjoin_cluster_punct_propagate_us", &merged.punct_propagate),
        ] {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cum = 0u64;
            for (i, count) in h.nonzero_buckets() {
                cum += count;
                let (_, hi) = LatencyHistogram::bucket_bounds(i);
                let _ = writeln!(out, "{name}_bucket{{le=\"{hi}\"}} {cum}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        let _ = writeln!(out, "# TYPE pjoin_cluster_punctuations_total counter");
        let _ = writeln!(out, "pjoin_cluster_punctuations_total {}", self.spans.len());
        let merged_count = self.spans.values().filter(|s| s.merge_ns > 0).count();
        let _ = writeln!(out, "# TYPE pjoin_cluster_punctuations_merged_total counter");
        let _ = writeln!(out, "pjoin_cluster_punctuations_merged_total {merged_count}");
        let _ = writeln!(out, "# TYPE pjoin_cluster_migrations_total counter");
        let _ = writeln!(out, "pjoin_cluster_migrations_total {}", self.migrations.len());
        let pause_ns: u64 = self.migrations.iter().map(|m| m.pause.as_nanos() as u64).sum();
        let _ = writeln!(out, "# TYPE pjoin_cluster_migration_pause_ns_total counter");
        let _ = writeln!(out, "pjoin_cluster_migration_pause_ns_total {pause_ns}");
        out
    }

    /// JSONL export of the merged cluster telemetry: flat objects, one
    /// per line, validated by [`validate_cluster_jsonl`]. Line types:
    /// `cluster`, `worker`, `shard`, `summary`, `hist`, `hist_summary`,
    /// `punct_span`, `punct_stage`, `migration`.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(8192);
        let spans = self.spans();
        let merged_count = spans.iter().filter(|s| s.merge_ns > 0).count();
        let _ = writeln!(
            out,
            "{{\"type\":\"cluster\",\"workers\":{},\"puncts\":{},\"merged\":{merged_count},\
             \"elements\":{},\"outputs\":{},\"trace_active\":{}}}",
            self.latest.len(),
            spans.len(),
            self.total_elements(),
            self.total_outputs(),
            self.trace_active() as u8,
        );
        for (w, r) in self.latest.iter().enumerate() {
            let Some(r) = r else { continue };
            let _ = writeln!(
                out,
                "{{\"type\":\"worker\",\"worker\":{w},\"seq\":{},\"final\":{},\
                 \"elements\":{},\"outputs\":{},\"connections\":{},\"frames\":{},\
                 \"bytes\":{},\"duplicates\":{},\"stalls\":{}}}",
                r.seq,
                r.final_flush as u8,
                r.elements,
                r.outputs,
                r.ingest.connections,
                r.ingest.frames_received,
                r.ingest.bytes_received,
                r.ingest.duplicates_suppressed,
                r.ingest.stalls,
            );
            for s in &r.shards {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"shard\",\"worker\":{w},\"shard\":{},\"consumed\":{},\
                     \"state_tuples\":{},\"emitted\":{}}}",
                    s.shard, s.consumed, s.state_tuples, s.emitted,
                );
            }
        }
        for s in self.merged_summaries() {
            let name = s.trace_kind().map(TraceKind::name).unwrap_or("unknown");
            let _ = writeln!(
                out,
                "{{\"type\":\"summary\",\"kind\":\"{name}\",\"count\":{},\"total_dur_ns\":{}}}",
                s.count, s.total_dur_ns,
            );
        }
        let merged = self.merged_latencies();
        for (name, h) in [
            ("tuple_emit", &merged.tuple_emit),
            ("punct_purge", &merged.punct_purge),
            ("punct_propagate", &merged.punct_propagate),
        ] {
            for (i, count) in h.nonzero_buckets() {
                let (lo, hi) = LatencyHistogram::bucket_bounds(i);
                let _ = writeln!(
                    out,
                    "{{\"type\":\"hist\",\"name\":\"{name}\",\"bucket\":{i},\"lo\":{lo},\
                     \"hi\":{hi},\"count\":{count}}}",
                );
            }
            let _ = writeln!(
                out,
                "{{\"type\":\"hist_summary\",\"name\":\"{name}\",\"count\":{},\"sum\":{},\
                 \"max\":{},\"p50\":{},\"p99\":{}}}",
                h.count(),
                h.sum(),
                h.max(),
                h.quantile(0.5),
                h.quantile(0.99),
            );
        }
        for span in &spans {
            let _ = writeln!(
                out,
                "{{\"type\":\"punct_span\",\"seq\":{},\"side\":{},\"route_ns\":{},\
                 \"merge_ns\":{},\"workers\":{}}}",
                span.seq,
                span.side,
                span.route_ns,
                span.merge_ns,
                span.workers.len(),
            );
            for lane in &span.workers {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"punct_stage\",\"seq\":{},\"worker\":{},\"ingest_ns\":{},\
                     \"purge_ns\":{},\"sink_ns\":{},\"observe_ns\":{}}}",
                    span.seq,
                    lane.worker,
                    lane.ingest_ns,
                    lane.purge_ns,
                    lane.sink_ns,
                    lane.observe_ns,
                );
            }
        }
        for m in &self.migrations {
            let _ = writeln!(
                out,
                "{{\"type\":\"migration\",\"epoch\":{},\"shards\":{},\"records_moved\":{},\
                 \"puncts_reinjected\":{},\"pause_ns\":{},\"drain_ns\":{},\"export_ns\":{},\
                 \"install_ns\":{},\"reinject_ns\":{}}}",
                m.epoch,
                m.shards,
                m.records_moved,
                m.puncts_reinjected,
                m.pause.as_nanos(),
                m.drain.as_nanos(),
                m.export.as_nanos(),
                m.install.as_nanos(),
                m.reinject.as_nanos(),
            );
        }
        out
    }

    /// The live cluster dashboard: per-worker occupancy and stall
    /// meters, punctuation propagation lag, migration events, and the
    /// merged latency histograms.
    pub fn dashboard_text(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let width = width.clamp(16, 120);
        let mut out = String::with_capacity(4096);
        let _ = writeln!(
            out,
            "cluster: {} workers, {} elements in, {} outputs, {} punctuations routed",
            self.latest.len(),
            self.total_elements(),
            self.total_outputs(),
            self.spans.len(),
        );
        let occupancy: Vec<(usize, u64, u64)> = self
            .latest
            .iter()
            .enumerate()
            .filter_map(|(w, r)| r.as_ref().map(|r| (w, r)))
            .map(|(w, r)| {
                let tuples: u64 = r.shards.iter().map(|s| s.state_tuples).sum();
                (w, tuples, r.ingest.stalls)
            })
            .collect();
        let peak_tuples = occupancy.iter().map(|&(_, t, _)| t).max().unwrap_or(0);
        let peak_stalls = occupancy.iter().map(|&(_, _, s)| s).max().unwrap_or(0);
        for (w, tuples, stalls) in occupancy {
            let _ = writeln!(
                out,
                "worker {w}: state {}  stalls {}",
                meter(tuples, peak_tuples, width / 2),
                meter(stalls, peak_stalls, width / 4),
            );
        }
        let lag = self.propagation_lag();
        if !lag.is_empty() {
            out.push('\n');
            out.push_str(&histogram_chart(&lag, "punct route -> merge lag (ns)", width / 2));
        }
        for m in &self.migrations {
            let _ = writeln!(
                out,
                "migration: epoch {} -> {} shards, {} records, {} puncts re-injected, \
                 pause {:?} (drain {:?}, export {:?}, install {:?}, reinject {:?})",
                m.epoch,
                m.shards,
                m.records_moved,
                m.puncts_reinjected,
                m.pause,
                m.drain,
                m.export,
                m.install,
                m.reinject,
            );
        }
        let merged = self.merged_latencies();
        if !merged.is_empty() {
            out.push('\n');
            out.push_str(&punct_trace::latency_report(&merged, width / 2));
        }
        out
    }
}

/// Totals recovered from a cluster telemetry JSONL dump by
/// [`validate_cluster_jsonl`] — everything the exactly-once check needs,
/// recomputed from the artifact alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JsonlSummary {
    /// Workers announced on the `cluster` line.
    pub workers: u64,
    /// Punctuations routed (cluster line).
    pub puncts: u64,
    /// Punctuations merged downstream (cluster line).
    pub merged: u64,
    /// Whether trace data was active (cluster line).
    pub trace_active: bool,
    /// Sequences seen on `punct_span` lines, with their merge stamps.
    pub spans: Vec<(u64, u64)>,
    /// `punct_stage` lines per sequence.
    pub stages: HashMap<u64, u64>,
    /// Total count of the merged ingress→emit histogram.
    pub tuple_emit_count: u64,
    /// `migration` lines seen.
    pub migrations: u64,
}

fn field<'a>(
    fields: &'a [(String, JsonValue)],
    key: &str,
    line_no: usize,
) -> Result<&'a JsonValue, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("line {line_no}: missing field \"{key}\""))
}

fn num(fields: &[(String, JsonValue)], key: &str, line_no: usize) -> Result<u64, String> {
    match field(fields, key, line_no)? {
        JsonValue::Num(n) => Ok(*n),
        JsonValue::Str(_) => {
            Err(format!("line {line_no}: \"{key}\" must be an unsigned integer"))
        }
    }
}

/// Validates a dump written by [`ClusterTelemetry::to_jsonl`]: every
/// line must be a flat object with a known `type` and that type's
/// required numeric fields. Returns the recovered totals.
pub fn validate_cluster_jsonl(input: &str) -> Result<JsonlSummary, String> {
    let mut summary = JsonlSummary::default();
    let mut saw_cluster = false;
    for (i, line) in input.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields = punct_trace::parse_flat_object(line)
            .map_err(|e| format!("line {line_no}: {e}"))?;
        let kind = match field(&fields, "type", line_no)? {
            JsonValue::Str(s) => s.clone(),
            JsonValue::Num(_) => {
                return Err(format!("line {line_no}: \"type\" must be a string"))
            }
        };
        let require = |keys: &[&str]| -> Result<(), String> {
            for k in keys {
                num(&fields, k, line_no)?;
            }
            Ok(())
        };
        match kind.as_str() {
            "cluster" => {
                if saw_cluster {
                    return Err(format!("line {line_no}: duplicate cluster line"));
                }
                saw_cluster = true;
                summary.workers = num(&fields, "workers", line_no)?;
                summary.puncts = num(&fields, "puncts", line_no)?;
                summary.merged = num(&fields, "merged", line_no)?;
                summary.trace_active = num(&fields, "trace_active", line_no)? != 0;
                require(&["elements", "outputs"])?;
            }
            "worker" => require(&[
                "worker",
                "seq",
                "final",
                "elements",
                "outputs",
                "connections",
                "frames",
                "bytes",
                "duplicates",
                "stalls",
            ])?,
            "shard" => require(&["worker", "shard", "consumed", "state_tuples", "emitted"])?,
            "summary" => {
                let name = match field(&fields, "kind", line_no)? {
                    JsonValue::Str(s) => s.clone(),
                    JsonValue::Num(_) => {
                        return Err(format!("line {line_no}: \"kind\" must be a string"))
                    }
                };
                if TraceKind::from_name(&name).is_none() {
                    return Err(format!("line {line_no}: unknown trace kind \"{name}\""));
                }
                require(&["count", "total_dur_ns"])?;
            }
            "hist" => {
                require(&["bucket", "lo", "hi", "count"])?;
                let JsonValue::Str(_) = field(&fields, "name", line_no)? else {
                    return Err(format!("line {line_no}: \"name\" must be a string"));
                };
            }
            "hist_summary" => {
                let name = match field(&fields, "name", line_no)? {
                    JsonValue::Str(s) => s.clone(),
                    JsonValue::Num(_) => {
                        return Err(format!("line {line_no}: \"name\" must be a string"))
                    }
                };
                require(&["count", "sum", "max", "p50", "p99"])?;
                if name == "tuple_emit" {
                    summary.tuple_emit_count = num(&fields, "count", line_no)?;
                }
            }
            "punct_span" => {
                require(&["seq", "side", "route_ns", "merge_ns", "workers"])?;
                summary
                    .spans
                    .push((num(&fields, "seq", line_no)?, num(&fields, "merge_ns", line_no)?));
            }
            "punct_stage" => {
                require(&["seq", "worker", "ingest_ns", "purge_ns", "sink_ns", "observe_ns"])?;
                *summary.stages.entry(num(&fields, "seq", line_no)?).or_insert(0) += 1;
            }
            "migration" => {
                require(&[
                    "epoch",
                    "shards",
                    "records_moved",
                    "puncts_reinjected",
                    "pause_ns",
                    "drain_ns",
                    "export_ns",
                    "install_ns",
                    "reinject_ns",
                ])?;
                summary.migrations += 1;
            }
            other => return Err(format!("line {line_no}: unknown line type \"{other}\"")),
        }
    }
    if !saw_cluster {
        return Err("no cluster line".into());
    }
    Ok(summary)
}

/// Recomputes the exactly-once punctuation property from a validated
/// telemetry dump alone: `pushed` distinct punctuations were routed, and
/// every one of them was merged downstream exactly once (one span per
/// sequence `0..pushed`, each carrying a merge stamp).
pub fn check_exactly_once(summary: &JsonlSummary, pushed: u64) -> Result<(), String> {
    if summary.puncts != pushed {
        return Err(format!("{} punctuations routed, expected {pushed}", summary.puncts));
    }
    if summary.merged != pushed {
        return Err(format!("{} punctuations merged, expected {pushed}", summary.merged));
    }
    if summary.spans.len() as u64 != pushed {
        return Err(format!("{} span lines, expected {pushed}", summary.spans.len()));
    }
    let mut seqs: Vec<u64> = summary.spans.iter().map(|&(s, _)| s).collect();
    seqs.sort_unstable();
    seqs.dedup();
    if seqs.len() as u64 != pushed {
        return Err("duplicate span sequences".into());
    }
    if let (Some(&first), Some(&last)) = (seqs.first(), seqs.last()) {
        if first != 0 || last != pushed - 1 {
            return Err(format!("span sequences not dense: {first}..={last}"));
        }
    }
    for &(seq, merge_ns) in &summary.spans {
        if merge_ns == 0 {
            return Err(format!("punctuation {seq} was never merged"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use punct_trace::{IngestCounters, ShardSnapshot};
    use std::time::Duration;

    /// A report from `worker` whose lifecycle lists are `records`
    /// (left, right).
    fn report(worker: u32, seq: u64, records: [Vec<PunctRecord>; 2]) -> WorkerTelemetry {
        let mut latencies = JoinLatencies::new();
        latencies.tuple_emit.record(10 + worker as u64);
        WorkerTelemetry {
            worker,
            seq,
            final_flush: false,
            elements: 100,
            outputs: 90,
            latencies,
            shards: vec![ShardSnapshot {
                shard: worker,
                consumed: 50,
                state_tuples: 5,
                emitted: 45,
            }],
            summaries: vec![KindSummary { kind: TraceKind::Purge.index(), count: 3, total_dur_ns: 900 }],
            lifecycle: records,
            ingest: IngestCounters { stalls: worker as u64, ..IngestCounters::default() },
        }
    }

    #[test]
    fn latest_report_wins_and_merges_exactly() {
        let mut t = ClusterTelemetry::new(2, TelemetrySettings::default());
        assert!(!t.ingest_report(0, report(0, 1, Default::default())));
        assert!(!t.ingest_report(0, report(0, 2, Default::default())));
        // A stale replay never regresses the kept snapshot.
        assert!(!t.ingest_report(0, report(0, 1, Default::default())));
        assert!(!t.ingest_report(1, report(1, 1, Default::default())));
        assert_eq!(t.worker(0).map(|r| r.seq), Some(2));
        let merged = t.merged_latencies();
        assert_eq!(merged.tuple_emit.count(), 2); // one per worker, not per report
        assert_eq!(t.total_elements(), 200);
        assert_eq!(t.total_stalls(), 1);
        let summaries = t.merged_summaries();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].count, 6);
        assert!(t.trace_active());
        assert_eq!(t.finals_pending(), vec![0, 1]);
    }

    #[test]
    fn span_assembly_normalizes_and_clamps() {
        let mut t = ClusterTelemetry::new(2, TelemetrySettings::default());
        // Worker 1's clock is 1 ms ahead.
        t.observe_clock(1, 1_000, 1_001_500, 2_000);
        t.note_route(0, 0, 10_000, &[1]);
        t.note_observe(1, 0, 90_000);
        t.note_merge(0, 95_000);
        let rec = PunctRecord {
            // Worker clock domain: true coordinator times 20k/30k/50k.
            ingest_ns: 1_020_000,
            purge_ns: 1_030_000,
            sink_ns: 1_050_000,
        };
        t.ingest_report(1, report(1, 1, [vec![rec], Vec::new()]));
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        let span = &spans[0];
        assert_eq!(span.route_ns, 10_000);
        assert_eq!(span.merge_ns, 95_000);
        assert_eq!(span.lag_ns(), 85_000);
        assert_eq!(span.workers.len(), 1);
        let lane = &span.workers[0];
        assert!(lane.complete(), "all stages stamped: {lane:?}");
        assert!(lane.monotone());
        assert!(lane.ingest_ns >= span.route_ns);
        assert!(lane.sink_ns <= lane.observe_ns);
        // Offset removed: stamps land near their true coordinator times.
        assert!(lane.ingest_ns.abs_diff(20_000) < 2_000, "{}", lane.ingest_ns);
    }

    #[test]
    fn reinjection_uses_the_latest_occurrence() {
        let mut t = ClusterTelemetry::new(2, TelemetrySettings::default());
        t.note_route(0, 0, 1_000, &[0, 1]);
        t.note_observe(0, 0, 2_000);
        // Migration: re-route to worker 0 only; worker 0 saw the
        // punctuation twice (two lifecycle records, the second complete).
        t.note_route(0, 0, 5_000, &[0]);
        t.note_observe(0, 0, 9_000);
        t.note_merge(0, 9_500);
        let first = PunctRecord { ingest_ns: 1_100, purge_ns: 1_200, sink_ns: 0 };
        let second = PunctRecord { ingest_ns: 6_000, purge_ns: 7_000, sink_ns: 8_000 };
        t.ingest_report(0, report(0, 1, [vec![first, second], Vec::new()]));
        let spans = t.spans();
        assert_eq!(spans[0].workers.len(), 1, "re-route replaced the lane set");
        let lane = &spans[0].workers[0];
        assert_eq!(lane.worker, 0);
        assert!(lane.complete());
        assert!(lane.ingest_ns >= 5_000, "the second record was used: {lane:?}");
    }

    #[test]
    fn a_re_route_clears_the_merge_stamp() {
        let mut t = ClusterTelemetry::new(1, TelemetrySettings::default());
        t.note_route(0, 0, 1_000, &[0]);
        t.note_merge(0, 2_000);
        // A crash dropped the merged output; the replay routes it again.
        t.note_route(0, 0, 3_000, &[0]);
        let spans = t.spans();
        assert_eq!(spans.len(), 1, "one span per sequence");
        assert_eq!(spans[0].merge_ns, 0, "the dropped merge no longer counts");
        t.note_merge(0, 4_000);
        assert_eq!(t.spans()[0].merge_ns, 4_000);
    }

    #[test]
    fn a_replacement_worker_stamps_only_what_it_received() {
        let mut t = ClusterTelemetry::new(1, TelemetrySettings::default());
        // Seq 0 reaches worker 0 and is committed; the worker dies
        // before reporting it.
        t.note_route(0, 0, 1_000, &[0]);
        t.note_merge(0, 1_500);
        t.reset_worker(0);
        // Its replacement receives seq 1 and reports one record: its
        // first punctuation on the left side.
        t.note_route(1, 0, 5_000, &[0]);
        t.note_observe(0, 1, 9_000);
        t.note_merge(1, 9_500);
        let rec = PunctRecord { ingest_ns: 6_000, purge_ns: 7_000, sink_ns: 8_000 };
        t.ingest_report(0, report(0, 0, [vec![rec], Vec::new()]));
        let spans = t.spans();
        let fresh = &spans[1].workers[0];
        assert!(fresh.complete(), "the replacement's copy owns the record: {fresh:?}");
        assert_eq!(fresh.ingest_ns, 6_000);
        let lost = &spans[0].workers[0];
        assert_eq!(
            (lost.ingest_ns, lost.purge_ns, lost.sink_ns),
            (0, 0, 0),
            "the dead worker's copy borrows no stamps: {lost:?}"
        );
    }

    #[test]
    fn jsonl_round_trips_through_validator() {
        let mut t = ClusterTelemetry::new(1, TelemetrySettings::default());
        t.note_route(0, 1, 100, &[0]);
        t.note_observe(0, 0, 300);
        t.note_merge(0, 400);
        let rec = PunctRecord { ingest_ns: 150, purge_ns: 200, sink_ns: 250 };
        let mut r = report(0, 3, [Vec::new(), vec![rec]]);
        r.final_flush = true;
        t.ingest_report(0, r);
        t.migrations.push(MigrationStats {
            epoch: 2,
            shards: 4,
            records_moved: 10,
            puncts_reinjected: 1,
            pause: Duration::from_millis(5),
            drain: Duration::from_millis(1),
            export: Duration::from_millis(1),
            install: Duration::from_millis(2),
            reinject: Duration::from_millis(1),
        });
        let dump = t.to_jsonl();
        let summary = validate_cluster_jsonl(&dump).expect("valid dump");
        assert_eq!(summary.workers, 1);
        assert_eq!(summary.puncts, 1);
        assert_eq!(summary.merged, 1);
        assert!(summary.trace_active);
        assert_eq!(summary.migrations, 1);
        assert_eq!(summary.stages.get(&0), Some(&1));
        assert!(!dump.contains("\"key\""), "spans carry no content key");
        assert_eq!(summary.tuple_emit_count, 1);
        check_exactly_once(&summary, 1).expect("exactly once");
        // A dump claiming more punctuations than were pushed fails.
        assert!(check_exactly_once(&summary, 2).is_err());
        // Corrupt lines are rejected.
        assert!(validate_cluster_jsonl("{\"type\":\"warp\"}").is_err());
        assert!(validate_cluster_jsonl("{\"no_type\":1}").is_err());
        assert!(validate_cluster_jsonl("").is_err(), "missing cluster line");
    }

    #[test]
    fn metrics_text_and_dashboard_render() {
        let mut t = ClusterTelemetry::new(2, TelemetrySettings::default());
        t.ingest_report(0, report(0, 1, Default::default()));
        t.ingest_report(1, report(1, 1, Default::default()));
        t.note_route(0, 0, 100, &[0, 1]);
        t.note_observe(0, 0, 200);
        t.note_observe(1, 0, 250);
        t.note_merge(0, 300);
        let text = t.metrics_text();
        assert!(text.contains("pjoin_worker_elements_total{worker=\"0\"} 100"));
        assert!(text.contains("pjoin_cluster_tuple_emit_us_bucket"));
        assert!(text.contains("pjoin_cluster_tuple_emit_us_count 2"));
        assert!(text.contains("pjoin_cluster_punctuations_total 1"));
        assert!(text.contains("pjoin_cluster_punctuations_merged_total 1"));
        let dash = t.dashboard_text(80);
        assert!(dash.contains("worker 0"));
        assert!(dash.contains("punct route -> merge lag"));
    }
}
