//! One run of one workload: set-up, the untimed verify pass, the
//! saturated repetitions before and after the paced phase and, when
//! traced, the layer lanes.

use std::time::Instant;

use pjoin::framework::Component;
use punct_cluster::ClusterReport;
use punct_exec::ExecConfig;

use crate::drive_cluster;
use crate::drive_exec::{self, Counts, Rep, PACED_CHUNK, SHARDS};
use crate::lanes;
use crate::measure::{median, percentile, AllocWindow, Spans};
use crate::oracle::{self, Digest, OracleRun};
use crate::pace::{LatencyLog, Schedule};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::workload::{Input, Target, Workload};

/// Saturated repetitions before the paced phase, at least, and again
/// after it (untraced runs).
const MIN_SATURATED_REPS: usize = 2;
/// Share of a run's `--seconds` each block of saturated repetitions
/// gets; the paced phase between them gets the rest.
const SATURATED_SHARE: f64 = 0.3;
/// Elements of the stream the `net` lane replays, at most.
const NET_PREFIX: usize = 40_000;

pub struct Outcome {
    pub report: Report,
    /// Output elements the oracle expects, over every checked pass.
    pub attempted: u64,
    /// Of those, missing, extra or duplicated.
    pub failed: u64,
}

/// Books a pass's output counts against the oracle's.
struct Checker<'a> {
    expected: &'a Digest,
    attempted: u64,
    failed: u64,
}

impl Checker<'_> {
    fn counts(&mut self, what: &str, got: Counts) {
        self.attempted += self.expected.elements();
        let (tuples, puncts) = (self.expected.tuples, self.expected.puncts());
        if got.tuples != tuples || got.puncts != puncts {
            eprintln!(
                "{what}: {} tuples + {} punctuations, oracle has {tuples} + {puncts}",
                got.tuples, got.puncts
            );
            self.failed += got.tuples.abs_diff(tuples) + got.puncts.abs_diff(puncts);
        }
    }
}

struct Setup {
    stream: Vec<Input>,
    gen_s: f64,
    oracle: OracleRun,
    seconds: f64,
}

fn setup(w: &Workload, seed: u64, scale: usize) -> Setup {
    let start = Instant::now();
    let stream = w.generate(seed, scale);
    let gen_s = start.elapsed().as_secs_f64();
    let oracle = oracle::run(w.join_config(), &stream, None);
    let assembled = (w.target == Target::Cluster).then(|| drive_cluster::assemble(w.widths()));
    let seconds = start.elapsed().as_secs_f64();
    if let Some((cluster, workers)) = assembled {
        cluster.finish().expect("finish idle cluster");
        drive_cluster::join_workers(workers);
    }
    Setup {
        stream,
        gen_s,
        oracle,
        seconds,
    }
}

/// One saturated repetition with what only its system reports.
enum Detail {
    Exec(drive_exec::SaturatedRep),
    Cluster(drive_cluster::SaturatedRep),
}

impl Detail {
    fn rep(&self) -> Rep {
        match self {
            Detail::Exec(r) => r.rep,
            Detail::Cluster(r) => r.rep,
        }
    }
}

/// The saturated repetitions of a run. A traced run alternates untraced
/// and traced repetitions so that both see the same machine.
struct Saturated<'a> {
    w: &'a Workload,
    stream: &'a [Input],
    traced: bool,
    reps: usize,
    plain: Vec<Rep>,
    with_trace: Vec<Rep>,
    /// Spans of the traced repetitions whose time is used.
    spans: Spans,
    traced_detail: Option<Detail>,
    empty_polls: u64,
    /// `(allocations, peak bytes)` of the one repetition that counts them.
    alloc_stats: (u64, u64),
}

impl Saturated<'_> {
    fn exec_config(&self, tracing: bool) -> ExecConfig {
        let join = self.w.join_config();
        ExecConfig::new(SHARDS, if tracing { join.with_tracing() } else { join })
    }

    /// One repetition on a fresh system; `spans` on means traced.
    fn one(&self, spans: &mut Spans, digest: Option<&mut Digest>) -> Detail {
        match self.w.target {
            Target::Exec => Detail::Exec(drive_exec::saturated(
                self.exec_config(spans.on()),
                self.stream,
                spans,
                digest,
            )),
            Target::Cluster => Detail::Cluster(drive_cluster::saturated(
                self.w.widths(),
                self.stream,
                spans,
                digest,
            )),
        }
    }

    /// Whole-stream repetitions until the next would overrun `budget`.
    fn run_for(&mut self, budget: f64, check: &mut Checker) {
        let phase = Instant::now();
        // A traced run needs one of each kind, and once the counting one.
        let min_reps = self.reps
            + match (self.traced, self.reps) {
                (false, _) => MIN_SATURATED_REPS,
                (true, 0) => 3,
                (true, _) => 2,
            };
        let mut last_iteration = 0.0;
        while self.reps < min_reps || phase.elapsed().as_secs_f64() + last_iteration <= budget {
            let iteration = Instant::now();
            let tracing = self.traced && self.reps % 2 == 1;
            // The first traced repetition also counts allocations, which
            // costs more than tracing does, so its time is not used.
            let counting = self.traced && self.reps == 1;
            let mut spans = if counting {
                Spans::new(true)
            } else if tracing {
                std::mem::take(&mut self.spans)
            } else {
                Spans::new(false)
            };
            let window = counting.then(AllocWindow::begin);
            let detail = self.one(&mut spans, None);
            check.counts("saturated repetition", detail.rep().counts);
            if let Some(window) = window {
                self.alloc_stats = window.end();
            } else if tracing {
                self.spans = spans;
                self.with_trace.push(detail.rep());
                if let Detail::Cluster(r) = &detail {
                    self.empty_polls += r.empty_polls;
                }
                self.traced_detail = Some(detail);
            } else {
                self.plain.push(detail.rep());
            }
            self.reps += 1;
            last_iteration = iteration.elapsed().as_secs_f64();
        }
    }

    /// Elements per second of the fastest of `reps`. Whatever else the
    /// host runs only ever slows a repetition down, so the best one is
    /// the system on an undisturbed host as long as the run met one for
    /// the length of a repetition (see README.md).
    fn rate(reps: &[Rep], n: f64) -> f64 {
        Self::rates(reps, n).into_iter().fold(0.0, f64::max)
    }

    fn rates(reps: &[Rep], n: f64) -> Vec<f64> {
        reps.iter().map(|r| n / r.seconds).collect()
    }

    /// CPU microseconds per element of each of `reps`.
    fn cpu_us(reps: &[Rep], n: f64) -> Vec<f64> {
        reps.iter().map(|r| r.cpu_seconds * 1e6 / n).collect()
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool, scale: usize) -> Outcome {
    let mut report = Report::default();

    let Setup {
        stream,
        gen_s,
        oracle,
        seconds: first_setup,
    } = setup(w, seed, scale);
    let mut setups = vec![first_setup];
    let n = stream.len() as f64;
    let puncts = stream
        .iter()
        .filter(|(_, e)| e.item.is_punctuation())
        .count();
    println!(
        "{}: {} elements ({puncts} punctuations), oracle {} tuples + {} punctuations",
        w.name,
        stream.len(),
        oracle.digest.tuples,
        oracle.digest.puncts(),
    );
    let mut check = Checker {
        expected: &oracle.digest,
        attempted: 0,
        failed: 0,
    };
    let mut saturated = Saturated {
        w,
        stream: &stream,
        traced,
        reps: 0,
        plain: Vec::new(),
        with_trace: Vec::new(),
        spans: Spans::new(true),
        traced_detail: None,
        empty_polls: 0,
        alloc_stats: (0, 0),
    };

    // Verify pass: untimed, warms the process up, checks every output.
    let mut got = Digest::default();
    saturated.one(&mut Spans::new(false), Some(&mut got));
    check.attempted += oracle.digest.elements();
    check.failed += got.failed_against(&oracle.digest, "verify pass");

    // The host slows down for seconds to a minute at a time (see
    // README.md), so the saturated repetitions are split around the paced
    // phase, with the other set-ups in between: a run then has two
    // stretches, half a run apart, in which to meet the undisturbed host
    // that its best repetition reports.
    saturated.run_for(seconds * SATURATED_SHARE, &mut check);
    if !traced {
        setups.push(setup(w, seed, scale).seconds);
    }

    // Paced phase: whole-stream passes at the workload's fixed rate for
    // what the two saturated blocks leave of the run.
    let paced_seconds = seconds * (1.0 - 2.0 * SATURATED_SHARE);
    let schedule = Schedule {
        chunk: PACED_CHUNK,
        rate: w.paced_rate,
    };
    let mut log = LatencyLog::new(schedule, &stream, w.widths().0, w.latency_limit_ms);
    let clock = Instant::now();
    let pass_seconds = n / w.paced_rate;
    let (mut state_means, mut sched_lag_max_ms, mut backlog_max) = (Vec::new(), 0.0f64, 0u64);
    let mut paced_spans = Spans::new(traced);
    while state_means.is_empty() || clock.elapsed().as_secs_f64() + pass_seconds <= paced_seconds {
        log.next_pass();
        let (counts, state_mean, lag) = match w.target {
            Target::Exec => {
                let config = saturated.exec_config(traced);
                let p =
                    drive_exec::paced(config, &stream, schedule, &mut log, clock, &mut paced_spans);
                backlog_max = backlog_max.max(p.backlog_max);
                (p.counts, p.state_mean, p.sched_lag_max_ms)
            }
            Target::Cluster => {
                let p = drive_cluster::paced(
                    w.widths(),
                    &stream,
                    schedule,
                    &mut log,
                    clock,
                    &mut paced_spans,
                );
                (p.counts, p.state_mean, p.sched_lag_max_ms)
            }
        };
        check.counts("paced pass", counts);
        state_means.push(state_mean);
        sched_lag_max_ms = sched_lag_max_ms.max(lag);
    }
    let passes = state_means.len();
    let result = log.result_latency();
    let punct = log.punct_latency();
    let on_time_share = log.on_time_share(oracle.digest.tuples);
    println!(
        "{}: paced {passes} passes at {} el/s, generator at most {sched_lag_max_ms:.3} ms late, backlog at most {backlog_max} elements",
        w.name, w.paced_rate
    );
    println!(
        "{}: result latency p50 {:.3} ms, p99 {:.3} ms ({} samples, {} half-second windows); punctuation latency p50 {:.3} ms, p99 {:.3} ms ({} samples, {} windows)",
        w.name, result.p50_ms, result.p99_ms, result.samples, result.windows,
        punct.p50_ms, punct.p99_ms, punct.samples, punct.windows
    );

    if !traced {
        setups.push(setup(w, seed, scale).seconds);
    }
    saturated.run_for(seconds * SATURATED_SHARE, &mut check);
    let reps = &saturated.plain;
    println!(
        "{}: saturated repetitions, el/s in run order: {:.0?}; CPU us per element: {:.2?}; set-ups {setups:.3?} s",
        w.name,
        Saturated::rates(reps, n),
        Saturated::cpu_us(reps, n)
    );
    let elems_per_s = Saturated::rate(reps, n);
    let cpu_us_per_elem = Saturated::cpu_us(reps, n)
        .into_iter()
        .fold(f64::INFINITY, f64::min);

    if !traced {
        report.set("elems_per_s", elems_per_s);
        report.set("on_time_share", on_time_share);
        report.set("state_mean_tuples", median(&mut state_means));
        report.set("setup_s", median(&mut setups));
        report.print(w.name, END_TO_END);
        return Outcome {
            report,
            attempted: check.attempted,
            failed: check.failed,
        };
    }

    // ---- per-layer metrics -------------------------------------------
    report.set("streamgen.gen_s", gen_s);
    report.set("streamgen.elems", n);
    report.set("streamgen.punct_share", puncts as f64 / n);
    report.set("streamgen.sched_lag_max_ms", sched_lag_max_ms);

    // core: the untraced oracle gives rate and exact counts, a traced one
    // the component times; it also yields the resident set the storage
    // and durable lanes are sized from.
    let snapshot_at = stream.len() * 3 / 4;
    let profiled = oracle::run(w.join_config().with_tracing(), &stream, Some(snapshot_at));
    let component = |c| profiled.profile.component(c).wall_ns as f64 / 1e9;
    let (purge, index, propagation) = (
        component(Component::StatePurge),
        component(Component::IndexBuild),
        component(Component::Propagation),
    );
    let tuples_in = n - puncts as f64;
    report.set("core.single_thread_elems_per_s", n / oracle.seconds);
    report.set(
        "core.memory_join_s",
        (profiled.seconds - purge - index - propagation).max(0.0),
    );
    report.set("core.purge_s", purge);
    report.set("core.index_build_s", index);
    report.set("core.propagation_s", propagation);
    report.set(
        "core.probe_cmps_per_elem",
        oracle.work.probe_cmps as f64 / n,
    );
    report.set(
        "core.index_evals_per_elem",
        oracle.work.index_evals as f64 / n,
    );
    report.set(
        "core.purge_scanned_per_elem",
        oracle.work.purge_scanned as f64 / n,
    );
    report.set("core.outputs_per_elem", oracle.work.outputs as f64 / n);
    report.set(
        "core.dropped_on_fly_share",
        oracle.stats.dropped_on_fly as f64 / tuples_in.max(1.0),
    );
    report.set("core.state_peak_tuples", oracle.state_peak as f64);
    report.set(
        "core.late_vs_early_rate",
        oracle.quarter_seconds[0] / oracle.quarter_seconds[3],
    );

    let traced_rate = Saturated::rate(&saturated.with_trace, n);
    report.set(
        "trace.overhead_pct",
        (elems_per_s / traced_rate - 1.0) * 100.0,
    );

    let spans = &saturated.spans;
    let traced_reps = saturated.with_trace.len() as f64;
    let (layer, bypassed) = match w.target {
        Target::Exec => ("exec", "cluster."),
        Target::Cluster => ("cluster", "exec."),
    };
    report.set_in(layer, "result_latency_p50_ms", result.p50_ms);
    report.set_in(layer, "result_latency_p99_ms", result.p99_ms);
    report.set_in(layer, "punct_latency_p50_ms", punct.p50_ms);
    report.set_in(layer, "punct_latency_p99_ms", punct.p99_ms);
    report.set_in(layer, "cpu_us_per_elem", cpu_us_per_elem);
    report.bypass(bypassed);
    match saturated
        .traced_detail
        .take()
        .expect("a traced repetition ran")
    {
        Detail::Exec(drive_exec::SaturatedRep {
            late_vs_early,
            stats,
            ..
        }) => {
            let consumed: Vec<f64> = stats
                .shards
                .iter()
                .map(|s| s.metrics.consumed as f64)
                .collect();
            let mean = consumed.iter().sum::<f64>() / consumed.len() as f64;
            report.set("exec.push_s", spans.seconds("exec.push") / traced_reps);
            report.set("exec.recv_s", spans.seconds("exec.recv") / traced_reps);
            report.set("exec.finish_s", spans.seconds("exec.finish") / traced_reps);
            report.set("exec.speedup_vs_core", elems_per_s / (n / oracle.seconds));
            report.set(
                "exec.shard_imbalance",
                consumed.iter().cloned().fold(0.0, f64::max) / mean,
            );
            report.set(
                "exec.aligner_acq_per_elem",
                stats.aligner_acquisitions as f64 / n,
            );
            report.set("exec.allocs_per_elem", saturated.alloc_stats.0 as f64 / n);
            report.set(
                "exec.peak_heap_mb",
                saturated.alloc_stats.1 as f64 / (1 << 20) as f64,
            );
            report.set("exec.backlog_max_elems", backlog_max as f64);
            report.set("exec.late_vs_early_rate", late_vs_early);
        }
        Detail::Cluster(drive_cluster::SaturatedRep {
            report: cluster, ..
        }) => {
            let wall: f64 = saturated.with_trace.iter().map(|r| r.seconds).sum();
            let cpu: f64 = saturated.with_trace.iter().map(|r| r.cpu_seconds).sum();
            let cores = std::thread::available_parallelism().map_or(1, |c| c.get()) as f64;
            let polls = (spans.calls("cluster.poll") as f64).max(1.0);
            report.set(
                "cluster.push_s",
                spans.seconds("cluster.push") / traced_reps,
            );
            report.set(
                "cluster.poll_s",
                spans.seconds("cluster.poll") / traced_reps,
            );
            report.set(
                "cluster.finish_s",
                spans.seconds("cluster.finish") / traced_reps,
            );
            report.set(
                "cluster.poll_ms_per_call",
                spans.seconds("cluster.poll") * 1e3 / polls,
            );
            report.set(
                "cluster.empty_poll_share",
                saturated.empty_polls as f64 / polls,
            );
            report.set("cluster.cpu_busy_share", cpu / (wall * cores));
            report.set(
                "cluster.sender_reconnects",
                cluster.sender_reconnects as f64,
            );
            cluster_stage_spans(&cluster, &mut report);
        }
    }

    let mut lane_spans = Spans::new(true);
    lanes::types(&stream, &mut lane_spans, &mut report);
    let resident = profiled.resident;
    lanes::storage(
        &resident,
        &stream[snapshot_at..],
        &mut lane_spans,
        &mut report,
    );
    lanes::durable(&resident, seed, &mut lane_spans, &mut report);
    let prefix = w.net_lane_stream(seed, scale, &stream, NET_PREFIX);
    lanes::net(w, &prefix, &mut report);
    let cluster_tax = match w.target {
        Target::Cluster => report.get("net.elems_per_s") / elems_per_s,
        Target::Exec => 0.0,
    };
    report.set("cluster.tax_vs_net", cluster_tax);

    report.print(w.name, PER_LAYER);
    Outcome {
        report,
        attempted: check.attempted,
        failed: check.failed,
    }
}

/// p50 of each stage of a punctuation's way through the cluster, from
/// `ClusterReport.telemetry.spans()`: one sample per worker lane.
fn cluster_stage_spans(cluster: &ClusterReport, report: &mut Report) {
    let mut stages: [Vec<u32>; 5] = Default::default();
    let us =
        |from: u64, to: u64| u32::try_from(to.saturating_sub(from) / 1_000).unwrap_or(u32::MAX);
    for span in cluster.telemetry.spans() {
        for lane in span.workers.iter().filter(|l| l.complete()) {
            stages[0].push(us(span.route_ns, lane.ingest_ns));
            stages[1].push(us(lane.ingest_ns, lane.purge_ns));
            stages[2].push(us(lane.purge_ns, lane.sink_ns));
            stages[3].push(us(lane.sink_ns, lane.observe_ns));
            if span.merge_ns > 0 {
                stages[4].push(us(lane.observe_ns, span.merge_ns));
            }
        }
    }
    let names = [
        "cluster.span_route_to_ingest_ms",
        "cluster.span_ingest_to_purge_ms",
        "cluster.span_purge_to_sink_ms",
        "cluster.span_sink_to_observe_ms",
        "cluster.span_observe_to_merge_ms",
    ];
    for (name, samples) in names.into_iter().zip(&mut stages) {
        let p50 = if samples.is_empty() {
            0.0
        } else {
            percentile(samples, 0.5) as f64 / 1e3
        };
        report.set(name, p50);
    }
}
