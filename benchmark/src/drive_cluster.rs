//! Drives `punct_cluster::Cluster` over loopback TCP. Workers are
//! in-thread `run_worker` calls, so `/proc/self` CPU time covers the
//! coordinator and both workers.

use std::thread::JoinHandle;
use std::time::Instant;

use punct_cluster::{
    run_worker, Cluster, ClusterError, ClusterOptions, ClusterReport, JoinSpec, TelemetrySettings,
    WorkerOptions, WorkerReport,
};

use crate::drive_exec::{Counts, Rep, PACED_CHUNK};
use crate::measure::{cpu_seconds, Spans};
use crate::oracle::Digest;
use crate::pace::{LatencyLog, Schedule};
use crate::workload::Input;

pub const WORKERS: usize = 2;
/// `poll_outputs` once per this many pushes when saturated: the cadence
/// `examples/cluster.rs` and `punct-coordinator` use.
pub const POLL_EVERY: usize = 128;
/// Consecutive empty polls after the last push before a pass calls
/// `finish` (each poll already waits 1 ms per worker sink).
const QUIET_POLLS: u32 = 25;
/// Workers report every 100 ms, as in `examples/cluster.rs`; the default
/// second would give a paced pass a handful of state samples.
const TELEMETRY: TelemetrySettings = TelemetrySettings {
    enabled: true,
    interval_ms: 100,
    trace: true,
};

type Workers = Vec<JoinHandle<Result<WorkerReport, ClusterError>>>;

/// `bind` + worker start + `accept_workers` with the default options but
/// for [`TELEMETRY`]: durability stays off, since it withholds outputs
/// until the next cut.
pub fn assemble(widths: (usize, usize)) -> (Cluster, Workers) {
    let mut opts = ClusterOptions::new(JoinSpec::new(widths.0, widths.1), WORKERS, WORKERS);
    opts.telemetry = TELEMETRY;
    let mut cluster = Cluster::bind(opts).expect("bind coordinator");
    let ctrl = cluster.ctrl_addr();
    let workers = (0..WORKERS as u32)
        .map(|i| std::thread::spawn(move || run_worker(WorkerOptions::new(i, ctrl))))
        .collect();
    cluster.accept_workers().expect("assemble cluster");
    (cluster, workers)
}

pub fn join_workers(workers: Workers) {
    for w in workers {
        w.join().expect("worker thread").expect("worker");
    }
}

pub struct SaturatedRep {
    /// `seconds`: first push to the last output received before `finish`. The
    /// `finish` handshake is left out: it waits on 250 ms ack probes whose
    /// number depends on each sender's element count, not on the load,
    /// and an unbounded stream never pays it. `cluster.finish_s` has it.
    pub rep: Rep,
    pub empty_polls: u64,
    pub report: ClusterReport,
}

/// What a repetition's `poll_outputs` calls have delivered so far.
struct Polled<'a> {
    counts: Counts,
    empty_polls: u64,
    digest: Option<&'a mut Digest>,
}

impl Polled<'_> {
    /// One `poll_outputs`; whether it delivered anything.
    fn poll(&mut self, cluster: &mut Cluster, spans: &mut Spans) -> bool {
        let outs = spans
            .time("cluster.poll", || cluster.poll_outputs())
            .expect("poll");
        self.empty_polls += outs.is_empty() as u64;
        self.counts.add(&outs, self.digest.as_deref_mut());
        !outs.is_empty()
    }
}

/// One closed-loop repetition on a freshly assembled cluster.
pub fn saturated(
    widths: (usize, usize),
    stream: &[Input],
    spans: &mut Spans,
    digest: Option<&mut Digest>,
) -> SaturatedRep {
    let inputs = stream.to_vec();
    let (mut cluster, workers) = assemble(widths);
    let mut polled = Polled {
        counts: Counts::default(),
        empty_polls: 0,
        digest,
    };
    let cpu_start = cpu_seconds();
    let start = Instant::now();
    for (i, (side, e)) in inputs.into_iter().enumerate() {
        spans
            .time("cluster.push", || cluster.push(side, e))
            .expect("push");
        if (i + 1) % POLL_EVERY == 0 {
            polled.poll(&mut cluster, spans);
        }
    }
    let (mut seconds, mut cpu) = (start.elapsed().as_secs_f64(), cpu_seconds() - cpu_start);
    let mut quiet = 0;
    while quiet < QUIET_POLLS {
        if polled.poll(&mut cluster, spans) {
            quiet = 0;
            (seconds, cpu) = (start.elapsed().as_secs_f64(), cpu_seconds() - cpu_start);
        } else {
            quiet += 1;
        }
    }
    let mut report = spans
        .time("cluster.finish", || cluster.finish())
        .expect("finish");
    let Polled {
        mut counts,
        empty_polls,
        digest,
    } = polled;
    counts.add(&std::mem::take(&mut report.outputs), digest);
    join_workers(workers);
    SaturatedRep {
        rep: Rep {
            seconds,
            cpu_seconds: cpu,
            counts,
        },
        empty_polls,
        report,
    }
}

pub struct PacedPass {
    pub counts: Counts,
    /// Mean over loop turns of the sum of the workers' latest reported
    /// shard occupancy, which is [`TELEMETRY`]'s interval old at worst.
    pub state_mean: f64,
    pub sched_lag_max_ms: f64,
}

/// One open-loop pass: push everything now due, then `poll_outputs`.
pub fn paced(
    widths: (usize, usize),
    stream: &[Input],
    schedule: Schedule,
    log: &mut LatencyLog,
    clock: Instant,
    spans: &mut Spans,
) -> PacedPass {
    debug_assert_eq!(schedule.chunk, PACED_CHUNK);
    let (mut cluster, workers) = assemble(widths);
    let mut inputs = stream.iter().cloned().enumerate().peekable();
    let now_ns = || clock.elapsed().as_nanos() as u64;
    let pass_start = now_ns();
    let mut pass = PacedPass {
        counts: Counts::default(),
        state_mean: 0.0,
        sched_lag_max_ms: 0.0,
    };
    let (mut state_sum, mut state_samples) = (0u64, 0u64);
    let mut quiet = 0;
    while quiet < QUIET_POLLS {
        let since_start = now_ns() - pass_start;
        while let Some((i, (side, e))) = inputs.next_if(|(i, _)| schedule.due_ns(*i) <= since_start)
        {
            let lag_ms = (since_start - schedule.due_ns(i)) as f64 / 1e6;
            pass.sched_lag_max_ms = pass.sched_lag_max_ms.max(lag_ms);
            spans
                .time("cluster.push", || cluster.push(side, e))
                .expect("push");
        }
        let outs = spans
            .time("cluster.poll", || cluster.poll_outputs())
            .expect("poll");
        quiet = if inputs.peek().is_none() && outs.is_empty() {
            quiet + 1
        } else {
            0
        };
        pass.counts.add(&outs, None);
        log.record(&outs, pass_start, now_ns());
        // Sampled while input still flows; before the first report there
        // is nothing to sample.
        let telemetry = cluster.telemetry();
        let reports: Vec<_> = (0..WORKERS).filter_map(|w| telemetry.worker(w)).collect();
        if inputs.peek().is_some() && !reports.is_empty() {
            state_sum += reports
                .iter()
                .flat_map(|r| &r.shards)
                .map(|s| s.state_tuples)
                .sum::<u64>();
            state_samples += 1;
        }
    }
    pass.state_mean = state_sum as f64 / state_samples.max(1) as f64;
    let report = spans
        .time("cluster.finish", || cluster.finish())
        .expect("finish");
    pass.counts.add(&report.outputs, None);
    join_workers(workers);
    pass
}
