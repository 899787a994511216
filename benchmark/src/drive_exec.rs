//! Drives `punct_exec::ShardedPJoin` from one generator thread: the
//! saturated (closed-loop) repetition and the paced (open-loop) pass.

use std::time::{Duration, Instant};

use punct_exec::{ExecConfig, ExecStats, ShardedPJoin};
use punct_types::{StreamElement, Timestamped};

use crate::measure::{cpu_seconds, Spans};
use crate::oracle::Digest;
use crate::pace::{LatencyLog, Schedule};
use crate::workload::Input;

/// Elements per `push_batch` in the saturated phase.
pub const SATURATED_CHUNK: usize = 512;
/// Elements per `push_batch` in the paced phase.
pub const PACED_CHUNK: usize = 256;
/// The closed loop's window: elements pushed but not yet consumed by a
/// shard. Large enough that the shards never starve, small enough that
/// queues stay bounded like an unbounded stream's must.
pub const MAX_IN_FLIGHT: u64 = 32_768;
/// How long a paced pass waits for the shards to consume the last chunk
/// before it calls `finish` regardless (the counts then decide).
const DRAIN_LIMIT_NS: u64 = 5_000_000_000;
/// Shards = cores of the reference host; everything else is the default.
pub const SHARDS: usize = 2;

/// Output element counts of one pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub tuples: u64,
    pub puncts: u64,
}

impl Counts {
    pub fn add(&mut self, outputs: &[Timestamped<StreamElement>], mut digest: Option<&mut Digest>) {
        for o in outputs {
            if o.item.is_tuple() {
                self.tuples += 1;
            } else {
                self.puncts += 1;
            }
            if let Some(d) = digest.as_deref_mut() {
                d.add(&o.item);
            }
        }
    }
}

/// What one saturated repetition measured, whichever system ran it.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Exec: first push to `finish()` return (the cluster's differs, see
    /// `drive_cluster::SaturatedRep`).
    pub seconds: f64,
    pub cpu_seconds: f64,
    pub counts: Counts,
}

pub struct SaturatedRep {
    pub rep: Rep,
    /// Push rate over the last quarter of the stream over the first.
    pub late_vs_early: f64,
    pub stats: ExecStats,
}

fn chunks(stream: &[Input], size: usize) -> Vec<Vec<Input>> {
    stream.chunks(size).map(<[Input]>::to_vec).collect()
}

/// One closed-loop repetition on a fresh executor. With `digest`, every
/// output is folded into it (the verify pass); otherwise only counted.
pub fn saturated(
    config: ExecConfig,
    stream: &[Input],
    spans: &mut Spans,
    mut digest: Option<&mut Digest>,
) -> SaturatedRep {
    let chunks = chunks(stream, SATURATED_CHUNK);
    let exec = ShardedPJoin::spawn(config);
    let mut counts = Counts::default();
    let mut pushed = 0u64;
    let quarter = chunks.len().div_ceil(4).max(1);
    let mut quarter_marks = Vec::with_capacity(5);
    let cpu_start = cpu_seconds();
    let start = Instant::now();
    for (i, chunk) in chunks.into_iter().enumerate() {
        if i % quarter == 0 {
            quarter_marks.push((start.elapsed().as_secs_f64(), pushed));
        }
        counts.add(
            &spans.time("exec.recv", || exec.poll_outputs()),
            digest.as_deref_mut(),
        );
        while pushed - exec.metrics().consumed > MAX_IN_FLIGHT {
            let outs = spans.time("exec.recv", || exec.recv_outputs(Duration::from_millis(1)));
            counts.add(&outs, digest.as_deref_mut());
        }
        pushed += chunk.len() as u64;
        spans.time("exec.push", || exec.push_batch(chunk));
    }
    quarter_marks.push((start.elapsed().as_secs_f64(), pushed));
    let (rest, stats) = spans.time("exec.finish", || exec.finish());
    let seconds = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu_start;
    counts.add(&rest, digest);
    let rate = |a: (f64, u64), b: (f64, u64)| (b.1 - a.1) as f64 / (b.0 - a.0).max(1e-9);
    let m = &quarter_marks;
    let late_vs_early = if m.len() >= 3 {
        rate(m[m.len() - 2], m[m.len() - 1]) / rate(m[0], m[1])
    } else {
        1.0
    };
    SaturatedRep {
        rep: Rep {
            seconds,
            cpu_seconds: cpu,
            counts,
        },
        late_vs_early,
        stats,
    }
}

pub struct PacedPass {
    pub counts: Counts,
    /// Mean of `metrics().state_tuples`, sampled after every push, which
    /// the schedule spaces evenly in time.
    pub state_mean: f64,
    /// How late the generator pushed a chunk, at worst.
    pub sched_lag_max_ms: f64,
    /// Largest pushed-minus-consumed seen; growth means the rate is not
    /// sustainable and the latencies measure a queue, not the system.
    pub backlog_max: u64,
}

/// One open-loop pass on a fresh executor: each chunk is pushed at its
/// due time and the loop otherwise blocks in `recv_outputs` until the
/// next one is due. `clock` is the paced phase's clock (see
/// [`LatencyLog::record`]).
pub fn paced(
    config: ExecConfig,
    stream: &[Input],
    schedule: Schedule,
    log: &mut LatencyLog,
    clock: Instant,
    spans: &mut Spans,
) -> PacedPass {
    let chunks = chunks(stream, schedule.chunk);
    let exec = ShardedPJoin::spawn(config);
    let now_ns = || clock.elapsed().as_nanos() as u64;
    let pass_start = now_ns();
    let mut pass = PacedPass {
        counts: Counts::default(),
        state_mean: 0.0,
        sched_lag_max_ms: 0.0,
        backlog_max: 0,
    };
    let mut pushed = 0u64;
    let mut chunks = chunks.into_iter().peekable();
    let mut index = 0usize;
    let mut last_push_ns = pass_start;
    let mut state_sum = 0u64;
    loop {
        let since_start = now_ns() - pass_start;
        let wait_ns = match chunks.peek() {
            Some(_) => schedule.due_ns(index).saturating_sub(since_start),
            // Everything is pushed: wait until the shards have consumed
            // it and the pipe has gone quiet, so that `finish` only adds
            // the end-of-stream flush, which no input's latency owns.
            None => 2_000_000,
        };
        let pushing = wait_ns == 0;
        let outs = if pushing {
            let chunk = chunks.next().expect("peeked");
            let lag_ms = (since_start - schedule.due_ns(index)) as f64 / 1e6;
            pass.sched_lag_max_ms = pass.sched_lag_max_ms.max(lag_ms);
            index += chunk.len();
            pushed += chunk.len() as u64;
            spans.time("exec.push", || exec.push_batch(chunk));
            last_push_ns = now_ns();
            spans.time("exec.recv", || exec.poll_outputs())
        } else {
            spans.time("exec.recv", || {
                exec.recv_outputs(Duration::from_nanos(wait_ns))
            })
        };
        let metrics = exec.metrics();
        if pushing {
            state_sum += metrics.state_tuples as u64;
        }
        pass.backlog_max = pass
            .backlog_max
            .max(pushed.saturating_sub(metrics.consumed));
        pass.counts.add(&outs, None);
        log.record(&outs, pass_start, now_ns());
        if chunks.peek().is_none() && outs.is_empty() {
            let stuck = now_ns() - last_push_ns > DRAIN_LIMIT_NS;
            if metrics.consumed >= pushed || stuck {
                break;
            }
        }
    }
    let (rest, _) = spans.time("exec.finish", || exec.finish());
    pass.counts.add(&rest, None);
    pass.state_mean = state_sum as f64 / stream.len().div_ceil(schedule.chunk).max(1) as f64;
    pass
}
