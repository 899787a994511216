//! The shard worker: one thread running an independent [`PJoin`] over a
//! key subspace — the paper's §3.6 execution model, the memory join as
//! the main thread of its shard: each batch is fed to the operator
//! element by element in arrival order and its outputs are drained once
//! at the end (a batch amortizes the channel send, the metrics publish
//! and the blocks joined tuples share — [`OpOutput::push_joined`] —
//! nothing else), idle slots run background work (disk joins, time-based
//! propagation), and finish drains the operator's end-of-stream protocol.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use pjoin::framework::FrameworkProfile;
use pjoin::{PJoin, PJoinConfig, PJoinStats};
use punct_trace::TraceLog;
use punct_types::{StreamElement, Timestamp, Timestamped};
use stream_sim::{BinaryStreamOp, OpOutput, Side, Work};

use crate::metrics::{RuntimeMetrics, ShardMetrics};

/// One element routed to a shard, with the routing decision's byproducts
/// carried along so downstream layers never recompute them.
#[derive(Debug, Clone)]
pub struct RoutedElement {
    /// Which input stream the element arrived on.
    pub side: Side,
    /// The element and its ingest timestamp.
    pub element: Timestamped<StreamElement>,
    /// The join hash ([`punct_types::Value::join_hash`]) the router
    /// computed for shard selection — reused verbatim by the shard's
    /// store for bucketing (single-hash invariant). `None` for
    /// punctuations and unjoinable keys.
    pub hash: Option<u64>,
}

/// A message from the router to a shard.
#[derive(Debug)]
pub enum ShardMsg {
    /// A non-empty batch of elements plus the router's routing
    /// watermark — the largest ingest timestamp routed *anywhere* when
    /// the batch was flushed. Shards fold it into their element clock,
    /// which idle work and the end-of-stream protocol run at and which
    /// stamps their outputs.
    Batch {
        /// Elements for this shard, in global arrival order.
        elements: Vec<RoutedElement>,
        /// Router watermark at flush time.
        watermark: Timestamp,
    },
    /// End of input: run the end-of-stream protocol and shut down.
    Finish,
    /// Panic the shard thread. Fault-injection hook for the executor's
    /// failure-propagation tests — never sent by the router.
    #[doc(hidden)]
    Die,
}

/// An event from a shard to the merger. All shards share one bounded
/// channel; within a shard, events are emitted in order.
#[derive(Debug)]
pub enum ShardEvent {
    /// A non-empty batch of join outputs (tuples and shard-propagated
    /// punctuations), stamped with the shard's element clock — one
    /// channel send per processed batch that produced anything. The
    /// shard is the only writer of these handles: the merger moves or
    /// filters the `Vec` and the caller adopts it.
    Outputs {
        /// Shard index.
        shard: usize,
        /// The batch of outputs, in shard order.
        outputs: Vec<Timestamped<StreamElement>>,
        /// How many of `outputs` are punctuations, counted while
        /// stamping: zero lets the merger forward the batch untouched.
        puncts: usize,
    },
    /// The shard finished its end-of-stream protocol and exited.
    Done(usize),
}

/// Final accounting returned by a shard thread on join.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// The operator's lifetime statistics.
    pub stats: PJoinStats,
    /// Total modeled work performed by this shard's operator — the per-
    /// shard critical-path input for virtual-time scaling analysis.
    pub work: Work,
    /// Final runtime metrics (consumed / state / emitted / latencies;
    /// the latency histograms are empty unless tracing was enabled and
    /// merge exactly across shards).
    pub metrics: RuntimeMetrics,
    /// The framework profile: per-component wall/virtual cost and event
    /// counts (empty unless tracing was enabled).
    pub profile: FrameworkProfile,
    /// The shard's trace events (empty unless tracing was enabled).
    pub trace: TraceLog,
}

/// How often an idle shard polls for background work.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// The shard thread body.
pub(crate) fn shard_loop(
    shard: usize,
    config: PJoinConfig,
    rx: Receiver<ShardMsg>,
    events: Sender<ShardEvent>,
    recycle: Sender<Vec<RoutedElement>>,
    metrics: Arc<ShardMetrics>,
) -> ShardReport {
    let mut join = PJoin::new(config);
    join.tracer_mut().set_lane(shard as u32);
    let mut out = OpOutput::new();
    // Per batch: `(out.len(), clock)` after each element that produced
    // outputs — which stretch of the batch's one drain gets which stamp.
    let mut marks: Vec<(usize, Timestamp)> = Vec::new();
    let mut last_ts = Timestamp::ZERO;
    let mut consumed = 0u64;
    let mut emitted = 0u64;

    let publish = |join: &PJoin, consumed: u64, emitted: u64| {
        metrics.publish(consumed, join.state_tuples(), join.punctuations_held(), emitted);
        if join.tracing_enabled() {
            metrics.publish_latencies(join.latencies());
        }
    };

    loop {
        match rx.recv_timeout(IDLE_POLL) {
            Ok(ShardMsg::Batch { mut elements, watermark }) => {
                consumed += elements.len() as u64;
                // Each element's outputs carry that element's shard
                // clock, so an output's timestamp names the newest input
                // that produced it. The outputs stay in `out` until the
                // batch ends, so joined tuples of neighbouring elements
                // share blocks and the merger's thread frees one
                // allocation per block, not per element.
                marks.clear();
                for RoutedElement { side, element: e, hash } in elements.drain(..) {
                    last_ts = last_ts.max(e.ts);
                    join.on_element_prehashed(side, e.item, e.ts, hash, &mut out);
                    if out.len() > marks.last().map_or(0, |m| m.0) {
                        marks.push((out.len(), last_ts));
                    }
                }
                let mut outputs = Vec::with_capacity(out.len());
                let mut puncts = 0;
                let mut drained = out.drain();
                for &(end, ts) in &marks {
                    let n = end - outputs.len();
                    outputs.extend(drained.by_ref().take(n).map(|e| {
                        puncts += usize::from(e.is_punctuation());
                        Timestamped::new(ts, e)
                    }));
                }
                // Hand the drained batch buffer back to the router for
                // reuse (best effort: a full recycle channel just drops
                // the buffer and the router allocates a fresh one).
                if elements.capacity() > 0 {
                    let _ = recycle.try_send(elements);
                }
                last_ts = last_ts.max(watermark);
                emitted += outputs.len() as u64;
                publish(&join, consumed, emitted);
                if !send_outputs(&events, shard, outputs, puncts) {
                    break; // merger gone: executor torn down
                }
            }
            Ok(ShardMsg::Finish) => {
                let mut outputs = Vec::new();
                let mut puncts = 0;
                while join.on_end(last_ts, &mut out) {
                    puncts += stamp_into(&mut out, last_ts, &mut outputs);
                }
                puncts += stamp_into(&mut out, last_ts, &mut outputs);
                emitted += outputs.len() as u64;
                publish(&join, consumed, emitted);
                send_outputs(&events, shard, outputs, puncts);
                break;
            }
            Ok(ShardMsg::Die) => panic!("shard {shard} killed by test hook"),
            Err(RecvTimeoutError::Timeout) => {
                if join.on_idle(last_ts, &mut out) {
                    let mut outputs = Vec::new();
                    let puncts = stamp_into(&mut out, last_ts, &mut outputs);
                    emitted += outputs.len() as u64;
                    publish(&join, consumed, emitted);
                    if !send_outputs(&events, shard, outputs, puncts) {
                        break;
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => break, // router gone
        }
    }

    let work = join.take_work();
    let report = ShardReport {
        shard,
        stats: *join.stats(),
        work,
        metrics: RuntimeMetrics {
            consumed,
            state_tuples: join.state_tuples(),
            puncts_held: join.punctuations_held(),
            emitted,
            latencies: *join.latencies(),
        },
        profile: *join.profile(),
        trace: join.take_trace(),
    };
    let _ = events.send(ShardEvent::Done(shard));
    report
}

/// Sends `outputs` to the merger unless there are none. False once the
/// merger is gone.
fn send_outputs(
    events: &Sender<ShardEvent>,
    shard: usize,
    outputs: Vec<Timestamped<StreamElement>>,
    puncts: usize,
) -> bool {
    outputs.is_empty() || events.send(ShardEvent::Outputs { shard, outputs, puncts }).is_ok()
}

/// Moves the operator's pending outputs into `outputs`, stamped with the
/// shard's element clock (monotone per shard). Returns how many of them
/// are punctuations.
fn stamp_into(
    out: &mut OpOutput,
    ts: Timestamp,
    outputs: &mut Vec<Timestamped<StreamElement>>,
) -> usize {
    let mut puncts = 0;
    for e in out.drain() {
        puncts += usize::from(e.is_punctuation());
        outputs.push(Timestamped::new(ts, e));
    }
    puncts
}
