//! The shard worker: one thread running an independent [`PJoin`] over a
//! key subspace — the paper's §3.6 execution model, the memory join as
//! the main thread of its shard: each batch is fed to the operator
//! element by element in arrival order and its outputs are drained once
//! at the end (a batch amortizes the channel send, the metrics publish
//! and the blocks joined tuples share — [`OpOutput::push_joined`] —
//! nothing else), idle slots run background work (disk joins, time-based
//! propagation), and finish drains the operator's end-of-stream protocol.
//!
//! A shard hands its batches straight to the caller's output channel
//! through its [`Outlet`], which lets each propagated punctuation through
//! exactly once. A shard's propagation is routed again, in output
//! schema, by the router's own decision ([`route_propagation`]). With
//! one target shard there is nothing to wait for: the propagation stays
//! where it is in its batch, without a lock, audited by count — a shard
//! may emit at most as many single-target propagations as the router
//! sent it ([`RouterCounters::puncts_targeted`]). A propagation that
//! fanned out is taken out of the batch; the shard sends the rest, then
//! observes the propagation under the [`SharedAligner`] and sends it in
//! one more message if it was the last target shard to propagate it.
//! Sending before observing is what orders the emission behind every
//! target shard's covered tuples (DESIGN §9).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use pjoin::framework::FrameworkProfile;
use pjoin::{PJoin, PJoinConfig, PJoinStats};
use punct_trace::{TraceKind, TraceLog, Tracer};
use punct_types::{Punctuation, StreamElement, Timestamp, Timestamped};
use stream_sim::{BinaryStreamOp, OpOutput, Side, Work};

use crate::align::{AlignOutcome, AlignReport, SharedAligner};
use crate::metrics::{RuntimeMetrics, ShardMetrics};
use crate::router::{route_propagation, Route, RouterCounters};

/// A batch of output elements, as the caller receives it.
pub(crate) type Batch = Vec<Timestamped<StreamElement>>;

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
    /// The shard's alignment tallies.
    pub align: AlignReport,
}

/// How often an idle shard polls for background work.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// The shard thread body.
pub(crate) fn shard_loop(
    shard: usize,
    config: PJoinConfig,
    rx: Receiver<ShardMsg>,
    mut outlet: Outlet,
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
                // share blocks and the consumer frees one allocation per
                // block, not per element.
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
                if !outlet.send(outputs, puncts, join.tracer_mut()) {
                    break; // caller gone: executor torn down
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
                outlet.send(outputs, puncts, join.tracer_mut());
                break;
            }
            Ok(ShardMsg::Die) => panic!("shard {shard} killed by test hook"),
            Err(RecvTimeoutError::Timeout) => {
                if join.on_idle(last_ts, &mut out) {
                    let mut outputs = Vec::new();
                    let puncts = stamp_into(&mut out, last_ts, &mut outputs);
                    emitted += outputs.len() as u64;
                    publish(&join, consumed, emitted);
                    if !outlet.send(outputs, puncts, join.tracer_mut()) {
                        break;
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => break, // router gone
        }
    }

    let work = join.take_work();
    ShardReport {
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
        align: outlet.finish(),
    }
}

/// A shard's way out: its sender on the caller's output channel, and the
/// punctuation audit every batch passes on the way (see module docs).
pub(crate) struct Outlet {
    shard: usize,
    shards: usize,
    /// The join configuration, for [`route_propagation`].
    config: PJoinConfig,
    out: Sender<Batch>,
    aligner: Arc<SharedAligner>,
    counters: Arc<RouterCounters>,
    /// Single-target propagations emitted.
    single_emitted: u64,
    /// The router's single-target count for this shard as last read — a
    /// lower bound of the live count, reread only once reached.
    single_routed: u64,
    report: AlignReport,
}

impl Outlet {
    pub(crate) fn new(
        shard: usize,
        shards: usize,
        config: PJoinConfig,
        out: Sender<Batch>,
        aligner: Arc<SharedAligner>,
        counters: Arc<RouterCounters>,
    ) -> Outlet {
        Outlet {
            shard,
            shards,
            config,
            out,
            aligner,
            counters,
            single_emitted: 0,
            single_routed: 0,
            report: AlignReport::default(),
        }
    }

    /// Sends a batch downstream; `puncts` is the shard's count of the
    /// punctuations in it. Single-target propagations are audited in
    /// place; fanned-out ones leave the batch, are observed under the
    /// aligner once the rest is sent, and follow in one more message if
    /// this shard completed them. False once the caller is gone.
    fn send(&mut self, mut batch: Batch, puncts: usize, tracer: &mut Tracer) -> bool {
        debug_assert_eq!(puncts, batch.iter().filter(|e| e.item.is_punctuation()).count());
        self.report.tuples += (batch.len() - puncts) as u64;
        let mut fanned: Vec<(Timestamp, Punctuation)> = Vec::new();
        if puncts > 0 {
            batch.retain(|e| {
                let StreamElement::Punctuation(p) = &e.item else { return true };
                match route_propagation(p, &self.config, self.shards) {
                    Route::Shard(target) => {
                        let outcome = self.observe_single(target);
                        trace_align(tracer, self.shard, e.ts, outcome);
                        self.report.record(outcome);
                        outcome == AlignOutcome::Emit
                    }
                    _ => {
                        fanned.push((e.ts, p.clone()));
                        false
                    }
                }
            });
        }
        if !self.forward(batch, tracer) {
            return false;
        }
        if fanned.is_empty() {
            return true;
        }
        let mut emitted = Vec::new();
        let mut aligner = self.aligner.lock();
        for (ts, p) in fanned {
            let outcome = aligner.observe(self.shard, &p);
            trace_align(tracer, self.shard, ts, outcome);
            self.report.record(outcome);
            if outcome == AlignOutcome::Emit {
                emitted.push(Timestamped::new(ts, p.into()));
            }
        }
        // Never hold the lock across a send that may block on a full
        // channel: the other shards observe under it.
        drop(aligner);
        self.forward(emitted, tracer)
    }

    /// A single-target propagation whose route names `target`: emitted
    /// while this shard has propagated fewer than the router sent it,
    /// unexpected otherwise.
    fn observe_single(&mut self, target: usize) -> AlignOutcome {
        if self.single_emitted == self.single_routed {
            self.single_routed = self.counters.puncts_targeted[self.shard].load(Ordering::Relaxed);
        }
        if target == self.shard && self.single_emitted < self.single_routed {
            self.single_emitted += 1;
            AlignOutcome::Emit
        } else {
            AlignOutcome::Unexpected
        }
    }

    /// Puts `batch` on the output channel unless it is empty. False once
    /// the caller is gone.
    fn forward(&self, batch: Batch, tracer: &mut Tracer) -> bool {
        if batch.is_empty() {
            return true;
        }
        if tracer.enabled() {
            let last_ts = batch.last().map_or(0, |e| e.ts.as_micros());
            tracer.instant(TraceKind::Merge, last_ts, batch.len() as u64, 0);
        }
        self.out.send(batch).is_ok()
    }

    /// The shard's tallies at exit, with the single-target punctuations
    /// routed to it but never propagated as unaligned — exact once the
    /// router has finished.
    fn finish(self) -> AlignReport {
        let routed = self.counters.puncts_targeted[self.shard].load(Ordering::Relaxed);
        AlignReport {
            puncts_unaligned: routed.saturating_sub(self.single_emitted),
            ..self.report
        }
    }
}

/// Records an observation's outcome on the shard's lane (`a` = 0 emit,
/// 1 held, 2 unexpected; `b` = shard).
fn trace_align(tracer: &mut Tracer, shard: usize, ts: Timestamp, outcome: AlignOutcome) {
    if tracer.enabled() {
        let code = match outcome {
            AlignOutcome::Emit => 0,
            AlignOutcome::Pending => 1,
            AlignOutcome::Unexpected => 2,
        };
        tracer.instant(TraceKind::Align, ts.as_micros(), code, shard as u64);
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{bounded, Receiver};
    use punct_types::{Pattern, PunctSeq, Tuple, Value};

    use crate::router::shard_of;

    /// Width-1 inputs on both sides: a propagation has the left join
    /// column 0 and the right one 1.
    fn config() -> PJoinConfig {
        PJoinConfig::new(1, 1)
    }

    fn t(ts: u64, v: i64) -> Timestamped<StreamElement> {
        Timestamped::new(Timestamp(ts), Tuple::of((v, v)).into())
    }

    /// The propagation of a left punctuation closing the range `[v, v + 1]`:
    /// a range reaches every shard, so the aligner decides it.
    fn multi(v: i64) -> Punctuation {
        Punctuation::new(vec![Pattern::int_range(v, v + 1), Pattern::Wildcard])
    }

    /// The propagation of a right punctuation closing `v`: one target.
    fn single(v: i64) -> Punctuation {
        Punctuation::new(vec![Pattern::Wildcard, Pattern::Constant(Value::from(v))])
    }

    fn p(ts: u64, punct: Punctuation) -> Timestamped<StreamElement> {
        Timestamped::new(Timestamp(ts), punct.into())
    }

    /// One outlet per shard of `shards`, all sending into one channel.
    fn outlets(
        shards: usize,
        aligner: SharedAligner,
        counters: RouterCounters,
    ) -> (Vec<Outlet>, Receiver<Batch>) {
        let (tx, rx) = bounded(64);
        let (aligner, counters) = (Arc::new(aligner), Arc::new(counters));
        let outlets = (0..shards)
            .map(|s| {
                let (aligner, counters) = (Arc::clone(&aligner), Arc::clone(&counters));
                Outlet::new(s, shards, config(), tx.clone(), aligner, counters)
            })
            .collect();
        (outlets, rx)
    }

    /// Sends `batch` through `outlet`.
    fn send(outlet: &mut Outlet, batch: Batch) {
        let puncts = batch.iter().filter(|e| e.item.is_punctuation()).count();
        assert!(outlet.send(batch, puncts, &mut Tracer::disabled()), "receiver alive");
    }

    fn sent(rx: &Receiver<Batch>) -> Vec<Batch> {
        std::iter::from_fn(|| rx.try_recv().ok()).collect()
    }

    /// A key shard `shard` of two owns.
    fn key_on(shard: usize) -> i64 {
        (0..).find(|&k| shard_of(&Value::from(k), 2) == shard).expect("every shard owns a key")
    }

    #[test]
    fn a_punctuation_free_batch_is_forwarded_as_the_allocation_it_arrived_in() {
        let (mut outlets, rx) = outlets(1, SharedAligner::new(), RouterCounters::new(1));
        let batch: Batch = (0..100).map(|i| t(i, i as i64)).collect();
        let (ptr, expected) = (batch.as_ptr(), batch.clone());
        send(&mut outlets[0], batch);
        let sent = sent(&rx);
        assert_eq!(sent, vec![expected]);
        assert_eq!(sent[0].as_ptr(), ptr, "the shard's Vec itself, not a copy of its elements");
        let report = outlets.pop().unwrap().finish();
        assert_eq!((report.tuples, report.puncts, report.puncts_held), (100, 0, 0));
    }

    #[test]
    fn fanned_out_propagations_follow_their_batch_and_only_the_last_shard_emits() {
        let aligner = SharedAligner::new();
        aligner.lock().expect(multi(7), PunctSeq(0), 0b11);
        aligner.lock().expect(multi(8), PunctSeq(1), 0b01);
        let (mut outlets, rx) = outlets(2, aligner, RouterCounters::new(2));
        // Shard 0 is first with 7 (held) and alone with 8 (emitted after
        // the rest of its batch); shard 1 completes 7 and propagates a 9
        // nobody sent.
        let first = vec![t(1, 1), p(1, multi(7)), t(2, 2), p(2, multi(8)), t(3, 3)];
        let ptr = first.as_ptr();
        send(&mut outlets[0], first);
        send(&mut outlets[1], vec![t(4, 4), p(4, multi(7)), p(4, multi(9))]);
        let sent = sent(&rx);
        assert_eq!(
            sent,
            vec![
                vec![t(1, 1), t(2, 2), t(3, 3)],
                vec![p(2, multi(8))],
                vec![t(4, 4)],
                vec![p(4, multi(7))],
            ],
            "each batch's tuples first, then what the shard completed"
        );
        assert_eq!(sent[0].as_ptr(), ptr, "filtered where it was");
        let mut reports = outlets.into_iter().map(Outlet::finish);
        let (r0, r1) = (reports.next().unwrap(), reports.next().unwrap());
        assert_eq!((r0.tuples, r0.puncts, r0.puncts_held, r0.puncts_unexpected), (3, 1, 1, 0));
        assert_eq!((r1.tuples, r1.puncts, r1.puncts_held, r1.puncts_unexpected), (1, 1, 0, 1));
        assert_eq!(r0.puncts_unaligned + r1.puncts_unaligned, 0);
    }

    #[test]
    fn single_target_propagations_bypass_the_aligner_up_to_the_routed_count() {
        let (k0, k1) = (key_on(0), key_on(1));
        let counters = RouterCounters::new(2);
        counters.puncts_targeted[0].store(2, Ordering::Relaxed);
        counters.puncts_targeted[1].store(1, Ordering::Relaxed);
        let aligner = SharedAligner::new();
        let (mut outlets, rx) = outlets(2, aligner, counters);
        send(&mut outlets[0], vec![t(1, k0), p(1, single(k0)), p(2, single(k0))]);
        // One more than routed to shard 0: a surplus, dropped.
        send(&mut outlets[0], vec![p(3, single(k0)), t(3, k0)]);
        // Shard 1 propagates shard 0's key: never routed to it.
        send(&mut outlets[1], vec![p(4, single(k0)), p(5, single(k1))]);
        assert_eq!(
            sent(&rx),
            vec![
                vec![t(1, k0), p(1, single(k0)), p(2, single(k0))],
                vec![t(3, k0)],
                vec![p(5, single(k1))],
            ]
        );
        let aligner = Arc::clone(&outlets[0].aligner);
        let report =
            outlets.into_iter().map(Outlet::finish).fold(AlignReport::default(), |a, r| a + r);
        assert_eq!((report.puncts, report.puncts_held, report.puncts_unexpected), (3, 0, 2));
        assert_eq!(report.puncts_unaligned, 0);
        assert_eq!(aligner.acquisitions(), 0, "single-target propagations never lock");
    }

    #[test]
    fn a_routed_single_target_punctuation_never_propagated_is_unaligned() {
        let k0 = key_on(0);
        let counters = RouterCounters::new(2);
        counters.puncts_targeted[0].store(3, Ordering::Relaxed);
        counters.puncts_targeted[1].store(2, Ordering::Relaxed);
        let aligner = SharedAligner::new();
        aligner.lock().expect(multi(7), PunctSeq(0), 0b11);
        let (mut outlets, rx) = outlets(2, aligner, counters);
        send(&mut outlets[0], vec![p(1, single(k0)), p(1, multi(7))]);
        assert_eq!(sent(&rx), vec![vec![p(1, single(k0))]]);
        let mut reports = outlets.into_iter().map(Outlet::finish);
        let (r0, r1) = (reports.next().unwrap(), reports.next().unwrap());
        assert_eq!((r0.puncts, r0.puncts_held, r0.puncts_unexpected), (1, 1, 0));
        // Two of shard 0's three and both of shard 1's; the range is the
        // aligner's, counted by the executor at finish.
        assert_eq!((r0.puncts_unaligned, r1.puncts_unaligned), (2, 2));
    }

    #[test]
    fn an_empty_batch_sends_nothing() {
        let (mut outlets, rx) = outlets(2, SharedAligner::new(), RouterCounters::new(2));
        send(&mut outlets[1], Vec::new());
        assert!(sent(&rx).is_empty());
        let report = outlets.pop().unwrap().finish();
        assert_eq!((report.tuples, report.puncts), (0, 0));
    }
}
