//! The merger: combines shard output streams into one downstream
//! stream, letting each ingested punctuation through exactly once —
//! after *every* target shard has purged and propagated it.
//!
//! A shard's propagation is routed again, in output schema, by the
//! router's own decision ([`route_propagation`]). With one target shard
//! there is nothing to wait for: the propagation is emitted with its
//! shard's batch, without a lock, and audited by count — a shard may
//! emit at most as many single-target propagations as the router sent
//! it ([`RouterCounters::puncts_targeted`]). A propagation that fanned
//! out goes through the [`Aligner`](crate::align::Aligner), which holds
//! it until its last target shard has propagated it too.
//!
//! The merge is in arrival order: each shard batch is forwarded as it
//! arrives, as the `Vec` the shard filled — untouched when it carries no
//! punctuation, filtered in place otherwise. Nothing is coalesced: one
//! shard batch is one message to the caller, so no element is copied
//! between the shard's `Vec` and the caller's. Per-shard order is
//! preserved (each shard's events are FIFO); cross-shard interleaving is
//! nondeterministic. PJoin's contract is the output multiset plus each
//! punctuation exactly once, after every tuple it covers: a
//! single-target punctuation rides behind its only shard's covered
//! tuples, and the aligner, not the merge order, places a fanned-out
//! punctuation behind the tuples of every shard it was sent to.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};
use pjoin::PJoinConfig;
use punct_trace::{TraceKind, TraceLog, Tracer, LANE_MERGE};
use punct_types::{Punctuation, StreamElement, Timestamp, Timestamped};

use crate::align::{AlignOutcome, SharedAligner};
use crate::router::{route_propagation, Route, RouterCounters};
use crate::shard::ShardEvent;

/// Final accounting returned by the merger thread on join.
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeReport {
    /// Result tuples forwarded downstream.
    pub tuples: u64,
    /// Punctuations emitted downstream (exactly-once, post-alignment).
    pub puncts: u64,
    /// Shard propagations suppressed while awaiting sibling shards.
    pub puncts_held: u64,
    /// Propagations dropped as an invariant breach: a fanned-out one
    /// with no registered expectation, or a single-target one beyond
    /// the count the router sent that shard (or routed to another shard).
    pub puncts_unexpected: u64,
    /// Punctuations routed but never fully propagated by shutdown (e.g.
    /// propagation disabled on the shard configuration): the aligner's
    /// incomplete expectations plus, per shard, the single-target
    /// punctuations routed to it beyond those it propagated.
    pub puncts_unaligned: u64,
}

/// A shard's single-target audit: how many of its single-target
/// propagations were emitted, and the router's count the merger last
/// read — a lower bound of the live count, reread only once reached.
#[derive(Debug, Clone, Copy, Default)]
struct SingleAudit {
    emitted: u64,
    routed: u64,
}

struct Merger {
    config: PJoinConfig,
    shards: usize,
    aligner: Arc<SharedAligner>,
    counters: Arc<RouterCounters>,
    single: Vec<SingleAudit>,
    out: Sender<Vec<Timestamped<StreamElement>>>,
    report: MergeReport,
    caller_gone: bool,
    tracer: Tracer,
}

impl Merger {
    /// Passes a shard's output batch through alignment in place: what
    /// stays is its tuples and the punctuations this shard was the last
    /// to propagate (exactly once each). `puncts` is the shard's count of
    /// the punctuations in `batch`; with none there is nothing to look at.
    fn filter(&mut self, shard: usize, puncts: usize, batch: &mut Vec<Timestamped<StreamElement>>) {
        debug_assert_eq!(puncts, batch.iter().filter(|e| e.item.is_punctuation()).count());
        self.report.tuples += (batch.len() - puncts) as u64;
        if puncts > 0 {
            batch.retain(|e| match &e.item {
                StreamElement::Tuple(_) => true,
                StreamElement::Punctuation(p) => self.align(shard, e.ts, p),
            });
        }
    }

    /// Whether shard `shard`'s propagation of `p` is the one to emit.
    fn align(&mut self, shard: usize, ts: Timestamp, p: &Punctuation) -> bool {
        let outcome = match route_propagation(p, &self.config, self.shards) {
            Route::Shard(target) => self.observe_single(shard, target),
            _ => self.aligner.lock().observe(shard, p),
        };
        if self.tracer.enabled() {
            let code = match outcome {
                AlignOutcome::Emit => 0,
                AlignOutcome::Pending => 1,
                AlignOutcome::Unexpected => 2,
            };
            self.tracer.instant(TraceKind::Align, ts.as_micros(), code, shard as u64);
        }
        match outcome {
            AlignOutcome::Emit => self.report.puncts += 1,
            AlignOutcome::Pending => self.report.puncts_held += 1,
            AlignOutcome::Unexpected => self.report.puncts_unexpected += 1,
        }
        outcome == AlignOutcome::Emit
    }

    /// A single-target propagation of shard `shard` whose route names
    /// `target`: emitted while the shard has propagated fewer than the
    /// router sent it, unexpected otherwise.
    fn observe_single(&mut self, shard: usize, target: usize) -> AlignOutcome {
        let audit = &mut self.single[shard];
        if audit.emitted == audit.routed {
            audit.routed = self.counters.puncts_targeted[shard].load(Ordering::Relaxed);
        }
        if target == shard && audit.emitted < audit.routed {
            audit.emitted += 1;
            AlignOutcome::Emit
        } else {
            AlignOutcome::Unexpected
        }
    }

    fn send(&mut self, batch: Vec<Timestamped<StreamElement>>) {
        if batch.is_empty() || self.caller_gone {
            return;
        }
        if self.tracer.enabled() {
            let last_ts = batch.last().map_or(0, |e| e.ts.as_micros());
            self.tracer.instant(TraceKind::Merge, last_ts, batch.len() as u64, 0);
        }
        if self.out.send(batch).is_err() {
            // Caller dropped the output receiver: keep draining events so
            // shards never block on a full event channel, but stop
            // forwarding.
            self.caller_gone = true;
        }
    }

    /// Punctuations routed but not fully propagated: the aligner's open
    /// expectations plus each shard's unanswered single-target count.
    /// Exact once every shard is done (the router finished first).
    fn unaligned(&self) -> u64 {
        let single: u64 = self
            .single
            .iter()
            .zip(self.counters.puncts_targeted.iter())
            .map(|(audit, routed)| routed.load(Ordering::Relaxed).saturating_sub(audit.emitted))
            .sum();
        self.aligner.lock().pending_len() as u64 + single
    }
}

/// The merger thread body. Returns once every shard reported `Done` (or
/// all senders disconnected), with the merge-lane trace (empty unless
/// the join config enables tracing).
pub(crate) fn merge_loop(
    config: PJoinConfig,
    shards: usize,
    rx: Receiver<ShardEvent>,
    out: Sender<Vec<Timestamped<StreamElement>>>,
    aligner: Arc<SharedAligner>,
    counters: Arc<RouterCounters>,
) -> (MergeReport, TraceLog) {
    let mut tracer = Tracer::new(config.trace);
    tracer.set_lane(LANE_MERGE);
    let mut m = Merger {
        config,
        shards,
        aligner,
        counters,
        single: vec![SingleAudit::default(); shards],
        out,
        report: MergeReport::default(),
        caller_gone: false,
        tracer,
    };

    let mut done = vec![false; shards];
    let mut remaining = shards;
    while remaining > 0 {
        let Ok(event) = rx.recv() else { break }; // all shard senders gone
        match event {
            ShardEvent::Outputs { shard, mut outputs, puncts } => {
                m.filter(shard, puncts, &mut outputs);
                m.send(outputs);
            }
            ShardEvent::Done(shard) => {
                if !done[shard] {
                    done[shard] = true;
                    remaining -= 1;
                }
            }
        }
    }
    m.report.puncts_unaligned = m.unaligned();
    (m.report, m.tracer.take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;
    use punct_types::{Pattern, PunctSeq, Tuple, Value};

    use crate::router::shard_of;

    type Batch = Vec<Timestamped<StreamElement>>;

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

    fn outputs(shard: usize, outputs: Batch) -> ShardEvent {
        let puncts = outputs.iter().filter(|e| e.item.is_punctuation()).count();
        ShardEvent::Outputs { shard, outputs, puncts }
    }

    /// Runs `merge_loop` over `events` to completion and
    /// returns the batches it sent, in order, with its report.
    fn merge(
        shards: usize,
        aligner: SharedAligner,
        counters: RouterCounters,
        events: Vec<ShardEvent>,
    ) -> (Vec<Batch>, MergeReport) {
        let (event_tx, event_rx) = bounded(events.len().max(1));
        let (out_tx, out_rx) = bounded(events.len().max(1));
        for event in events {
            event_tx.send(event).expect("capacity for every event");
        }
        drop(event_tx);
        let (aligner, counters) = (Arc::new(aligner), Arc::new(counters));
        let (report, _) = merge_loop(config(), shards, event_rx, out_tx, aligner, counters);
        (std::iter::from_fn(|| out_rx.try_recv().ok()).collect(), report)
    }

    /// A key shard `shard` of two owns.
    fn key_on(shard: usize) -> i64 {
        (0..).find(|&k| shard_of(&Value::from(k), 2) == shard).expect("every shard owns a key")
    }

    #[test]
    fn a_punctuation_free_batch_is_forwarded_as_the_allocation_it_arrived_in() {
        let batch: Batch = (0..100).map(|i| t(i, i as i64)).collect();
        let (ptr, expected) = (batch.as_ptr(), batch.clone());
        let events = vec![outputs(0, batch), ShardEvent::Done(0)];
        let (sent, report) = merge(1, SharedAligner::new(), RouterCounters::new(1), events);
        assert_eq!(sent, vec![expected]);
        assert_eq!(sent[0].as_ptr(), ptr, "the shard's Vec itself, not a copy of its elements");
        assert_eq!((report.tuples, report.puncts, report.puncts_held), (100, 0, 0));
    }

    #[test]
    fn punctuations_are_filtered_in_place_and_an_emitted_one_keeps_its_place() {
        let aligner = SharedAligner::new();
        aligner.lock().expect(multi(7), PunctSeq(0), 0b11);
        aligner.lock().expect(multi(8), PunctSeq(1), 0b01);
        // Shard 0 is first with 7 (held) and alone with 8 (emitted where
        // it stands); shard 1 completes 7 and propagates a 9 nobody sent.
        let first = vec![t(1, 1), p(1, multi(7)), t(2, 2), p(2, multi(8)), t(3, 3)];
        let ptr = first.as_ptr();
        let events = vec![
            outputs(0, first),
            outputs(1, vec![t(4, 4), p(4, multi(7)), p(4, multi(9))]),
            outputs(0, vec![p(5, multi(7))]),
            ShardEvent::Done(0),
            ShardEvent::Done(1),
        ];
        let (sent, report) = merge(2, aligner, RouterCounters::new(2), events);
        assert_eq!(
            sent,
            vec![vec![t(1, 1), t(2, 2), p(2, multi(8)), t(3, 3)], vec![t(4, 4), p(4, multi(7))]],
            "one message per shard batch that kept anything, in shard order"
        );
        assert_eq!(sent[0].as_ptr(), ptr, "filtered where it was");
        assert_eq!(
            (report.tuples, report.puncts, report.puncts_held, report.puncts_unexpected),
            (4, 2, 1, 2)
        );
        assert_eq!(report.puncts_unaligned, 0);
    }

    #[test]
    fn single_target_propagations_bypass_the_aligner_up_to_the_routed_count() {
        let (k0, k1) = (key_on(0), key_on(1));
        let counters = RouterCounters::new(2);
        counters.puncts_targeted[0].store(2, Ordering::Relaxed);
        counters.puncts_targeted[1].store(1, Ordering::Relaxed);
        let aligner = SharedAligner::new();
        let events = vec![
            outputs(0, vec![t(1, k0), p(1, single(k0)), p(2, single(k0))]),
            // One more than routed to shard 0: a surplus, dropped.
            outputs(0, vec![p(3, single(k0)), t(3, k0)]),
            // Shard 1 propagates shard 0's key: never routed to it.
            outputs(1, vec![p(4, single(k0)), p(5, single(k1))]),
            ShardEvent::Done(0),
            ShardEvent::Done(1),
        ];
        let (sent, report) = merge(2, aligner, counters, events);
        assert_eq!(
            sent,
            vec![
                vec![t(1, k0), p(1, single(k0)), p(2, single(k0))],
                vec![t(3, k0)],
                vec![p(5, single(k1))],
            ]
        );
        assert_eq!((report.puncts, report.puncts_held, report.puncts_unexpected), (3, 0, 2));
        assert_eq!(report.puncts_unaligned, 0);
    }

    #[test]
    fn a_routed_single_target_punctuation_never_propagated_is_unaligned() {
        let k0 = key_on(0);
        let counters = RouterCounters::new(2);
        counters.puncts_targeted[0].store(3, Ordering::Relaxed);
        counters.puncts_targeted[1].store(2, Ordering::Relaxed);
        let aligner = SharedAligner::new();
        aligner.lock().expect(multi(7), PunctSeq(0), 0b11);
        let events = vec![
            outputs(0, vec![p(1, single(k0)), p(1, multi(7))]),
            ShardEvent::Done(0),
            ShardEvent::Done(1),
        ];
        let (sent, report) = merge(2, aligner, counters, events);
        assert_eq!(sent, vec![vec![p(1, single(k0))]]);
        assert_eq!((report.puncts, report.puncts_held, report.puncts_unexpected), (1, 1, 0));
        // Two of shard 0's three, both of shard 1's, and the range.
        assert_eq!(report.puncts_unaligned, 5);
    }

    #[test]
    fn done_with_nothing_buffered_sends_nothing() {
        let events = vec![ShardEvent::Done(1), ShardEvent::Done(0)];
        let (sent, report) = merge(2, SharedAligner::new(), RouterCounters::new(2), events);
        assert!(sent.is_empty());
        assert_eq!((report.tuples, report.puncts), (0, 0));
    }
}
