//! The merger: combines shard output streams into one downstream
//! stream, filtering shard-propagated punctuations through the
//! [`Aligner`](crate::align::Aligner) so each ingested punctuation is
//! emitted exactly once — after *every* target shard has purged and
//! propagated it.
//!
//! The merge is in arrival order: each shard batch is forwarded as it
//! arrives, as the `Vec` the shard filled — untouched when it carries no
//! punctuation, filtered in place otherwise. Nothing is coalesced: one
//! shard batch is one message to the caller, so no element is copied
//! between the shard's `Vec` and the caller's. Per-shard order is
//! preserved (each shard's events are FIFO); cross-shard interleaving is
//! nondeterministic. PJoin's contract is the output multiset plus each
//! punctuation exactly once, after every tuple it covers — and the
//! aligner, not the merge order, is what places a punctuation behind
//! the tuples of every shard it was sent to.

use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};
use punct_trace::{TraceKind, TraceLog, TraceSettings, Tracer, LANE_MERGE};
use punct_types::{Punctuation, StreamElement, Timestamp, Timestamped};

use crate::align::{AlignOutcome, SharedAligner};
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
    /// Propagations with no registered expectation (invariant breach).
    pub puncts_unexpected: u64,
    /// Expectations never completed by shutdown (e.g. propagation
    /// disabled on the shard configuration).
    pub puncts_unaligned: u64,
}

struct Merger {
    aligner: Arc<SharedAligner>,
    out: Sender<Vec<Timestamped<StreamElement>>>,
    report: MergeReport,
    caller_gone: bool,
    tracer: Tracer,
}

impl Merger {
    /// Passes a shard's output batch through the aligner in place: what
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
        let outcome = self.aligner.lock().observe(shard, p);
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
}

/// The merger thread body. Returns once every shard reported `Done` (or
/// all senders disconnected), with the merge-lane trace (empty unless
/// tracing was enabled).
pub(crate) fn merge_loop(
    shards: usize,
    trace: TraceSettings,
    rx: Receiver<ShardEvent>,
    out: Sender<Vec<Timestamped<StreamElement>>>,
    aligner: Arc<SharedAligner>,
) -> (MergeReport, TraceLog) {
    let mut tracer = Tracer::new(trace);
    tracer.set_lane(LANE_MERGE);
    let mut m = Merger {
        aligner,
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
    m.report.puncts_unaligned = m.aligner.lock().pending_len() as u64;
    (m.report, m.tracer.take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;
    use punct_types::{PunctSeq, Tuple};

    type Batch = Vec<Timestamped<StreamElement>>;

    fn t(ts: u64, v: i64) -> Timestamped<StreamElement> {
        Timestamped::new(Timestamp(ts), Tuple::of((v,)).into())
    }

    fn p(ts: u64, v: i64) -> Timestamped<StreamElement> {
        Timestamped::new(Timestamp(ts), Punctuation::close_value(1, 0, v).into())
    }

    fn outputs(shard: usize, outputs: Batch) -> ShardEvent {
        let puncts = outputs.iter().filter(|e| e.item.is_punctuation()).count();
        ShardEvent::Outputs { shard, outputs, puncts }
    }

    /// Runs `merge_loop` over `events` to completion and
    /// returns the batches it sent, in order, with its report.
    fn merge(shards: usize, aligner: SharedAligner, events: Vec<ShardEvent>) -> (Vec<Batch>, MergeReport) {
        let (event_tx, event_rx) = bounded(events.len().max(1));
        let (out_tx, out_rx) = bounded(events.len().max(1));
        for event in events {
            event_tx.send(event).expect("capacity for every event");
        }
        drop(event_tx);
        let settings = TraceSettings::default();
        let (report, _) = merge_loop(shards, settings, event_rx, out_tx, Arc::new(aligner));
        (std::iter::from_fn(|| out_rx.try_recv().ok()).collect(), report)
    }

    #[test]
    fn a_punctuation_free_batch_is_forwarded_as_the_allocation_it_arrived_in() {
        let batch: Batch = (0..100).map(|i| t(i, i as i64)).collect();
        let (ptr, expected) = (batch.as_ptr(), batch.clone());
        let events = vec![outputs(0, batch), ShardEvent::Done(0)];
        let (sent, report) = merge(1, SharedAligner::new(), events);
        assert_eq!(sent, vec![expected]);
        assert_eq!(sent[0].as_ptr(), ptr, "the shard's Vec itself, not a copy of its elements");
        assert_eq!((report.tuples, report.puncts, report.puncts_held), (100, 0, 0));
    }

    #[test]
    fn punctuations_are_filtered_in_place_and_an_emitted_one_keeps_its_place() {
        let aligner = SharedAligner::new();
        aligner.lock().expect(Punctuation::close_value(1, 0, 7), PunctSeq(0), 0b11);
        aligner.lock().expect(Punctuation::close_value(1, 0, 8), PunctSeq(1), 0b01);
        // Shard 0 is first with 7 (held) and alone with 8 (emitted where
        // it stands); shard 1 completes 7 and propagates a 9 nobody sent.
        let first = vec![t(1, 1), p(1, 7), t(2, 2), p(2, 8), t(3, 3)];
        let ptr = first.as_ptr();
        let events = vec![
            outputs(0, first),
            outputs(1, vec![t(4, 4), p(4, 7), p(4, 9)]),
            outputs(0, vec![p(5, 7)]),
            ShardEvent::Done(0),
            ShardEvent::Done(1),
        ];
        let (sent, report) = merge(2, aligner, events);
        assert_eq!(
            sent,
            vec![vec![t(1, 1), t(2, 2), p(2, 8), t(3, 3)], vec![t(4, 4), p(4, 7)]],
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
    fn done_with_nothing_buffered_sends_nothing() {
        let events = vec![ShardEvent::Done(1), ShardEvent::Done(0)];
        let (sent, report) = merge(2, SharedAligner::new(), events);
        assert!(sent.is_empty());
        assert_eq!((report.tuples, report.puncts), (0, 0));
    }
}
