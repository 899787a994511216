//! Punctuation alignment across shards.
//!
//! Every punctuation ingested by the executor is forwarded to one or
//! more shards (see [`crate::router`]). Each shard that eventually
//! drains all matches for the punctuation propagates it on its own
//! output — so a broadcast punctuation would surface `N` times
//! downstream. The aligner restores the single-stream contract for
//! punctuations that **fan out** to more than one shard; one sent to a
//! single shard surfaces once anyway, so the executor never registers
//! it here (its shard audits it by count, see [`crate::shard`]). The
//! cluster coordinator registers every punctuation, and starts a fresh
//! aligner whenever it re-injects the ones still pending (repartition,
//! crash recovery, restore).
//!
//! * At ingest, the router **registers an expectation** — the
//!   output-schema translation of the punctuation plus the set of shards
//!   it was sent to — *before* the punctuation enters any shard channel.
//! * Each target shard **observes** its own propagation of the
//!   punctuation, resolving it against the oldest matching expectation.
//!   Only the shard that completes the expectation emits the
//!   punctuation downstream — exactly once, and only once all shards
//!   have purged state behind it.
//!
//! Registration happens-before observation because both run under the
//! same mutex and the router registers before sending, so a shard can
//! never see a propagation for an unregistered punctuation (such an
//! observation reports [`AlignOutcome::Unexpected`] — an invariant
//! violation).
//!
//! Identical punctuations may be in flight concurrently (a stream is a
//! multiset of elements); expectations therefore form FIFO queues per
//! translated punctuation, and observations resolve against the oldest
//! incomplete entry — preserving multiplicity.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use punct_types::{PunctSeq, Punctuation};

/// Outcome of observing one shard-propagated punctuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignOutcome {
    /// All target shards have now propagated: emit downstream.
    Emit,
    /// Some target shards are still pending: suppress.
    Pending,
    /// No registered expectation matches (invariant violation upstream,
    /// e.g. a shard propagated a punctuation it was never sent).
    Unexpected,
}

#[derive(Debug, PartialEq, Eq)]
struct Expectation {
    /// Ingest sequence number, reported by [`Aligner::observe_seq`].
    seq: PunctSeq,
    /// Bitmask of target shards still to propagate.
    waiting: u64,
}

/// Tracks in-flight punctuation expectations (one aligner per executor,
/// shared by the router and the shards).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Aligner {
    pending: HashMap<Punctuation, VecDeque<Expectation>>,
}

impl Aligner {
    /// An empty aligner.
    pub fn new() -> Aligner {
        Aligner::default()
    }

    /// Registers an expectation for `translated` (the punctuation as the
    /// shards will emit it, i.e. translated to the output schema), sent
    /// to the shards in `targets` (a bitmask). Call *before* routing the
    /// punctuation to any shard.
    pub fn expect(&mut self, translated: Punctuation, seq: PunctSeq, targets: u64) {
        debug_assert!(targets != 0, "a punctuation must target at least one shard");
        self.pending
            .entry(translated)
            .or_default()
            .push_back(Expectation { seq, waiting: targets });
    }

    /// Records that `shard` propagated `punct` (already in the output
    /// schema). Returns whether the punctuation should now be emitted
    /// downstream.
    pub fn observe(&mut self, shard: usize, punct: &Punctuation) -> AlignOutcome {
        self.observe_seq(shard, punct).0
    }

    /// Like [`observe`](Aligner::observe), additionally returning the
    /// ingest sequence number of the expectation the observation
    /// resolved against (`None` for `Unexpected`). Cluster-level
    /// alignment keys its pending-punctuation log by ingest sequence,
    /// so it needs to know *which* instance an emission completed.
    pub fn observe_seq(
        &mut self,
        shard: usize,
        punct: &Punctuation,
    ) -> (AlignOutcome, Option<PunctSeq>) {
        let bit = 1u64 << shard;
        let Some(queue) = self.pending.get_mut(punct) else {
            return (AlignOutcome::Unexpected, None);
        };
        // Oldest entry still waiting on this shard (an entry the shard
        // already answered belongs to an *earlier* instance, so skip it).
        let Some(pos) = queue.iter().position(|e| e.waiting & bit != 0) else {
            return (AlignOutcome::Unexpected, None);
        };
        queue[pos].waiting &= !bit;
        let seq = queue[pos].seq;
        if queue[pos].waiting == 0 {
            queue.remove(pos);
            if queue.is_empty() {
                self.pending.remove(punct);
            }
            (AlignOutcome::Emit, Some(seq))
        } else {
            (AlignOutcome::Pending, Some(seq))
        }
    }

    /// Number of expectations not yet fully answered.
    pub fn pending_len(&self) -> usize {
        self.pending.values().map(VecDeque::len).sum()
    }
}

/// The aligner as the executor threads share it: a mutex-wrapped
/// [`Aligner`] plus an acquisition counter.
///
/// The mutex is the **only** lock shared across router and shards, and
/// the design invariant is that it is taken only for punctuations that
/// fan out to more than one shard — once by the router per such
/// punctuation (to register the expectation) and at most once per
/// target shard's propagation of it (to resolve it), plus once by
/// `finish` at shutdown. Tuples and single-target punctuations flow
/// router → shard → caller without ever touching it. The counter makes
/// that auditable: the executor's shutdown path debug-asserts that the
/// total number of acquisitions is bounded by a function of the
/// fanned-out punctuation count alone, so a per-tuple or per-punctuation
/// lock can never creep in unnoticed, and the benchmark reports
/// acquisitions per element from the same counter.
#[derive(Debug, Default)]
pub struct SharedAligner {
    inner: Mutex<Aligner>,
    acquisitions: AtomicU64,
}

impl SharedAligner {
    /// A fresh aligner with a zeroed acquisition counter.
    pub fn new() -> SharedAligner {
        SharedAligner::default()
    }

    /// Locks the aligner, counting the acquisition. Punctuation-path
    /// callers only — see the type-level invariant.
    pub fn lock(&self) -> MutexGuard<'_, Aligner> {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().expect("aligner lock")
    }

    /// Total lock acquisitions so far (relaxed; exact once the executor
    /// threads have been joined).
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }
}

/// Alignment tallies: one per shard (its [`ShardReport`]), summed over
/// the shards into [`ExecStats::align`].
///
/// [`ShardReport`]: crate::ShardReport
/// [`ExecStats::align`]: crate::ExecStats::align
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlignReport {
    /// Result tuples sent downstream.
    pub tuples: u64,
    /// Punctuations emitted downstream (exactly-once, post-alignment).
    pub puncts: u64,
    /// Propagations suppressed because a sibling shard still had to
    /// propagate the same punctuation.
    pub puncts_held: u64,
    /// Propagations dropped as an invariant breach: a fanned-out one
    /// with no registered expectation, or a single-target one beyond
    /// the count the router sent that shard (or routed to another shard).
    pub puncts_unexpected: u64,
    /// Punctuations routed but never fully propagated by shutdown (e.g.
    /// propagation disabled on the shard configuration): per shard, the
    /// single-target punctuations routed to it beyond those it
    /// propagated; in the executor's sum, also the aligner's incomplete
    /// expectations.
    pub puncts_unaligned: u64,
}

impl AlignReport {
    /// Counts one observation's outcome.
    pub(crate) fn record(&mut self, outcome: AlignOutcome) {
        match outcome {
            AlignOutcome::Emit => self.puncts += 1,
            AlignOutcome::Pending => self.puncts_held += 1,
            AlignOutcome::Unexpected => self.puncts_unexpected += 1,
        }
    }
}

impl std::ops::Add for AlignReport {
    type Output = AlignReport;

    fn add(self, o: AlignReport) -> AlignReport {
        AlignReport {
            tuples: self.tuples + o.tuples,
            puncts: self.puncts + o.puncts,
            puncts_held: self.puncts_held + o.puncts_held,
            puncts_unexpected: self.puncts_unexpected + o.puncts_unexpected,
            puncts_unaligned: self.puncts_unaligned + o.puncts_unaligned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: i64) -> Punctuation {
        Punctuation::close_value(4, 0, v)
    }

    fn mask(shards: &[usize]) -> u64 {
        shards.iter().fold(0, |m, s| m | (1 << s))
    }

    #[test]
    fn broadcast_emits_after_all_shards() {
        let mut a = Aligner::new();
        a.expect(p(7), PunctSeq(0), mask(&[0, 1, 2]));
        assert_eq!(a.observe(1, &p(7)), AlignOutcome::Pending);
        assert_eq!(a.observe(0, &p(7)), AlignOutcome::Pending);
        assert_eq!(a.observe(2, &p(7)), AlignOutcome::Emit);
        assert_eq!(a.pending_len(), 0);
    }

    #[test]
    fn single_target_emits_immediately() {
        let mut a = Aligner::new();
        a.expect(p(7), PunctSeq(0), mask(&[3]));
        assert_eq!(a.observe(3, &p(7)), AlignOutcome::Emit);
    }

    #[test]
    fn duplicate_instances_keep_multiplicity_in_fifo_order() {
        let mut a = Aligner::new();
        a.expect(p(7), PunctSeq(0), mask(&[0, 1]));
        a.expect(p(7), PunctSeq(1), mask(&[0, 1]));
        // Shard 0 answers both instances before shard 1 answers any.
        assert_eq!(a.observe(0, &p(7)), AlignOutcome::Pending);
        assert_eq!(a.observe(0, &p(7)), AlignOutcome::Pending);
        assert_eq!(a.observe(1, &p(7)), AlignOutcome::Emit);
        assert_eq!(a.observe(1, &p(7)), AlignOutcome::Emit);
        assert_eq!(a.pending_len(), 0);
    }

    #[test]
    fn unexpected_observation_is_flagged() {
        let mut a = Aligner::new();
        assert_eq!(a.observe(0, &p(9)), AlignOutcome::Unexpected);
        a.expect(p(7), PunctSeq(0), mask(&[1]));
        // Wrong shard for the only registered instance.
        assert_eq!(a.observe(0, &p(7)), AlignOutcome::Unexpected);
        assert_eq!(a.pending_len(), 1);
    }

    #[test]
    fn distinct_punctuations_do_not_interfere() {
        let mut a = Aligner::new();
        a.expect(p(1), PunctSeq(0), mask(&[0]));
        a.expect(p(2), PunctSeq(1), mask(&[0]));
        assert_eq!(a.observe(0, &p(2)), AlignOutcome::Emit);
        assert_eq!(a.pending_len(), 1);
        assert_eq!(a.observe(0, &p(1)), AlignOutcome::Emit);
    }

    #[test]
    fn shared_aligner_counts_acquisitions() {
        let shared = SharedAligner::new();
        assert_eq!(shared.acquisitions(), 0);
        shared.lock().expect(p(7), PunctSeq(0), mask(&[0]));
        assert_eq!(shared.lock().observe(0, &p(7)), AlignOutcome::Emit);
        assert_eq!(shared.acquisitions(), 2);
    }
}
