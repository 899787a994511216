//! The router: hash-partitions tuples onto shards and fans punctuations
//! out to exactly the shards whose key subspace they can affect.
//!
//! # Partitioning
//!
//! A tuple is routed by the canonical form of its join-attribute value
//! ([`Value::join_key`], the same canonicalization the hash state uses
//! for bucketing), hashed **once** with [`Value::join_hash`]. The
//! **high 32 bits** of the hash pick the shard while the per-shard
//! stores reuse the *same carried hash*'s low bits for bucketing
//! (`hash % buckets`) — using `hash % shards` for both would correlate
//! the two moduli and collapse each shard's keys into a few buckets,
//! and re-hashing in the store would double the per-tuple hashing cost.
//! Tuples whose join attribute is missing or null can never join and
//! are parked on shard 0, mirroring the bucket-0 convention of the
//! partitioned store.
//!
//! # Punctuation fan-out
//!
//! A punctuation must reach every shard holding state it can purge:
//!
//! * `Constant(v)` on the join attribute → only the shard owning `v`'s
//!   key (fan-out 1);
//! * `In(values)` → the set of shards owning the enumerated keys;
//! * `Wildcard`, `Range`, `Empty`, or any malformed/missing join-attribute
//!   pattern → **broadcast** to all shards: ranges and wildcards cover
//!   unboundedly many keys, which hashing scatters across every shard.
//!
//! Before a punctuation is placed on any shard channel the router
//! registers an alignment expectation (see [`crate::align`]), so the
//! merger observes propagations only for registered punctuations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender, TryRecvError};
use pjoin::components::propagation::translate_punctuation;
use pjoin::PJoinConfig;
use punct_trace::{SpanStart, TraceKind, TraceLog, Tracer, LANE_ROUTER};
use punct_types::{Pattern, PunctSeqAssigner, Punctuation, StreamElement, Timestamp, Timestamped, Value};
use stream_sim::Side;

use crate::align::SharedAligner;
use crate::shard::{RoutedElement, ShardMsg};

/// Where the router sends an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// A single shard.
    Shard(usize),
    /// An explicit set of shards (sorted, deduplicated).
    Shards(Vec<usize>),
    /// Every shard.
    Broadcast,
}

impl Route {
    /// The target shards as a bitmask over `shards` shards.
    pub fn mask(&self, shards: usize) -> u64 {
        match self {
            Route::Shard(s) => 1u64 << s,
            Route::Shards(set) => set.iter().fold(0, |m, s| m | (1u64 << s)),
            Route::Broadcast => {
                if shards == 64 {
                    u64::MAX
                } else {
                    (1u64 << shards) - 1
                }
            }
        }
    }

    /// Number of target shards.
    pub fn fanout(&self, shards: usize) -> usize {
        match self {
            Route::Shard(_) => 1,
            Route::Shards(set) => set.len(),
            Route::Broadcast => shards,
        }
    }
}

/// The shard owning a join hash already computed by
/// [`Value::join_hash`]. The **high 32 bits** pick the shard; the store
/// buckets on the low bits (`hash % buckets`), so the two decisions stay
/// decorrelated. `None` (null / non-joinable) parks on shard 0.
///
/// Delegates to [`punct_types::partition`] — the cluster coordinator
/// computes the same function when rehashing state for a migration, and
/// sharing the definition is what guarantees the in-process router and
/// the cross-process shard map can never disagree about key ownership.
pub fn shard_of_hash(hash: Option<u64>, shards: usize) -> usize {
    punct_types::partition(hash, shards)
}

/// The shard owning a join-key value (canonicalized). Null or
/// non-joinable values park on shard 0.
pub fn shard_of(value: &Value, shards: usize) -> usize {
    shard_of_hash(value.join_hash(), shards)
}

/// Routes a tuple by its join-attribute value on `side`, returning the
/// target shard together with the join hash so it is computed exactly
/// once per tuple and carried downstream for bucketing.
pub fn route_tuple_hashed(
    tuple: &punct_types::Tuple,
    side: Side,
    config: &PJoinConfig,
    shards: usize,
) -> (usize, Option<u64>) {
    let attr = match side {
        Side::Left => config.join_attr_a,
        Side::Right => config.join_attr_b,
    };
    let hash = tuple.get(attr).and_then(Value::join_hash);
    (shard_of_hash(hash, shards), hash)
}

/// Routes a tuple by its join-attribute value on `side`.
pub fn route_tuple(
    tuple: &punct_types::Tuple,
    side: Side,
    config: &PJoinConfig,
    shards: usize,
) -> usize {
    route_tuple_hashed(tuple, side, config, shards).0
}

/// Routes a punctuation by its join-attribute pattern on `side`.
pub fn route_punctuation(
    punct: &Punctuation,
    side: Side,
    config: &PJoinConfig,
    shards: usize,
) -> Route {
    let attr = match side {
        Side::Left => config.join_attr_a,
        Side::Right => config.join_attr_b,
    };
    match punct.pattern(attr) {
        Some(Pattern::Constant(v)) => Route::Shard(shard_of(v, shards)),
        Some(Pattern::In(values)) => {
            let mut set: Vec<usize> = values.iter().map(|v| shard_of(v, shards)).collect();
            set.sort_unstable();
            set.dedup();
            Route::Shards(set)
        }
        // Ranges and wildcards cover unboundedly many keys; hashing
        // scatters those keys over every shard. Empty matches nothing
        // (any shard could own it) and a missing pattern means the
        // punctuation is malformed for this schema — broadcast is the
        // safe default for all three.
        _ => Route::Broadcast,
    }
}

/// Counters published by the router thread (read via relaxed atomics).
#[derive(Debug, Default)]
pub struct RouterCounters {
    /// Tuples routed.
    pub tuples: AtomicU64,
    /// Punctuations routed to a single shard (constant patterns).
    pub puncts_targeted: AtomicU64,
    /// Punctuations routed to several-but-not-all shards (enumerations).
    pub puncts_multicast: AtomicU64,
    /// Punctuations broadcast to every shard.
    pub puncts_broadcast: AtomicU64,
    /// Punctuations dropped because their width does not match the side
    /// schema (the single-threaded operator drops these too, counted in
    /// `PJoinStats::malformed_dropped`).
    pub puncts_malformed: AtomicU64,
    /// Batches flushed to shard channels.
    pub batches: AtomicU64,
}

/// A point-in-time copy of [`RouterCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterReport {
    /// Tuples routed.
    pub tuples: u64,
    /// Punctuations routed to a single shard.
    pub puncts_targeted: u64,
    /// Punctuations routed to several-but-not-all shards.
    pub puncts_multicast: u64,
    /// Punctuations broadcast to every shard.
    pub puncts_broadcast: u64,
    /// Malformed punctuations dropped.
    pub puncts_malformed: u64,
    /// Batches flushed to shard channels.
    pub batches: u64,
}

impl RouterCounters {
    /// Snapshots the counters.
    pub fn report(&self) -> RouterReport {
        RouterReport {
            tuples: self.tuples.load(Ordering::Relaxed),
            puncts_targeted: self.puncts_targeted.load(Ordering::Relaxed),
            puncts_multicast: self.puncts_multicast.load(Ordering::Relaxed),
            puncts_broadcast: self.puncts_broadcast.load(Ordering::Relaxed),
            puncts_malformed: self.puncts_malformed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }
}

/// A message from the caller to the router.
#[derive(Debug)]
pub enum RouterMsg {
    /// One stream element.
    One(Side, Timestamped<StreamElement>),
    /// A batch of stream elements, in arrival order.
    Batch(Vec<(Side, Timestamped<StreamElement>)>),
    /// A batch of **same-side** elements in arrival order — the shape
    /// network ingest produces (one decoded `DataBatch` frame per
    /// message), routed straight into shard staging without a
    /// per-element side tag.
    SideBatch(Side, Vec<Timestamped<StreamElement>>),
    /// End of both inputs: flush and shut down.
    Finish,
}

struct RouterState {
    config: PJoinConfig,
    shards: usize,
    batch: usize,
    ordered: bool,
    buffers: Vec<Vec<RoutedElement>>,
    /// Per-shard open batch span: started when the first element lands in
    /// an empty buffer, ended at flush (one `RouterBatch` span per batch).
    open_spans: Vec<Option<SpanStart>>,
    watermark: Timestamp,
    seqs: [PunctSeqAssigner; 2],
    aligner: Arc<SharedAligner>,
    counters: Arc<RouterCounters>,
    shard_txs: Vec<Sender<ShardMsg>>,
    /// Batch buffers handed back by shards after draining — reused by
    /// [`flush_shard`](Self::flush_shard) so the steady-state data path
    /// recycles a fixed pool of `Vec<RoutedElement>` instead of
    /// allocating one per batch.
    recycle: Receiver<Vec<RoutedElement>>,
    tracer: Tracer,
}

impl RouterState {
    fn side_index(side: Side) -> usize {
        match side {
            Side::Left => 0,
            Side::Right => 1,
        }
    }

    fn side_width(&self, side: Side) -> usize {
        match side {
            Side::Left => self.config.width_a,
            Side::Right => self.config.width_b,
        }
    }

    fn side_offset(&self, side: Side) -> usize {
        match side {
            Side::Left => 0,
            Side::Right => self.config.width_a,
        }
    }

    /// Stages one routed element in a shard buffer, opening the shard's
    /// batch span on the first element and flushing at the batch size.
    fn stage(&mut self, shard: usize, side: Side, element: Timestamped<StreamElement>, hash: Option<u64>) {
        if self.buffers[shard].is_empty() && self.tracer.enabled() {
            self.open_spans[shard] = Some(self.tracer.span_start());
        }
        self.buffers[shard].push(RoutedElement { side, element, hash });
        if self.buffers[shard].len() >= self.batch {
            self.flush_shard(shard);
        }
    }

    /// Routes one element into the per-shard buffers, flushing any
    /// buffer that reaches the batch size. Punctuations are staged in
    /// arrival order on their target shards and ride the normal batch
    /// cadence — alignment latency is bounded by one batch under
    /// sustained load and by one poll cycle when the input runs dry
    /// (the router's idle flush).
    fn route(&mut self, side: Side, element: Timestamped<StreamElement>) {
        self.watermark = self.watermark.max(element.ts);
        match &element.item {
            StreamElement::Tuple(t) => {
                let (shard, hash) = route_tuple_hashed(t, side, &self.config, self.shards);
                self.counters.tuples.fetch_add(1, Ordering::Relaxed);
                self.stage(shard, side, element, hash);
            }
            StreamElement::Punctuation(p) => {
                if p.width() != self.side_width(side) {
                    // The operator would count and drop it too; the
                    // router does so up front so no shard can propagate
                    // a punctuation the aligner never registered.
                    self.counters.puncts_malformed.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let route = route_punctuation(p, side, &self.config, self.shards);
                let counter = match &route {
                    Route::Shard(_) => &self.counters.puncts_targeted,
                    Route::Shards(_) => &self.counters.puncts_multicast,
                    Route::Broadcast => &self.counters.puncts_broadcast,
                };
                counter.fetch_add(1, Ordering::Relaxed);

                let seq = self.seqs[Self::side_index(side)].assign();
                if self.tracer.enabled() {
                    let kind = match route {
                        Route::Broadcast => TraceKind::Broadcast,
                        _ => TraceKind::Route,
                    };
                    self.tracer.instant(
                        kind,
                        element.ts.as_micros(),
                        seq.0,
                        route.mask(self.shards),
                    );
                }
                let translated = translate_punctuation(
                    p,
                    self.side_offset(side),
                    self.config.output_width(),
                );
                // Register the expectation BEFORE the punctuation can
                // reach any shard: the merger locks the same aligner, so
                // it can never observe an unregistered propagation.
                self.aligner.lock().expect(translated, seq, route.mask(self.shards));

                // The punctuation is staged behind the tuples it covers
                // (per-shard FIFO) and flushes with the batch it rides
                // in — at the batch size under load, or at the router's
                // input-dry flush otherwise. Flushing eagerly here would
                // fragment batches: with per-key punctuations every few
                // tuples, an eager flush collapses the effective batch
                // size to the punctuation interval.
                match route {
                    Route::Shard(s) => self.stage(s, side, element, None),
                    Route::Shards(set) => {
                        for &s in &set {
                            self.stage(s, side, element.clone(), None);
                        }
                    }
                    Route::Broadcast => {
                        for s in 0..self.shards {
                            self.stage(s, side, element.clone(), None);
                        }
                    }
                }
            }
        }
    }

    fn flush_shard(&mut self, shard: usize) {
        if self.buffers[shard].is_empty() {
            return;
        }
        // Swap in a recycled buffer (already drained by a shard, capacity
        // intact) so sustained routing reuses a fixed pool of allocations;
        // only a cold start or an empty recycle pool allocates.
        let mut fresh = self.recycle.try_recv().unwrap_or_default();
        fresh.clear();
        let elements = std::mem::replace(&mut self.buffers[shard], fresh);
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        if let Some(start) = self.open_spans[shard].take() {
            self.tracer.span_end(
                start,
                TraceKind::RouterBatch,
                self.watermark.as_micros(),
                shard as u64,
                elements.len() as u64,
            );
        }
        // A send error means the shard is gone (executor dropped); there
        // is nobody left to deliver to, so drop the batch.
        let _ = self.shard_txs[shard]
            .send(ShardMsg::Batch { elements, watermark: self.watermark });
    }

    /// Flushes every non-empty buffer. In ordered-merge mode, idle
    /// shards also receive an empty watermark batch so their progress
    /// frontier keeps advancing and the k-way merge never stalls on a
    /// shard that happens to own no recent keys.
    fn flush_all(&mut self) {
        for shard in 0..self.shards {
            if !self.buffers[shard].is_empty() {
                self.flush_shard(shard);
            } else if self.ordered && self.watermark > Timestamp::ZERO {
                let _ = self.shard_txs[shard]
                    .send(ShardMsg::Batch { elements: Vec::new(), watermark: self.watermark });
            }
        }
    }
}

/// The router thread body. Consumes caller messages, batching per shard:
/// under load, batches fill to `router_batch` before flushing; when the
/// input runs dry (or on finish), all buffers flush immediately so idle
/// latency stays low. Returns the router-lane trace (empty unless the
/// join config enables tracing).
#[allow(clippy::too_many_arguments)]
pub(crate) fn router_loop(
    config: PJoinConfig,
    shards: usize,
    batch: usize,
    ordered: bool,
    rx: Receiver<RouterMsg>,
    shard_txs: Vec<Sender<ShardMsg>>,
    recycle: Receiver<Vec<RoutedElement>>,
    aligner: Arc<SharedAligner>,
    counters: Arc<RouterCounters>,
) -> TraceLog {
    let mut tracer = Tracer::new(config.trace);
    tracer.set_lane(LANE_ROUTER);
    let mut state = RouterState {
        config,
        shards,
        batch,
        ordered,
        buffers: (0..shards).map(|_| Vec::new()).collect(),
        open_spans: vec![None; shards],
        watermark: Timestamp::ZERO,
        seqs: [PunctSeqAssigner::new(), PunctSeqAssigner::new()],
        aligner,
        counters,
        shard_txs,
        recycle,
        tracer,
    };

    let mut finished = false;
    'outer: while !finished {
        // Block for the next message, then drain opportunistically so
        // batches fill under load without adding idle latency.
        let first = match rx.recv() {
            Ok(msg) => msg,
            Err(_) => break 'outer, // caller dropped without finish
        };
        let mut next = Some(first);
        while let Some(msg) = next.take() {
            match msg {
                RouterMsg::One(side, e) => state.route(side, e),
                RouterMsg::Batch(batch) => {
                    for (side, e) in batch {
                        state.route(side, e);
                    }
                }
                RouterMsg::SideBatch(side, batch) => {
                    for e in batch {
                        state.route(side, e);
                    }
                }
                RouterMsg::Finish => {
                    finished = true;
                    break;
                }
            }
            match rx.try_recv() {
                Ok(msg) => next = Some(msg),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'outer,
            }
        }
        // Input dry (or finish): flush what we have.
        state.flush_all();
    }

    state.flush_all();
    for tx in &state.shard_txs {
        let _ = tx.send(ShardMsg::Finish);
    }
    state.tracer.take()
}

#[cfg(test)]
mod tests {
    use super::*;
    use punct_types::Tuple;

    fn config() -> PJoinConfig {
        PJoinConfig::new(2, 2)
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let c = config();
        for k in 0..100i64 {
            assert_eq!(route_tuple(&Tuple::of((k, 0i64)), Side::Left, &c, 1), 0);
        }
        assert_eq!(
            route_punctuation(&Punctuation::close_value(2, 0, 5i64), Side::Left, &c, 1),
            Route::Shard(0)
        );
    }

    #[test]
    fn tuple_and_constant_punctuation_agree_per_side() {
        let c = config();
        for shards in [2usize, 4, 8] {
            for k in 0..200i64 {
                let t = route_tuple(&Tuple::of((k, 0i64)), Side::Left, &c, shards);
                let u = route_tuple(&Tuple::of((k, 0i64)), Side::Right, &c, shards);
                let p = route_punctuation(
                    &Punctuation::close_value(2, 0, k),
                    Side::Right,
                    &c,
                    shards,
                );
                assert!(t < shards);
                // Same join key must land on the same shard from either
                // side, and its closing punctuation must target it.
                assert_eq!(t, u);
                assert_eq!(p, Route::Shard(t));
            }
        }
    }

    #[test]
    fn int_and_float_keys_canonicalize_to_same_shard() {
        // The store canonicalizes Int/Float join keys; routing must too,
        // or a float tuple and its integer punctuation would diverge.
        for shards in [2usize, 4, 8] {
            assert_eq!(
                shard_of(&Value::from(42i64), shards),
                shard_of(&Value::from(42.0f64), shards)
            );
        }
    }

    #[test]
    fn range_and_wildcard_broadcast() {
        let c = config();
        let range = Punctuation::on_attr(
            2,
            0,
            Pattern::range(
                punct_types::Bound::Inclusive(Value::from(0i64)),
                punct_types::Bound::Inclusive(Value::from(9i64)),
            )
            .unwrap(),
        );
        assert_eq!(route_punctuation(&range, Side::Left, &c, 4), Route::Broadcast);
        let wild = Punctuation::on_attr(2, 1, Pattern::Constant(Value::from(1i64)));
        // Join attr is 0 → wildcard there → broadcast even though attr 1
        // is a constant.
        assert_eq!(route_punctuation(&wild, Side::Left, &c, 4), Route::Broadcast);
    }

    #[test]
    fn enumeration_targets_owning_shards() {
        let c = config();
        let shards = 8;
        let values = [3i64, 17, 99];
        let p = Punctuation::on_attr(
            2,
            0,
            Pattern::In(values.iter().map(|&v| Value::from(v)).collect()),
        );
        let expected: std::collections::BTreeSet<usize> =
            values.iter().map(|v| shard_of(&Value::from(*v), shards)).collect();
        match route_punctuation(&p, Side::Left, &c, shards) {
            Route::Shards(set) => {
                assert_eq!(set.iter().copied().collect::<std::collections::BTreeSet<_>>(), expected);
                // Sorted and deduplicated.
                assert!(set.windows(2).all(|w| w[0] < w[1]));
            }
            other => panic!("expected Shards, got {other:?}"),
        }
    }

    #[test]
    fn shards_are_reasonably_balanced() {
        // High-bit hashing should spread sequential keys across shards.
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for k in 0..4000i64 {
            counts[shard_of(&Value::from(k), shards)] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "unbalanced shard distribution: {counts:?}");
        }
    }

    #[test]
    fn route_masks() {
        assert_eq!(Route::Shard(3).mask(8), 0b1000);
        assert_eq!(Route::Shards(vec![0, 2]).mask(8), 0b101);
        assert_eq!(Route::Broadcast.mask(3), 0b111);
        assert_eq!(Route::Broadcast.mask(64), u64::MAX);
        assert_eq!(Route::Broadcast.fanout(5), 5);
        assert_eq!(Route::Shards(vec![1, 2]).fanout(5), 2);
    }
}
