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
//! A punctuation must reach every shard holding state it can purge
//! ([`route_pattern`], the one decision over a join-column pattern):
//!
//! * `Constant(v)` on the join attribute → only the shard owning `v`'s
//!   key (fan-out 1);
//! * `In(values)` → the set of shards owning the enumerated keys;
//! * `Wildcard`, `Range`, `Empty`, an empty `In`, or any
//!   malformed/missing join-attribute pattern → **broadcast** to all
//!   shards: ranges and wildcards cover unboundedly many keys, which
//!   hashing scatters across every shard.
//!
//! The route is classified by how many shards it reaches: one is
//! [`Route::Shard`] (so at one shard every punctuation is), all of them
//! [`Route::Broadcast`], anything between [`Route::Shards`].
//!
//! A punctuation with one target shard has nothing to align: the router
//! only counts it against that shard ([`RouterCounters::puncts_targeted`])
//! before staging it, and the shard emits its propagation where it
//! stands. A punctuation that fans out is registered with the aligner
//! (see [`crate::align`]) before it is placed on any shard channel, so a
//! shard observes propagations only for registered punctuations.

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

/// Where a punctuation whose join-column pattern is `pattern` must go
/// among `shards` shards — the one routing decision, made by the router
/// on an ingested punctuation ([`route_punctuation`]) and by a shard on
/// its propagation of it ([`route_propagation`]), so the two cannot
/// disagree.
pub fn route_pattern(pattern: Option<&Pattern>, shards: usize) -> Route {
    if shards == 1 {
        return Route::Shard(0);
    }
    match pattern {
        Some(Pattern::Constant(v)) => Route::Shard(shard_of(v, shards)),
        Some(Pattern::In(values)) if !values.is_empty() => {
            let mut set: Vec<usize> = values.iter().map(|v| shard_of(v, shards)).collect();
            set.sort_unstable();
            set.dedup();
            match set.len() {
                1 => Route::Shard(set[0]),
                n if n == shards => Route::Broadcast,
                _ => Route::Shards(set),
            }
        }
        // Ranges and wildcards cover unboundedly many keys; hashing
        // scatters those keys over every shard. Empty (and an empty
        // enumeration) matches nothing, so any shard could own it, and a
        // missing pattern means the punctuation is malformed for this
        // schema — broadcast is the safe default for all of them.
        _ => Route::Broadcast,
    }
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
    route_pattern(punct.pattern(attr), shards)
}

/// Routes a shard's propagation (a punctuation in the output schema) by
/// the join column it constrains: the left one (`join_attr_a`) unless
/// that is a wildcard, otherwise the right one (`width_a +
/// join_attr_b`). A propagation translates an input punctuation, whose
/// other side's columns are all wildcards, so this equals
/// [`route_punctuation`] on the punctuation the router ingested.
pub fn route_propagation(punct: &Punctuation, config: &PJoinConfig, shards: usize) -> Route {
    let pattern = match punct.pattern(config.join_attr_a) {
        Some(Pattern::Wildcard) => punct.pattern(config.width_a + config.join_attr_b),
        left => left,
    };
    route_pattern(pattern, shards)
}

/// Counters published by the router thread (read via relaxed atomics).
#[derive(Debug)]
pub struct RouterCounters {
    /// Tuples routed.
    pub tuples: AtomicU64,
    /// Punctuations routed to exactly one shard, per target shard. These
    /// never reach the aligner: a shard emits its single-target
    /// propagations up to this count and flags any beyond it. The router
    /// counts before it sends the batch carrying the punctuation, and the
    /// channel orders that before the shard's read.
    pub puncts_targeted: Box<[AtomicU64]>,
    /// Punctuations routed to several-but-not-all shards.
    pub puncts_multicast: AtomicU64,
    /// Punctuations routed to every shard (of two or more).
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
    /// Punctuations routed to exactly one shard (all shards summed).
    pub puncts_targeted: u64,
    /// Punctuations routed to several-but-not-all shards.
    pub puncts_multicast: u64,
    /// Punctuations routed to every shard (of two or more).
    pub puncts_broadcast: u64,
    /// Malformed punctuations dropped.
    pub puncts_malformed: u64,
    /// Batches flushed to shard channels.
    pub batches: u64,
}

impl RouterCounters {
    /// Zeroed counters for `shards` shards.
    pub fn new(shards: usize) -> RouterCounters {
        RouterCounters {
            tuples: AtomicU64::new(0),
            puncts_targeted: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            puncts_multicast: AtomicU64::new(0),
            puncts_broadcast: AtomicU64::new(0),
            puncts_malformed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    /// Snapshots the counters.
    pub fn report(&self) -> RouterReport {
        RouterReport {
            tuples: self.tuples.load(Ordering::Relaxed),
            puncts_targeted: self.puncts_targeted.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
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
                    // a punctuation it was never routed.
                    self.counters.puncts_malformed.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let route = route_punctuation(p, side, &self.config, self.shards);
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

                // The punctuation is staged behind the tuples it covers
                // (per-shard FIFO) and flushes with the batch it rides
                // in — at the batch size under load, or at the router's
                // input-dry flush otherwise. Flushing eagerly here would
                // fragment batches: with per-key punctuations every few
                // tuples, an eager flush collapses the effective batch
                // size to the punctuation interval.
                if let Route::Shard(s) = route {
                    // One target: nothing to align. Counting before
                    // staging puts the count ahead of the batch send.
                    self.counters.puncts_targeted[s].fetch_add(1, Ordering::Relaxed);
                    self.stage(s, side, element, None);
                    return;
                }
                let fanout = match route {
                    Route::Shards(_) => &self.counters.puncts_multicast,
                    _ => &self.counters.puncts_broadcast,
                };
                fanout.fetch_add(1, Ordering::Relaxed);
                let translated = translate_punctuation(
                    p,
                    self.side_offset(side),
                    self.config.output_width(),
                );
                // Register the expectation BEFORE the punctuation can
                // reach any shard: the shards lock the same aligner, so
                // none can observe an unregistered propagation.
                self.aligner.lock().expect(translated, seq, route.mask(self.shards));
                match route {
                    Route::Shards(set) => {
                        for s in set {
                            self.stage(s, side, element.clone(), None);
                        }
                    }
                    _ => {
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
        // only a cold start or an empty recycle pool allocates, and then
        // a whole batch at once rather than by doubling.
        let mut fresh = self
            .recycle
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(self.batch));
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

    /// Flushes every non-empty buffer.
    fn flush_all(&mut self) {
        for shard in 0..self.shards {
            self.flush_shard(shard);
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

    /// One join-column pattern of every kind, built around `seed`.
    fn every_pattern_kind(seed: i64, shards: usize) -> Vec<Pattern> {
        let owner = shard_of(&Value::from(seed), shards);
        let one_shard: Vec<Value> =
            (seed..).map(Value::from).filter(|v| shard_of(v, shards) == owner).take(3).collect();
        vec![
            Pattern::Constant(Value::from(seed)),
            Pattern::Constant(Value::Null),
            Pattern::Constant(Value::from(2.0f64)),
            Pattern::Constant(Value::from(2i64)),
            Pattern::In(one_shard),
            Pattern::In((seed..seed + 16).map(Value::from).collect()),
            Pattern::In(Vec::new()),
            Pattern::int_range(seed, seed + 10),
            Pattern::Wildcard,
            Pattern::Empty,
        ]
    }

    proptest::proptest! {
        /// The router's decision on an ingested punctuation equals the
        /// one a shard's audit makes on its propagation, for every pattern
        /// kind on either side, and the route is classified by how many
        /// shards it hits.
        #[test]
        fn router_and_merger_agree_on_every_pattern_kind(
            seed in -1_000i64..1_000,
            shard_count in 0usize..9,
            schema in 0usize..3,
            left in proptest::bool::weighted(0.5),
        ) {
            let shards = [1, 2, 3, 4, 5, 6, 7, 8, 64][shard_count];
            let (width_a, width_b, join_attr_a, join_attr_b) =
                [(2, 2, 0, 0), (3, 4, 1, 2), (1, 3, 0, 2)][schema];
            let mut c = PJoinConfig::new(width_a, width_b);
            c.join_attr_a = join_attr_a;
            c.join_attr_b = join_attr_b;
            let (side, width, attr, offset) = if left {
                (Side::Left, width_a, join_attr_a, 0)
            } else {
                (Side::Right, width_b, join_attr_b, width_a)
            };
            for pattern in every_pattern_kind(seed, shards) {
                // A constant off the join column must not move the route.
                let mut patterns = vec![Pattern::Wildcard; width];
                if width > 1 {
                    patterns[(attr + 1) % width] = Pattern::Constant(Value::from(seed));
                }
                patterns[attr] = pattern.clone();
                let p = Punctuation::new(patterns);
                let routed = route_punctuation(&p, side, &c, shards);
                let propagated = translate_punctuation(&p, offset, c.output_width());
                proptest::prop_assert_eq!(
                    &routed,
                    &route_propagation(&propagated, &c, shards),
                    "pattern {:?}", pattern
                );
                let mask = routed.mask(shards);
                let expected = match mask.count_ones() as usize {
                    1 => Route::Shard(mask.trailing_zeros() as usize),
                    n if n == shards => Route::Broadcast,
                    _ => Route::Shards((0..shards).filter(|s| mask & (1 << s) != 0).collect()),
                };
                proptest::prop_assert_eq!(&routed, &expected, "pattern {:?}", pattern);
            }
            proptest::prop_assert_eq!(
                route_pattern(Some(&Pattern::Constant(Value::from(2.0f64))), shards),
                route_pattern(Some(&Pattern::Constant(Value::from(2i64))), shards)
            );
        }
    }

    #[test]
    fn enumerations_are_classified_by_the_shards_they_reach() {
        let shards = 4;
        let owner = shard_of(&Value::from(0i64), shards);
        let same: Vec<Value> =
            (0i64..).map(Value::from).filter(|v| shard_of(v, shards) == owner).take(2).collect();
        assert_eq!(route_pattern(Some(&Pattern::In(same)), shards), Route::Shard(owner));
        let all: Vec<Value> = (0i64..64).map(Value::from).collect();
        assert_eq!(route_pattern(Some(&Pattern::In(all)), shards), Route::Broadcast);
        // An empty enumeration matches nothing, like `Empty`: every shard
        // gets it, so every shard can propagate it.
        assert_eq!(route_pattern(Some(&Pattern::In(Vec::new())), shards), Route::Broadcast);
        assert_eq!(route_pattern(Some(&Pattern::In(Vec::new())), 1), Route::Shard(0));
        assert_eq!(route_pattern(Some(&Pattern::Wildcard), 1), Route::Shard(0));
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
