//! One input stream's join state (paper §3.1): the partitioned hash
//! store (memory + disk portions), the purge buffer, and the punctuation
//! index, plus the bookkeeping that keeps them mutually consistent.

use punct_types::PunctId;
use spillstore::{PartitionedStore, SimDisk, SpillPolicy, StoreConfig};
use stream_sim::Work;

use crate::dedup::ProbeHistory;
use crate::punctuation_index::PunctuationIndex;
use crate::record::{Instant, PRecord};

/// The complete state of one input side.
pub struct JoinState {
    /// The hash store (memory + disk portions per bucket).
    pub store: PartitionedStore<PRecord>,
    /// This stream's punctuations, indexed for propagation.
    pub index: PunctuationIndex,
    /// Per-bucket purge buffer: tuples of *this* stream that match the
    /// opposite punctuation set but may still join the **opposite**
    /// stream's disk-resident portion of the same bucket (§3.1). They are
    /// dropped when the disk join resolves that bucket.
    pub purge_buffer: Vec<Vec<PRecord>>,
    /// Total records across all purge-buffer buckets.
    pub purge_buffer_len: usize,
    /// Per-bucket indexing watermark of the disk portion: every
    /// disk-resident record was indexed against punctuations with
    /// `id < watermark` when it was spilled. `u64::MAX` when the bucket
    /// has no disk portion. Propagation of a punctuation `p` waits until
    /// no disk portion has `watermark <= p.id` (conservative guard — the
    /// disk may hold unindexed matches for younger punctuations).
    pub disk_watermark: Vec<u64>,
    /// Log of disk-join runs probing *this* side's disk portion.
    pub history: ProbeHistory,
    /// This stream's punctuation ids already applied to purge the
    /// *opposite* state.
    pub applied_up_to: u64,
    /// Join attribute index within this stream's tuples.
    pub join_attr: usize,
    /// Tuple width of this stream.
    pub width: usize,
    /// Newest arrival instant on this side.
    pub newest_ats: Instant,
    /// Per-bucket lower bound on the arrival time of memory-resident
    /// records (`u64::MAX` when the bucket is empty). Lets sliding-window
    /// expiry skip buckets with nothing old enough to expire — the slab
    /// store recycles slots, so buckets are no longer arrival-ordered and
    /// expiry is a predicate scan, gated by this bound.
    oldest_alive: Vec<u64>,
}

impl JoinState {
    /// Creates an empty state over an in-memory simulated disk.
    pub fn new(
        width: usize,
        join_attr: usize,
        buckets: usize,
        page_tuples: usize,
    ) -> JoinState {
        JoinState::with_backend(width, join_attr, buckets, page_tuples, Box::new(SimDisk::new()))
    }

    /// Creates an empty state over an explicit disk backend (e.g. a real
    /// [`spillstore::FileDisk`]).
    pub fn with_backend(
        width: usize,
        join_attr: usize,
        buckets: usize,
        page_tuples: usize,
        backend: Box<dyn spillstore::DiskBackend>,
    ) -> JoinState {
        JoinState {
            store: PartitionedStore::new(
                StoreConfig {
                    buckets,
                    join_attr,
                    page_tuples,
                    spill_policy: SpillPolicy::LargestMemory,
                },
                backend,
            ),
            index: PunctuationIndex::new(join_attr),
            purge_buffer: vec![Vec::new(); buckets],
            purge_buffer_len: 0,
            disk_watermark: vec![u64::MAX; buckets],
            history: ProbeHistory::new(buckets),
            applied_up_to: 0,
            join_attr,
            width,
            newest_ats: 0,
            oldest_alive: vec![u64::MAX; buckets],
        }
    }

    /// Inserts a record via the store's carried-hash fast path while
    /// maintaining the per-bucket oldest-arrival bound that gates window
    /// expiry. All arriving-tuple inserts go through here; direct
    /// `store.insert*` calls are only safe for non-windowed state.
    ///
    /// The stored tuple is [`detached`](punct_types::Tuple::detached): a
    /// join output fed into this join (multi-join plans) must not keep
    /// the block it shares with its neighbours alive for as long as it
    /// is resident.
    pub fn insert_hashed(&mut self, mut record: PRecord, hash: Option<u64>) -> usize {
        record.tuple = record.tuple.detached();
        let bucket = self.store.bucket_of_hash(hash);
        if record.arrival_us < self.oldest_alive[bucket] {
            self.oldest_alive[bucket] = record.arrival_us;
        }
        self.store.insert_hashed(record, hash)
    }

    /// Total tuples held (memory + disk + purge buffer) — the "number of
    /// tuples in the join state" the paper's memory figures plot.
    pub fn total_tuples(&self) -> usize {
        self.store.total_tuples() + self.purge_buffer_len
    }

    /// Tuples held in memory (store memory portions + purge buffer).
    pub fn memory_tuples(&self) -> usize {
        self.store.memory_tuples() + self.purge_buffer_len
    }

    /// Force-indexes every unindexed memory record of `bucket` against
    /// the **full** punctuation set, updating counts. Returns the number
    /// of records examined (for work accounting). Called before a spill
    /// so disk-resident records always carry a pid that is correct as of
    /// their spill watermark.
    pub fn force_index_bucket(&mut self, bucket: usize, work: &mut Work) -> usize {
        let mut assignments: Vec<PunctId> = Vec::new();
        let mut examined = 0usize;
        // Two-phase to satisfy the borrow checker: collect assignments,
        // then apply counts.
        {
            let index = &self.index;
            self.store.for_each_memory_bucket_mut(bucket, |r| {
                examined += 1;
                if r.pid.is_none() {
                    if let Some(pid) = index.assign_pid(&r.tuple) {
                        r.pid = Some(pid);
                        assignments.push(pid);
                    }
                }
            });
        }
        work.index_evals += examined as u64;
        for pid in assignments {
            self.index.increment(pid);
        }
        examined
    }

    /// Relocates `bucket`'s memory portion to disk: force-indexes it,
    /// stamps `departure` as the records' departure instant (callers pass
    /// the next unallocated instant), spills, and lowers the bucket's
    /// disk watermark. Returns pages written.
    pub fn spill_bucket(&mut self, bucket: usize, departure: Instant, work: &mut Work) -> u64 {
        self.force_index_bucket(bucket, work);
        self.store.for_each_memory_bucket_mut(bucket, |r| r.dts = departure);
        let report = self.store.spill_bucket(bucket);
        work.pages_written += report.pages_written;
        if report.tuples_moved > 0 {
            let w = &mut self.disk_watermark[bucket];
            *w = (*w).min(self.index.next_id());
        }
        report.pages_written
    }

    /// Moves a record into the purge buffer of `bucket`, ensuring it
    /// carries a pid (so propagation counts remain exact). The record must
    /// already have its departure instant set. Like
    /// [`insert_hashed`](Self::insert_hashed), stores the tuple detached.
    pub fn buffer_record(&mut self, bucket: usize, mut rec: PRecord, work: &mut Work) {
        debug_assert!(rec.dts != crate::record::DTS_RESIDENT, "buffered records have departed");
        rec.tuple = rec.tuple.detached();
        if rec.pid.is_none() {
            work.index_evals += 1;
            if let Some(pid) = self.index.assign_pid(&rec.tuple) {
                rec.pid = Some(pid);
                self.index.increment(pid);
            }
        }
        self.purge_buffer[bucket].push(rec);
        self.purge_buffer_len += 1;
    }

    /// Drops the purge buffer of `bucket` (after the opposite disk portion
    /// was resolved), decrementing pid counts. Returns records dropped.
    pub fn drop_purge_buffer(&mut self, bucket: usize) -> usize {
        let drained: Vec<PRecord> = std::mem::take(&mut self.purge_buffer[bucket]);
        self.purge_buffer_len -= drained.len();
        let n = drained.len();
        for rec in drained {
            if let Some(pid) = rec.pid {
                self.index.decrement(pid);
            }
        }
        n
    }

    /// The incremental punctuation-index build of the paper's Fig. 3:
    /// assigns pids to unindexed tuples by evaluating them against the
    /// punctuations that arrived since the last build, and updates
    /// counts. Returns the number of tuples examined.
    ///
    /// Which tuples are examined depends on the new punctuations' shape,
    /// as in [`purge_state`](crate::components::purge::purge_state):
    /// when every one is found through the punctuation set's point
    /// indexes (constant, enumeration, empty), only the tuples stored
    /// under the closed values are; one range, wildcard or
    /// non-join-attribute punctuation among them needs the scan of the
    /// memory-resident state.
    pub fn index_build(&mut self, work: &mut Work) -> usize {
        let new_puncts = self.index.unindexed_punctuations();
        if new_puncts == 0 {
            return 0;
        }
        let first_new = self.index.indexed_next();
        let mut assignments: Vec<PunctId> = Vec::new();
        let mut scanned = 0usize;
        let mut evals = 0u64;
        let index = &self.index;
        let set = index.set();
        // The new punctuations with the join values that find them, if
        // every one of them is found by value.
        let closed: Option<Vec<_>> = set
            .iter_from(first_new)
            .map(|(id, p)| Some((id, p, set.point_values(id)?)))
            .collect();
        if let Some(closed) = &closed {
            // Ascending ids and "first pid stays" give every tuple the
            // first-arrived of the new punctuations matching it.
            let join_attr = self.join_attr;
            for &(id, p, values) in closed {
                for value in values {
                    work.key_lookups += 1;
                    // The tag scan is join_eq-coarse (Int/Float coercion);
                    // the set's point indexes are exact, and the other
                    // attributes' patterns still have to hold.
                    self.store.for_each_memory_keyed_mut(value, |r| {
                        scanned += 1;
                        if r.pid.is_none()
                            && r.tuple.get(join_attr) == Some(value)
                            && p.matches(&r.tuple)
                        {
                            r.pid = Some(id);
                            assignments.push(id);
                        }
                    });
                }
            }
        }
        let mut visit = |r: &mut PRecord| {
            scanned += 1;
            if r.pid.is_none() {
                // Nested-loop cost of the paper's algorithm: each
                // unindexed tuple is evaluated against every new
                // punctuation (until a match).
                evals += new_puncts;
                if let Some(pid) = index.assign_pid_new(&r.tuple) {
                    r.pid = Some(pid);
                    assignments.push(pid);
                }
            }
        };
        if closed.is_none() {
            self.store.for_each_memory_mut(&mut visit);
        }
        // Purge-buffer tuples are still part of the state: a
        // punctuation arriving after they were buffered may match
        // them, and missing that match would let it propagate while
        // results involving the buffered tuple are still pending.
        for bucket in &mut self.purge_buffer {
            for r in bucket.iter_mut() {
                visit(r);
            }
        }
        work.index_evals += scanned as u64 + evals;
        for pid in assignments {
            self.index.increment(pid);
        }
        self.index.mark_indexed();
        scanned
    }

    /// Sliding-window expiry (paper §6): drops one bucket's memory
    /// records that arrived before `cutoff_us`, maintaining
    /// punctuation-index counts. Returns records dropped.
    ///
    /// The slab store recycles slots, so buckets are not arrival-ordered
    /// and the paper's prefix-stop optimization does not apply; instead
    /// the per-bucket oldest-arrival bound (maintained by
    /// [`insert_hashed`](Self::insert_hashed)) skips the scan entirely
    /// when nothing in the bucket is old enough to expire.
    pub fn expire_bucket(&mut self, bucket: usize, cutoff_us: u64, work: &mut Work) -> usize {
        if self.oldest_alive[bucket] >= cutoff_us {
            work.purge_scanned += 1; // the bound check
            return 0;
        }
        work.purge_scanned += self.store.bucket(bucket).memory_len() as u64;
        let mut oldest_kept = u64::MAX;
        let expired = self.store.extract_memory_bucket(bucket, |r| {
            if r.arrival_us < cutoff_us {
                true
            } else {
                oldest_kept = oldest_kept.min(r.arrival_us);
                false
            }
        });
        self.oldest_alive[bucket] = oldest_kept;
        work.purged += expired.len() as u64;
        let n = expired.len();
        for rec in expired {
            if let Some(pid) = rec.pid {
                self.index.decrement(pid);
            }
        }
        n
    }

    /// The lowest punctuation id whose propagation must wait on an
    /// unresolved disk portion (see `disk_watermark`): every id at or
    /// above it is blocked, every id below it is free. `u64::MAX` when
    /// nothing is on disk.
    pub fn disk_blocks_from(&self) -> u64 {
        if self.store.disk_tuples() == 0 {
            return u64::MAX;
        }
        (0..self.disk_watermark.len())
            .filter(|&b| self.store.bucket(b).has_disk_portion())
            .map(|b| self.disk_watermark[b])
            .min()
            .unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punct_types::{Pattern, Punctuation, Tuple, Value};

    fn state() -> JoinState {
        JoinState::new(2, 0, 4, 4)
    }

    fn rec(k: i64, ats: u64) -> PRecord {
        PRecord::arriving(Tuple::of((k, 0i64)), ats)
    }

    #[test]
    fn tuple_accounting() {
        let mut s = state();
        s.store.insert(rec(1, 0));
        s.store.insert(rec(2, 1));
        assert_eq!(s.total_tuples(), 2);
        assert_eq!(s.memory_tuples(), 2);
        let mut dropped = rec(3, 2);
        dropped.dts = 3;
        let bucket = s.store.bucket_index(&Value::Int(3));
        let mut w = Work::ZERO;
        s.buffer_record(bucket, dropped, &mut w);
        assert_eq!(s.total_tuples(), 3);
        assert_eq!(s.purge_buffer_len, 1);
        assert_eq!(s.drop_purge_buffer(bucket), 1);
        assert_eq!(s.total_tuples(), 2);
    }

    fn pids(s: &JoinState) -> Vec<(i64, Option<PunctId>)> {
        let mut pids = Vec::new();
        s.store.for_each_memory(|r| pids.push((r.tuple.get(0).unwrap().as_int().unwrap(), r.pid)));
        pids.sort();
        pids
    }

    #[test]
    fn index_build_assigns_and_counts() {
        let mut s = state();
        s.store.insert(rec(5, 0));
        s.store.insert(rec(6, 1));
        let id5 = s.index.insert(Punctuation::close_value(2, 0, 5i64));
        let mut w = Work::ZERO;
        let scanned = s.index_build(&mut w);
        // A constant punctuation examines the records stored under its
        // value, not the state.
        assert_eq!(scanned, 1);
        assert_eq!(s.index.count(id5), 1);
        assert_eq!((w.key_lookups, w.index_evals), (1, 1));
        // The matching tuple now carries the pid.
        assert_eq!(pids(&s), vec![(5, Some(id5)), (6, None)]);
    }

    #[test]
    fn index_build_range_forces_the_scan_and_the_older_id_wins() {
        let mut s = state();
        for (i, k) in [5, 6, 7].into_iter().enumerate() {
            s.store.insert(rec(k, i as u64));
        }
        let id5 = s.index.insert(Punctuation::close_value(2, 0, 5i64));
        let range = s.index.insert(Punctuation::on_attr(2, 0, Pattern::int_range(5, 6)));
        let mut w = Work::ZERO;
        // One range among the new punctuations: every record is visited,
        // each unindexed one charged against both punctuations.
        assert_eq!(s.index_build(&mut w), 3);
        assert_eq!((w.key_lookups, w.index_evals), (0, 3 + 3 * 2));
        assert_eq!(pids(&s), vec![(5, Some(id5)), (6, Some(range)), (7, None)]);
        assert_eq!((s.index.count(id5), s.index.count(range)), (1, 1));
        // A later constant is keyed again and leaves the older pid alone.
        let late6 = s.index.insert(Punctuation::close_value(2, 0, 6i64));
        let mut w = Work::ZERO;
        assert_eq!(s.index_build(&mut w), 1);
        assert_eq!(pids(&s)[1], (6, Some(range)));
        assert_eq!(s.index.count(late6), 0);
    }

    #[test]
    fn index_build_keyed_is_exact_and_indexes_the_purge_buffer() {
        let mut s = state();
        s.store.insert(PRecord::arriving(Tuple::of((Value::Float(2.0), Value::Int(0))), 0));
        s.store.insert(PRecord::arriving(Tuple::of((2i64, 1i64)), 1));
        s.store.insert(PRecord::arriving(Tuple::of((2i64, 9i64)), 2));
        let mut parked = rec(3, 3);
        parked.dts = 4;
        let bucket = s.store.bucket_index(&Value::Int(3));
        let mut w = Work::ZERO;
        s.buffer_record(bucket, parked, &mut w);
        // Closes key 2 only where the payload is 1; then keys {2, 3}.
        let narrow = s.index.insert(Punctuation::new(vec![
            Pattern::Constant(Value::Int(2)),
            Pattern::Constant(Value::Int(1)),
        ]));
        let list = s.index.insert(Punctuation::on_attr(
            2,
            0,
            Pattern::enumeration(vec![Value::Int(2), Value::Int(3)]),
        ));
        let mut w = Work::ZERO;
        s.index_build(&mut w);
        assert_eq!(w.key_lookups, 3);
        // Float(2.0) shares the tag but is closed by neither; (2, 1)
        // keeps the first-arrived pid; the parked tuple is counted.
        assert_eq!((s.index.count(narrow), s.index.count(list)), (1, 2));
        assert_eq!(s.purge_buffer[bucket][0].pid, Some(list));
        let mut by_payload = Vec::new();
        s.store.for_each_memory(|r| by_payload.push((r.tuple.get(1).unwrap().as_int().unwrap(), r.pid)));
        by_payload.sort();
        assert_eq!(by_payload, vec![(0, None), (1, Some(narrow)), (9, Some(list))]);
    }

    #[test]
    fn index_build_is_incremental() {
        let mut s = state();
        s.store.insert(rec(5, 0));
        s.index.insert(Punctuation::close_value(2, 0, 5i64));
        let mut w = Work::ZERO;
        s.index_build(&mut w);
        // No new punctuations: build is a no-op (no scan).
        let scanned = s.index_build(&mut w);
        assert_eq!(scanned, 0);
    }

    #[test]
    fn buffer_record_force_indexes() {
        let mut s = state();
        let id = s.index.insert(Punctuation::close_value(2, 0, 9i64));
        let mut r = rec(9, 0);
        r.dts = 1;
        let bucket = s.store.bucket_index(&Value::Int(9));
        let mut w = Work::ZERO;
        s.buffer_record(bucket, r, &mut w);
        assert_eq!(s.index.count(id), 1);
        s.drop_purge_buffer(bucket);
        assert_eq!(s.index.count(id), 0);
    }

    #[test]
    fn spill_sets_watermark_and_indexes() {
        let mut s = state();
        let id = s.index.insert(Punctuation::close_value(2, 0, 7i64));
        let bucket = s.store.insert(rec(7, 0));
        let mut w = Work::ZERO;
        let pages = s.spill_bucket(bucket, 5, &mut w);
        assert!(pages >= 1);
        assert_eq!(s.index.count(id), 1, "spilled tuple must be counted");
        assert_eq!(s.disk_watermark[bucket], 1);
        // Propagation of id 0 is allowed (watermark 1 > 0); a later
        // punctuation would be blocked.
        assert_eq!(id.0, 0);
        assert_eq!(s.disk_blocks_from(), 1);
    }

    #[test]
    fn disk_blocks_cleared_with_disk() {
        let mut s = state();
        let bucket = s.store.insert(rec(7, 0));
        let mut w = Work::ZERO;
        s.spill_bucket(bucket, 5, &mut w);
        assert_eq!(s.disk_blocks_from(), 0);
        s.store.clear_disk(bucket);
        s.disk_watermark[bucket] = u64::MAX;
        assert_eq!(s.disk_blocks_from(), u64::MAX);
    }
}
