//! One input stream's join state (paper §3.1): the partitioned hash
//! store (memory + disk portions), the purge buffer, and the punctuation
//! index, plus the bookkeeping that keeps them mutually consistent: every
//! tuple that enters or leaves the state is counted in or out of the
//! index by its join value, and a spill or a move to the purge buffer
//! leaves the count as it is.

use punct_types::Value;
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
            history: ProbeHistory::new(buckets),
            applied_up_to: 0,
            join_attr,
            width,
            newest_ats: 0,
            oldest_alive: vec![u64::MAX; buckets],
        }
    }

    /// Inserts a record via the store's carried-hash fast path, counting
    /// it into the punctuation index and maintaining the per-bucket
    /// oldest-arrival bound that gates window expiry. Every tuple stored
    /// in memory enters the state here.
    ///
    /// The stored tuple is [`detached`](punct_types::Tuple::detached): a
    /// join output fed into this join (multi-join plans) must not keep
    /// the block it shares with its neighbours alive for as long as it
    /// is resident.
    pub fn insert_hashed(&mut self, mut record: PRecord, hash: Option<u64>) -> usize {
        record.tuple = record.tuple.detached();
        self.index.enter(&record.tuple);
        let bucket = self.store.bucket_of_hash(hash);
        if record.arrival_us < self.oldest_alive[bucket] {
            self.oldest_alive[bucket] = record.arrival_us;
        }
        self.store.insert_hashed(record, hash)
    }

    /// [`insert_hashed`](Self::insert_hashed) with the join hash computed
    /// here.
    pub fn insert(&mut self, record: PRecord) -> usize {
        let hash = record.tuple.get(self.join_attr).and_then(Value::join_hash);
        self.insert_hashed(record, hash)
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

    /// Relocates `bucket`'s memory portion to disk: stamps `departure` as
    /// the records' departure instant (callers pass the next unallocated
    /// instant) and spills. The records stay counted in the index.
    /// Returns pages written.
    pub fn spill_bucket(&mut self, bucket: usize, departure: Instant, work: &mut Work) -> u64 {
        self.store.for_each_memory_bucket_mut(bucket, |r| r.dts = departure);
        let report = self.store.spill_bucket(bucket);
        work.pages_written += report.pages_written;
        report.pages_written
    }

    /// Moves a record that already left the memory portion into the
    /// purge buffer of `bucket`; it stays counted. The record must
    /// already have its departure instant set. Like
    /// [`insert_hashed`](Self::insert_hashed), stores the tuple detached.
    pub fn buffer_record(&mut self, bucket: usize, rec: PRecord) {
        buffer_into(&mut self.purge_buffer[bucket], &mut self.purge_buffer_len, rec);
    }

    /// Parks an arriving tuple in the purge buffer of `bucket` (the
    /// on-the-fly path when the opposite disk portion may still join it):
    /// it enters the state there.
    pub fn park_record(&mut self, bucket: usize, rec: PRecord) {
        self.index.enter(&rec.tuple);
        self.buffer_record(bucket, rec);
    }

    /// Drops the purge buffer of `bucket` (after the opposite disk portion
    /// was resolved), counting its records out. Returns records dropped.
    pub fn drop_purge_buffer(&mut self, bucket: usize) -> usize {
        let drained: Vec<PRecord> = std::mem::take(&mut self.purge_buffer[bucket]);
        self.purge_buffer_len -= drained.len();
        for rec in &drained {
            self.index.leave(&rec.tuple);
        }
        drained.len()
    }

    /// Sliding-window expiry (paper §6): drops one bucket's memory
    /// records that arrived before `cutoff_us`, counting them out of the
    /// punctuation index. Returns records dropped.
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
        for rec in &expired {
            self.index.leave(&rec.tuple);
        }
        expired.len()
    }
}

/// [`JoinState::buffer_record`] on the two fields it touches, for a purge
/// that hands records over while the store is borrowed.
pub(crate) fn buffer_into(buffer: &mut Vec<PRecord>, len: &mut usize, mut rec: PRecord) {
    debug_assert!(rec.dts != crate::record::DTS_RESIDENT, "buffered records have departed");
    rec.tuple = rec.tuple.detached();
    buffer.push(rec);
    *len += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::purge::purge_state;
    use punct_types::{Pattern, Punctuation, Tuple};

    fn state() -> JoinState {
        JoinState::new(2, 0, 4, 4)
    }

    fn rec(k: i64, ats: u64) -> PRecord {
        PRecord::arriving(Tuple::of((k, 0i64)), ats)
    }

    #[test]
    fn tuple_accounting() {
        let mut s = state();
        s.insert(rec(1, 0));
        s.insert(rec(2, 1));
        assert_eq!(s.total_tuples(), 2);
        assert_eq!(s.memory_tuples(), 2);
        let mut parked = rec(3, 2);
        parked.dts = 3;
        let bucket = s.store.bucket_index(&Value::Int(3));
        s.park_record(bucket, parked);
        assert_eq!(s.total_tuples(), 3);
        assert_eq!(s.purge_buffer_len, 1);
        assert_eq!(s.index.count(&Value::Int(3)), 1, "a parked tuple entered the state");
        assert_eq!(s.drop_purge_buffer(bucket), 1);
        assert_eq!(s.total_tuples(), 2);
        assert_eq!(s.index.count(&Value::Int(3)), 0);
    }

    /// A spilled tuple stays counted, so it holds its value's
    /// punctuation until the disk portion is dropped; a punctuation on
    /// another value is free at once.
    #[test]
    fn disk_blocks_cleared_with_disk() {
        let mut s = state();
        let bucket = s.insert(rec(7, 0));
        let mut w = Work::ZERO;
        assert!(s.spill_bucket(bucket, 5, &mut w) >= 1);
        assert_eq!((s.store.disk_tuples(), s.index.count(&Value::Int(7))), (1, 1));
        let seven = s.index.insert(Punctuation::close_value(2, 0, 7i64), 0);
        let eight = s.index.insert(Punctuation::close_value(2, 0, 8i64), 0);
        assert!(s.index.propagable().eq([eight]));
        let (disk, _) = s.store.read_disk(bucket);
        s.store.clear_disk(bucket);
        disk.iter().for_each(|r| s.index.leave(&r.tuple));
        assert!(s.index.propagable().eq([seven, eight]));
    }

    /// A purge that moves a tuple to the purge buffer keeps it counted.
    #[test]
    fn buffered_records_stay_counted() {
        let mut s = state();
        s.insert(rec(9, 0));
        let id = s.index.insert(Punctuation::close_value(2, 0, 9i64), 0);
        let bucket = s.store.bucket_index(&Value::Int(9));
        let mut w = Work::ZERO;
        let closed = Pattern::Constant(Value::Int(9));
        purge_state(&mut s, [&closed], |b| b == bucket, 1, &mut w);
        assert_eq!(s.purge_buffer_len, 1);
        assert_eq!(s.index.count(&Value::Int(9)), 1);
        assert_eq!(s.index.propagable().count(), 0);
        s.drop_purge_buffer(bucket);
        assert!(s.index.propagable().eq([id]));
    }

    #[test]
    fn expiry_counts_tuples_out() {
        let mut s = state();
        let bucket = s.insert(PRecord::arriving_at(Tuple::of((4i64, 0i64)), 0, 10));
        s.insert(PRecord::arriving_at(Tuple::of((4i64, 1i64)), 1, 50));
        let mut w = Work::ZERO;
        assert_eq!(s.expire_bucket(bucket, 20, &mut w), 1);
        assert_eq!(s.index.count(&Value::Int(4)), 1);
        assert_eq!(s.expire_bucket(bucket, 60, &mut w), 1);
        assert_eq!(s.index.counts().count(), 0);
    }
}
