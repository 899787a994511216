//! The partitioned hash store: fixed hash buckets over the join
//! attribute, each with memory and disk portions, plus state relocation.

use punct_types::Value;

use crate::backend::{DiskBackend, IoStats, PageId};
use crate::bucket::{tag_of_hash, Bucket};
use crate::page::{paginate, Page, Record};
use crate::spill::{SpillPolicy, SpillState};

/// Configuration of a [`PartitionedStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of hash buckets.
    pub buckets: usize,
    /// Index of the join attribute within stored tuples.
    pub join_attr: usize,
    /// Records per disk page.
    pub page_tuples: usize,
    /// Victim selection for state relocation.
    pub spill_policy: SpillPolicy,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            buckets: 64,
            join_attr: 0,
            page_tuples: 64,
            spill_policy: SpillPolicy::LargestMemory,
        }
    }
}

/// Report of one state-relocation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillReport {
    /// The relocated bucket.
    pub bucket: usize,
    /// Pages written.
    pub pages_written: u64,
    /// Records moved to disk.
    pub tuples_moved: usize,
}

/// Cumulative state-relocation counters across a store's lifetime.
/// Individual [`SpillReport`]s describe one relocation step; these
/// totals let observability layers attribute disk pressure to a store
/// without intercepting every report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillCounters {
    /// Relocation steps performed ([`PartitionedStore::spill_bucket`] calls).
    pub spill_runs: u64,
    /// Pages written by relocations.
    pub pages_written: u64,
    /// Records moved to disk by relocations.
    pub tuples_moved: u64,
}

impl SpillCounters {
    /// Adds one relocation step's report to the totals.
    fn note(&mut self, report: &SpillReport) {
        self.spill_runs += 1;
        self.pages_written += report.pages_written;
        self.tuples_moved += report.tuples_moved as u64;
    }
}

/// One input stream's join state.
pub struct PartitionedStore<R> {
    config: StoreConfig,
    buckets: Vec<Bucket<R>>,
    backend: Box<dyn DiskBackend>,
    spill_state: SpillState,
    spill_counters: SpillCounters,
    memory_tuples: usize,
    disk_tuples: usize,
}

impl<R: Record> PartitionedStore<R> {
    /// Creates an empty store over `backend`.
    pub fn new(config: StoreConfig, backend: Box<dyn DiskBackend>) -> PartitionedStore<R> {
        assert!(config.buckets > 0, "at least one bucket required");
        let buckets = (0..config.buckets).map(|_| Bucket::new()).collect();
        PartitionedStore {
            config,
            buckets,
            backend,
            spill_state: SpillState::default(),
            spill_counters: SpillCounters::default(),
            memory_tuples: 0,
            disk_tuples: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Deterministic bucket index for a join-key value. Routing hashes
    /// the *canonical* join key (`Value::join_key`) so values that can
    /// `join_eq` each other — e.g. `Int(2)` and `Float(2.0)` — land in
    /// the same bucket. Unjoinable keys (null, absent) route to bucket 0.
    /// Delegates to [`Value::join_hash`], the single hashing site shared
    /// with the sharded router.
    pub fn bucket_index(&self, key: &Value) -> usize {
        self.bucket_of_hash(key.join_hash())
    }

    /// Bucket index for a join hash already computed by
    /// [`Value::join_hash`] (e.g. once in the sharded router and carried
    /// here). Uses the *low* bits (`hash % buckets`) while the router
    /// shards on the high 32 bits, keeping shard and bucket choice
    /// decorrelated. `None` (unjoinable key) routes to bucket 0.
    pub fn bucket_of_hash(&self, hash: Option<u64>) -> usize {
        match hash {
            Some(h) => (h % self.config.buckets as u64) as usize,
            None => 0,
        }
    }

    /// Inserts a record (hashed on its join attribute). Returns the bucket
    /// index. Records whose join attribute is missing or null land in
    /// bucket 0 — they can never join, but operators may still need to
    /// retain them for punctuation accounting.
    pub fn insert(&mut self, record: R) -> usize {
        let hash = record.tuple().get(self.config.join_attr).and_then(Value::join_hash);
        self.insert_hashed(record, hash)
    }

    /// Inserts a record whose join hash was already computed (the
    /// carried-hash fast path: the router hashed once, the store must not
    /// hash again). The hash becomes the record's slab probe tag directly
    /// — no canonical-key extraction, no hashing, no allocation. The
    /// caller's `hash` is trusted; a `None` hash lands in bucket 0 like
    /// an unjoinable key and is never probed.
    pub fn insert_hashed(&mut self, record: R, hash: Option<u64>) -> usize {
        let idx = self.bucket_of_hash(hash);
        self.buckets[idx].push_tagged(record, tag_of_hash(hash));
        self.memory_tuples += 1;
        idx
    }

    /// Linear probe of the whole memory portion of the bucket a key
    /// hashes to (prefer [`probe_memory_keyed`](Self::probe_memory_keyed)).
    pub fn probe_memory<'a>(&'a self, key: &Value) -> impl Iterator<Item = &'a R> + 'a {
        self.buckets[self.bucket_index(key)].iter()
    }

    /// The memory-resident records whose join key can `join_eq` `key`:
    /// a packed tag scan of the key's bucket narrows to hash-equal
    /// candidates, then `join_eq` on the join attribute arbitrates (hash
    /// collisions are filtered out, so the result is exactly the
    /// `join_eq` equivalence class). Yields nothing for unjoinable keys
    /// (null).
    pub fn probe_memory_keyed<'a>(&'a self, key: &'a Value) -> impl Iterator<Item = &'a R> + 'a {
        let hash = key.join_hash();
        let idx = self.bucket_of_hash(hash);
        let attr = self.config.join_attr;
        self.buckets[idx]
            .probe_tag(tag_of_hash(hash))
            .filter(move |r| r.tuple().get(attr).is_some_and(|v| v.join_eq(key)))
    }

    /// Hash probe of an already-located bucket: the memory-resident
    /// records whose probe tag matches the carried `hash` — the
    /// zero-allocation hot path (no canonical `Value` is constructed).
    /// The result is a *superset* of the `join_eq` matches under 64-bit
    /// hash collisions; callers arbitrate candidates with
    /// `Value::join_eq`, as the join operators already do. `None` yields
    /// nothing.
    pub fn probe_bucket_hashed<'a>(
        &'a self,
        bucket: usize,
        hash: Option<u64>,
    ) -> impl Iterator<Item = &'a R> + 'a {
        self.buckets[bucket].probe_tag(tag_of_hash(hash))
    }

    /// Number of memory-resident records a keyed probe of `key` would
    /// yield (the candidate count the cost model charges for).
    pub fn probe_memory_keyed_len(&self, key: &Value) -> usize {
        self.probe_memory_keyed(key).count()
    }

    /// Bucket accessor.
    pub fn bucket(&self, idx: usize) -> &Bucket<R> {
        &self.buckets[idx]
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Iterates over all buckets.
    pub fn buckets(&self) -> impl Iterator<Item = &Bucket<R>> {
        self.buckets.iter()
    }

    /// Records in memory across all buckets.
    pub fn memory_tuples(&self) -> usize {
        self.memory_tuples
    }

    /// Records on disk across all buckets.
    pub fn disk_tuples(&self) -> usize {
        self.disk_tuples
    }

    /// Total records (memory + disk).
    pub fn total_tuples(&self) -> usize {
        self.memory_tuples + self.disk_tuples
    }

    /// Backend I/O statistics.
    pub fn io_stats(&self) -> IoStats {
        self.backend.stats()
    }

    /// Relocates the policy-chosen victim bucket's memory portion to disk.
    /// Returns `None` when nothing is left in memory to spill.
    pub fn spill_one(&mut self) -> Option<SpillReport> {
        let idx = self.config.spill_policy.pick(&self.buckets, &mut self.spill_state)?;
        Some(self.spill_bucket(idx))
    }

    /// Relocates a specific bucket's memory portion to disk.
    pub fn spill_bucket(&mut self, idx: usize) -> SpillReport {
        let records = self.buckets[idx].take_memory();
        let moved = records.len();
        self.memory_tuples -= moved;
        self.disk_tuples += moved;
        let mut page_ids = Vec::new();
        for page in paginate(records, self.config.page_tuples) {
            page_ids.push(self.backend.write_page(page.encode()));
        }
        let pages_written = page_ids.len() as u64;
        self.buckets[idx].add_disk_pages(page_ids, moved);
        let report = SpillReport { bucket: idx, pages_written, tuples_moved: moved };
        self.spill_counters.note(&report);
        report
    }

    /// Cumulative relocation totals since the store was created.
    pub fn spill_counters(&self) -> SpillCounters {
        self.spill_counters
    }

    /// Reads a bucket's entire disk portion back into memory (without
    /// removing it from disk). Returns the records and pages read.
    pub fn read_disk(&mut self, idx: usize) -> (Vec<R>, u64) {
        let page_ids: Vec<PageId> = self.buckets[idx].disk_pages().to_vec();
        let mut records = Vec::with_capacity(self.buckets[idx].disk_len());
        for id in &page_ids {
            let bytes = self.backend.read_page(*id);
            let page: Page<R> = Page::decode(&bytes).expect("pages we wrote must decode");
            records.extend(page.into_records());
        }
        (records, page_ids.len() as u64)
    }

    /// Drops a bucket's disk portion (after a disk join has consumed it),
    /// freeing its pages. Returns the number of records discarded.
    pub fn clear_disk(&mut self, idx: usize) -> usize {
        let dropped = self.buckets[idx].disk_len();
        for id in self.buckets[idx].take_disk_pages() {
            self.backend.free_page(id);
        }
        self.disk_tuples -= dropped;
        dropped
    }

    /// Replaces a bucket's disk portion with `records` (e.g. disk-resident
    /// survivors after a purge-aware disk join). Returns pages written.
    pub fn rewrite_disk(&mut self, idx: usize, records: Vec<R>) -> u64 {
        self.clear_disk(idx);
        let moved = records.len();
        if moved == 0 {
            return 0;
        }
        let mut page_ids = Vec::new();
        for page in paginate(records, self.config.page_tuples) {
            page_ids.push(self.backend.write_page(page.encode()));
        }
        let written = page_ids.len() as u64;
        self.buckets[idx].add_disk_pages(page_ids, moved);
        self.disk_tuples += moved;
        written
    }

    /// Removes and returns the records of one bucket's memory portion
    /// matching `pred` (preserving order of both partitions). Used by
    /// purge logic that must relocate victims (e.g. into a purge buffer)
    /// rather than discard them.
    pub fn extract_memory_bucket(
        &mut self,
        idx: usize,
        pred: impl FnMut(&R) -> bool,
    ) -> Vec<R> {
        let extracted = self.buckets[idx].extract(pred);
        self.memory_tuples -= extracted.len();
        extracted
    }

    /// Removes the memory-resident records whose join key `join_eq`s
    /// `key` *and* that satisfy `pred`, handing each to `sink` as it
    /// leaves; returns how many left. `hash` is `key`'s
    /// [`Value::join_hash`], computed once by the caller. Located without
    /// scanning unrelated records: buckets not holding the hash are
    /// untouched, and records are examined only on a tag hit — `pred`
    /// runs only on the true `join_eq` candidates.
    pub fn extract_memory_hashed(
        &mut self,
        hash: u64,
        key: &Value,
        mut pred: impl FnMut(&R) -> bool,
        sink: impl FnMut(R),
    ) -> usize {
        debug_assert_eq!(key.join_hash(), Some(hash), "hash of another key");
        let idx = self.bucket_of_hash(Some(hash));
        let attr = self.config.join_attr;
        let removed = self.buckets[idx].extract_tag(
            tag_of_hash(Some(hash)),
            |r| r.tuple().get(attr).is_some_and(|v| v.join_eq(key)) && pred(r),
            sink,
        );
        self.memory_tuples -= removed;
        removed
    }

    /// [`extract_memory_hashed`](Self::extract_memory_hashed) collected
    /// into a `Vec`, hashing `key` here: for callers off the purge path
    /// (the benchmark's storage lane times it). Unjoinable keys take
    /// nothing.
    pub fn extract_memory_keyed(&mut self, key: &Value, pred: impl FnMut(&R) -> bool) -> Vec<R> {
        let mut taken = Vec::new();
        if let Some(hash) = key.join_hash() {
            self.extract_memory_hashed(hash, key, pred, |r| taken.push(r));
        }
        taken
    }

    /// Purge scan over one bucket's memory portion: keeps records
    /// satisfying `keep`. Returns `(scanned, removed)`.
    pub fn retain_memory_bucket(
        &mut self,
        idx: usize,
        keep: impl FnMut(&R) -> bool,
    ) -> (usize, usize) {
        let (scanned, removed) = self.buckets[idx].retain(keep);
        self.memory_tuples -= removed;
        (scanned, removed)
    }

    /// Purge scan over every bucket's memory portion. Returns
    /// `(scanned, removed)` totals.
    pub fn retain_memory(&mut self, mut keep: impl FnMut(&R) -> bool) -> (usize, usize) {
        let (mut scanned, mut removed) = (0, 0);
        for idx in 0..self.buckets.len() {
            let (s, r) = self.retain_memory_bucket(idx, &mut keep);
            scanned += s;
            removed += r;
        }
        (scanned, removed)
    }

    /// Visits every memory-resident record.
    pub fn for_each_memory(&self, mut f: impl FnMut(&R)) {
        for b in &self.buckets {
            for r in b.iter() {
                f(r);
            }
        }
    }

    /// Mutably visits one bucket's memory-resident records — used e.g. to
    /// stamp departure timestamps immediately before relocating the bucket.
    pub fn for_each_memory_bucket_mut(&mut self, idx: usize, mut f: impl FnMut(&mut R)) {
        for r in self.buckets[idx].iter_mut() {
            f(r);
        }
    }

    /// The policy's current spill victim without performing the spill.
    pub fn peek_spill_victim(&mut self) -> Option<usize> {
        self.config.spill_policy.pick(&self.buckets, &mut self.spill_state)
    }

    /// Indices of buckets that currently have a disk portion.
    pub fn buckets_with_disk(&self) -> Vec<usize> {
        (0..self.buckets.len()).filter(|&i| self.buckets[i].has_disk_portion()).collect()
    }
}

impl<R: Record> std::fmt::Debug for PartitionedStore<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedStore")
            .field("buckets", &self.config.buckets)
            .field("memory_tuples", &self.memory_tuples)
            .field("disk_tuples", &self.disk_tuples)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_disk::SimDisk;
    use punct_types::Tuple;

    fn store(buckets: usize) -> PartitionedStore<Tuple> {
        PartitionedStore::new(
            StoreConfig { buckets, page_tuples: 4, ..StoreConfig::default() },
            Box::new(SimDisk::new()),
        )
    }

    fn tup(k: i64) -> Tuple {
        Tuple::of((k, "payload"))
    }

    #[test]
    fn insert_routes_by_hash() {
        let mut s = store(8);
        for k in 0..100 {
            let idx = s.insert(tup(k));
            assert_eq!(idx, s.bucket_index(&Value::Int(k)));
        }
        assert_eq!(s.memory_tuples(), 100);
        assert_eq!(s.total_tuples(), 100);
        // All records findable via probe.
        for k in 0..100 {
            let hits = s
                .probe_memory(&Value::Int(k))
                .filter(|r| r.get(0) == Some(&Value::Int(k)))
                .count();
            assert_eq!(hits, 1, "key {k}");
        }
    }

    #[test]
    fn same_key_same_bucket() {
        let s = store(16);
        let a = s.bucket_index(&Value::Int(42));
        let b = s.bucket_index(&Value::Int(42));
        assert_eq!(a, b);
    }

    #[test]
    fn bucket_of_hash_matches_bucket_index() {
        let s = store(16);
        for k in 0..100 {
            let key = Value::Int(k);
            assert_eq!(s.bucket_of_hash(key.join_hash()), s.bucket_index(&key));
        }
        assert_eq!(s.bucket_of_hash(None), 0);
    }

    #[test]
    fn insert_hashed_honors_carried_hash() {
        // The store must trust the carried hash rather than recompute it:
        // a deliberately wrong hash lands the record in the wrong bucket,
        // proving no second hashing site exists on this path.
        let mut s = store(16);
        let key = Value::Int(7);
        let natural = s.bucket_index(&key);
        let forced = (natural + 1) % s.bucket_count();
        let idx = s.insert_hashed(tup(7), Some(forced as u64));
        assert_eq!(idx, forced);
        assert_ne!(idx, natural);
        assert_eq!(s.bucket(forced).memory_len(), 1);
        assert_eq!(s.bucket(natural).memory_len(), 0);
        // With the true hash it matches insert() exactly.
        let idx2 = s.insert_hashed(tup(7), key.join_hash());
        assert_eq!(idx2, natural);
    }

    #[test]
    fn spill_moves_largest_bucket() {
        let mut s = store(4);
        for k in 0..40 {
            s.insert(tup(k));
        }
        let mem_before = s.memory_tuples();
        let report = s.spill_one().unwrap();
        assert!(report.tuples_moved > 0);
        assert!(report.pages_written >= 1);
        assert_eq!(s.memory_tuples(), mem_before - report.tuples_moved);
        assert_eq!(s.disk_tuples(), report.tuples_moved);
        assert_eq!(s.total_tuples(), 40);
        assert!(s.bucket(report.bucket).has_disk_portion());
    }

    #[test]
    fn spill_counters_accumulate_across_relocations() {
        let mut s = store(1);
        assert_eq!(s.spill_counters(), SpillCounters::default());
        for k in 0..10 {
            s.insert(tup(k));
        }
        let first = s.spill_bucket(0); // 10 tuples, page_tuples = 4 → 3 pages
        for k in 10..14 {
            s.insert(tup(k));
        }
        let second = s.spill_bucket(0); // 4 tuples → 1 page
        let totals = s.spill_counters();
        assert_eq!(totals.spill_runs, 2);
        assert_eq!(totals.pages_written, first.pages_written + second.pages_written);
        assert_eq!(
            totals.tuples_moved,
            (first.tuples_moved + second.tuples_moved) as u64
        );
        // rewrite_disk is a disk-join rewrite, not a relocation: not counted.
        s.rewrite_disk(0, (0..3).map(tup).collect());
        assert_eq!(s.spill_counters().spill_runs, 2);
    }

    #[test]
    fn read_disk_round_trips() {
        let mut s = store(1);
        for k in 0..10 {
            s.insert(tup(k));
        }
        let report = s.spill_bucket(0);
        assert_eq!(report.tuples_moved, 10);
        assert_eq!(report.pages_written, 3); // page_tuples = 4
        let (records, pages_read) = s.read_disk(0);
        assert_eq!(pages_read, 3);
        assert_eq!(records.len(), 10);
        let keys: Vec<i64> =
            records.iter().map(|r| r.get(0).unwrap().as_int().unwrap()).collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clear_disk_frees_pages() {
        let mut s = store(1);
        for k in 0..10 {
            s.insert(tup(k));
        }
        s.spill_bucket(0);
        assert_eq!(s.clear_disk(0), 10);
        assert_eq!(s.disk_tuples(), 0);
        assert_eq!(s.total_tuples(), 0);
        assert!(!s.bucket(0).has_disk_portion());
    }

    #[test]
    fn rewrite_disk_replaces_contents() {
        let mut s = store(1);
        for k in 0..8 {
            s.insert(tup(k));
        }
        s.spill_bucket(0);
        let survivors: Vec<Tuple> = (0..3).map(tup).collect();
        let written = s.rewrite_disk(0, survivors);
        assert!(written >= 1);
        assert_eq!(s.disk_tuples(), 3);
        let (records, _) = s.read_disk(0);
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn rewrite_disk_with_empty_clears() {
        let mut s = store(1);
        s.insert(tup(1));
        s.spill_bucket(0);
        assert_eq!(s.rewrite_disk(0, vec![]), 0);
        assert_eq!(s.disk_tuples(), 0);
    }

    #[test]
    fn retain_memory_purges() {
        let mut s = store(4);
        for k in 0..20 {
            s.insert(tup(k));
        }
        let (scanned, removed) =
            s.retain_memory(|r| r.get(0).unwrap().as_int().unwrap() >= 10);
        assert_eq!(scanned, 20);
        assert_eq!(removed, 10);
        assert_eq!(s.memory_tuples(), 10);
    }

    #[test]
    fn retain_single_bucket_only_touches_it() {
        let mut s = store(4);
        for k in 0..20 {
            s.insert(tup(k));
        }
        let idx = s.bucket_index(&Value::Int(0));
        let before_others: usize =
            (0..4).filter(|&i| i != idx).map(|i| s.bucket(i).memory_len()).sum();
        s.retain_memory_bucket(idx, |_| false);
        let after_others: usize =
            (0..4).filter(|&i| i != idx).map(|i| s.bucket(i).memory_len()).sum();
        assert_eq!(before_others, after_others);
        assert_eq!(s.bucket(idx).memory_len(), 0);
    }

    #[test]
    fn null_keys_land_in_bucket_zero() {
        let mut s = store(8);
        let idx = s.insert(Tuple::new(vec![Value::Null, Value::Int(1)]));
        // Null hashes like any value — consistent routing is all we need.
        assert_eq!(idx, s.bucket_index(&Value::Null));
    }

    #[test]
    fn buckets_with_disk_lists_spilled() {
        let mut s = store(4);
        for k in 0..40 {
            s.insert(tup(k));
        }
        assert!(s.buckets_with_disk().is_empty());
        let r = s.spill_one().unwrap();
        assert_eq!(s.buckets_with_disk(), vec![r.bucket]);
    }

    #[test]
    fn for_each_memory_visits_all() {
        let mut s = store(4);
        for k in 0..12 {
            s.insert(tup(k));
        }
        let mut n = 0;
        s.for_each_memory(|_| n += 1);
        assert_eq!(n, 12);
    }

    #[test]
    fn extract_memory_bucket_partitions() {
        let mut s = store(1);
        for k in 0..10 {
            s.insert(tup(k));
        }
        let evens =
            s.extract_memory_bucket(0, |r| r.get(0).unwrap().as_int().unwrap() % 2 == 0);
        assert_eq!(evens.len(), 5);
        assert_eq!(s.memory_tuples(), 5);
        // Order preserved in both partitions.
        let kept: Vec<i64> =
            s.bucket(0).iter().map(|r| r.get(0).unwrap().as_int().unwrap()).collect();
        assert_eq!(kept, vec![1, 3, 5, 7, 9]);
        let got: Vec<i64> =
            evens.iter().map(|r| r.get(0).unwrap().as_int().unwrap()).collect();
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _ = store(0);
    }

    #[test]
    fn keyed_probe_returns_exactly_matching_records() {
        let mut s = store(8);
        for k in 0..50 {
            s.insert(tup(k % 10));
        }
        for k in 0..10 {
            let hits: Vec<i64> = s
                .probe_memory_keyed(&Value::Int(k))
                .map(|r| r.get(0).unwrap().as_int().unwrap())
                .collect();
            assert_eq!(hits, vec![k; 5], "key {k}");
            assert_eq!(s.probe_memory_keyed_len(&Value::Int(k)), 5);
        }
        assert_eq!(s.probe_memory_keyed(&Value::Int(99)).count(), 0);
        assert_eq!(s.probe_memory_keyed(&Value::Null).count(), 0);
    }

    #[test]
    fn keyed_probe_coerces_int_float() {
        let mut s = store(8);
        s.insert(tup(3));
        s.insert(Tuple::of((3.0f64, "float payload")));
        // Both the Int and the integral-Float key find both records.
        assert_eq!(s.probe_memory_keyed(&Value::Int(3)).count(), 2);
        assert_eq!(s.probe_memory_keyed(&Value::Float(3.0)).count(), 2);
        // And they share a bucket despite differing raw hashes.
        assert_eq!(s.bucket_index(&Value::Int(3)), s.bucket_index(&Value::Float(3.0)));
    }

    #[test]
    fn keyed_probe_consistent_after_retain_and_spill() {
        let mut s = store(4);
        for k in 0..40 {
            s.insert(tup(k % 8));
        }
        s.retain_memory(|r| r.get(0).unwrap().as_int().unwrap() % 2 == 0);
        for k in 0..8 {
            let expect = if k % 2 == 0 { 5 } else { 0 };
            assert_eq!(s.probe_memory_keyed(&Value::Int(k)).count(), expect, "key {k}");
        }
        // Spilling a bucket empties its memory index.
        let victim = s.bucket_index(&Value::Int(0));
        s.spill_bucket(victim);
        assert_eq!(s.probe_memory_keyed_len(&Value::Int(0)), 0);
        assert!(s.bucket(victim).has_disk_portion());
    }

    #[test]
    fn extract_memory_keyed_takes_only_that_key() {
        let mut s = store(4);
        for k in 0..30 {
            s.insert(tup(k % 6));
        }
        let got = s.extract_memory_keyed(&Value::Int(2), |_| true);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|r| r.get(0).unwrap().as_int().unwrap() == 2));
        assert_eq!(s.memory_tuples(), 25);
        assert_eq!(s.probe_memory_keyed_len(&Value::Int(2)), 0);
        // Other keys untouched and still probeable.
        for k in [0i64, 1, 3, 4, 5] {
            assert_eq!(s.probe_memory_keyed_len(&Value::Int(k)), 5, "key {k}");
        }
        // Absent key and null are no-ops.
        assert!(s.extract_memory_keyed(&Value::Int(77), |_| true).is_empty());
        assert!(s.extract_memory_keyed(&Value::Null, |_| true).is_empty());
        assert_eq!(s.memory_tuples(), 25);
        // A rejecting predicate extracts nothing and leaves the index
        // intact.
        assert!(s.extract_memory_keyed(&Value::Int(3), |_| false).is_empty());
        assert_eq!(s.probe_memory_keyed_len(&Value::Int(3)), 5);
        // The hashed form takes the join_eq class, each record handed
        // over as it leaves.
        s.insert(Tuple::of((Value::Float(4.0), Value::Int(0))));
        let four = Value::Int(4);
        let mut taken = Vec::new();
        let n = s.extract_memory_hashed(four.join_hash().unwrap(), &four, |_| true, |r| taken.push(r));
        assert_eq!((n, taken.len()), (6, 6), "five Int(4) and the join-equal Float(4.0)");
        assert_eq!(s.memory_tuples(), 20);
    }

    #[test]
    fn keyed_probe_consistent_after_extract_bucket() {
        let mut s = store(1);
        for k in 0..12 {
            s.insert(tup(k % 3));
        }
        let evens =
            s.extract_memory_bucket(0, |r| r.get(0).unwrap().as_int().unwrap() == 0);
        assert_eq!(evens.len(), 4);
        assert_eq!(s.probe_memory_keyed_len(&Value::Int(0)), 0);
        assert_eq!(s.probe_memory_keyed_len(&Value::Int(1)), 4);
        assert_eq!(s.probe_memory_keyed_len(&Value::Int(2)), 4);
    }
}
