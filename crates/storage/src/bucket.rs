//! A hash bucket with an in-memory portion and an on-disk portion
//! (paper §3.1: "each hash bucket has an in-memory portion and an on-disk
//! portion"). The memory portion is a *slab*: records live in a
//! contiguous slot arena with a parallel packed `Vec<u64>` tag array, so
//! probes do a linear scan over tags (one cache line holds eight of
//! them) and touch record data only on a tag hit. Freed slots are
//! recycled through a free list instead of compacting or reallocating —
//! the steady-state insert/remove cycle performs no heap allocation.

use punct_types::Value;

use crate::backend::PageId;
use crate::kernel::{ProbeKernel, WINDOW};

/// Tag of a free (hole) slot. Never matches a probe.
pub const TAG_FREE: u64 = u64::MAX;

/// Tag of a live record with no joinable key (missing/null join
/// attribute). Stored and scanned by full iterations, but never matched
/// by a tag probe — such records cannot join.
pub const TAG_UNKEYED: u64 = u64::MAX - 1;

/// The probe tag for a join hash as computed by [`Value::join_hash`].
///
/// Real hashes that collide with the two sentinel values are remapped
/// (`wrapping_sub(2)`) so a probe can never observe a hole or an
/// unkeyed record; the remap is applied identically on insert and
/// probe, so it preserves the hash-equality relation. `None` (an
/// unjoinable key) maps to [`TAG_UNKEYED`].
#[inline]
pub fn tag_of_hash(hash: Option<u64>) -> u64 {
    match hash {
        Some(h) if h >= TAG_UNKEYED => h.wrapping_sub(2),
        Some(h) => h,
        None => TAG_UNKEYED,
    }
}

/// The probe tag of a key value: its join hash through
/// [`tag_of_hash`]. Unjoinable keys (null) yield [`TAG_UNKEYED`],
/// which no probe matches.
#[inline]
pub fn tag_of_key(key: &Value) -> u64 {
    tag_of_hash(key.join_hash())
}

/// One hash bucket of a [`PartitionedStore`](crate::PartitionedStore).
///
/// Invariants:
/// - `slots.len() == tags.len()`;
/// - `slots[i].is_some()` iff `tags[i] != TAG_FREE`;
/// - `free` holds exactly the indices with `tags[i] == TAG_FREE`;
/// - `live` is the number of occupied slots.
///
/// A tag probe returns the records whose join *hash* matches — a
/// superset of the records whose join key matches, under (astronomically
/// unlikely) 64-bit hash collisions. Callers arbitrate candidates with
/// `Value::join_eq`, exactly as they already must for the equal-hash
/// case.
///
/// Slot recycling means iteration order is slot order, **not** arrival
/// order: a record inserted after a removal may occupy an earlier slot
/// than older records. All equivalence gates compare multisets, and
/// window expiry scans with a predicate rather than assuming an
/// arrival-ordered prefix.
#[derive(Debug, Clone)]
pub struct Bucket<R> {
    /// The record arena. `None` marks a hole on the free list.
    slots: Vec<Option<R>>,
    /// Parallel probe tags; `TAG_FREE` for holes, `TAG_UNKEYED` for
    /// live records without a joinable key.
    tags: Vec<u64>,
    /// Stack of hole indices available for reuse.
    free: Vec<u32>,
    /// Occupied slots.
    live: usize,
    /// Pages holding the disk-resident portion, in spill order.
    disk_pages: Vec<PageId>,
    /// Number of records across `disk_pages`.
    disk_tuples: usize,
}

impl<R> Bucket<R> {
    /// Creates an empty bucket.
    pub fn new() -> Bucket<R> {
        Bucket {
            slots: Vec::new(),
            tags: Vec::new(),
            free: Vec::new(),
            live: 0,
            disk_pages: Vec::new(),
            disk_tuples: 0,
        }
    }

    /// Iterates the memory-resident records in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &R> + '_ {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Mutably iterates the memory-resident records (used by purge
    /// bookkeeping and timestamp stamping). Mutations must not change a
    /// record's join key — the stored tag would go stale.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut R> + '_ {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }

    /// Inserts a record with no probe tag ([`TAG_UNKEYED`]). Tag probes
    /// will not see it; prefer [`push_tagged`](Bucket::push_tagged) for
    /// records with a joinable key.
    pub fn push(&mut self, record: R) {
        self.insert_slot(record, TAG_UNKEYED);
    }

    /// Inserts a record under `tag` (from [`tag_of_hash`]), reusing a
    /// free slot when one exists.
    pub fn push_tagged(&mut self, record: R, tag: u64) {
        debug_assert!(tag != TAG_FREE, "TAG_FREE marks holes, not records");
        self.insert_slot(record, tag);
    }

    fn insert_slot(&mut self, record: R, tag: u64) {
        match self.free.pop() {
            Some(slot) => {
                let slot = slot as usize;
                debug_assert!(self.slots[slot].is_none());
                self.slots[slot] = Some(record);
                self.tags[slot] = tag;
            }
            None => {
                self.slots.push(Some(record));
                self.tags.push(tag);
            }
        }
        self.live += 1;
    }

    /// The memory-resident records whose tag equals `tag`: a kernelized
    /// scan of the packed tag array ([`ProbeKernel`]) — one match
    /// bitmask per 64-tag window, record data touched only on a hit,
    /// no allocation. Sentinel tags ([`TAG_FREE`], [`TAG_UNKEYED`])
    /// match nothing.
    pub fn probe_tag(&self, tag: u64) -> impl Iterator<Item = &R> + '_ {
        TagScan {
            tags: &self.tags,
            slots: &self.slots,
            kernel: ProbeKernel::selected(),
            tag,
            base: 0,
            // A sentinel probe scans nothing (the old loop's `live_tag`
            // guard); real tags start at window 0.
            next: if tag < TAG_UNKEYED {
                0
            } else {
                self.tags.len()
            },
            mask: 0,
        }
    }

    /// Removes the records matching `tag` that also satisfy `pred`,
    /// freeing their slots, and hands each to `sink` as it leaves;
    /// returns how many left. The kernel's match mask is walked one
    /// 64-tag window at a time, in ascending slot order, so only
    /// tag-matching slots have their record examined and nothing is
    /// buffered. Sentinel tags ([`TAG_FREE`], [`TAG_UNKEYED`]) match
    /// nothing.
    pub fn extract_tag(
        &mut self,
        tag: u64,
        mut pred: impl FnMut(&R) -> bool,
        mut sink: impl FnMut(R),
    ) -> usize {
        if tag >= TAG_UNKEYED {
            return 0;
        }
        let kernel = ProbeKernel::selected();
        let mut removed = 0;
        let mut base = 0;
        while base < self.tags.len() {
            let end = (base + WINDOW).min(self.tags.len());
            let mut m = kernel.match_mask(&self.tags[base..end], tag);
            while m != 0 {
                let i = base + m.trailing_zeros() as usize;
                m &= m - 1;
                let rec = self.slots[i].as_ref().expect("tagged slot holds a record");
                if pred(rec) {
                    sink(self.slots[i].take().expect("checked occupied"));
                    self.free_slot(i);
                    removed += 1;
                }
            }
            base = end;
        }
        removed
    }

    /// Removes and returns every record satisfying `pred`, freeing
    /// slots. Occupied slots are found by kernel occupancy masks, so
    /// hole-heavy slabs skip whole windows of free slots.
    pub fn extract(&mut self, mut pred: impl FnMut(&R) -> bool) -> Vec<R> {
        let kernel = ProbeKernel::selected();
        let mut extracted = Vec::new();
        let mut base = 0;
        while base < self.slots.len() {
            let end = (base + WINDOW).min(self.slots.len());
            let mut m = kernel.occupied_mask(&self.tags[base..end]);
            while m != 0 {
                let i = base + m.trailing_zeros() as usize;
                m &= m - 1;
                let rec = self.slots[i]
                    .as_ref()
                    .expect("occupied slot holds a record");
                if pred(rec) {
                    extracted.push(self.slots[i].take().expect("checked occupied"));
                    self.free_slot(i);
                }
            }
            base = end;
        }
        extracted
    }

    /// Keeps only the records satisfying `keep`, freeing the rest.
    /// Returns `(scanned, removed)`. Scans occupancy masks like
    /// [`extract`](Bucket::extract).
    pub fn retain(&mut self, mut keep: impl FnMut(&R) -> bool) -> (usize, usize) {
        let kernel = ProbeKernel::selected();
        let mut scanned = 0;
        let mut removed = 0;
        let mut base = 0;
        while base < self.slots.len() {
            let end = (base + WINDOW).min(self.slots.len());
            let mut m = kernel.occupied_mask(&self.tags[base..end]);
            while m != 0 {
                let i = base + m.trailing_zeros() as usize;
                m &= m - 1;
                scanned += 1;
                let rec = self.slots[i]
                    .as_ref()
                    .expect("occupied slot holds a record");
                if !keep(rec) {
                    self.slots[i] = None;
                    self.free_slot(i);
                    removed += 1;
                }
            }
            base = end;
        }
        (scanned, removed)
    }

    fn free_slot(&mut self, i: usize) {
        self.tags[i] = TAG_FREE;
        self.free.push(i as u32);
        self.live -= 1;
    }

    /// Number of memory-resident records.
    pub fn memory_len(&self) -> usize {
        self.live
    }

    /// Number of disk-resident records.
    pub fn disk_len(&self) -> usize {
        self.disk_tuples
    }

    /// Total records in the bucket.
    pub fn len(&self) -> usize {
        self.live + self.disk_tuples
    }

    /// True if the bucket holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if part of this bucket lives on disk.
    pub fn has_disk_portion(&self) -> bool {
        self.disk_tuples > 0
    }

    /// The page ids of the disk portion.
    pub fn disk_pages(&self) -> &[PageId] {
        &self.disk_pages
    }

    /// Takes the whole memory portion out (state relocation) in slot
    /// order. Keeps the arena's capacity for refills — the slab does not
    /// shrink.
    pub fn take_memory(&mut self) -> Vec<R> {
        let taken: Vec<R> = self.slots.drain(..).flatten().collect();
        self.tags.clear();
        self.free.clear();
        self.live = 0;
        taken
    }

    /// Registers pages written for this bucket's disk portion.
    pub fn add_disk_pages(&mut self, pages: Vec<PageId>, tuples: usize) {
        self.disk_pages.extend(pages);
        self.disk_tuples += tuples;
    }

    /// Clears the disk-portion bookkeeping, returning the page ids so the
    /// caller can free them. Used after a disk join fully processed the
    /// bucket.
    pub fn take_disk_pages(&mut self) -> Vec<PageId> {
        self.disk_tuples = 0;
        std::mem::take(&mut self.disk_pages)
    }
}

impl<R> Default for Bucket<R> {
    fn default() -> Self {
        Bucket::new()
    }
}

/// Lazy kernelized probe: computes one 64-tag window's match bitmask at
/// a time and pops hits off it with `trailing_zeros` — the iterator
/// analogue of [`ProbeKernel::scan_tags`], allocation-free so the
/// executor's hot-path budget is unaffected by probe volume.
struct TagScan<'a, R> {
    tags: &'a [u64],
    slots: &'a [Option<R>],
    kernel: ProbeKernel,
    tag: u64,
    /// Start index of the window `mask` covers.
    base: usize,
    /// Start index of the next window to scan (`tags.len()` = done).
    next: usize,
    /// Remaining hits in the current window.
    mask: u64,
}

impl<'a, R> Iterator for TagScan<'a, R> {
    type Item = &'a R;

    fn next(&mut self) -> Option<&'a R> {
        loop {
            if self.mask != 0 {
                let i = self.base + self.mask.trailing_zeros() as usize;
                self.mask &= self.mask - 1;
                return Some(self.slots[i].as_ref().expect("tagged slot holds a record"));
            }
            if self.next >= self.tags.len() {
                return None;
            }
            let end = (self.next + WINDOW).min(self.tags.len());
            self.base = self.next;
            self.mask = self.kernel.match_mask(&self.tags[self.next..end], self.tag);
            self.next = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(k: i64) -> u64 {
        tag_of_key(&Value::Int(k))
    }

    #[test]
    fn starts_empty() {
        let b: Bucket<u32> = Bucket::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert!(!b.has_disk_portion());
    }

    #[test]
    fn push_grows_memory() {
        let mut b = Bucket::new();
        b.push(1u32);
        b.push(2);
        assert_eq!(b.memory_len(), 2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn tagged_push_probes_by_tag() {
        let mut b = Bucket::new();
        b.push_tagged(10u32, tag(7));
        b.push_tagged(20, tag(8));
        b.push_tagged(30, tag(7));
        b.push(40); // unkeyed: stored but never probed
        assert_eq!(b.memory_len(), 4);
        let hits: Vec<u32> = b.probe_tag(tag(7)).copied().collect();
        assert_eq!(hits, vec![10, 30]);
        assert_eq!(b.probe_tag(tag(8)).count(), 1);
        assert_eq!(b.probe_tag(tag(9)).count(), 0);
        assert_eq!(b.probe_tag(TAG_UNKEYED).count(), 0);
        assert_eq!(b.probe_tag(TAG_FREE).count(), 0);
    }

    #[test]
    fn sentinel_hashes_are_remapped() {
        // A join hash colliding with a sentinel still round-trips
        // insert → probe.
        for h in [u64::MAX, u64::MAX - 1, u64::MAX - 2] {
            let t = tag_of_hash(Some(h));
            assert!(t < TAG_UNKEYED, "hash {h:#x} must remap below sentinels");
            let mut b = Bucket::new();
            b.push_tagged(1u32, t);
            assert_eq!(b.probe_tag(t).count(), 1);
        }
        assert_eq!(tag_of_hash(None), TAG_UNKEYED);
    }

    #[test]
    fn freed_slots_are_recycled_without_growth() {
        let mut b = Bucket::new();
        for v in 0..8u32 {
            b.push_tagged(v, tag((v % 2) as i64));
        }
        let mut evens = Vec::new();
        assert_eq!(b.extract_tag(tag(0), |_| true, |v| evens.push(v)), 4);
        assert_eq!(evens, vec![0, 2, 4, 6]);
        assert_eq!(b.memory_len(), 4);
        let arena = b.slots.len();
        // Refill: the four holes are reused, the arena does not grow.
        for v in 10..14u32 {
            b.push_tagged(v, tag(0));
        }
        assert_eq!(b.slots.len(), arena);
        assert_eq!(b.memory_len(), 8);
        let mut hits: Vec<u32> = b.probe_tag(tag(0)).copied().collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![10, 11, 12, 13]);
    }

    #[test]
    fn retain_frees_and_counts() {
        let mut b = Bucket::new();
        for v in [1u32, 2, 3, 4] {
            b.push_tagged(v, tag((v % 2) as i64));
        }
        let (scanned, removed) = b.retain(|v| *v != 2);
        assert_eq!((scanned, removed), (4, 1));
        assert_eq!(b.memory_len(), 3);
        let odds: Vec<u32> = b.probe_tag(tag(1)).copied().collect();
        let evens: Vec<u32> = b.probe_tag(tag(0)).copied().collect();
        assert_eq!(odds, vec![1, 3]);
        assert_eq!(evens, vec![4]);
    }

    #[test]
    fn extract_tag_only_examines_matching_records() {
        let mut b = Bucket::new();
        // More than one scan window, with a hole in the first.
        for v in 0..150u32 {
            b.push_tagged(v, tag((v % 3) as i64));
        }
        assert_eq!(b.extract_tag(tag(1), |v| *v == 4, drop), 1);
        let mut examined = 0;
        let mut got = Vec::new();
        let removed = b.extract_tag(
            tag(1),
            |v| {
                examined += 1;
                v % 2 == 1
            },
            |v| got.push(v),
        );
        let candidates: Vec<u32> = (0..150).filter(|v| v % 3 == 1 && *v != 4).collect();
        assert_eq!(examined, candidates.len(), "non-matching tags must not be examined");
        let odd: Vec<u32> = candidates.iter().copied().filter(|v| v % 2 == 1).collect();
        assert_eq!((removed, got), (odd.len(), odd));
        assert_eq!(b.memory_len(), 150 - 1 - removed);
        b.push(7); // unkeyed
        assert_eq!(b.extract_tag(TAG_UNKEYED, |_| true, drop), 0);
        assert_eq!(b.extract_tag(TAG_FREE, |_| true, drop), 0);
    }

    #[test]
    fn take_memory_resets_slab() {
        let mut b = Bucket::new();
        b.push_tagged(1u32, tag(1));
        b.push_tagged(2, tag(2));
        b.extract_tag(tag(1), |_| true, drop); // leave a hole
        let taken = b.take_memory();
        assert_eq!(taken, vec![2]);
        assert_eq!(b.memory_len(), 0);
        assert_eq!(b.probe_tag(tag(2)).count(), 0);
        b.push_tagged(9, tag(2));
        assert_eq!(b.probe_tag(tag(2)).count(), 1);
    }

    #[test]
    fn relocation_bookkeeping() {
        let mut b = Bucket::new();
        b.push(1u32);
        b.push(2);
        let taken = b.take_memory();
        assert_eq!(taken, vec![1, 2]);
        assert_eq!(b.memory_len(), 0);
        b.add_disk_pages(vec![PageId(0), PageId(1)], 2);
        assert_eq!(b.disk_len(), 2);
        assert_eq!(b.len(), 2);
        assert!(b.has_disk_portion());
        assert_eq!(b.disk_pages(), &[PageId(0), PageId(1)]);
        let pages = b.take_disk_pages();
        assert_eq!(pages, vec![PageId(0), PageId(1)]);
        assert!(!b.has_disk_portion());
        assert!(b.is_empty());
    }
}
