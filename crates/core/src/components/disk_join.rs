//! The disk join component (paper §3.2), extended with PJoin's purge
//! duties: resolving a bucket finishes **all** left-over joins involving
//! its disk portions, clears the purge buffers waiting on them, and
//! purges disk-resident tuples covered by the opposite punctuation set
//! before writing the survivors back.
//!
//! Duplicate prevention uses the residency intervals and histories of
//! [`crate::dedup`]; since a resolution is always *full* (both sides'
//! disk portions of the bucket), one [`DiskDiskMark`] per bucket suffices
//! for the disk×disk combinations.

use punct_types::{Value, ValueMap};
use stream_sim::{OpOutput, Work};

use crate::dedup::DiskDiskMark;
use crate::record::{Instant, PRecord};
use crate::state::JoinState;

/// Stages records into a canonical-join-key map so the probe side pays
/// O(candidates) per record instead of scanning everything. Records with
/// a null/missing join attribute can never join and are left out.
fn keyed_map<'r>(
    attr: usize,
    records: impl Iterator<Item = &'r PRecord>,
    work: &mut Work,
) -> ValueMap<Vec<&'r PRecord>> {
    let mut map: ValueMap<Vec<&'r PRecord>> = ValueMap::default();
    for r in records {
        if let Some(k) = r.tuple.get(attr).and_then(Value::join_key) {
            work.hashes += 1;
            map.entry(k).or_default().push(r);
        }
    }
    map
}

/// Snapshot taken after a resolution, used by the scheduler to skip runs
/// that cannot produce anything new.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResolutionMark {
    /// Disk tuples of side A at the resolution.
    pub a_disk_len: usize,
    /// Disk tuples of side B at the resolution.
    pub b_disk_len: usize,
    /// Newest A arrival instant at the resolution.
    pub newest_ats_a: Instant,
    /// Newest B arrival instant at the resolution.
    pub newest_ats_b: Instant,
}

/// Fully resolves `bucket`: joins every not-yet-produced pair involving
/// the bucket's disk portions, drops the purge buffers waiting on them,
/// purges covered disk tuples and rewrites survivors.
///
/// Returns the [`ResolutionMark`] snapshot taken **after** the run.
pub fn resolve_bucket(
    bucket: usize,
    a: &mut JoinState,
    b: &mut JoinState,
    dd_mark: &mut Option<DiskDiskMark>,
    probe_instant: Instant,
    out: &mut OpOutput,
    work: &mut Work,
) -> ResolutionMark {
    let (a_disk, a_pages) = if a.store.bucket(bucket).has_disk_portion() {
        a.store.read_disk(bucket)
    } else {
        (Vec::new(), 0)
    };
    let (b_disk, b_pages) = if b.store.bucket(bucket).has_disk_portion() {
        b.store.read_disk(bucket)
    } else {
        (Vec::new(), 0)
    };
    work.pages_read += a_pages + b_pages;

    let key_eq = |x: &PRecord, y: &PRecord| -> bool {
        match (x.tuple.get(a.join_attr), y.tuple.get(b.join_attr)) {
            (Some(va), Some(vb)) => va.join_eq(vb),
            _ => false,
        }
    };

    // Each disk×resident / disk×disk stage builds a hash map over one
    // side and probes it with the other, so the stage costs
    // O(build + probes + matches) rather than the product of the sides.
    // The canonical key is a join_eq superset (Int/Float coercion), so
    // every candidate still passes through `key_eq`.

    // A-disk × B residents (memory + purge buffer).
    {
        let staged = keyed_map(
            b.join_attr,
            b.store.bucket(bucket).iter().chain(b.purge_buffer[bucket].iter()),
            work,
        );
        for x in &a_disk {
            let Some(k) = x.tuple.get(a.join_attr).and_then(Value::join_key) else {
                continue;
            };
            work.key_lookups += 1;
            for &y in staged.get(&k).map(Vec::as_slice).unwrap_or(&[]) {
                work.probe_cmps += 1;
                if key_eq(x, y)
                    && !x.residency_overlaps(y)
                    && !a.history.covers(bucket, x, y)
                {
                    work.outputs += 1;
                    out.push_joined(&x.tuple, &y.tuple);
                }
            }
        }
    }

    // B-disk × A residents (memory + purge buffer).
    {
        let staged = keyed_map(
            a.join_attr,
            a.store.bucket(bucket).iter().chain(a.purge_buffer[bucket].iter()),
            work,
        );
        for y in &b_disk {
            let Some(k) = y.tuple.get(b.join_attr).and_then(Value::join_key) else {
                continue;
            };
            work.key_lookups += 1;
            for &x in staged.get(&k).map(Vec::as_slice).unwrap_or(&[]) {
                work.probe_cmps += 1;
                if key_eq(x, y)
                    && !x.residency_overlaps(y)
                    && !b.history.covers(bucket, y, x)
                {
                    work.outputs += 1;
                    out.push_joined(&x.tuple, &y.tuple);
                }
            }
        }
    }

    // A-disk × B-disk.
    {
        let staged = keyed_map(b.join_attr, b_disk.iter(), work);
        for x in &a_disk {
            let Some(k) = x.tuple.get(a.join_attr).and_then(Value::join_key) else {
                continue;
            };
            work.key_lookups += 1;
            for &y in staged.get(&k).map(Vec::as_slice).unwrap_or(&[]) {
                work.probe_cmps += 1;
                if key_eq(x, y)
                    && !x.residency_overlaps(y)
                    && !dd_mark.is_some_and(|m| m.covers(x, y))
                    && !a.history.covers(bucket, x, y)
                    && !b.history.covers(bucket, y, x)
                {
                    work.outputs += 1;
                    out.push_joined(&x.tuple, &y.tuple);
                }
            }
        }
    }

    // Log the runs and advance the disk×disk mark.
    let max_a_dts = a_disk.iter().map(|r| r.dts).max();
    let max_b_dts = b_disk.iter().map(|r| r.dts).max();
    if let Some(d) = max_a_dts {
        a.history.log(bucket, d, probe_instant);
    }
    if let Some(d) = max_b_dts {
        b.history.log(bucket, d, probe_instant);
    }
    let prior = dd_mark.unwrap_or(DiskDiskMark { a_dts_last: 0, b_dts_last: 0 });
    *dd_mark = Some(DiskDiskMark {
        a_dts_last: max_a_dts.unwrap_or(prior.a_dts_last).max(prior.a_dts_last),
        b_dts_last: max_b_dts.unwrap_or(prior.b_dts_last).max(prior.b_dts_last),
    });

    // Purge buffers waiting on the now-resolved disk portions are done.
    a.drop_purge_buffer(bucket);
    b.drop_purge_buffer(bucket);

    // Purge covered disk tuples and write back the survivors (once per
    // side, with the roles swapped).
    rewrite_survivors(bucket, a, b, a_disk, work);
    rewrite_survivors(bucket, b, a, b_disk, work);

    ResolutionMark {
        a_disk_len: a.store.bucket(bucket).disk_len(),
        b_disk_len: b.store.bucket(bucket).disk_len(),
        newest_ats_a: a.newest_ats,
        newest_ats_b: b.newest_ats,
    }
}

/// Applies the opposite (`other`) punctuation set to `own`'s just-read
/// disk records, counting the covered ones out of `own`'s index, and
/// rewrites the survivors, which stay counted.
fn rewrite_survivors(
    bucket: usize,
    own: &mut JoinState,
    other: &JoinState,
    disk_records: Vec<PRecord>,
    work: &mut Work,
) {
    if disk_records.is_empty() {
        return;
    }
    let join_attr = own.join_attr;
    let mut survivors = Vec::with_capacity(disk_records.len());
    for rec in disk_records {
        work.index_evals += 1;
        let covered = rec
            .tuple
            .get(join_attr)
            .is_some_and(|v| other.index.covers_value(v));
        if covered {
            work.purged += 1;
            own.index.leave(&rec.tuple);
        } else {
            survivors.push(rec);
        }
    }
    work.pages_written += own.store.rewrite_disk(bucket, survivors);
}


#[cfg(test)]
mod tests {
    use super::*;
    use punct_types::{Punctuation, StreamElement, Tuple, Value};

    fn rec(k: i64, ats: u64) -> PRecord {
        PRecord::arriving(Tuple::of((k, ats as i64)), ats)
    }

    /// Builds a pair of states over a single bucket for deterministic
    /// routing.
    fn states() -> (JoinState, JoinState) {
        (JoinState::new(2, 0, 1, 4), JoinState::new(2, 0, 1, 4))
    }

    fn drain_tuples(out: &mut OpOutput) -> Vec<Tuple> {
        out.drain()
            .filter_map(|e| match e {
                StreamElement::Tuple(t) => Some(t),
                StreamElement::Punctuation(_) => None,
            })
            .collect()
    }

    #[test]
    fn disk_memory_pairs_resolve() {
        let (mut a, mut b) = states();
        let mut w = Work::ZERO;
        // a-tuple arrives at 0, spilled at instant 1 (dts=2).
        a.insert(rec(7, 0));
        a.spill_bucket(0, 1, &mut w);
        // b-tuple arrives at 5 — after the spill, so stage 1 missed it.
        b.insert(rec(7, 5));
        b.newest_ats = 5;
        let mut out = OpOutput::new();
        let mut mark = None;
        resolve_bucket(0, &mut a, &mut b, &mut mark, 10, &mut out, &mut w);
        let tuples = drain_tuples(&mut out);
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].get(0), Some(&Value::Int(7)));
        assert!(w.pages_read >= 1);
    }

    #[test]
    fn overlapping_pairs_are_not_reproduced() {
        let (mut a, mut b) = states();
        let mut w = Work::ZERO;
        // Both in memory together (intervals overlap), then a spills.
        a.insert(rec(7, 0));
        b.insert(rec(7, 1));
        a.spill_bucket(0, 2, &mut w);
        let mut out = OpOutput::new();
        let mut mark = None;
        resolve_bucket(0, &mut a, &mut b, &mut mark, 10, &mut out, &mut w);
        assert!(drain_tuples(&mut out).is_empty(), "stage-1 pair must not repeat");
    }

    #[test]
    fn repeated_resolution_is_idempotent() {
        let (mut a, mut b) = states();
        let mut w = Work::ZERO;
        a.insert(rec(7, 0));
        a.spill_bucket(0, 1, &mut w);
        b.insert(rec(7, 5));
        b.newest_ats = 5;
        let mut out = OpOutput::new();
        let mut mark = None;
        resolve_bucket(0, &mut a, &mut b, &mut mark, 10, &mut out, &mut w);
        assert_eq!(drain_tuples(&mut out).len(), 1);
        resolve_bucket(0, &mut a, &mut b, &mut mark, 11, &mut out, &mut w);
        assert!(drain_tuples(&mut out).is_empty(), "second run must add nothing");
    }

    #[test]
    fn disk_disk_pairs_resolve_once() {
        let (mut a, mut b) = states();
        let mut w = Work::ZERO;
        // a spills at instant 1; b arrives later and spills at 5: the
        // pair never met in memory.
        a.insert(rec(7, 0));
        a.spill_bucket(0, 1, &mut w);
        b.insert(rec(7, 3));
        b.spill_bucket(0, 5, &mut w);
        let mut out = OpOutput::new();
        let mut mark = None;
        resolve_bucket(0, &mut a, &mut b, &mut mark, 10, &mut out, &mut w);
        assert_eq!(drain_tuples(&mut out).len(), 1);
        resolve_bucket(0, &mut a, &mut b, &mut mark, 11, &mut out, &mut w);
        assert!(drain_tuples(&mut out).is_empty());
    }

    #[test]
    fn purge_buffer_entries_join_then_drop() {
        let (mut a, mut b) = states();
        let mut w = Work::ZERO;
        // a(7) spilled before b arrives.
        a.insert(rec(7, 0));
        a.spill_bucket(0, 1, &mut w);
        // b(7) arrives covered by an A punctuation -> goes straight to
        // the purge buffer (on-the-fly drop path, disk portion present).
        let mut buffered = rec(7, 5);
        buffered.dts = 6;
        b.park_record(0, buffered);
        assert_eq!(b.purge_buffer_len, 1);
        let mut out = OpOutput::new();
        let mut mark = None;
        resolve_bucket(0, &mut a, &mut b, &mut mark, 10, &mut out, &mut w);
        // The pair was produced and the buffer cleared.
        assert_eq!(drain_tuples(&mut out).len(), 1);
        assert_eq!(b.purge_buffer_len, 0);
    }

    #[test]
    fn covered_disk_tuples_are_purged_on_rewrite() {
        let (mut a, mut b) = states();
        let mut w = Work::ZERO;
        a.insert(rec(7, 0));
        a.insert(rec(8, 1));
        a.spill_bucket(0, 2, &mut w);
        assert_eq!(a.store.disk_tuples(), 2);
        // B punctuation closes key 7: the disk-resident a(7) dies at
        // resolution; a(8) survives.
        b.index.insert(Punctuation::close_value(2, 0, 7i64), 0);
        let mut out = OpOutput::new();
        let mut mark = None;
        resolve_bucket(0, &mut a, &mut b, &mut mark, 10, &mut out, &mut w);
        assert_eq!(a.store.disk_tuples(), 1);
        let (left, _) = a.store.read_disk(0);
        assert_eq!(left[0].tuple.get(0), Some(&Value::Int(8)));
        assert!(w.purged >= 1);
    }

    #[test]
    fn all_disk_purged_clears_the_counts() {
        let (mut a, mut b) = states();
        let mut w = Work::ZERO;
        a.insert(rec(7, 0));
        a.spill_bucket(0, 1, &mut w);
        let own = a.index.insert(Punctuation::close_value(2, 0, 7i64), 0);
        assert_eq!(a.index.count(&Value::Int(7)), 1, "a disk tuple is counted");
        b.index.insert(Punctuation::close_value(2, 0, 7i64), 0);
        let mut out = OpOutput::new();
        let mut mark = None;
        resolve_bucket(0, &mut a, &mut b, &mut mark, 10, &mut out, &mut w);
        assert_eq!(a.store.disk_tuples(), 0);
        assert_eq!(a.index.count(&Value::Int(7)), 0);
        assert!(a.index.propagable().eq([own]));
    }

    #[test]
    fn a_disk_survivor_holds_a_younger_punctuation() {
        let (mut a, mut b) = states();
        let mut w = Work::ZERO;
        a.insert(rec(9, 0));
        a.spill_bucket(0, 1, &mut w);
        // An A punctuation arrives *after* the spill: the disk tuple
        // still holds it, before and after the resolution.
        a.index.insert(Punctuation::close_value(2, 0, 9i64), 0);
        assert_eq!(a.index.propagable().count(), 0);
        let mut out = OpOutput::new();
        let mut mark = None;
        resolve_bucket(0, &mut a, &mut b, &mut mark, 10, &mut out, &mut w);
        assert_eq!(a.store.disk_tuples(), 1);
        assert_eq!(a.index.propagable().count(), 0);
    }
}
