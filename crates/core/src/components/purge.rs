//! The state purge component (paper §3.4).
//!
//! Applies the purge rule of §2.2 (eq. 1): every tuple of the target
//! state matching the opposite stream's punctuation set will never join a
//! future tuple and is removed. Tuples whose bucket still has a
//! disk-resident portion *on the opposite side* may yet join that portion
//! and are moved to the purge buffer instead (§3.1); the disk join drops
//! them when it resolves the bucket.
//!
//! Only the punctuations that arrived since the last purge are evaluated
//! — older punctuations already removed their matches, and the on-the-fly
//! drop keeps covered tuples from entering the state afterwards. How the
//! state is searched depends on the pattern shape:
//!
//! - **Constant and enumeration patterns** (the paper's benchmark
//!   workload) purge through the per-bucket key index: one lookup per
//!   closed value, examining only the records stored under that key —
//!   O(values + matches) instead of O(state).
//! - **Range and wildcard patterns** cannot use a hash index and fall
//!   back to the full memory scan (the scan cost the paper's
//!   eager-vs-lazy trade-off is about). The scan runs at most once per
//!   purge pass regardless of how many such patterns arrived.

use punct_types::Pattern;
use stream_sim::Work;

use crate::record::{Instant, PRecord};
use crate::state::{buffer_into, JoinState};

/// Outcome of one purge pass over one state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PurgeReport {
    /// Memory tuples scanned.
    pub scanned: usize,
    /// Tuples removed outright.
    pub removed: usize,
    /// Tuples moved to the purge buffer (await a disk join).
    pub buffered: usize,
}

/// Purges `target` using `new_patterns` — the join-attribute patterns of
/// the opposite stream's punctuations that arrived since the last purge.
/// `opposite_disk(bucket)` tells whether the opposite state has a
/// disk-resident portion for that bucket.
/// `departure` is the logical instant to stamp on extracted records —
/// callers pass the next unallocated instant, so already-performed probes
/// count as overlapping and future ones do not.
pub fn purge_state<'p>(
    target: &mut JoinState,
    new_patterns: impl IntoIterator<Item = &'p Pattern>,
    opposite_disk: impl Fn(usize) -> bool,
    departure: Instant,
    work: &mut Work,
) -> PurgeReport {
    let JoinState { store, index, purge_buffer, purge_buffer_len, join_attr, .. } = target;
    let join_attr = *join_attr;
    let (mut removed, mut buffered, mut candidates, mut scanned) = (0, 0, 0, 0);
    let mut evals = 0u64;
    let mut key_lookups = 0u64;
    // A record taken out of `bucket`'s memory portion, handled where the
    // store hands it over: stamped, then parked in the purge buffer while
    // the opposite disk portion may still join it, else counted out.
    let mut depart = |bucket: usize, mut rec: PRecord| {
        rec.dts = departure;
        if opposite_disk(bucket) {
            buffer_into(&mut purge_buffer[bucket], purge_buffer_len, rec);
            buffered += 1;
        } else {
            index.leave(&rec.tuple);
            removed += 1;
        }
    };

    // Closed point values go through the key index as they come, each
    // hashed once; patterns shaped like a span wait for the full scan.
    let mut scan_patterns: Vec<&Pattern> = Vec::new();
    for p in new_patterns {
        let closed = match p {
            Pattern::Constant(v) => std::slice::from_ref(v),
            Pattern::In(vs) => vs.as_slice(),
            Pattern::Empty => &[],
            other => {
                scan_patterns.push(other);
                &[]
            }
        };
        for value in closed {
            key_lookups += 1;
            let Some(hash) = value.join_hash() else {
                continue;
            };
            let bucket = store.bucket_of_hash(Some(hash));
            // The key index is join_eq-coarse (Int/Float coercion);
            // pattern matching is exact, so re-check each candidate.
            store.extract_memory_hashed(
                hash,
                value,
                |r| {
                    candidates += 1;
                    r.tuple.get(join_attr) == Some(value)
                },
                |rec| depart(bucket, rec),
            );
        }
    }
    evals += candidates as u64;

    if !scan_patterns.is_empty() {
        for bucket in 0..store.bucket_count() {
            scanned += store.bucket(bucket).memory_len();
            let extracted = store.extract_memory_bucket(bucket, |r| {
                match r.tuple.get(join_attr) {
                    Some(v) => scan_patterns.iter().any(|p| {
                        evals += 1;
                        p.matches(v)
                    }),
                    None => false,
                }
            });
            for rec in extracted {
                depart(bucket, rec);
            }
        }
    }

    let report = PurgeReport { scanned: candidates + scanned, removed, buffered };
    work.purge_scanned += report.scanned as u64;
    work.key_lookups += key_lookups;
    work.index_evals += evals;
    work.purged += report.removed as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use punct_types::{Punctuation, Tuple, Value};

    fn state_with_keys(keys: &[i64]) -> JoinState {
        let mut s = JoinState::new(2, 0, 4, 4);
        for (i, &k) in keys.iter().enumerate() {
            s.insert(PRecord::arriving(Tuple::of((k, 0i64)), i as u64));
        }
        s
    }

    fn constant(v: i64) -> Pattern {
        Pattern::Constant(Value::Int(v))
    }

    #[test]
    fn purges_matching_tuples() {
        let mut s = state_with_keys(&[1, 2, 3, 2]);
        let mut w = Work::ZERO;
        let report = purge_state(&mut s, &[constant(2)], |_| false, 100, &mut w);
        // Keyed purge examines only the records indexed under the closed
        // value, not the whole state.
        assert_eq!(report.scanned, 2);
        assert_eq!(report.removed, 2);
        assert_eq!(report.buffered, 0);
        assert_eq!(s.total_tuples(), 2);
        assert_eq!(w.purged, 2);
        assert_eq!(w.key_lookups, 1);
        assert!(w.purge_scanned >= 2);
    }

    #[test]
    fn constant_purge_skips_unrelated_state() {
        // 100 resident tuples, one closed key: only that key's records
        // are examined — this is the O(matches) guarantee.
        let keys: Vec<i64> = (0..100).collect();
        let mut s = state_with_keys(&keys);
        let mut w = Work::ZERO;
        let report = purge_state(&mut s, &[constant(42)], |_| false, 100, &mut w);
        assert_eq!(report.scanned, 1);
        assert_eq!(report.removed, 1);
        assert_eq!(s.total_tuples(), 99);
        assert_eq!(w.purge_scanned, 1);
        assert_eq!(w.key_lookups, 1);
    }

    #[test]
    fn mixed_constant_and_range_patterns() {
        // The constant goes through the key index; the range triggers
        // exactly one full scan on top.
        let mut s = state_with_keys(&[1, 5, 9, 15]);
        let mut w = Work::ZERO;
        let patterns = [constant(15), Pattern::int_range(0, 6)];
        let report = purge_state(&mut s, &patterns, |_| false, 100, &mut w);
        assert_eq!(report.removed, 3); // 15 (keyed) + 1, 5 (range scan)
        assert_eq!(s.total_tuples(), 1); // 9 survives
        // 1 keyed candidate + the 3 tuples left for the scan.
        assert_eq!(report.scanned, 4);
        assert_eq!(w.key_lookups, 1);
    }

    #[test]
    fn constant_purge_is_exact_across_numeric_types() {
        // The key index coarsens Int/Float to one canonical key, but
        // Pattern::Constant matches exactly: a punctuation closing
        // Int(2) says nothing about future Float(2.0) arrivals, so the
        // float-keyed tuple must survive.
        let mut s = JoinState::new(2, 0, 4, 4);
        s.insert(PRecord::arriving(Tuple::of((Value::Int(2), Value::Int(0))), 0));
        s.insert(PRecord::arriving(Tuple::of((Value::Float(2.0), Value::Int(1))), 1));
        let mut w = Work::ZERO;
        let report = purge_state(&mut s, &[constant(2)], |_| false, 100, &mut w);
        assert_eq!(report.removed, 1);
        assert_eq!(s.total_tuples(), 1);
        assert_eq!(s.store.probe_memory_keyed_len(&Value::Float(2.0)), 1);
    }

    #[test]
    fn enumeration_pattern_purges_members_keyed() {
        let mut s = state_with_keys(&[1, 2, 3, 4, 5]);
        let mut w = Work::ZERO;
        let pat = Pattern::enumeration(vec![Value::Int(2), Value::Int(4)]);
        let report = purge_state(&mut s, &[pat], |_| false, 100, &mut w);
        assert_eq!(report.removed, 2);
        assert_eq!(report.scanned, 2);
        assert_eq!(s.total_tuples(), 3);
        assert_eq!(w.key_lookups, 2);
    }

    #[test]
    fn empty_patterns_is_noop() {
        let mut s = state_with_keys(&[1, 2]);
        let mut w = Work::ZERO;
        let report = purge_state(&mut s, &[] as &[Pattern], |_| false, 100, &mut w);
        assert_eq!(report, PurgeReport::default());
        assert_eq!(s.total_tuples(), 2);
        assert!(w.is_zero());
    }

    #[test]
    fn range_pattern_purges_span() {
        let mut s = state_with_keys(&[1, 5, 9, 15]);
        let mut w = Work::ZERO;
        let report =
            purge_state(&mut s, &[Pattern::int_range(0, 9)], |_| false, 100, &mut w);
        assert_eq!(report.removed, 3);
        assert_eq!(s.total_tuples(), 1);
    }

    #[test]
    fn buffers_when_opposite_disk_exists() {
        let mut s = state_with_keys(&[7, 8]);
        let bucket7 = s.store.bucket_index(&Value::Int(7));
        let mut w = Work::ZERO;
        let report = purge_state(&mut s, &[constant(7)], |b| b == bucket7, 100, &mut w);
        assert_eq!(report.buffered, 1);
        assert_eq!(report.removed, 0);
        // Still part of the state (purge buffer), no longer probe-able.
        assert_eq!(s.total_tuples(), 2);
        assert_eq!(s.purge_buffer_len, 1);
        assert_eq!(s.store.memory_tuples(), 1);
        // Departure instant stamped.
        assert_eq!(s.purge_buffer[bucket7][0].dts, 100);
    }

    #[test]
    fn purge_decrements_index_counts() {
        let mut s = state_with_keys(&[3, 3]);
        let id = s.index.insert(Punctuation::close_value(2, 0, 3i64), 0);
        assert_eq!(s.index.count(&Value::Int(3)), 2);
        // Opposite punctuation closes key 3: the tuples are purged and the
        // own-side count drops to zero (propagable).
        let mut w = Work::ZERO;
        purge_state(&mut s, &[constant(3)], |_| false, 100, &mut w);
        assert_eq!(s.index.count(&Value::Int(3)), 0);
        assert!(s.index.propagable().eq([id]));
    }

    #[test]
    fn multiple_patterns_any_match() {
        let mut s = state_with_keys(&[1, 2, 3]);
        let mut w = Work::ZERO;
        let report =
            purge_state(&mut s, &[constant(1), constant(3)], |_| false, 100, &mut w);
        assert_eq!(report.removed, 2);
        assert_eq!(s.total_tuples(), 1);
    }
}
