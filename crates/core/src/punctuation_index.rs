//! The incrementally-maintained punctuation index of the paper's §3.5
//! (Fig. 2): each punctuation carries a unique `pid` and a **count** of
//! matching tuples residing in the *same* stream's state; each stored
//! tuple carries the `pid` of the first-arrived punctuation it matches.
//! When a punctuation's count reaches zero, no tuple matching it remains
//! in the state, so by Theorem 1 it can be propagated.
//!
//! Deviation from the paper, documented in DESIGN.md: the paper removes
//! propagated punctuations from the punctuation set; we *retire* them
//! instead (excluded from indexing and propagation, still consulted by
//! the opposite side's on-the-fly drop and purge), so late opposite-side
//! tuples covered by an already-propagated punctuation can still be
//! dropped rather than lingering unpurgeably.

use std::collections::BTreeSet;

use punct_types::{Pattern, PunctId, Punctuation, PunctuationSet, Tuple, Value};

/// The punctuation index of one input stream.
#[derive(Debug, Clone)]
pub struct PunctuationIndex {
    set: PunctuationSet,
    /// Matching-tuple count per pid (dense by id).
    counts: Vec<u64>,
    /// Retired (already propagated) flags per pid.
    retired: Vec<bool>,
    /// Number of unretired punctuations, maintained incrementally so
    /// [`live`](Self::live) is O(1) rather than a scan of `retired`.
    live: usize,
    /// The unretired punctuations whose count is zero — the propagable
    /// candidates — ordered by id, i.e. by arrival. Kept in step by
    /// `insert`, the 0→1 and 1→0 count transitions and `retire`, so a
    /// propagation run never looks at a punctuation it cannot release.
    zero_count: BTreeSet<PunctId>,
    /// Ids `< indexed_next` have been index-built against the state.
    indexed_next: u64,
}

impl PunctuationIndex {
    /// Creates an empty index; `join_attr` is this stream's join
    /// attribute (used for the fast cross-stream cover check).
    pub fn new(join_attr: usize) -> PunctuationIndex {
        PunctuationIndex {
            set: PunctuationSet::new(join_attr),
            counts: Vec::new(),
            retired: Vec::new(),
            live: 0,
            zero_count: BTreeSet::new(),
            indexed_next: 0,
        }
    }

    /// Inserts a newly-arrived punctuation, assigning its pid.
    pub fn insert(&mut self, p: Punctuation) -> PunctId {
        let id = self.set.insert(p);
        debug_assert_eq!(id.0 as usize, self.counts.len(), "dense pid assignment");
        self.counts.push(0);
        self.retired.push(false);
        self.live += 1;
        self.zero_count.insert(id);
        id
    }

    /// The id the *next* inserted punctuation will get.
    pub fn next_id(&self) -> u64 {
        self.counts.len() as u64
    }

    /// Number of punctuations not yet retired.
    pub fn live(&self) -> usize {
        debug_assert_eq!(self.live, self.retired.iter().filter(|r| !**r).count());
        self.live
    }

    /// Number of punctuations received in total.
    pub fn total(&self) -> usize {
        self.counts.len()
    }

    /// The underlying punctuation set (includes retired punctuations —
    /// see module docs).
    pub fn set(&self) -> &PunctuationSet {
        &self.set
    }

    /// Match count of a punctuation.
    pub fn count(&self, id: PunctId) -> u64 {
        self.counts[id.0 as usize]
    }

    /// Records that a tuple carrying `pid` entered the state.
    pub fn increment(&mut self, id: PunctId) {
        let c = &mut self.counts[id.0 as usize];
        if *c == 0 {
            self.zero_count.remove(&id);
        }
        *c += 1;
    }

    /// Records that a tuple carrying `pid` left the state (purged,
    /// dropped from the purge buffer, …).
    pub fn decrement(&mut self, id: PunctId) {
        let c = &mut self.counts[id.0 as usize];
        debug_assert!(*c > 0, "count underflow for {id}");
        *c = c.saturating_sub(1);
        if *c == 0 && !self.retired[id.0 as usize] {
            self.zero_count.insert(id);
        }
    }

    /// pid assignment against the **full** set: the first-arrived
    /// punctuation matching `t`, if any. Used when a tuple must be
    /// force-indexed (spill, purge-buffer move).
    pub fn assign_pid(&self, t: &Tuple) -> Option<PunctId> {
        self.set.set_match(t)
    }

    /// pid assignment against punctuations **not yet index-built** —
    /// the incremental step of the paper's Index-Build algorithm.
    pub fn assign_pid_new(&self, t: &Tuple) -> Option<PunctId> {
        if self.indexed_next == 0 {
            self.set.set_match(t)
        } else {
            self.set.set_match_after(t, PunctId(self.indexed_next - 1))
        }
    }

    /// Number of punctuations that arrived since the last index build.
    pub fn unindexed_punctuations(&self) -> u64 {
        self.next_id() - self.indexed_next
    }

    /// Marks every current punctuation as index-built.
    pub fn mark_indexed(&mut self) {
        self.indexed_next = self.next_id();
    }

    /// Ids `< watermark` have been index-built.
    pub fn indexed_next(&self) -> u64 {
        self.indexed_next
    }

    /// Live (unretired) punctuations with `count == 0`, in arrival order
    /// — the propagable candidates of the Propagate algorithm (Fig. 3).
    pub fn zero_count_ids(&self) -> impl Iterator<Item = PunctId> + '_ {
        debug_assert!(
            self.zero_count.iter().copied().eq((0..self.next_id())
                .map(PunctId)
                .filter(|id| !self.retired[id.0 as usize] && self.counts[id.0 as usize] == 0)),
            "zero-count set out of step with counts / retired"
        );
        self.zero_count.iter().copied()
    }

    /// Live (unretired) punctuations in arrival order.
    pub fn live_ids(&self) -> Vec<PunctId> {
        self.set
            .iter()
            .filter(|(id, _)| !self.retired[id.0 as usize])
            .map(|(id, _)| id)
            .collect()
    }

    /// Looks up a punctuation by id.
    pub fn get(&self, id: PunctId) -> Option<&Punctuation> {
        self.set.get(id)
    }

    /// Retires a punctuation after propagation. Idempotent.
    pub fn retire(&mut self, id: PunctId) {
        if !self.retired[id.0 as usize] {
            self.retired[id.0 as usize] = true;
            self.live -= 1;
            self.zero_count.remove(&id);
        }
    }

    /// True if `id` has been retired.
    pub fn is_retired(&self, id: PunctId) -> bool {
        self.retired[id.0 as usize]
    }

    /// Cross-stream cover check (the paper's `setMatch(t_B, PS_A)` for
    /// join-attribute punctuations): does any punctuation's join-attribute
    /// pattern match `join_value`? Retired punctuations participate.
    pub fn covers_join_value(&self, join_value: &Value) -> bool {
        self.set.covers_value(join_value)
    }

    /// True if a live punctuation has exactly this join-attribute pattern
    /// (the matched-pair propagation trigger of §4.4). Called on every
    /// punctuation arrival, so a constant is answered from the set's
    /// constant index: the first punctuation closing the value. Only
    /// when that one is retired may a later duplicate be the live one,
    /// and only then (or for a non-constant pattern) are punctuations
    /// compared one by one.
    pub fn contains_join_pattern(&self, pattern: &Pattern) -> bool {
        let since = match pattern {
            Pattern::Constant(v) => match self.set.constant_id(v) {
                None => return false,
                Some(first) if !self.retired[first.0 as usize] => return true,
                Some(first) => first.0 + 1,
            },
            _ => 0,
        };
        let attr = self.set.join_attr();
        self.set
            .iter_from(since)
            .any(|(id, p)| !self.retired[id.0 as usize] && p.pattern(attr) == Some(pattern))
    }

    /// Join-attribute patterns of punctuations with `id >= since`, in
    /// arrival order — the "new punctuations" a lazy purge applies.
    pub fn join_patterns_since(&self, since: u64) -> impl Iterator<Item = &Pattern> + '_ {
        let attr = self.set.join_attr();
        self.set.iter_from(since).filter_map(move |(_, p)| p.pattern(attr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(v: i64) -> Punctuation {
        Punctuation::close_value(2, 0, v)
    }

    #[test]
    fn insert_assigns_dense_ids() {
        let mut ix = PunctuationIndex::new(0);
        let a = ix.insert(close(1));
        let b = ix.insert(close(2));
        assert_eq!(a, PunctId(0));
        assert_eq!(b, PunctId(1));
        assert_eq!(ix.next_id(), 2);
        assert_eq!(ix.total(), 2);
        assert_eq!(ix.live(), 2);
    }

    #[test]
    fn counts_track_state_membership() {
        let mut ix = PunctuationIndex::new(0);
        let id = ix.insert(close(5));
        assert_eq!(ix.count(id), 0);
        ix.increment(id);
        ix.increment(id);
        assert_eq!(ix.count(id), 2);
        ix.decrement(id);
        assert_eq!(ix.count(id), 1);
        assert_eq!(ix.zero_count_ids().count(), 0);
        ix.decrement(id);
        assert!(ix.zero_count_ids().eq([id]));
    }

    #[test]
    fn incremental_assignment_skips_indexed() {
        let mut ix = PunctuationIndex::new(0);
        let a = ix.insert(close(5));
        assert_eq!(ix.unindexed_punctuations(), 1);
        ix.mark_indexed();
        assert_eq!(ix.unindexed_punctuations(), 0);
        // A tuple matching only the already-indexed punctuation is not
        // re-assigned.
        assert_eq!(ix.assign_pid_new(&Tuple::of((5i64, 0i64))), None);
        // Full assignment still sees it (force-indexing paths).
        assert_eq!(ix.assign_pid(&Tuple::of((5i64, 0i64))), Some(a));
        // A new punctuation is seen by the incremental path.
        let b = ix.insert(close(7));
        assert_eq!(ix.assign_pid_new(&Tuple::of((7i64, 0i64))), Some(b));
    }

    #[test]
    fn retirement_hides_from_propagation_not_from_cover() {
        let mut ix = PunctuationIndex::new(0);
        let id = ix.insert(close(9));
        assert!(ix.zero_count_ids().eq([id]));
        ix.retire(id);
        assert!(ix.is_retired(id));
        assert_eq!(ix.zero_count_ids().count(), 0);
        assert!(ix.live_ids().is_empty());
        assert_eq!(ix.live(), 0);
        // Retired punctuations still cover arriving opposite tuples.
        assert!(ix.covers_join_value(&Value::Int(9)));
    }

    #[test]
    fn live_counter_tracks_retirement() {
        let mut ix = PunctuationIndex::new(0);
        let a = ix.insert(close(1));
        let b = ix.insert(close(2));
        assert_eq!(ix.live(), 2);
        ix.retire(a);
        assert_eq!(ix.live(), 1);
        // Retiring twice must not double-count.
        ix.retire(a);
        assert_eq!(ix.live(), 1);
        ix.retire(b);
        assert_eq!(ix.live(), 0);
        assert_eq!(ix.total(), 2);
        ix.insert(close(3));
        assert_eq!(ix.live(), 1);
    }

    #[test]
    fn join_patterns_since_watermark() {
        let mut ix = PunctuationIndex::new(0);
        ix.insert(close(1));
        ix.insert(close(2));
        ix.insert(close(3));
        assert_eq!(ix.join_patterns_since(0).count(), 3);
        assert!(ix.join_patterns_since(2).eq([&Pattern::Constant(Value::Int(3))]));
        assert_eq!(ix.join_patterns_since(3).count(), 0);
    }

    #[test]
    fn zero_count_preserves_arrival_order() {
        let mut ix = PunctuationIndex::new(0);
        let a = ix.insert(close(1));
        let b = ix.insert(close(2));
        let c = ix.insert(close(3));
        ix.increment(b);
        assert!(ix.zero_count_ids().eq([a, c]));
        // Back to zero: `b` re-enters between its neighbours, not at the end.
        ix.decrement(b);
        assert!(ix.zero_count_ids().eq([a, b, c]));
    }

    #[test]
    fn retired_punctuation_never_becomes_a_candidate_again() {
        // The index build assigns pids of retired punctuations too (they
        // stay in the set); their counts moving must not resurrect them.
        let mut ix = PunctuationIndex::new(0);
        let id = ix.insert(close(4));
        ix.retire(id);
        ix.increment(id);
        ix.decrement(id);
        assert_eq!(ix.zero_count_ids().count(), 0);
    }

    #[test]
    fn contains_join_pattern_sees_a_live_duplicate_behind_a_retired_one() {
        let mut ix = PunctuationIndex::new(0);
        let nine = Pattern::Constant(Value::Int(9));
        assert!(!ix.contains_join_pattern(&nine));
        let first = ix.insert(close(9));
        assert!(ix.contains_join_pattern(&nine));
        assert!(!ix.contains_join_pattern(&Pattern::Constant(Value::Float(9.0))), "exact, not join_eq");
        ix.retire(first);
        assert!(!ix.contains_join_pattern(&nine), "only a retired one left");
        let second = ix.insert(close(9));
        assert!(ix.contains_join_pattern(&nine), "the live duplicate counts");
        ix.retire(second);
        assert!(!ix.contains_join_pattern(&nine));
        // Non-constant patterns compare punctuation by punctuation.
        let range = Pattern::int_range(0, 5);
        assert!(!ix.contains_join_pattern(&range));
        let r = ix.insert(Punctuation::on_attr(2, 0, range.clone()));
        assert!(ix.contains_join_pattern(&range));
        ix.retire(r);
        assert!(!ix.contains_join_pattern(&range));
    }
}
