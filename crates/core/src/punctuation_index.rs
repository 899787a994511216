//! The incrementally-maintained punctuation index of the paper's §3.5
//! (Fig. 2): each punctuation carries a unique `pid` and a **count** of
//! matching tuples residing in the *same* stream's state; each stored
//! tuple carries the `pid` of the first-arrived punctuation it matches.
//! When a punctuation's count reaches zero, no tuple matching it remains
//! in the state, so by Theorem 1 it can be propagated.
//!
//! Deviation from the paper, documented in DESIGN.md §7: the paper
//! removes propagated punctuations from the punctuation set; we *retire*
//! them instead (excluded from indexing and propagation, still consulted
//! by the opposite side's on-the-fly drop and purge), so late
//! opposite-side tuples covered by an already-propagated punctuation can
//! still be dropped rather than lingering unpurgeably. That reason ends
//! once the opposite side has closed the same value too: a constant
//! both sides closed is then *forgotten* on both sides
//! ([`closed_pair`](PunctuationIndex::closed_pair),
//! [`forget`](PunctuationIndex::forget)), so the index holds the values
//! still open rather than every punctuation ever received.
//!
//! Ids stay dense and stable, but the per-id count and retired flag live
//! in a window in step with the set's entries: `slots[i]` belongs to id
//! `base + i`, and a forgotten id leaves the front once both watermarks
//! of its side (purge and index build) have passed it
//! ([`trim`](PunctuationIndex::trim)). An id below `base` reads as
//! retired with count zero.

use std::collections::{BTreeSet, VecDeque};

use punct_types::{Pattern, PunctId, Punctuation, PunctuationSet, Tuple, Value};

/// `p`'s pattern on join attribute `attr`; a punctuation without one
/// constrains nothing there.
fn join_pattern(p: &Punctuation, attr: usize) -> &Pattern {
    p.pattern(attr).unwrap_or(&Pattern::Wildcard)
}

/// The count and retired flag of one stored punctuation.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Matching tuples in this stream's state carrying the pid.
    count: u64,
    /// Already propagated.
    retired: bool,
}

/// The punctuation index of one input stream.
#[derive(Debug, Clone)]
pub struct PunctuationIndex {
    set: PunctuationSet,
    /// Count and retired flag per stored pid: `slots[i]` is id
    /// `set.base() + i`, popped in step with the set's entries.
    slots: VecDeque<Slot>,
    /// Number of unretired punctuations, maintained incrementally so
    /// [`live`](Self::live) is O(1) rather than a scan of the slots.
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
            slots: VecDeque::new(),
            live: 0,
            zero_count: BTreeSet::new(),
            indexed_next: 0,
        }
    }

    fn slot(&self, id: PunctId) -> Option<&Slot> {
        self.slots.get(usize::try_from(id.0.checked_sub(self.set.base())?).ok()?)
    }

    fn slot_mut(&mut self, id: PunctId) -> &mut Slot {
        debug_assert!(self.set.get(id).is_some(), "a record carries forgotten {id}");
        let base = self.set.base();
        &mut self.slots[(id.0 - base) as usize]
    }

    /// Inserts a newly-arrived punctuation, assigning its pid.
    pub fn insert(&mut self, p: Punctuation) -> PunctId {
        let id = self.set.insert(p);
        self.slots.push_back(Slot::default());
        debug_assert_eq!(self.slots.len(), self.set.held(), "slots in step with entries");
        self.live += 1;
        self.zero_count.insert(id);
        id
    }

    /// The id the *next* inserted punctuation will get.
    pub fn next_id(&self) -> u64 {
        self.set.next_id()
    }

    /// Number of punctuations not yet retired.
    pub fn live(&self) -> usize {
        debug_assert_eq!(self.live, self.slots.iter().filter(|s| !s.retired).count());
        self.live
    }

    /// Number of punctuations received in total.
    pub fn total(&self) -> usize {
        self.next_id() as usize
    }

    /// Number of punctuations stored: the window from the oldest one not
    /// yet forgotten and popped up to the newest.
    pub fn held(&self) -> usize {
        self.set.held()
    }

    /// The underlying punctuation set (includes retired punctuations —
    /// see module docs).
    pub fn set(&self) -> &PunctuationSet {
        &self.set
    }

    /// Match count of a punctuation (zero once it is popped).
    pub fn count(&self, id: PunctId) -> u64 {
        self.slot(id).map_or(0, |s| s.count)
    }

    /// Records that a tuple carrying `pid` entered the state.
    pub fn increment(&mut self, id: PunctId) {
        let slot = self.slot_mut(id);
        slot.count += 1;
        if slot.count == 1 {
            self.zero_count.remove(&id);
        }
    }

    /// Records that a tuple carrying `pid` left the state (purged,
    /// dropped from the purge buffer, …).
    pub fn decrement(&mut self, id: PunctId) {
        let slot = self.slot_mut(id);
        debug_assert!(slot.count > 0, "count underflow for {id}");
        slot.count = slot.count.saturating_sub(1);
        if slot.count == 0 && !slot.retired {
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
            self.zero_count.iter().copied().eq((self.set.base()..self.next_id())
                .map(PunctId)
                .filter(|&id| self.slot(id).is_some_and(|s| !s.retired && s.count == 0))),
            "zero-count set out of step with counts / retired"
        );
        self.zero_count.iter().copied()
    }

    /// True while tuples matching punctuation `id` may carry an earlier
    /// punctuation's pid and so escape its count: a tuple gets the
    /// first-arrived punctuation it matches, so behind an earlier one that
    /// overlaps it (a duplicate constant, a constant inside an earlier
    /// list or range, a range over an earlier constant) a zero count does
    /// not mean no matching tuple is left. Such a punctuation waits until
    /// every earlier one overlapping it counts nothing. For a point
    /// punctuation (a constant or an enumeration list) those are the ones
    /// the indexes offer for its values; for a range or wildcard, every
    /// earlier stored punctuation whose join-attribute pattern is not
    /// disjoint with its own (see DESIGN.md §7).
    pub fn behind_earlier_count(&self, id: PunctId) -> bool {
        let attr = self.set.join_attr();
        let Some(own) = self.set.get(id).map(|p| join_pattern(p, attr)) else {
            return false;
        };
        let values = match own {
            Pattern::Constant(v) => std::slice::from_ref(v),
            Pattern::In(vs) => vs.as_slice(),
            _ => {
                return self.set.iter().take_while(|&(q, _)| q < id).any(|(q, p)| {
                    self.count(q) > 0 && !join_pattern(p, attr).disjoint_with(own)
                })
            }
        };
        values.iter().any(|v| {
            let mut behind = false;
            self.set.for_each_cover(v, |q| behind |= q < id && self.count(q) > 0);
            behind
        })
    }

    /// Live (unretired) punctuations in arrival order.
    pub fn live_ids(&self) -> Vec<PunctId> {
        self.set
            .iter()
            .filter(|&(id, _)| !self.is_retired(id))
            .map(|(id, _)| id)
            .collect()
    }

    /// Looks up a punctuation by id (`None` once it is forgotten).
    pub fn get(&self, id: PunctId) -> Option<&Punctuation> {
        self.set.get(id)
    }

    /// Retires a punctuation after propagation. Idempotent.
    pub fn retire(&mut self, id: PunctId) {
        let base = self.set.base();
        let Some(slot) = id.0.checked_sub(base).and_then(|i| self.slots.get_mut(i as usize)) else {
            return;
        };
        if !slot.retired {
            slot.retired = true;
            self.live -= 1;
            self.zero_count.remove(&id);
        }
    }

    /// True if `id` has been retired (every id below the window has).
    pub fn is_retired(&self, id: PunctId) -> bool {
        self.slot(id).is_none_or(|s| s.retired)
    }

    /// The punctuation of this side that closes join value `v` for good,
    /// if it may be forgotten once the other side's closer of `v` is too:
    /// the owner of `v`'s constant slot, constraining nothing but the
    /// join attribute, index-built, retired with a count of zero, and not
    /// [behind an earlier count](Self::behind_earlier_count). Then no
    /// tuple with join value `v` remains in this side's state — an
    /// indexed one would carry this pid or a counted earlier one, and
    /// none is unindexed past the build — and a well-formed input sends
    /// no further one.
    fn closer_of(&self, v: &Value) -> Option<PunctId> {
        let id = self.set.constant_id(v)?;
        let slot = self.slot(id)?;
        let attr = self.set.join_attr();
        let only_join_attr = self.set.get(id)?.patterns().iter().enumerate().all(|(i, p)| {
            i == attr || *p == Pattern::Wildcard
        });
        (slot.retired
            && slot.count == 0
            && id.0 < self.indexed_next
            && only_join_attr
            && !self.behind_earlier_count(id))
        .then_some(id)
    }

    /// If the just-propagated `id` closes a constant join value that the
    /// `other` side has closed and propagated too, the other side's
    /// punctuation for it: neither is needed any longer — each side's
    /// state holds no tuple with the value and neither input sends one
    /// again, so no drop, purge or propagation can consult them. Both
    /// may then be [`forget`](Self::forget)ten.
    pub fn closed_pair(&self, id: PunctId, other: &PunctuationIndex) -> Option<PunctId> {
        let Some(Pattern::Constant(v)) = self.get(id)?.pattern(self.set.join_attr()) else {
            return None;
        };
        if self.closer_of(v) != Some(id) {
            return None;
        }
        other.closer_of(v)
    }

    /// Forgets a retired punctuation: it leaves every index of the set
    /// at once and the window at the next [`trim`](Self::trim) that
    /// finds it at the front. Returns true if it was stored and not yet
    /// forgotten.
    pub fn forget(&mut self, id: PunctId) -> bool {
        debug_assert!(self.is_retired(id) && self.count(id) == 0, "forgetting a live {id}");
        self.set.remove(id)
    }

    /// Pops forgotten punctuations off the front of the window while
    /// both watermarks of this side have passed them: `applied_up_to`,
    /// the ids already applied to purge the opposite state, and the
    /// index-build watermark. A punctuation not forgotten stops it.
    pub fn trim(&mut self, applied_up_to: u64) {
        let popped = self.set.pop_removed_below(applied_up_to.min(self.indexed_next));
        self.slots.drain(..popped);
    }

    /// Cross-stream cover check (the paper's `setMatch(t_B, PS_A)` for
    /// join-attribute punctuations): does any punctuation's join-attribute
    /// pattern match `join_value`? Retired punctuations participate;
    /// forgotten ones do not.
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
                Some(first) if !self.is_retired(first) => return true,
                Some(first) => first.0 + 1,
            },
            _ => 0,
        };
        let attr = self.set.join_attr();
        self.set
            .iter_from(since)
            .any(|(id, p)| !self.is_retired(id) && p.pattern(attr) == Some(pattern))
    }

    /// Join-attribute patterns of punctuations with `id >= since`, in
    /// arrival order — the "new punctuations" a lazy purge applies.
    /// Forgotten ones are included: the window keeps them until the
    /// purge watermark passes them.
    pub fn join_patterns_since(&self, since: u64) -> impl Iterator<Item = &Pattern> + '_ {
        let attr = self.set.join_attr();
        self.set.stored_punctuations_from(since).filter_map(move |p| p.pattern(attr))
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

    /// Index-builds, retires and propagates-in-effect every punctuation
    /// of `ix` with count zero.
    fn build_and_retire_all(ix: &mut PunctuationIndex) {
        ix.mark_indexed();
        for id in ix.zero_count_ids().collect::<Vec<_>>() {
            ix.retire(id);
        }
    }

    #[test]
    fn a_pair_is_forgotten_only_once_both_are_retired() {
        let (mut a, mut b) = (PunctuationIndex::new(0), PunctuationIndex::new(0));
        let pa = a.insert(close(5));
        assert_eq!(a.closed_pair(pa, &b), None, "the other side has not closed 5");
        let pb = b.insert(close(5));
        a.mark_indexed();
        b.mark_indexed();
        a.retire(pa);
        assert_eq!(a.closed_pair(pa, &b), None, "the other side's is not retired");
        // A count above zero (a tuple the own input sent after closing
        // the value) keeps it too.
        b.retire(pb);
        b.increment(pb);
        assert_eq!(a.closed_pair(pa, &b), None);
        b.decrement(pb);
        assert_eq!(a.closed_pair(pa, &b), Some(pb));
        assert_eq!(b.closed_pair(pb, &a), Some(pa), "symmetric");
        assert!(a.forget(pa) && b.forget(pb));
        assert!(!a.forget(pa), "once");
        assert!(!a.covers_join_value(&Value::Int(5)));
        assert_eq!(a.get(pa), None);
        assert!(a.is_retired(pa));
        assert_eq!(a.held(), 1, "stored until trimmed");
        a.trim(u64::MAX);
        assert_eq!((a.held(), a.total(), a.live()), (0, 1, 0));
    }

    #[test]
    fn a_pair_is_kept_while_an_earlier_punctuation_counts_the_value() {
        let (mut a, mut b) = (PunctuationIndex::new(0), PunctuationIndex::new(0));
        // Side A closed 5 first inside a range, so A tuples with key 5
        // carry the range's pid, not the constant's.
        let range = a.insert(Punctuation::on_attr(2, 0, Pattern::int_range(0, 9)));
        let pa = a.insert(close(5));
        let pb = b.insert(close(5));
        a.mark_indexed();
        b.mark_indexed();
        a.increment(range);
        a.retire(pa);
        b.retire(pb);
        assert_eq!(a.closed_pair(pa, &b), None);
        assert_eq!(b.closed_pair(pb, &a), None);
        // Once the range counts nothing, no A tuple with key 5 is left.
        a.decrement(range);
        assert_eq!(a.closed_pair(pa, &b), Some(pb));
        // Nor is a punctuation forgotten before it is index-built, or
        // one constraining more than the join attribute.
        let (mut a, mut b) = (PunctuationIndex::new(0), PunctuationIndex::new(0));
        let pa = a.insert(close(6));
        let pb = b.insert(close(6));
        a.retire(pa);
        b.retire(pb);
        assert_eq!(a.closed_pair(pa, &b), None, "not index-built");
        let narrow = Punctuation::new(vec![
            Pattern::Constant(Value::Int(7)),
            Pattern::Constant(Value::Int(1)),
        ]);
        let pa = a.insert(narrow);
        let pb = b.insert(close(7));
        build_and_retire_all(&mut a);
        build_and_retire_all(&mut b);
        assert_eq!(a.closed_pair(pa, &b), None, "closes (7, 1) only");
        assert_eq!(b.closed_pair(pb, &a), None);
    }

    #[test]
    fn an_id_below_base_reads_as_retired() {
        let (mut a, mut b) = (PunctuationIndex::new(0), PunctuationIndex::new(0));
        let pa = a.insert(close(1));
        let pb = b.insert(close(1));
        build_and_retire_all(&mut a);
        build_and_retire_all(&mut b);
        a.forget(pa);
        b.forget(pb);
        // The purge watermark holds it until the purge has applied it.
        a.trim(0);
        assert!(a.join_patterns_since(0).eq([&Pattern::Constant(Value::Int(1))]));
        a.trim(1);
        assert_eq!(a.set().base(), 1);
        assert!(a.is_retired(pa));
        assert_eq!(a.count(pa), 0);
        assert_eq!(a.get(pa), None);
        assert!(a.live_ids().is_empty());
        assert!(!a.contains_join_pattern(&Pattern::Constant(Value::Int(1))));
        let next = a.insert(close(2));
        assert_eq!(next, PunctId(1));
        assert!(a.join_patterns_since(0).eq([&Pattern::Constant(Value::Int(2))]));
        assert!(a.zero_count_ids().eq([next]));
    }

    #[test]
    fn an_unforgotten_front_pins_the_window_but_later_pairs_leave_the_maps() {
        let (mut a, mut b) = (PunctuationIndex::new(0), PunctuationIndex::new(0));
        // Only side A ever closes 100: that punctuation stays retired.
        let pinned = a.insert(close(100));
        let pairs: Vec<(PunctId, PunctId)> =
            (0..3).map(|k| (a.insert(close(k)), b.insert(close(k)))).collect();
        build_and_retire_all(&mut a);
        build_and_retire_all(&mut b);
        assert_eq!(a.closed_pair(pinned, &b), None);
        for &(pa, pb) in &pairs {
            assert_eq!(a.closed_pair(pa, &b), Some(pb));
            a.forget(pa);
            b.forget(pb);
        }
        a.trim(u64::MAX);
        b.trim(u64::MAX);
        assert_eq!(a.held(), 4, "the retired front pins A's window");
        assert_eq!(b.held(), 0);
        assert!((0..3).all(|k| !a.covers_join_value(&Value::Int(k))));
        assert!(a.covers_join_value(&Value::Int(100)));
        // Ids stay dense behind the pinned front.
        assert_eq!(a.insert(close(9)), PunctId(4));
    }

    /// The hold on a range is conservative: an earlier punctuation whose
    /// join pattern is a wildcard (it constrains another attribute)
    /// holds the range while it counts any tuple, even one whose join
    /// value lies outside the range. A tighter check would have to look
    /// at the stored tuples.
    #[test]
    fn a_range_waits_for_any_earlier_wildcard_join_pattern_that_counts() {
        let mut ix = PunctuationIndex::new(0);
        let other_attr = ix.insert(Punctuation::on_attr(2, 1, Pattern::Constant(Value::Int(7))));
        // Counts a stored tuple such as `(50, 7)`: outside the range.
        ix.increment(other_attr);
        let disjoint = ix.insert(close(20));
        ix.increment(disjoint);
        let range = ix.insert(Punctuation::on_attr(2, 0, Pattern::int_range(0, 9)));
        assert_eq!(ix.count(range), 0);
        assert!(ix.behind_earlier_count(range), "held by the wildcard join pattern");
        ix.decrement(other_attr);
        assert!(!ix.behind_earlier_count(range), "a disjoint constant does not hold it");
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
