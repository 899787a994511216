//! The punctuation index of the paper's §3.5: which punctuations of one
//! input stream may propagate. By Theorem 1 a punctuation may propagate
//! once no tuple matching it remains in its own stream's state.
//!
//! Deviation from the paper, documented in DESIGN.md §7: the paper's
//! index (Fig. 2) gives each stored tuple the pid of the *first-arrived*
//! punctuation it matches and counts tuples per pid. A tuple counted
//! under an earlier punctuation escapes every later one it matches, so a
//! zero count there does not mean that no matching tuple is left. This
//! index counts the stored tuples **by join value** instead (memory,
//! disk and purge buffer alike), and a live punctuation is propagable
//! once no counted value satisfies its join-attribute pattern. Only two
//! events change that: a punctuation arriving (checked once) and a
//! value's count moving between 0 and 1 (the punctuations the set offers
//! for the value are checked again). A propagation run never scans the
//! live punctuations. A punctuation that also constrains a non-join
//! attribute gets the same join-value test, which is sufficient but not
//! exact: it may wait for tuples it does not match.
//!
//! A second deviation: the paper removes propagated punctuations from
//! the punctuation set; we *retire* them instead (excluded from
//! propagation, still consulted by the opposite side's on-the-fly drop
//! and purge), so late opposite-side tuples covered by an
//! already-propagated punctuation can still be dropped rather than
//! lingering unpurgeably. That reason ends once the opposite side has
//! closed the same value too: a constant both sides closed is then
//! *forgotten* on both sides ([`closed_pair`](PunctuationIndex::closed_pair),
//! [`forget`](PunctuationIndex::forget)), so the index holds the values
//! still open rather than every punctuation ever received.
//!
//! Ids stay dense and stable, but the retired flags live in a window in
//! step with the set's entries: `retired[i]` belongs to id `base + i`,
//! and a forgotten id leaves the front once the purge watermark of its
//! side has passed it ([`trim`](PunctuationIndex::trim)). An id below
//! `base` reads as retired.

use std::collections::VecDeque;

use punct_types::{Pattern, PunctId, Punctuation, PunctuationSet, Tuple, Value, ValueMap};

/// `p`'s pattern on join attribute `attr`; a punctuation without one
/// constrains nothing there.
fn join_pattern(p: &Punctuation, attr: usize) -> &Pattern {
    p.pattern(attr).unwrap_or(&Pattern::Wildcard)
}

/// True if some value counted in `counts` satisfies `pattern`: one
/// lookup per value of a constant or an enumeration, a walk of the
/// counts for a range.
fn holds(counts: &ValueMap<u32>, pattern: &Pattern) -> bool {
    let counted = |v: &Value| !v.is_null() && counts.contains_key(v);
    match pattern {
        Pattern::Wildcard => !counts.is_empty(),
        Pattern::Empty => false,
        Pattern::Constant(v) => counted(v),
        Pattern::In(vs) => vs.iter().any(counted),
        Pattern::Range { .. } => counts.keys().any(|v| pattern.matches(v)),
    }
}

/// Adds `id` to the sorted id set `ids`.
fn mark(ids: &mut Vec<PunctId>, id: PunctId) {
    if let Err(at) = ids.binary_search(&id) {
        ids.insert(at, id);
    }
}

/// Takes `id` out of the sorted id set `ids`.
fn unmark(ids: &mut Vec<PunctId>, id: PunctId) {
    if let Ok(at) = ids.binary_search(&id) {
        ids.remove(at);
    }
}

/// The punctuation index of one input stream.
#[derive(Debug, Clone)]
pub struct PunctuationIndex {
    set: PunctuationSet,
    /// Retired flag per stored id: `retired[i]` is id `set.base() + i`,
    /// popped in step with the set's entries.
    retired: VecDeque<bool>,
    /// Number of unretired punctuations, maintained incrementally so
    /// [`live`](Self::live) is O(1) rather than a scan of the flags.
    live: usize,
    /// Stored tuples of this stream per join value: memory, disk and
    /// purge buffer. A value with no stored tuple has no entry.
    counts: ValueMap<u32>,
    /// The live punctuations that no counted value satisfies — the
    /// propagable ones — sorted by id, i.e. by arrival. A sorted `Vec`:
    /// ids arrive in order, so an insert is mostly a push, and a
    /// propagation drains it and keeps its capacity for the next one.
    propagable: Vec<PunctId>,
}

impl PunctuationIndex {
    /// Creates an empty index; `join_attr` is this stream's join
    /// attribute.
    pub fn new(join_attr: usize) -> PunctuationIndex {
        PunctuationIndex {
            set: PunctuationSet::new(join_attr),
            retired: VecDeque::new(),
            live: 0,
            counts: ValueMap::default(),
            propagable: Vec::new(),
        }
    }

    /// Inserts a newly-arrived punctuation, assigning its id. It is
    /// propagable at once if no stored tuple's join value satisfies it.
    pub fn insert(&mut self, p: Punctuation) -> PunctId {
        let held = holds(&self.counts, join_pattern(&p, self.set.join_attr()));
        let id = self.set.insert(p);
        self.retired.push_back(false);
        debug_assert_eq!(
            self.retired.len(),
            self.set.held(),
            "flags in step with entries"
        );
        self.live += 1;
        if !held {
            debug_assert!(self.propagable.last() < Some(&id), "ids arrive in order");
            self.propagable.push(id);
        }
        id
    }

    /// The id the *next* inserted punctuation will get.
    pub fn next_id(&self) -> u64 {
        self.set.next_id()
    }

    /// Number of punctuations not yet retired.
    pub fn live(&self) -> usize {
        debug_assert_eq!(self.live, self.retired.iter().filter(|&&r| !r).count());
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

    /// Stored tuples of this stream with join value `v`.
    pub fn count(&self, v: &Value) -> u32 {
        self.counts.get(v).copied().unwrap_or(0)
    }

    /// Every join value with stored tuples, with its count, in no
    /// particular order.
    pub fn counts(&self) -> impl Iterator<Item = (&Value, u32)> + '_ {
        self.counts.iter().map(|(v, &n)| (v, n))
    }

    /// Records that tuple `t` of this stream entered the state. When its
    /// join value was not stored before, the punctuations matching the
    /// value stop being propagable.
    pub fn enter(&mut self, t: &Tuple) {
        let Some(v) = t.get(self.set.join_attr()) else {
            return;
        };
        if let Some(n) = self.counts.get_mut(v) {
            *n += 1;
            return;
        }
        self.counts.insert(v.clone(), 1);
        if self.propagable.is_empty() {
            return;
        }
        let (set, propagable) = (&self.set, &mut self.propagable);
        let attr = set.join_attr();
        set.for_each_cover(v, |q| {
            if set.get(q).is_some_and(|p| join_pattern(p, attr).matches(v)) {
                unmark(propagable, q);
            }
        });
    }

    /// Records that tuple `t` of this stream left the state (purged,
    /// dropped from the purge buffer or the disk, expired). When it was
    /// the last one with its join value, the live punctuations matching
    /// the value are checked again.
    pub fn leave(&mut self, t: &Tuple) {
        let Some(v) = t.get(self.set.join_attr()) else {
            return;
        };
        let Some(n) = self.counts.get_mut(v) else {
            debug_assert!(false, "{v} left the state uncounted");
            return;
        };
        *n -= 1;
        if *n > 0 {
            return;
        }
        self.counts.remove(v);
        if self.propagable.len() == self.live {
            return;
        }
        let (set, counts, propagable) = (&self.set, &self.counts, &mut self.propagable);
        let (attr, base, retired) = (set.join_attr(), set.base(), &self.retired);
        set.for_each_cover(v, |q| {
            // Offered ids are stored, so at or above the base.
            let live = retired.get((q.0 - base) as usize) == Some(&false);
            if live
                && set
                    .get(q)
                    .is_some_and(|p| !holds(counts, join_pattern(p, attr)))
            {
                mark(propagable, q);
            }
        });
    }

    /// Live (unretired) punctuations that no stored tuple's join value
    /// satisfies, in arrival order — the propagable punctuations of the
    /// Propagate algorithm (Fig. 3).
    pub fn propagable(&self) -> impl Iterator<Item = PunctId> + '_ {
        self.propagable.iter().copied()
    }

    /// Retires every [propagable](Self::propagable) punctuation and
    /// appends them to `out` in arrival order.
    pub fn retire_propagable(&mut self, out: &mut Vec<PunctId>) {
        let from = out.len();
        out.append(&mut self.propagable);
        let attr = self.set.join_attr();
        for &id in &out[from..] {
            debug_assert!(
                self.get(id)
                    .is_some_and(|p| !holds(&self.counts, join_pattern(p, attr))),
                "{id} is held by a stored tuple"
            );
            self.retire(id);
        }
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
        let Some(flag) =
            id.0.checked_sub(base)
                .and_then(|i| self.retired.get_mut(i as usize))
        else {
            return;
        };
        if !*flag {
            *flag = true;
            self.live -= 1;
            unmark(&mut self.propagable, id);
        }
    }

    /// True if `id` has been retired (every id below the window has).
    pub fn is_retired(&self, id: PunctId) -> bool {
        id.0.checked_sub(self.set.base())
            .and_then(|i| self.retired.get(usize::try_from(i).ok()?))
            .is_none_or(|&r| r)
    }

    /// The punctuation of this side that closes join value `v` for good,
    /// if it may be forgotten once the other side's closer of `v` is too:
    /// the owner of `v`'s constant slot, constraining nothing but the
    /// join attribute, retired, with no stored tuple of value `v` left.
    /// A well-formed input sends no further one.
    fn closer_of(&self, v: &Value) -> Option<PunctId> {
        let id = self.set.constant_id(v)?;
        let attr = self.set.join_attr();
        let only_join_attr = self
            .set
            .get(id)?
            .patterns()
            .iter()
            .enumerate()
            .all(|(i, p)| i == attr || *p == Pattern::Wildcard);
        (self.is_retired(id) && only_join_attr && self.count(v) == 0).then_some(id)
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
        debug_assert!(self.is_retired(id), "forgetting a live {id}");
        self.set.remove(id)
    }

    /// Pops forgotten punctuations off the front of the window while
    /// `applied_up_to`, the ids of this side already applied to purge
    /// the opposite state, has passed them. A punctuation not forgotten
    /// stops it.
    pub fn trim(&mut self, applied_up_to: u64) {
        let popped = self.set.pop_removed_below(applied_up_to);
        self.retired.drain(..popped);
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
        self.set
            .stored_punctuations_from(since)
            .filter_map(move |p| p.pattern(attr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(v: i64) -> Punctuation {
        Punctuation::close_value(2, 0, v)
    }

    fn tup(k: i64, x: i64) -> Tuple {
        Tuple::of((k, x))
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
        ix.enter(&tup(5, 0));
        ix.enter(&tup(5, 1));
        let id = ix.insert(close(5));
        assert_eq!(ix.count(&Value::Int(5)), 2);
        assert_eq!(ix.propagable().count(), 0, "held by the stored tuples");
        ix.leave(&tup(5, 0));
        assert_eq!(ix.count(&Value::Int(5)), 1);
        assert_eq!(ix.propagable().count(), 0);
        ix.leave(&tup(5, 1));
        assert!(ix.propagable().eq([id]));
        assert_eq!(ix.counts().count(), 0, "a value with no tuple has no entry");
        // A tuple entering again (a contract violation) holds it again.
        ix.enter(&tup(5, 2));
        assert_eq!(ix.propagable().count(), 0);
    }

    #[test]
    fn retirement_hides_from_propagation_not_from_cover() {
        let mut ix = PunctuationIndex::new(0);
        let id = ix.insert(close(9));
        assert!(ix.propagable().eq([id]));
        ix.retire(id);
        assert!(ix.is_retired(id));
        assert_eq!(ix.propagable().count(), 0);
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
        assert!(ix
            .join_patterns_since(2)
            .eq([&Pattern::Constant(Value::Int(3))]));
        assert_eq!(ix.join_patterns_since(3).count(), 0);
    }

    #[test]
    fn zero_count_preserves_arrival_order() {
        let mut ix = PunctuationIndex::new(0);
        ix.enter(&tup(2, 0));
        let a = ix.insert(close(1));
        let b = ix.insert(close(2));
        let c = ix.insert(close(3));
        assert!(ix.propagable().eq([a, c]));
        // Back to zero: `b` re-enters between its neighbours, not at the end.
        ix.leave(&tup(2, 0));
        assert!(ix.propagable().eq([a, b, c]));
        let mut retired = Vec::new();
        ix.retire_propagable(&mut retired);
        assert_eq!(retired, vec![a, b, c]);
        assert_eq!((ix.live(), ix.propagable().count()), (0, 0));
    }

    #[test]
    fn retired_punctuation_never_becomes_a_candidate_again() {
        // Retired punctuations stay in the set; their value's count
        // moving must not resurrect them.
        let mut ix = PunctuationIndex::new(0);
        let id = ix.insert(close(4));
        ix.retire(id);
        ix.enter(&tup(4, 0));
        ix.leave(&tup(4, 0));
        assert_eq!(ix.propagable().count(), 0);
    }

    /// Every shape of join-attribute pattern is held exactly by the
    /// stored values it matches: an enumeration by any member, a range
    /// by a value inside it, a wildcard by any value, `Empty` by none.
    #[test]
    fn each_pattern_shape_is_held_by_the_values_it_matches() {
        let mut ix = PunctuationIndex::new(0);
        ix.enter(&tup(6, 0));
        ix.enter(&tup(20, 0));
        let list = ix.insert(Punctuation::on_attr(
            2,
            0,
            Pattern::enumeration(vec![Value::Int(5), Value::Int(6)]),
        ));
        let range = ix.insert(Punctuation::on_attr(2, 0, Pattern::int_range(10, 29)));
        let wildcard = ix.insert(Punctuation::on_attr(2, 1, Pattern::Constant(Value::Int(7))));
        let empty = ix.insert(Punctuation::on_attr(2, 0, Pattern::Empty));
        let float = ix.insert(Punctuation::on_attr(
            2,
            0,
            Pattern::Constant(Value::Float(6.0)),
        ));
        assert!(ix.propagable().eq([empty, float]), "exact, not join_eq");
        ix.leave(&tup(6, 0));
        assert!(ix.propagable().eq([list, empty, float]));
        ix.enter(&tup(25, 1));
        ix.leave(&tup(20, 0));
        assert!(
            ix.propagable().eq([list, empty, float]),
            "25 is in the range too"
        );
        ix.leave(&tup(25, 1));
        assert!(ix.propagable().eq([list, range, wildcard, empty, float]));
    }

    #[test]
    fn a_pair_is_forgotten_only_once_both_are_retired() {
        let (mut a, mut b) = (PunctuationIndex::new(0), PunctuationIndex::new(0));
        let pa = a.insert(close(5));
        assert_eq!(
            a.closed_pair(pa, &b),
            None,
            "the other side has not closed 5"
        );
        let pb = b.insert(close(5));
        a.retire(pa);
        assert_eq!(
            a.closed_pair(pa, &b),
            None,
            "the other side's is not retired"
        );
        // A stored tuple with the value (one the own input sent after
        // closing it) keeps it too.
        b.retire(pb);
        b.enter(&tup(5, 1));
        assert_eq!(a.closed_pair(pa, &b), None);
        b.leave(&tup(5, 1));
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
        // Side A closed 5 first inside a range and still stores a tuple
        // with key 5: the count by value holds its later constant.
        a.enter(&tup(5, 0));
        let range = a.insert(Punctuation::on_attr(2, 0, Pattern::int_range(0, 9)));
        let pa = a.insert(close(5));
        let pb = b.insert(close(5));
        a.retire(pa);
        b.retire(pb);
        assert_eq!(a.closed_pair(pa, &b), None);
        assert_eq!(b.closed_pair(pb, &a), None);
        // Once no A tuple with key 5 is left, both may go.
        a.leave(&tup(5, 0));
        assert!(a.propagable().eq([range]));
        assert_eq!(a.closed_pair(pa, &b), Some(pb));
        // Nor is a punctuation constraining more than the join attribute
        // forgotten.
        let (mut a, mut b) = (PunctuationIndex::new(0), PunctuationIndex::new(0));
        let narrow = Punctuation::new(vec![
            Pattern::Constant(Value::Int(7)),
            Pattern::Constant(Value::Int(1)),
        ]);
        let pa = a.insert(narrow);
        let pb = b.insert(close(7));
        a.retire_propagable(&mut Vec::new());
        b.retire_propagable(&mut Vec::new());
        assert_eq!(a.closed_pair(pa, &b), None, "closes (7, 1) only");
        assert_eq!(b.closed_pair(pb, &a), None);
    }

    #[test]
    fn an_id_below_base_reads_as_retired() {
        let (mut a, mut b) = (PunctuationIndex::new(0), PunctuationIndex::new(0));
        let pa = a.insert(close(1));
        let pb = b.insert(close(1));
        a.retire_propagable(&mut Vec::new());
        b.retire_propagable(&mut Vec::new());
        a.forget(pa);
        b.forget(pb);
        // The purge watermark holds it until the purge has applied it.
        a.trim(0);
        assert!(a
            .join_patterns_since(0)
            .eq([&Pattern::Constant(Value::Int(1))]));
        a.trim(1);
        assert_eq!(a.set().base(), 1);
        assert!(a.is_retired(pa));
        assert_eq!(a.get(pa), None);
        assert!(a.live_ids().is_empty());
        assert!(!a.contains_join_pattern(&Pattern::Constant(Value::Int(1))));
        let next = a.insert(close(2));
        assert_eq!(next, PunctId(1));
        assert!(a
            .join_patterns_since(0)
            .eq([&Pattern::Constant(Value::Int(2))]));
        assert!(a.propagable().eq([next]));
    }

    #[test]
    fn an_unforgotten_front_pins_the_window_but_later_pairs_leave_the_maps() {
        let (mut a, mut b) = (PunctuationIndex::new(0), PunctuationIndex::new(0));
        // Only side A ever closes 100: that punctuation stays retired.
        let pinned = a.insert(close(100));
        let pairs: Vec<(PunctId, PunctId)> = (0..3)
            .map(|k| (a.insert(close(k)), b.insert(close(k))))
            .collect();
        a.retire_propagable(&mut Vec::new());
        b.retire_propagable(&mut Vec::new());
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

    /// A range is held only by stored tuples inside it. An earlier
    /// punctuation whose join pattern is a wildcard (it constrains
    /// another attribute) waits while the side stores any tuple, here
    /// `(50, 7)`, but does not hold the range back.
    #[test]
    fn a_range_propagates_past_a_held_wildcard_join_pattern() {
        let mut ix = PunctuationIndex::new(0);
        ix.enter(&tup(50, 7));
        let other_attr = ix.insert(Punctuation::on_attr(2, 1, Pattern::Constant(Value::Int(7))));
        let range = ix.insert(Punctuation::on_attr(2, 0, Pattern::int_range(0, 9)));
        assert!(
            ix.propagable().eq([range]),
            "only the wildcard join pattern is held"
        );
        let mut retired = Vec::new();
        ix.retire_propagable(&mut retired);
        assert_eq!(retired, vec![range]);
        ix.leave(&tup(50, 7));
        assert!(
            ix.propagable().eq([other_attr]),
            "free once the side stores nothing"
        );
    }

    #[test]
    fn contains_join_pattern_sees_a_live_duplicate_behind_a_retired_one() {
        let mut ix = PunctuationIndex::new(0);
        let nine = Pattern::Constant(Value::Int(9));
        assert!(!ix.contains_join_pattern(&nine));
        let first = ix.insert(close(9));
        assert!(ix.contains_join_pattern(&nine));
        assert!(
            !ix.contains_join_pattern(&Pattern::Constant(Value::Float(9.0))),
            "exact, not join_eq"
        );
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
