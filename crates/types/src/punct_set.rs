//! Punctuation sets with a fast `setMatch` on a designated join attribute.
//!
//! The paper's purge rule (§2.2, eq. 1) tests `setMatch(t, PS(T))` — does
//! *any* punctuation seen so far match tuple `t`? A join evaluates this for
//! every arriving tuple (on-the-fly drop) and for every stored tuple during
//! a purge scan, so every pattern shape on the join attribute is indexed:
//! constants in a hash map (O(1)), enumeration-list members in a hash map
//! from member value to punctuation ids, and range patterns in a sorted
//! interval list answering stabbing queries by binary search. Only
//! wildcard (and schema-less) punctuations fall back to a linear scan.
//! The value maps hash with [`ValueHasher`](crate::ValueHasher), not
//! SipHash.
//!
//! Ids are dense and never reused, but storage is a window: a removed
//! punctuation leaves the indexes at once and its entry is popped once it
//! reaches the front (`entries[i].id == base + i`). An id below `base`
//! reads as removed.

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::fmt;

use crate::pattern::{Bound, Pattern};
use crate::punctuation::Punctuation;
use crate::value::{Value, ValueMap};

/// Stable identifier of a punctuation within a [`PunctuationSet`].
///
/// Ids are assigned in arrival order and never reused, so they order
/// propagation and name a punctuation in traces. Stored tuples do not
/// carry one: a join counts its stored tuples by join value instead of
/// the paper's per-tuple pid (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PunctId(pub u64);

impl fmt::Display for PunctId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An entry in the set.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    id: PunctId,
    punctuation: Punctuation,
    /// Whether the entry has been logically removed (after propagation).
    removed: bool,
}

/// Orders two *lower* bounds by the values they admit: `a <= b` iff the
/// set `a` admits contains the set `b` admits. Sorting by this key gives
/// the prefix property a stabbing query needs: once a lower bound stops
/// admitting `v`, no later one admits it either.
fn cmp_lower(a: &Bound, b: &Bound) -> Ordering {
    match (a, b) {
        (Bound::Unbounded, Bound::Unbounded) => Ordering::Equal,
        (Bound::Unbounded, _) => Ordering::Less,
        (_, Bound::Unbounded) => Ordering::Greater,
        (Bound::Inclusive(x), Bound::Inclusive(y))
        | (Bound::Exclusive(x), Bound::Exclusive(y)) => x.cmp(y),
        // At the same value an inclusive lower bound admits more.
        (Bound::Inclusive(x), Bound::Exclusive(y)) => x.cmp(y).then(Ordering::Less),
        (Bound::Exclusive(x), Bound::Inclusive(y)) => x.cmp(y).then(Ordering::Greater),
    }
}

/// Orders two *upper* bounds by looseness: `a >= b` iff `a` admits every
/// value `b` admits. Used for the prefix-loosest array.
fn cmp_upper(a: &Bound, b: &Bound) -> Ordering {
    match (a, b) {
        (Bound::Unbounded, Bound::Unbounded) => Ordering::Equal,
        (Bound::Unbounded, _) => Ordering::Greater,
        (_, Bound::Unbounded) => Ordering::Less,
        (Bound::Inclusive(x), Bound::Inclusive(y))
        | (Bound::Exclusive(x), Bound::Exclusive(y)) => x.cmp(y),
        // At the same value an inclusive upper bound admits more.
        (Bound::Inclusive(x), Bound::Exclusive(y)) => x.cmp(y).then(Ordering::Greater),
        (Bound::Exclusive(x), Bound::Inclusive(y)) => x.cmp(y).then(Ordering::Less),
    }
}

/// One range punctuation in the interval index.
#[derive(Debug, Clone, PartialEq)]
struct RangeEntry {
    lo: Bound,
    hi: Bound,
    id: PunctId,
}

/// A sorted interval list answering "which range punctuations admit value
/// `v`" stabbing queries.
///
/// Entries are sorted by lower bound (loosest first), and
/// `prefix_loosest_hi[i]` holds the loosest upper bound among
/// `entries[..=i]`. A query binary-searches the last entry whose lower
/// bound admits `v`, then walks left collecting matches; it stops as soon
/// as the prefix-loosest upper bound no longer admits `v` — at that point
/// no earlier entry can match. With the disjoint-or-nested range
/// punctuations the paper assumes, a query touches O(log n + matches)
/// entries.
#[derive(Debug, Clone, Default, PartialEq)]
struct RangeIndex {
    entries: Vec<RangeEntry>,
    prefix_loosest_hi: Vec<Bound>,
}

impl RangeIndex {
    fn insert(&mut self, lo: Bound, hi: Bound, id: PunctId) {
        let pos = self.entries.partition_point(|e| cmp_lower(&e.lo, &lo) != Ordering::Greater);
        self.entries.insert(pos, RangeEntry { lo, hi, id });
        self.rebuild_prefix(pos);
    }

    /// Removes the entry for `id`. Returns true when it was present.
    fn remove(&mut self, id: PunctId) -> bool {
        let Some(pos) = self.entries.iter().position(|e| e.id == id) else {
            return false;
        };
        self.entries.remove(pos);
        self.rebuild_prefix(pos);
        true
    }

    /// Recomputes `prefix_loosest_hi` from `from` onward.
    fn rebuild_prefix(&mut self, from: usize) {
        self.prefix_loosest_hi.truncate(from);
        for i in from..self.entries.len() {
            let hi = &self.entries[i].hi;
            let loosest = match self.prefix_loosest_hi.last() {
                Some(prev) if cmp_upper(prev, hi) == Ordering::Greater => prev.clone(),
                _ => hi.clone(),
            };
            self.prefix_loosest_hi.push(loosest);
        }
    }

    /// Calls `f` with the id of every entry whose range admits `v`.
    fn stab(&self, v: &Value, mut f: impl FnMut(PunctId)) {
        let end = self.entries.partition_point(|e| e.lo.admits_from_below(v));
        for i in (0..end).rev() {
            if !self.prefix_loosest_hi[i].admits_from_above(v) {
                break;
            }
            if self.entries[i].hi.admits_from_above(v) {
                f(self.entries[i].id);
            }
        }
    }
}

/// A collection of punctuations over one stream, indexed for a fast
/// `setMatch` on the stream's join attribute.
///
/// ```
/// use punct_types::{Punctuation, PunctuationSet, Value};
/// let mut ps = PunctuationSet::new(0);
/// let id = ps.insert(Punctuation::close_value(2, 0, 7i64));
/// assert!(ps.covers_value(&Value::Int(7)));
/// assert!(!ps.covers_value(&Value::Int(8)));
/// let mut offered = Vec::new();
/// ps.for_each_cover(&Value::Int(7), |q| offered.push(q));
/// assert_eq!(offered, vec![id]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PunctuationSet {
    /// Index of the join attribute within the stream schema.
    attr: usize,
    /// The stored punctuations in arrival order, `entries[i].id == base +
    /// i`; removed ones stay as tombstones until they reach the front.
    entries: VecDeque<Entry>,
    /// Id of `entries[0]`: every id below it was removed and popped.
    base: u64,
    /// The id the next inserted punctuation gets.
    next_id: u64,
    /// Constant-pattern fast path: join value -> id of the first
    /// punctuation closing it.
    constants: ValueMap<PunctId>,
    /// Enumeration-list fast path: member value -> ascending ids of the
    /// `In` punctuations listing it, and of the constants closing it
    /// after the one that owns its `constants` slot.
    members: ValueMap<Vec<PunctId>>,
    /// Range patterns, binary-searchable by stabbing value.
    ranges: RangeIndex,
    /// Ids of punctuations the value indexes cannot answer (wildcard on
    /// the join attribute, or no pattern for it), scanned linearly.
    unindexed: Vec<PunctId>,
    /// Number of live (non-removed) entries.
    live: usize,
}

impl PunctuationSet {
    /// Creates an empty set; `attr` is the join attribute index used by
    /// the fast-path index.
    pub fn new(attr: usize) -> PunctuationSet {
        PunctuationSet {
            attr,
            entries: VecDeque::new(),
            base: 0,
            next_id: 0,
            constants: ValueMap::default(),
            members: ValueMap::default(),
            ranges: RangeIndex::default(),
            unindexed: Vec::new(),
            live: 0,
        }
    }

    /// The join attribute this set indexes on.
    pub fn join_attr(&self) -> usize {
        self.attr
    }

    /// Number of live punctuations.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live punctuations remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The id the next inserted punctuation will get.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// The lowest stored id: every id below it was removed and popped.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of stored entries — live ones and removed ones not yet
    /// popped: `next_id() - base()`.
    pub fn held(&self) -> usize {
        self.entries.len()
    }

    fn entry(&self, id: PunctId) -> Option<&Entry> {
        let i = id.0.checked_sub(self.base)?;
        self.entries.get(usize::try_from(i).ok()?)
    }

    /// Inserts a punctuation, returning its id.
    pub fn insert(&mut self, punctuation: Punctuation) -> PunctId {
        let id = PunctId(self.next_id);
        self.next_id += 1;
        match punctuation.pattern(self.attr) {
            Some(Pattern::Constant(v)) => {
                // The first-arrived id keeps the slot; a later duplicate
                // is listed like a one-member enumeration.
                if self.constants.contains_key(v) {
                    self.members.entry(v.clone()).or_default().push(id);
                } else {
                    self.constants.insert(v.clone(), id);
                }
            }
            Some(Pattern::In(vs)) => {
                for v in vs {
                    // Ids ascend, so pushing keeps each list sorted.
                    self.members.entry(v.clone()).or_default().push(id);
                }
            }
            Some(Pattern::Range { lo, hi }) => {
                self.ranges.insert(lo.clone(), hi.clone(), id);
            }
            // Empty matches nothing: not findable through any index, and
            // nothing to scan either.
            Some(Pattern::Empty) => {}
            _ => self.unindexed.push(id),
        }
        self.entries.push_back(Entry { id, punctuation, removed: false });
        self.live += 1;
        id
    }

    /// Looks up a punctuation by id (live entries only).
    pub fn get(&self, id: PunctId) -> Option<&Punctuation> {
        self.entry(id).filter(|e| !e.removed).map(|e| &e.punctuation)
    }

    /// Removes a punctuation from every index. Its entry stays stored
    /// until [`pop_removed_below`](Self::pop_removed_below) pops it.
    /// Returns true if it was live.
    pub fn remove(&mut self, id: PunctId) -> bool {
        let Some(i) = id.0.checked_sub(self.base) else {
            return false;
        };
        let Some(entry) = self.entries.get_mut(i as usize) else {
            return false;
        };
        if entry.removed {
            return false;
        }
        entry.removed = true;
        self.live -= 1;
        let remove_member = |members: &mut ValueMap<Vec<PunctId>>, v: &Value| {
            if let Some(ids) = members.get_mut(v) {
                ids.retain(|x| *x != id);
                if ids.is_empty() {
                    members.remove(v);
                }
            }
        };
        match entry.punctuation.pattern(self.attr) {
            Some(Pattern::Constant(v)) => {
                if self.constants.get(v) == Some(&id) {
                    self.constants.remove(v);
                } else {
                    remove_member(&mut self.members, v);
                }
            }
            Some(Pattern::In(vs)) => {
                for v in vs {
                    remove_member(&mut self.members, v);
                }
            }
            Some(Pattern::Range { .. }) => {
                self.ranges.remove(id);
            }
            Some(Pattern::Empty) => {}
            _ => self.unindexed.retain(|x| *x != id),
        }
        true
    }

    /// Pops removed entries off the front of the window while their id is
    /// below `below`; a live entry at the front stops it. Returns how
    /// many were popped (the base advanced by as much).
    pub fn pop_removed_below(&mut self, below: u64) -> usize {
        let mut popped = 0;
        while self.entries.front().is_some_and(|e| e.removed && e.id.0 < below) {
            self.entries.pop_front();
            popped += 1;
        }
        self.base += popped as u64;
        popped
    }

    /// Quick check: does any live punctuation match a tuple whose join
    /// attribute equals `v`? Considers only the join attribute, so it is a
    /// *necessary* condition (exact when all other patterns are wildcards,
    /// which is the join-attribute punctuation shape the paper exploits).
    pub fn covers_value(&self, v: &Value) -> bool {
        if self.constants.contains_key(v) {
            return true;
        }
        if !v.is_null() {
            if self.members.contains_key(v) {
                return true;
            }
            let mut stabbed = false;
            self.ranges.stab(v, |_| stabbed = true);
            if stabbed {
                return true;
            }
        }
        self.unindexed.iter().any(|&id| {
            self.entry(id)
                .and_then(|e| e.punctuation.pattern(self.attr))
                .is_some_and(|p| p.matches(v))
        })
    }

    /// Calls `f` with every live punctuation whose join-attribute pattern
    /// may match join value `v`: the constants closing `v`, the `In`
    /// lists naming it, the ranges admitting it, and the unindexed
    /// punctuations (which may match any value). Every punctuation that
    /// matches `v` is offered; the caller checks the pattern to be exact.
    pub fn for_each_cover(&self, v: &Value, mut f: impl FnMut(PunctId)) {
        if let Some(&id) = self.constants.get(v) {
            f(id);
        }
        for &id in self.members.get(v).map_or(&[][..], Vec::as_slice) {
            f(id);
        }
        self.ranges.stab(v, &mut f);
        self.unindexed.iter().copied().for_each(f);
    }

    /// Iterates over live punctuations in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (PunctId, &Punctuation)> {
        self.entries
            .iter()
            .filter(|e| !e.removed)
            .map(|e| (e.id, &e.punctuation))
    }

    /// The stored entries with `id >= since`, removed ones included, in
    /// arrival order, touching only those entries: ids are dense, so
    /// `since - base` is the offset into the window.
    fn stored_from(&self, since: u64) -> impl Iterator<Item = &Entry> {
        let len = self.entries.len();
        let start = usize::try_from(since.saturating_sub(self.base)).map_or(len, |s| s.min(len));
        debug_assert!(
            start == len || self.entries[start].id.0 == self.base + start as u64,
            "ids are dense: entries[i].id == base + i"
        );
        self.entries.range(start..)
    }

    /// Iterates over live punctuations with `id >= since`, in arrival
    /// order (see [`stored_from`](Self::stored_from)).
    pub fn iter_from(&self, since: u64) -> impl Iterator<Item = (PunctId, &Punctuation)> {
        self.stored_from(since)
            .filter(|e| !e.removed)
            .map(|e| (e.id, &e.punctuation))
    }

    /// Every stored punctuation with `id >= since`, removed ones
    /// included, in arrival order: a removed punctuation may still owe a
    /// purge of the opposite state, so it is stored until its owner pops
    /// it past the purge watermark.
    pub fn stored_punctuations_from(&self, since: u64) -> impl Iterator<Item = &Punctuation> {
        self.stored_from(since).map(|e| &e.punctuation)
    }

    /// The id the constant index holds for join value `v`: the first
    /// punctuation closing exactly `v`. Once that one is removed the slot
    /// stays empty; later duplicates are found as members (see
    /// `duplicate_constants_keep_first_id`).
    pub fn constant_id(&self, v: &Value) -> Option<PunctId> {
        self.constants.get(v).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(v: i64) -> Punctuation {
        Punctuation::close_value(2, 0, v)
    }

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    /// The ids [`PunctuationSet::for_each_cover`] offers for `v`, sorted.
    fn covers(ps: &PunctuationSet, v: i64) -> Vec<PunctId> {
        let mut ids = Vec::new();
        ps.for_each_cover(&int(v), |id| ids.push(id));
        ids.sort();
        ids
    }

    #[test]
    fn insert_and_len() {
        let mut ps = PunctuationSet::new(0);
        assert!(ps.is_empty());
        let a = ps.insert(close(1));
        let b = ps.insert(close(2));
        assert_eq!(ps.len(), 2);
        assert!(a < b);
    }

    #[test]
    fn set_match_constant_fast_path() {
        let mut ps = PunctuationSet::new(0);
        let id = ps.insert(close(7));
        assert!(ps.covers_value(&int(7)));
        assert!(!ps.covers_value(&int(8)));
        assert_eq!(covers(&ps, 7), vec![id]);
        assert!(covers(&ps, 8).is_empty());
    }

    #[test]
    fn set_match_range_pattern() {
        let mut ps = PunctuationSet::new(0);
        let id = ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(10, 19)));
        assert!(ps.covers_value(&int(15)));
        assert!(!ps.covers_value(&int(20)));
        assert_eq!(covers(&ps, 15), vec![id]);
        assert!(covers(&ps, 20).is_empty());
    }

    #[test]
    fn remove_makes_punctuation_invisible() {
        let mut ps = PunctuationSet::new(0);
        let id = ps.insert(close(3));
        assert!(ps.remove(id));
        assert!(!ps.remove(id));
        assert!(!ps.covers_value(&int(3)));
        assert!(covers(&ps, 3).is_empty());
        assert_eq!(ps.len(), 0);
        assert!(ps.get(id).is_none());
    }

    #[test]
    fn remove_nonconstant() {
        let mut ps = PunctuationSet::new(0);
        let id = ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(0, 9)));
        assert!(ps.remove(id));
        assert!(!ps.covers_value(&int(5)));
        assert!(covers(&ps, 5).is_empty());
    }

    #[test]
    fn duplicate_constants_keep_first_id() {
        let mut ps = PunctuationSet::new(0);
        let first = ps.insert(close(9));
        let second = ps.insert(close(9));
        assert_eq!(ps.constant_id(&int(9)), Some(first));
        assert_eq!(covers(&ps, 9), vec![first, second], "the duplicate is offered too");
        // Removing the first empties the constant slot; the duplicate
        // still covers the value, listed beside the enumerations.
        ps.remove(first);
        assert_eq!(ps.constant_id(&int(9)), None);
        assert_eq!(covers(&ps, 9), vec![second]);
        assert!(ps.covers_value(&int(9)));
        ps.remove(second);
        assert!(!ps.covers_value(&int(9)));
        assert_eq!(ps.len(), 0);
    }

    #[test]
    fn removed_entries_leave_the_window_from_the_front_only() {
        let mut ps = PunctuationSet::new(0);
        let a = ps.insert(close(1));
        let b = ps.insert(close(2));
        let c = ps.insert(close(3));
        assert!(ps.remove(b));
        // `b` left the indexes at once but `a`, live, pins the window.
        assert!(!ps.covers_value(&Value::Int(2)));
        assert_eq!(ps.pop_removed_below(u64::MAX), 0);
        assert_eq!((ps.base(), ps.held()), (0, 3));
        assert!(ps.remove(a));
        // The watermark bounds the pop: only ids below it leave.
        assert_eq!(ps.pop_removed_below(1), 1);
        assert_eq!(ps.pop_removed_below(u64::MAX), 1);
        assert_eq!((ps.base(), ps.held(), ps.next_id()), (2, 1, 3));
        assert_eq!(covers(&ps, 3), vec![c]);
        assert!(ps.iter().map(|(id, _)| id).eq([c]));
    }

    #[test]
    fn an_id_below_base_reads_as_removed() {
        let mut ps = PunctuationSet::new(0);
        let a = ps.insert(close(1));
        ps.insert(close(2));
        ps.remove(a);
        ps.pop_removed_below(u64::MAX);
        assert_eq!(ps.base(), 1);
        assert!(ps.get(a).is_none());
        assert!(!ps.remove(a));
        assert!(covers(&ps, 1).is_empty());
        // A new punctuation on the value gets a fresh id and the slot.
        let again = ps.insert(close(1));
        assert_eq!(again, PunctId(2));
        assert_eq!(ps.constant_id(&Value::Int(1)), Some(again));
    }

    #[test]
    fn iter_from_below_base_starts_at_the_window() {
        let mut ps = PunctuationSet::new(0);
        let ids: Vec<PunctId> = (0..4).map(|k| ps.insert(close(k))).collect();
        ps.remove(ids[0]);
        ps.remove(ids[1]);
        ps.remove(ids[2]);
        // Removed but below no watermark yet: still stored, not live.
        assert!(ps.iter_from(0).map(|(id, _)| id).eq([ids[3]]));
        assert_eq!(ps.stored_punctuations_from(1).count(), 3);
        assert_eq!(ps.pop_removed_below(2), 2);
        assert!(ps.iter_from(0).map(|(id, _)| id).eq([ids[3]]));
        assert!(ps.iter_from(1).map(|(id, _)| id).eq([ids[3]]));
        assert!(ps.stored_punctuations_from(0).eq([&close(2), &close(3)]));
        assert_eq!(ps.iter_from(4).count(), 0);
        assert_eq!(ps.iter_from(u64::MAX).count(), 0);
    }

    #[test]
    fn for_each_cover_offers_every_index() {
        let mut ps = PunctuationSet::new(0);
        assert!(covers(&ps, 5).is_empty());
        let list = ps.insert(Punctuation::on_attr(
            2,
            0,
            Pattern::enumeration(vec![Value::Int(5), Value::Int(6)]),
        ));
        let five = ps.insert(close(5));
        let duplicate = ps.insert(close(5));
        let range = ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(0, 9)));
        assert_eq!(covers(&ps, 5), vec![list, five, duplicate, range]);
        assert_eq!(covers(&ps, 8), vec![range]);
        ps.remove(list);
        assert_eq!(covers(&ps, 6), vec![range]);
        // An unindexed punctuation may match any value.
        let other_attr = ps.insert(Punctuation::close_value(2, 1, 0i64));
        assert_eq!(covers(&ps, 42), vec![other_attr]);
    }

    #[test]
    fn covers_value() {
        let mut ps = PunctuationSet::new(0);
        ps.insert(close(1));
        ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(10, 20)));
        assert!(ps.covers_value(&Value::Int(1)));
        assert!(ps.covers_value(&Value::Int(15)));
        assert!(!ps.covers_value(&Value::Int(2)));
    }

    #[test]
    fn iter_orders_by_arrival() {
        let mut ps = PunctuationSet::new(0);
        let a = ps.insert(close(1));
        let b = ps.insert(close(2));
        let c = ps.insert(close(3));
        ps.remove(b);
        let ids: Vec<PunctId> = ps.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, c]);
        let ids: Vec<PunctId> = ps.iter_from(b.0).map(|(id, _)| id).collect();
        assert_eq!(ids, vec![c]);
        assert_eq!(ps.iter_from(0).count(), 2);
        assert_eq!(ps.iter_from(3).count(), 0);
        assert_eq!(ps.iter_from(u64::MAX).count(), 0);
    }

    #[test]
    fn many_disjoint_ranges_stab_correctly() {
        // 100 disjoint ranges [10k, 10k+9]; every value must find exactly
        // its own range through the interval index.
        let mut ps = PunctuationSet::new(0);
        let ids: Vec<PunctId> = (0..100)
            .map(|k| ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(10 * k, 10 * k + 9))))
            .collect();
        for k in 0..100 {
            assert_eq!(covers(&ps, 10 * k + 5), vec![ids[k as usize]]);
        }
        assert!(covers(&ps, 1000).is_empty());
        assert!(covers(&ps, -1).is_empty());
    }

    #[test]
    fn exclusive_and_unbounded_range_endpoints() {
        let mut ps = PunctuationSet::new(0);
        let below = ps.insert(Punctuation::on_attr(
            2,
            0,
            Pattern::Range { lo: Bound::Unbounded, hi: Bound::Exclusive(Value::Int(0)) },
        ));
        let above = ps.insert(Punctuation::on_attr(
            2,
            0,
            Pattern::Range { lo: Bound::Exclusive(Value::Int(10)), hi: Bound::Unbounded },
        ));
        assert_eq!(covers(&ps, -5), vec![below]);
        assert!(covers(&ps, 0).is_empty());
        assert!(covers(&ps, 10).is_empty());
        assert_eq!(covers(&ps, 11), vec![above]);
        assert!(ps.covers_value(&Value::Int(-100)));
        assert!(ps.covers_value(&Value::Int(100)));
        assert!(!ps.covers_value(&Value::Int(5)));
    }

    #[test]
    fn removed_range_no_longer_stabs() {
        let mut ps = PunctuationSet::new(0);
        let a = ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(0, 9)));
        let b = ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(5, 14)));
        assert!(ps.remove(a));
        assert!(covers(&ps, 3).is_empty());
        assert_eq!(covers(&ps, 7), vec![b]);
        assert!(!ps.covers_value(&Value::Int(3)));
        assert!(ps.covers_value(&Value::Int(12)));
    }

    #[test]
    fn enumeration_members_indexed() {
        let mut ps = PunctuationSet::new(0);
        let e1 = ps.insert(Punctuation::on_attr(
            2,
            0,
            Pattern::enumeration(vec![Value::Int(1), Value::Int(3)]),
        ));
        let e2 = ps.insert(Punctuation::on_attr(
            2,
            0,
            Pattern::enumeration(vec![Value::Int(3), Value::Int(5)]),
        ));
        assert_eq!(covers(&ps, 1), vec![e1]);
        assert_eq!(covers(&ps, 3), vec![e1, e2], "a shared member offers both");
        assert_eq!(covers(&ps, 5), vec![e2]);
        assert!(covers(&ps, 2).is_empty());
        assert!(ps.covers_value(&Value::Int(5)));
        ps.remove(e2);
        assert_eq!(covers(&ps, 3), vec![e1]);
        assert!(!ps.covers_value(&Value::Int(5)));
        assert!(ps.covers_value(&Value::Int(3)));
    }
}
