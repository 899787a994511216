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

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

use crate::pattern::{Bound, Pattern};
use crate::punctuation::Punctuation;
use crate::tuple::Tuple;
use crate::value::Value;

/// Stable identifier of a punctuation within a [`PunctuationSet`].
///
/// Ids are assigned in arrival order and never reused, which the paper's
/// punctuation index relies on ("the pid of the tuple is always set as the
/// pid of the *first arrived* punctuation found to be matched").
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

/// A collection of punctuations over one stream, indexed for fast
/// `set_match` on the stream's join attribute.
///
/// ```
/// use punct_types::{Punctuation, PunctuationSet, Tuple};
/// let mut ps = PunctuationSet::new(0);
/// let id = ps.insert(Punctuation::close_value(2, 0, 7i64));
/// assert_eq!(ps.set_match(&Tuple::of((7i64, 0i64))), Some(id));
/// assert_eq!(ps.set_match(&Tuple::of((8i64, 0i64))), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PunctuationSet {
    /// Index of the join attribute within the stream schema.
    attr: usize,
    /// All punctuations in arrival order (tombstoned on removal).
    entries: Vec<Entry>,
    /// Arrival position by id (dense: id.0 == index into `entries`).
    next_id: u64,
    /// Constant-pattern fast path: join value -> id of the first
    /// punctuation closing it.
    constants: HashMap<Value, PunctId>,
    /// Enumeration-list fast path: member value -> ascending ids of the
    /// `In` punctuations listing it.
    members: HashMap<Value, Vec<PunctId>>,
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
            entries: Vec::new(),
            next_id: 0,
            constants: HashMap::new(),
            members: HashMap::new(),
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

    /// Inserts a punctuation, returning its id.
    pub fn insert(&mut self, punctuation: Punctuation) -> PunctId {
        let id = PunctId(self.next_id);
        self.next_id += 1;
        match punctuation.pattern(self.attr) {
            Some(Pattern::Constant(v)) => {
                // Keep the first-arrived id for a value, matching pid
                // assignment semantics.
                self.constants.entry(v.clone()).or_insert(id);
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
        self.entries.push(Entry { id, punctuation, removed: false });
        self.live += 1;
        id
    }

    /// Looks up a punctuation by id (live entries only).
    pub fn get(&self, id: PunctId) -> Option<&Punctuation> {
        self.entries
            .get(id.0 as usize)
            .filter(|e| !e.removed)
            .map(|e| &e.punctuation)
    }

    /// Logically removes a punctuation (after it has been propagated).
    /// Returns true if it was live.
    pub fn remove(&mut self, id: PunctId) -> bool {
        let Some(entry) = self.entries.get_mut(id.0 as usize) else {
            return false;
        };
        if entry.removed {
            return false;
        }
        entry.removed = true;
        self.live -= 1;
        match entry.punctuation.pattern(self.attr) {
            Some(Pattern::Constant(v)) => {
                if self.constants.get(v) == Some(&id) {
                    self.constants.remove(v);
                }
            }
            Some(Pattern::In(vs)) => {
                for v in vs {
                    if let Some(ids) = self.members.get_mut(v) {
                        ids.retain(|x| *x != id);
                        if ids.is_empty() {
                            self.members.remove(v);
                        }
                    }
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

    /// The paper's `setMatch(t, PS)`: returns the id of the **first
    /// arrived** live punctuation matching tuple `t`, if any.
    pub fn set_match(&self, t: &Tuple) -> Option<PunctId> {
        self.match_above(t, None)
    }

    /// Like [`set_match`](Self::set_match) but only consults punctuations
    /// with `id > after`, for incremental index building.
    pub fn set_match_after(&self, t: &Tuple, after: PunctId) -> Option<PunctId> {
        self.match_above(t, Some(after))
    }

    /// Minimum matching id above the optional floor. Every index yields
    /// *candidates* on the join attribute alone; each is verified against
    /// the full punctuation before it can win.
    fn match_above(&self, t: &Tuple, after: Option<PunctId>) -> Option<PunctId> {
        let mut best: Option<PunctId> = None;
        let consider = |id: PunctId, best: &mut Option<PunctId>| {
            if after.is_some_and(|a| id <= a) {
                return;
            }
            if best.is_some_and(|b| b <= id) {
                return;
            }
            if self.entry_matches(id, t) {
                *best = Some(id);
            }
        };
        if let Some(v) = t.get(self.attr).filter(|v| !v.is_null()) {
            if let Some(&id) = self.constants.get(v) {
                consider(id, &mut best);
            }
            if let Some(ids) = self.members.get(v) {
                for &id in ids {
                    consider(id, &mut best);
                }
            }
            self.ranges.stab(v, |id| consider(id, &mut best));
        }
        for &id in &self.unindexed {
            if best.is_some_and(|b| b <= id) {
                break;
            }
            consider(id, &mut best);
        }
        best
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
        self.unindexed.iter().any(|id| {
            self.entries[id.0 as usize]
                .punctuation
                .pattern(self.attr)
                .is_some_and(|p| p.matches(v))
        })
    }

    /// Iterates over live punctuations in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (PunctId, &Punctuation)> {
        self.entries
            .iter()
            .filter(|e| !e.removed)
            .map(|e| (e.id, &e.punctuation))
    }

    /// Iterates over live punctuations with `id >= since`, in arrival
    /// order, touching only those entries: ids are dense, so `since` is
    /// the slice offset.
    pub fn iter_from(&self, since: u64) -> impl Iterator<Item = (PunctId, &Punctuation)> {
        let len = self.entries.len();
        let start = usize::try_from(since).map_or(len, |s| s.min(len));
        debug_assert!(
            start == len || self.entries[start].id.0 as usize == start,
            "ids are dense: entries[i].id == i"
        );
        self.entries[start..]
            .iter()
            .filter(|e| !e.removed)
            .map(|e| (e.id, &e.punctuation))
    }

    /// The id the constant index holds for join value `v`: the first
    /// punctuation closing exactly `v`, unless a removal interleaved
    /// with duplicates dropped it (see `duplicate_constants_keep_first_id`).
    pub fn constant_id(&self, v: &Value) -> Option<PunctId> {
        self.constants.get(v).copied()
    }

    /// The join values under which [`set_match`](Self::set_match)'s point
    /// indexes find punctuation `id`: the closed value of a constant that
    /// owns its slot in the constant index, the members of an
    /// enumeration, nothing for `Empty` or a constant shadowed by an
    /// earlier duplicate. `None` when the punctuation is found by a range
    /// stab or the linear scan instead (or `id` is unknown or removed).
    ///
    /// A tuple can have `id` as a `set_match` candidate only if its join
    /// value *equals* one of these, which lets an index build visit the
    /// tuples stored under each value instead of every tuple.
    pub fn point_values(&self, id: PunctId) -> Option<&[Value]> {
        let entry = self.entries.get(id.0 as usize).filter(|e| !e.removed)?;
        match entry.punctuation.pattern(self.attr)? {
            Pattern::Constant(v) if self.constants.get(v) == Some(&id) => {
                Some(std::slice::from_ref(v))
            }
            Pattern::Constant(_) | Pattern::Empty => Some(&[]),
            Pattern::In(vs) => Some(vs),
            Pattern::Range { .. } | Pattern::Wildcard => None,
        }
    }

    fn entry_matches(&self, id: PunctId, t: &Tuple) -> bool {
        let entry = &self.entries[id.0 as usize];
        !entry.removed && entry.punctuation.matches(t)
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
        assert_eq!(ps.set_match(&tup(7, 0)), Some(id));
        assert_eq!(ps.set_match(&tup(8, 0)), None);
    }

    #[test]
    fn set_match_range_pattern() {
        let mut ps = PunctuationSet::new(0);
        let id = ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(10, 19)));
        assert_eq!(ps.set_match(&tup(15, 0)), Some(id));
        assert_eq!(ps.set_match(&tup(20, 0)), None);
    }

    #[test]
    fn set_match_returns_first_arrived() {
        let mut ps = PunctuationSet::new(0);
        let range = ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(0, 100)));
        let _constant = ps.insert(close(5));
        // Both match key 5; the range arrived first.
        assert_eq!(ps.set_match(&tup(5, 0)), Some(range));
    }

    #[test]
    fn set_match_prefers_earlier_constant_over_later_range() {
        let mut ps = PunctuationSet::new(0);
        let constant = ps.insert(close(5));
        let _range = ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(0, 100)));
        assert_eq!(ps.set_match(&tup(5, 0)), Some(constant));
    }

    #[test]
    fn set_match_after_skips_early_ids() {
        let mut ps = PunctuationSet::new(0);
        let a = ps.insert(close(5));
        let b = ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(0, 100)));
        assert_eq!(ps.set_match_after(&tup(5, 0), a), Some(b));
        assert_eq!(ps.set_match_after(&tup(5, 0), b), None);
    }

    #[test]
    fn remove_makes_punctuation_invisible() {
        let mut ps = PunctuationSet::new(0);
        let id = ps.insert(close(3));
        assert!(ps.remove(id));
        assert!(!ps.remove(id));
        assert_eq!(ps.set_match(&tup(3, 0)), None);
        assert_eq!(ps.len(), 0);
        assert!(ps.get(id).is_none());
    }

    #[test]
    fn remove_nonconstant() {
        let mut ps = PunctuationSet::new(0);
        let id = ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(0, 9)));
        assert!(ps.remove(id));
        assert_eq!(ps.set_match(&tup(5, 0)), None);
    }

    #[test]
    fn duplicate_constants_keep_first_id() {
        let mut ps = PunctuationSet::new(0);
        let first = ps.insert(close(9));
        let _second = ps.insert(close(9));
        assert_eq!(ps.set_match(&tup(9, 0)), Some(first));
        // Removing the first makes the map drop the value; second is only
        // reachable by linear means — covers_value reflects the map.
        ps.remove(first);
        // The second constant punctuation still exists but the constant
        // index pointed at the first; set_match now misses it. This is the
        // documented trade-off: duplicate constant punctuations are
        // redundant by the paper's stream well-formedness assumption.
        assert_eq!(ps.len(), 1);
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
    fn point_values_mirror_the_point_indexes() {
        let mut ps = PunctuationSet::new(0);
        let first = ps.insert(close(9));
        let dup = ps.insert(close(9));
        let list = ps.insert(Punctuation::on_attr(
            2,
            0,
            Pattern::enumeration(vec![Value::Int(1), Value::Int(3)]),
        ));
        let empty = ps.insert(Punctuation::on_attr(2, 0, Pattern::Empty));
        let range = ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(0, 9)));
        let other_attr = ps.insert(Punctuation::close_value(2, 1, 5i64));
        assert_eq!(ps.constant_id(&Value::Int(9)), Some(first));
        assert_eq!(ps.point_values(first), Some(&[Value::Int(9)][..]));
        // The duplicate is not reachable through the constant index.
        assert_eq!(ps.point_values(dup), Some(&[][..]));
        assert_eq!(ps.point_values(list), Some(&[Value::Int(1), Value::Int(3)][..]));
        assert_eq!(ps.point_values(empty), Some(&[][..]));
        assert_eq!(ps.point_values(range), None);
        assert_eq!(ps.point_values(other_attr), None, "wildcard on the join attribute");
        assert_eq!(ps.point_values(PunctId(99)), None);
        assert_eq!(ps.constant_id(&Value::Int(8)), None);
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
            assert_eq!(ps.set_match(&tup(10 * k + 5, 0)), Some(ids[k as usize]));
        }
        assert_eq!(ps.set_match(&tup(1000, 0)), None);
        assert_eq!(ps.set_match(&tup(-1, 0)), None);
    }

    #[test]
    fn overlapping_ranges_return_first_arrived() {
        let mut ps = PunctuationSet::new(0);
        let wide = ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(0, 100)));
        let narrow = ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(40, 60)));
        assert_eq!(ps.set_match(&tup(50, 0)), Some(wide));
        assert_eq!(ps.set_match_after(&tup(50, 0), wide), Some(narrow));
        assert_eq!(ps.set_match(&tup(30, 0)), Some(wide));
        // Nested the other way round: narrow arrives first.
        let mut ps = PunctuationSet::new(0);
        let narrow = ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(40, 60)));
        let _wide = ps.insert(Punctuation::on_attr(2, 0, Pattern::int_range(0, 100)));
        assert_eq!(ps.set_match(&tup(50, 0)), Some(narrow));
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
        assert_eq!(ps.set_match(&tup(-5, 0)), Some(below));
        assert_eq!(ps.set_match(&tup(0, 0)), None);
        assert_eq!(ps.set_match(&tup(10, 0)), None);
        assert_eq!(ps.set_match(&tup(11, 0)), Some(above));
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
        assert_eq!(ps.set_match(&tup(3, 0)), None);
        assert_eq!(ps.set_match(&tup(7, 0)), Some(b));
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
        assert_eq!(ps.set_match(&tup(1, 0)), Some(e1));
        assert_eq!(ps.set_match(&tup(3, 0)), Some(e1), "first arrived wins on shared member");
        assert_eq!(ps.set_match(&tup(5, 0)), Some(e2));
        assert_eq!(ps.set_match(&tup(2, 0)), None);
        assert_eq!(ps.set_match_after(&tup(3, 0), e1), Some(e2));
        assert!(ps.covers_value(&Value::Int(5)));
        ps.remove(e2);
        assert_eq!(ps.set_match(&tup(5, 0)), None);
        assert!(!ps.covers_value(&Value::Int(5)));
        assert!(ps.covers_value(&Value::Int(3)));
    }

    #[test]
    fn mixed_shapes_first_arrived_across_indexes() {
        // Constant, enumeration, and range all covering key 5, inserted in
        // every arrival order: set_match must always return the earliest.
        let shapes: [fn() -> Pattern; 3] = [
            || Pattern::Constant(Value::Int(5)),
            || Pattern::enumeration(vec![Value::Int(5), Value::Int(6)]),
            || Pattern::int_range(0, 9),
        ];
        let orders =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for order in orders {
            let mut ps = PunctuationSet::new(0);
            let mut first = None;
            for (i, &s) in order.iter().enumerate() {
                let id = ps.insert(Punctuation::on_attr(2, 0, shapes[s]()));
                if i == 0 {
                    first = Some(id);
                }
            }
            assert_eq!(ps.set_match(&tup(5, 0)), first, "order {order:?}");
        }
    }

    #[test]
    fn punctuation_with_extra_attrs_still_checked_fully() {
        // A punctuation constraining both attributes: the fast path must
        // still verify the full punctuation.
        let mut ps = PunctuationSet::new(0);
        let p = Punctuation::new(vec![
            Pattern::Constant(Value::Int(4)),
            Pattern::Constant(Value::Int(99)),
        ]);
        let id = ps.insert(p);
        assert_eq!(ps.set_match(&tup(4, 99)), Some(id));
        assert_eq!(ps.set_match(&tup(4, 98)), None);
    }
}
