//! The punctuations of one input stream, in one store: the paper's
//! punctuation set (§2.2, `setMatch`) and its punctuation index (§3.5).
//! The opposite side asks it whether a punctuation closes a join value
//! (on-the-fly drop, purge); its own side asks which punctuations may
//! propagate. By Theorem 1 a punctuation may propagate once no tuple
//! matching it remains in its own stream's state.
//!
//! Every punctuation is one entry of a window `entries[i] == base + i`,
//! stamped with its arrival time and staged `Live` → `Retired` →
//! `Forgotten`. The value maps (constants, enumeration members, ranges,
//! wildcards) point into the window, so a closed join value is found in
//! O(1) (an interval stab for a range). The maps hold only the entries
//! that constrain nothing but the join attribute: only those close a
//! join value. A punctuation that also constrains another attribute,
//! say `<5, 7>`, closes the pair, not the value — a future `(5, 8)` may
//! still arrive — so it never drops nor purges a tuple. It sits on its
//! own list, offered only to the propagation re-checks.
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
//! value's count moving between 0 and 1 (the punctuations offered for
//! the value are checked again). A propagation run never scans the live
//! punctuations. A punctuation that also constrains a non-join attribute
//! gets the same join-value test, which is sufficient but not exact: it
//! may wait for tuples it does not match.
//!
//! A second deviation: the paper removes propagated punctuations from
//! the punctuation set; we *retire* them instead (excluded from
//! propagation, still consulted by the opposite side's on-the-fly drop
//! and purge), so late opposite-side tuples covered by an
//! already-propagated punctuation can still be dropped rather than
//! lingering unpurgeably. That reason ends once the opposite side has
//! closed the same value too: a constant both sides closed is then
//! *forgotten* on both sides ([`closer_of`](PunctuationIndex::closer_of),
//! [`forget`](PunctuationIndex::forget)): it leaves the value maps at
//! once, and the window once the purge watermark of its side has passed
//! it ([`trim`](PunctuationIndex::trim)). The index holds the values
//! still open rather than every punctuation ever received. Ids stay
//! dense and stable; an id below `base` reads as forgotten.

use std::cmp::Ordering;
use std::collections::VecDeque;

use punct_types::{Bound, Pattern, PunctId, Punctuation, Tuple, Value, ValueMap};

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

    fn remove(&mut self, id: PunctId) {
        if let Some(pos) = self.entries.iter().position(|e| e.id == id) {
            self.entries.remove(pos);
            self.rebuild_prefix(pos);
        }
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

/// How far a stored punctuation has come.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Not yet propagated.
    Live,
    /// Propagated: no longer propagable, still closes its values.
    Retired,
    /// Out of every value map, stored until the window trims it.
    Forgotten,
}

/// One stored punctuation.
#[derive(Debug, Clone)]
struct Entry {
    punctuation: Punctuation,
    stage: Stage,
    /// When it arrived (µs): the start of its purge and propagation
    /// latencies.
    arrival_us: u64,
    /// True if it constrains nothing but the join attribute, so it
    /// closes the join values its pattern there matches.
    join_only: bool,
}

/// The punctuations of one input stream (see the module docs).
///
/// ```
/// use pjoin::PunctuationIndex;
/// use punct_types::{Punctuation, Value};
/// let mut ix = PunctuationIndex::new(0);
/// let id = ix.insert(Punctuation::close_value(2, 0, 7i64), 0);
/// assert!(ix.covers_value(&Value::Int(7)));
/// assert!(!ix.covers_value(&Value::Int(8)));
/// let mut offered = Vec::new();
/// ix.for_each_cover(&Value::Int(7), |q| offered.push(q));
/// assert_eq!(offered, vec![id]);
/// ```
#[derive(Debug, Clone)]
pub struct PunctuationIndex {
    /// This stream's join attribute.
    attr: usize,
    /// Every stored punctuation in arrival order: `entries[i]` is id
    /// `base + i`.
    entries: VecDeque<Entry>,
    /// Id of `entries[0]`: every id below it was forgotten and trimmed.
    base: u64,
    /// Number of `Live` entries.
    live: usize,
    /// Join value -> id of the first join-only punctuation closing it.
    constants: ValueMap<PunctId>,
    /// Member value -> ascending ids of the join-only `In` punctuations
    /// listing it, and of the constants closing it after the one that
    /// owns its `constants` slot.
    members: ValueMap<Vec<PunctId>>,
    /// Join-only range punctuations, binary-searchable by value.
    ranges: RangeIndex,
    /// Join-only punctuations with a wildcard join pattern: each closes
    /// every value.
    wildcards: Vec<PunctId>,
    /// Punctuations that constrain another attribute too: they close no
    /// join value, and are listed only for the propagation re-checks.
    narrow: Vec<PunctId>,
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
            attr: join_attr,
            entries: VecDeque::new(),
            base: 0,
            live: 0,
            constants: ValueMap::default(),
            members: ValueMap::default(),
            ranges: RangeIndex::default(),
            wildcards: Vec::new(),
            narrow: Vec::new(),
            counts: ValueMap::default(),
            propagable: Vec::new(),
        }
    }

    fn slot(&self, id: PunctId) -> Option<usize> {
        usize::try_from(id.0.checked_sub(self.base)?).ok()
    }

    fn entry(&self, id: PunctId) -> Option<&Entry> {
        self.entries.get(self.slot(id)?)
    }

    /// The stored entries with `id >= since`, forgotten ones included,
    /// in arrival order, touching only those entries.
    fn stored_from(&self, since: u64) -> impl Iterator<Item = (PunctId, &Entry)> {
        let start = since.saturating_sub(self.base).min(self.entries.len() as u64);
        let first = self.base + start;
        self.entries
            .range(start as usize..)
            .zip(first..)
            .map(|(e, id)| (PunctId(id), e))
    }

    /// Inserts a newly-arrived punctuation, stamped with its arrival time
    /// `arrival_us`, and assigns its id. It is propagable at once if no
    /// stored tuple's join value satisfies it.
    pub fn insert(&mut self, punctuation: Punctuation, arrival_us: u64) -> PunctId {
        let id = PunctId(self.next_id());
        let attr = self.attr;
        let join_only = punctuation
            .patterns()
            .iter()
            .enumerate()
            .all(|(i, p)| i == attr || *p == Pattern::Wildcard);
        let pattern = join_pattern(&punctuation, attr);
        if !join_only {
            self.narrow.push(id);
        } else {
            match pattern {
                Pattern::Constant(v) => {
                    // The first-arrived id keeps the slot; a later
                    // duplicate is listed like a one-member enumeration.
                    if self.constants.contains_key(v) {
                        self.members.entry(v.clone()).or_default().push(id);
                    } else {
                        self.constants.insert(v.clone(), id);
                    }
                }
                Pattern::In(vs) => {
                    for v in vs {
                        // Ids ascend, so pushing keeps each list sorted.
                        self.members.entry(v.clone()).or_default().push(id);
                    }
                }
                Pattern::Range { lo, hi } => self.ranges.insert(lo.clone(), hi.clone(), id),
                Pattern::Wildcard => self.wildcards.push(id),
                Pattern::Empty => {}
            }
        }
        if !holds(&self.counts, pattern) {
            debug_assert!(self.propagable.last() < Some(&id), "ids arrive in order");
            self.propagable.push(id);
        }
        self.entries.push_back(Entry { punctuation, stage: Stage::Live, arrival_us, join_only });
        self.live += 1;
        id
    }

    /// The id the *next* inserted punctuation will get.
    pub fn next_id(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Number of punctuations not yet retired.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of punctuations received in total.
    pub fn total(&self) -> usize {
        self.next_id() as usize
    }

    /// Number of punctuations stored: the window from the oldest one not
    /// yet forgotten and trimmed up to the newest.
    pub fn held(&self) -> usize {
        self.entries.len()
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
        let Some(v) = t.get(self.attr) else {
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
        // Lent out for the walk, which reads the rest of the index.
        let mut propagable = std::mem::take(&mut self.propagable);
        self.for_each_cover(v, |q| {
            if self
                .entry(q)
                .is_some_and(|e| join_pattern(&e.punctuation, self.attr).matches(v))
            {
                unmark(&mut propagable, q);
            }
        });
        self.propagable = propagable;
    }

    /// Records that tuple `t` of this stream left the state (purged,
    /// dropped from the purge buffer or the disk, expired). When it was
    /// the last one with its join value, the live punctuations matching
    /// the value are checked again.
    pub fn leave(&mut self, t: &Tuple) {
        let Some(v) = t.get(self.attr) else {
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
        let mut propagable = std::mem::take(&mut self.propagable);
        self.for_each_cover(v, |q| {
            let free = self.entry(q).is_some_and(|e| {
                e.stage == Stage::Live
                    && !holds(&self.counts, join_pattern(&e.punctuation, self.attr))
            });
            if free {
                mark(&mut propagable, q);
            }
        });
        self.propagable = propagable;
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
        for &id in &out[from..] {
            debug_assert!(
                self.get(id)
                    .is_some_and(|p| !holds(&self.counts, join_pattern(p, self.attr))),
                "{id} is held by a stored tuple"
            );
            self.retire(id);
        }
    }

    /// Live (unretired) punctuations in arrival order.
    pub fn live_ids(&self) -> Vec<PunctId> {
        self.stored_from(0)
            .filter(|(_, e)| e.stage == Stage::Live)
            .map(|(id, _)| id)
            .collect()
    }

    /// Looks up a punctuation by id (`None` once it is forgotten).
    pub fn get(&self, id: PunctId) -> Option<&Punctuation> {
        self.entry(id)
            .filter(|e| e.stage != Stage::Forgotten)
            .map(|e| &e.punctuation)
    }

    /// When punctuation `id` arrived (µs), while it is stored.
    pub fn arrival_us(&self, id: PunctId) -> Option<u64> {
        self.entry(id).map(|e| e.arrival_us)
    }

    /// The arrival times (µs) of the punctuations with `id >= since`.
    pub fn arrivals_since(&self, since: u64) -> impl Iterator<Item = u64> + '_ {
        self.stored_from(since).map(|(_, e)| e.arrival_us)
    }

    /// Retires a punctuation after propagation. Idempotent.
    pub fn retire(&mut self, id: PunctId) {
        let Some(e) = self.slot(id).and_then(|i| self.entries.get_mut(i)) else {
            return;
        };
        if e.stage == Stage::Live {
            e.stage = Stage::Retired;
            self.live -= 1;
            unmark(&mut self.propagable, id);
        }
    }

    /// True if `id` has been retired (every id below the window has).
    pub fn is_retired(&self, id: PunctId) -> bool {
        self.entry(id).is_none_or(|e| e.stage != Stage::Live)
    }

    /// The punctuation of this side that closes join value `v` for good,
    /// if it may be forgotten once every other side's closer of `v` is
    /// too: the owner of `v`'s constant slot (so it constrains nothing
    /// but the join attribute), retired, with no stored tuple of value
    /// `v` left. A well-formed input sends no further one.
    pub fn closer_of(&self, v: &Value) -> Option<PunctId> {
        let id = *self.constants.get(v)?;
        (self.is_retired(id) && self.count(v) == 0).then_some(id)
    }

    /// The join value `id` closes for good, if it is that value's
    /// [closer](Self::closer_of). Once every other input's closer of the
    /// value is retired too, none of them is needed any longer — no
    /// state holds a tuple with the value and no input sends one again,
    /// so no drop, purge or propagation can consult them — and all may
    /// be [`forget`](Self::forget)ten.
    pub fn closes(&self, id: PunctId) -> Option<&Value> {
        let Pattern::Constant(v) = join_pattern(self.get(id)?, self.attr) else {
            return None;
        };
        (self.closer_of(v) == Some(id)).then_some(v)
    }

    /// Forgets a retired punctuation: it leaves every value map at once
    /// and the window at the next [`trim`](Self::trim) that finds it at
    /// the front. Returns true if it was stored and not yet forgotten.
    pub fn forget(&mut self, id: PunctId) -> bool {
        let Some(i) = self.slot(id).filter(|&i| i < self.entries.len()) else {
            return false;
        };
        let PunctuationIndex { entries, constants, members, ranges, wildcards, narrow, .. } = self;
        let e = &mut entries[i];
        if e.stage == Stage::Forgotten {
            return false;
        }
        debug_assert_eq!(e.stage, Stage::Retired, "forgetting a live {id}");
        e.stage = Stage::Forgotten;
        let remove_member = |members: &mut ValueMap<Vec<PunctId>>, v: &Value| {
            if let Some(ids) = members.get_mut(v) {
                ids.retain(|x| *x != id);
                if ids.is_empty() {
                    members.remove(v);
                }
            }
        };
        if !e.join_only {
            narrow.retain(|x| *x != id);
            return true;
        }
        match join_pattern(&e.punctuation, self.attr) {
            Pattern::Constant(v) => {
                if constants.get(v) == Some(&id) {
                    constants.remove(v);
                } else {
                    remove_member(members, v);
                }
            }
            Pattern::In(vs) => vs.iter().for_each(|v| remove_member(members, v)),
            Pattern::Range { .. } => ranges.remove(id),
            Pattern::Wildcard => wildcards.retain(|x| *x != id),
            Pattern::Empty => {}
        }
        true
    }

    /// Pops forgotten punctuations off the front of the window while
    /// `applied_up_to`, the ids of this side already applied to purge
    /// the opposite state, has passed them. A punctuation not forgotten
    /// stops it.
    pub fn trim(&mut self, applied_up_to: u64) {
        while self.base < applied_up_to
            && self.entries.front().is_some_and(|e| e.stage == Stage::Forgotten)
        {
            self.entries.pop_front();
            self.base += 1;
        }
    }

    /// Cross-stream cover check (the paper's `setMatch(t_B, PS_A)`): does
    /// a punctuation close join value `v`, so that no tuple of this
    /// stream with that value arrives again? Only join-only punctuations
    /// answer; retired ones do, forgotten ones do not.
    pub fn covers_value(&self, v: &Value) -> bool {
        if self.constants.contains_key(v) || !self.wildcards.is_empty() {
            return true;
        }
        let mut stabbed = false;
        if !v.is_null() {
            if self.members.contains_key(v) {
                return true;
            }
            self.ranges.stab(v, |_| stabbed = true);
        }
        stabbed
    }

    /// Calls `f` with every stored, unforgotten punctuation whose
    /// join-attribute pattern may match join value `v`: the constants
    /// closing `v`, the `In` lists naming it, the ranges admitting it,
    /// the wildcards, and every punctuation that constrains another
    /// attribute too. Every punctuation that matches `v` is offered; the
    /// caller checks the pattern to be exact.
    pub fn for_each_cover(&self, v: &Value, mut f: impl FnMut(PunctId)) {
        if let Some(&id) = self.constants.get(v) {
            f(id);
        }
        for &id in self.members.get(v).map_or(&[][..], Vec::as_slice) {
            f(id);
        }
        self.ranges.stab(v, &mut f);
        self.wildcards.iter().chain(&self.narrow).copied().for_each(f);
    }

    /// True if a live join-only punctuation has exactly this
    /// join-attribute pattern (the matched-pair propagation trigger of
    /// §4.4). Called on every punctuation arrival, so a constant is
    /// answered from the constant map: the first punctuation closing the
    /// value. Only when that one is retired may a later duplicate be the
    /// live one, and only then (or for a non-constant pattern) are
    /// punctuations compared one by one.
    pub fn contains_join_pattern(&self, pattern: &Pattern) -> bool {
        let since = match pattern {
            Pattern::Constant(v) => match self.constants.get(v) {
                None => return false,
                Some(&first) if !self.is_retired(first) => return true,
                Some(first) => first.0 + 1,
            },
            _ => 0,
        };
        self.stored_from(since).any(|(_, e)| {
            e.stage == Stage::Live
                && e.join_only
                && join_pattern(&e.punctuation, self.attr) == pattern
        })
    }

    /// Join-attribute patterns of the join-only punctuations with
    /// `id >= since`, in arrival order — the "new punctuations" a lazy
    /// purge applies. Forgotten ones are included: the window keeps them
    /// until the purge watermark passes them.
    pub fn join_patterns_since(&self, since: u64) -> impl Iterator<Item = &Pattern> + '_ {
        self.stored_from(since)
            .filter(|(_, e)| e.join_only)
            .map(|(_, e)| join_pattern(&e.punctuation, self.attr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(v: i64) -> Punctuation {
        Punctuation::close_value(2, 0, v)
    }

    fn on_join(pattern: Pattern) -> Punctuation {
        Punctuation::on_attr(2, 0, pattern)
    }

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    fn tup(k: i64, x: i64) -> Tuple {
        Tuple::of((k, x))
    }

    /// The ids [`PunctuationIndex::for_each_cover`] offers for `v`, sorted.
    fn covers(ix: &PunctuationIndex, v: i64) -> Vec<PunctId> {
        let mut ids = Vec::new();
        ix.for_each_cover(&int(v), |id| ids.push(id));
        ids.sort();
        ids
    }

    /// Retires and forgets `id` at once; true if it was not forgotten
    /// yet.
    fn drop_now(ix: &mut PunctuationIndex, id: PunctId) -> bool {
        ix.retire(id);
        ix.forget(id)
    }

    /// `a`'s `id` and `b`'s closer of the same value, if both closed it
    /// for good: the pair the operator forgets.
    fn closed_pair(a: &PunctuationIndex, id: PunctId, b: &PunctuationIndex) -> Option<PunctId> {
        a.closes(id).and_then(|v| b.closer_of(v))
    }

    fn stored_ids(ix: &PunctuationIndex, since: u64) -> Vec<PunctId> {
        ix.stored_from(since).map(|(id, _)| id).collect()
    }

    #[test]
    fn insert_assigns_dense_ids() {
        let mut ix = PunctuationIndex::new(0);
        assert_eq!(ix.live(), 0);
        let a = ix.insert(close(1), 0);
        let b = ix.insert(close(2), 0);
        assert_eq!(a, PunctId(0));
        assert_eq!(b, PunctId(1));
        assert_eq!(ix.next_id(), 2);
        assert_eq!(ix.total(), 2);
        assert_eq!(ix.live(), 2);
    }

    #[test]
    fn insert_and_len() {
        let mut ix = PunctuationIndex::new(0);
        assert_eq!(ix.total(), 0);
        let a = ix.insert(close(1), 0);
        let b = ix.insert(close(2), 0);
        assert_eq!(ix.total(), 2);
        assert!(a < b);
    }

    #[test]
    fn set_match_constant_fast_path() {
        let mut ix = PunctuationIndex::new(0);
        let id = ix.insert(close(7), 0);
        assert!(ix.covers_value(&int(7)));
        assert!(!ix.covers_value(&int(8)));
        assert_eq!(covers(&ix, 7), vec![id]);
        assert!(covers(&ix, 8).is_empty());
    }

    #[test]
    fn set_match_range_pattern() {
        let mut ix = PunctuationIndex::new(0);
        let id = ix.insert(on_join(Pattern::int_range(10, 19)), 0);
        assert!(ix.covers_value(&int(15)));
        assert!(!ix.covers_value(&int(20)));
        assert_eq!(covers(&ix, 15), vec![id]);
        assert!(covers(&ix, 20).is_empty());
    }

    #[test]
    fn remove_makes_punctuation_invisible() {
        let mut ix = PunctuationIndex::new(0);
        let id = ix.insert(close(3), 0);
        assert!(drop_now(&mut ix, id));
        assert!(!ix.forget(id));
        assert!(!ix.covers_value(&int(3)));
        assert!(covers(&ix, 3).is_empty());
        assert_eq!(ix.live(), 0);
        assert!(ix.get(id).is_none());
    }

    #[test]
    fn remove_nonconstant() {
        let mut ix = PunctuationIndex::new(0);
        let id = ix.insert(on_join(Pattern::int_range(0, 9)), 0);
        assert!(drop_now(&mut ix, id));
        assert!(!ix.covers_value(&int(5)));
        assert!(covers(&ix, 5).is_empty());
    }

    #[test]
    fn duplicate_constants_keep_first_id() {
        let mut ix = PunctuationIndex::new(0);
        let first = ix.insert(close(9), 0);
        let second = ix.insert(close(9), 0);
        assert_eq!(ix.constants.get(&int(9)), Some(&first));
        assert_eq!(covers(&ix, 9), vec![first, second], "the duplicate is offered too");
        // Forgetting the first empties the constant slot; the duplicate
        // still covers the value, listed beside the enumerations.
        drop_now(&mut ix, first);
        assert_eq!(ix.constants.get(&int(9)), None);
        assert_eq!(covers(&ix, 9), vec![second]);
        assert!(ix.covers_value(&int(9)));
        drop_now(&mut ix, second);
        assert!(!ix.covers_value(&int(9)));
        assert_eq!(ix.live(), 0);
    }

    #[test]
    fn removed_entries_leave_the_window_from_the_front_only() {
        let mut ix = PunctuationIndex::new(0);
        let a = ix.insert(close(1), 0);
        let b = ix.insert(close(2), 0);
        let c = ix.insert(close(3), 0);
        assert!(drop_now(&mut ix, b));
        // `b` left the maps at once but `a`, not forgotten, pins the window.
        assert!(!ix.covers_value(&int(2)));
        ix.trim(u64::MAX);
        assert_eq!((ix.base, ix.held()), (0, 3));
        assert!(drop_now(&mut ix, a));
        // The watermark bounds the trim: only ids below it leave.
        ix.trim(1);
        assert_eq!((ix.base, ix.held()), (1, 2));
        ix.trim(u64::MAX);
        assert_eq!((ix.base, ix.held(), ix.next_id()), (2, 1, 3));
        assert_eq!(covers(&ix, 3), vec![c]);
        assert_eq!(stored_ids(&ix, 0), vec![c]);
    }

    #[test]
    fn an_id_below_base_reads_as_removed() {
        let mut ix = PunctuationIndex::new(0);
        let a = ix.insert(close(1), 0);
        ix.insert(close(2), 0);
        drop_now(&mut ix, a);
        ix.trim(u64::MAX);
        assert_eq!(ix.base, 1);
        assert!(ix.get(a).is_none());
        assert!(!ix.forget(a));
        assert!(covers(&ix, 1).is_empty());
        // A new punctuation on the value gets a fresh id and the slot.
        let again = ix.insert(close(1), 0);
        assert_eq!(again, PunctId(2));
        assert_eq!(ix.constants.get(&int(1)), Some(&again));
    }

    #[test]
    fn iter_from_below_base_starts_at_the_window() {
        let mut ix = PunctuationIndex::new(0);
        let ids: Vec<PunctId> = (0..4).map(|k| ix.insert(close(k), 0)).collect();
        for &id in &ids[..3] {
            drop_now(&mut ix, id);
        }
        // Forgotten but below no watermark yet: still stored, not live.
        assert_eq!(ix.live_ids(), vec![ids[3]]);
        assert_eq!(ix.join_patterns_since(1).count(), 3);
        ix.trim(2);
        assert_eq!(ix.live_ids(), vec![ids[3]]);
        assert_eq!(stored_ids(&ix, 0), ids[2..]);
        assert_eq!(stored_ids(&ix, 3), ids[3..]);
        let closes = [Pattern::Constant(int(2)), Pattern::Constant(int(3))];
        assert!(ix.join_patterns_since(0).eq(&closes));
        assert_eq!(ix.stored_from(4).count(), 0);
        assert_eq!(ix.stored_from(u64::MAX).count(), 0);
    }

    #[test]
    fn for_each_cover_offers_every_index() {
        let mut ix = PunctuationIndex::new(0);
        assert!(covers(&ix, 5).is_empty());
        let list = ix.insert(on_join(Pattern::enumeration(vec![int(5), int(6)])), 0);
        let five = ix.insert(close(5), 0);
        let duplicate = ix.insert(close(5), 0);
        let range = ix.insert(on_join(Pattern::int_range(0, 9)), 0);
        assert_eq!(covers(&ix, 5), vec![list, five, duplicate, range]);
        assert_eq!(covers(&ix, 8), vec![range]);
        drop_now(&mut ix, list);
        assert_eq!(covers(&ix, 6), vec![range]);
        // A wildcard, and a punctuation on another attribute, may match
        // any value.
        let wildcard = ix.insert(on_join(Pattern::Wildcard), 0);
        let other_attr = ix.insert(Punctuation::close_value(2, 1, 0i64), 0);
        assert_eq!(covers(&ix, 42), vec![wildcard, other_attr]);
    }

    #[test]
    fn covers_value() {
        let mut ix = PunctuationIndex::new(0);
        ix.insert(close(1), 0);
        ix.insert(on_join(Pattern::int_range(10, 20)), 0);
        assert!(ix.covers_value(&int(1)));
        assert!(ix.covers_value(&int(15)));
        assert!(!ix.covers_value(&int(2)));
        ix.insert(on_join(Pattern::Wildcard), 0);
        assert!(ix.covers_value(&int(2)), "a wildcard closes every value");
        assert!(ix.covers_value(&Value::Null));
    }

    #[test]
    fn iter_orders_by_arrival() {
        let mut ix = PunctuationIndex::new(0);
        let a = ix.insert(close(1), 0);
        let b = ix.insert(close(2), 0);
        let c = ix.insert(close(3), 0);
        ix.retire(b);
        assert_eq!(ix.live_ids(), vec![a, c]);
        assert_eq!(stored_ids(&ix, b.0), vec![b, c]);
        assert_eq!(stored_ids(&ix, 3), vec![]);
        assert_eq!(stored_ids(&ix, u64::MAX), vec![]);
    }

    #[test]
    fn many_disjoint_ranges_stab_correctly() {
        // 100 disjoint ranges [10k, 10k+9]; every value must find exactly
        // its own range through the interval index.
        let mut ix = PunctuationIndex::new(0);
        let ids: Vec<PunctId> = (0..100)
            .map(|k| ix.insert(on_join(Pattern::int_range(10 * k, 10 * k + 9)), 0))
            .collect();
        for k in 0..100 {
            assert_eq!(covers(&ix, 10 * k + 5), vec![ids[k as usize]]);
        }
        assert!(covers(&ix, 1000).is_empty());
        assert!(covers(&ix, -1).is_empty());
    }

    #[test]
    fn exclusive_and_unbounded_range_endpoints() {
        let mut ix = PunctuationIndex::new(0);
        let below = ix.insert(
            on_join(Pattern::Range { lo: Bound::Unbounded, hi: Bound::Exclusive(int(0)) }),
            0,
        );
        let above = ix.insert(
            on_join(Pattern::Range { lo: Bound::Exclusive(int(10)), hi: Bound::Unbounded }),
            0,
        );
        assert_eq!(covers(&ix, -5), vec![below]);
        assert!(covers(&ix, 0).is_empty());
        assert!(covers(&ix, 10).is_empty());
        assert_eq!(covers(&ix, 11), vec![above]);
        assert!(ix.covers_value(&int(-100)));
        assert!(ix.covers_value(&int(100)));
        assert!(!ix.covers_value(&int(5)));
    }

    #[test]
    fn removed_range_no_longer_stabs() {
        let mut ix = PunctuationIndex::new(0);
        let a = ix.insert(on_join(Pattern::int_range(0, 9)), 0);
        let b = ix.insert(on_join(Pattern::int_range(5, 14)), 0);
        assert!(drop_now(&mut ix, a));
        assert!(covers(&ix, 3).is_empty());
        assert_eq!(covers(&ix, 7), vec![b]);
        assert!(!ix.covers_value(&int(3)));
        assert!(ix.covers_value(&int(12)));
    }

    #[test]
    fn enumeration_members_indexed() {
        let mut ix = PunctuationIndex::new(0);
        let e1 = ix.insert(on_join(Pattern::enumeration(vec![int(1), int(3)])), 0);
        let e2 = ix.insert(on_join(Pattern::enumeration(vec![int(3), int(5)])), 0);
        assert_eq!(covers(&ix, 1), vec![e1]);
        assert_eq!(covers(&ix, 3), vec![e1, e2], "a shared member offers both");
        assert_eq!(covers(&ix, 5), vec![e2]);
        assert!(covers(&ix, 2).is_empty());
        assert!(ix.covers_value(&int(5)));
        drop_now(&mut ix, e2);
        assert_eq!(covers(&ix, 3), vec![e1]);
        assert!(!ix.covers_value(&int(5)));
        assert!(ix.covers_value(&int(3)));
    }

    /// `<5, 7>` and `<*, 7>` close the pairs they name, not join value 5
    /// or any other: a future `(5, 8)` may still arrive. They cover no
    /// value and feed no purge, but wait for propagation like any other
    /// punctuation and are offered to its re-checks.
    #[test]
    fn a_punctuation_on_another_attribute_closes_no_join_value() {
        let mut ix = PunctuationIndex::new(0);
        let five_seven = ix.insert(
            Punctuation::new(vec![Pattern::Constant(int(5)), Pattern::Constant(int(7))]),
            0,
        );
        let any_seven = ix.insert(Punctuation::on_attr(2, 1, Pattern::Constant(int(7))), 0);
        assert!(!ix.covers_value(&int(5)));
        assert!(!ix.covers_value(&int(6)));
        assert_eq!(ix.join_patterns_since(0).count(), 0, "no purge");
        assert_eq!(covers(&ix, 5), vec![five_seven, any_seven]);
        assert!(ix.propagable().eq([five_seven, any_seven]));
        ix.enter(&tup(5, 1));
        assert_eq!(ix.propagable().count(), 0, "held by the stored (5, 1)");
        ix.leave(&tup(5, 1));
        assert!(ix.propagable().eq([five_seven, any_seven]));
        ix.retire_propagable(&mut Vec::new());
        assert_eq!(ix.closes(five_seven), None, "closes (5, 7) only");
    }

    #[test]
    fn arrival_stamps_ride_the_window() {
        let mut ix = PunctuationIndex::new(0);
        let a = ix.insert(close(1), 10);
        let b = ix.insert(close(2), 20);
        assert_eq!((ix.arrival_us(a), ix.arrival_us(b)), (Some(10), Some(20)));
        assert!(ix.arrivals_since(1).eq([20]));
        drop_now(&mut ix, a);
        assert_eq!(ix.arrival_us(a), Some(10), "stored until trimmed");
        ix.trim(u64::MAX);
        assert_eq!(ix.arrival_us(a), None);
        assert!(ix.arrivals_since(0).eq([20]));
    }

    #[test]
    fn counts_track_state_membership() {
        let mut ix = PunctuationIndex::new(0);
        ix.enter(&tup(5, 0));
        ix.enter(&tup(5, 1));
        let id = ix.insert(close(5), 0);
        assert_eq!(ix.count(&int(5)), 2);
        assert_eq!(ix.propagable().count(), 0, "held by the stored tuples");
        ix.leave(&tup(5, 0));
        assert_eq!(ix.count(&int(5)), 1);
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
        let id = ix.insert(close(9), 0);
        assert!(ix.propagable().eq([id]));
        ix.retire(id);
        assert!(ix.is_retired(id));
        assert_eq!(ix.propagable().count(), 0);
        assert!(ix.live_ids().is_empty());
        assert_eq!(ix.live(), 0);
        // Retired punctuations still cover arriving opposite tuples.
        assert!(ix.covers_value(&int(9)));
    }

    #[test]
    fn live_counter_tracks_retirement() {
        let mut ix = PunctuationIndex::new(0);
        let a = ix.insert(close(1), 0);
        let b = ix.insert(close(2), 0);
        assert_eq!(ix.live(), 2);
        ix.retire(a);
        assert_eq!(ix.live(), 1);
        // Retiring twice must not double-count.
        ix.retire(a);
        assert_eq!(ix.live(), 1);
        ix.retire(b);
        assert_eq!(ix.live(), 0);
        assert_eq!(ix.total(), 2);
        ix.insert(close(3), 0);
        assert_eq!(ix.live(), 1);
    }

    #[test]
    fn join_patterns_since_watermark() {
        let mut ix = PunctuationIndex::new(0);
        ix.insert(close(1), 0);
        ix.insert(close(2), 0);
        ix.insert(close(3), 0);
        assert_eq!(ix.join_patterns_since(0).count(), 3);
        assert!(ix.join_patterns_since(2).eq([&Pattern::Constant(int(3))]));
        assert_eq!(ix.join_patterns_since(3).count(), 0);
    }

    #[test]
    fn zero_count_preserves_arrival_order() {
        let mut ix = PunctuationIndex::new(0);
        ix.enter(&tup(2, 0));
        let a = ix.insert(close(1), 0);
        let b = ix.insert(close(2), 0);
        let c = ix.insert(close(3), 0);
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
        // Retired punctuations stay stored; their value's count moving
        // must not resurrect them.
        let mut ix = PunctuationIndex::new(0);
        let id = ix.insert(close(4), 0);
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
        let list = ix.insert(on_join(Pattern::enumeration(vec![int(5), int(6)])), 0);
        let range = ix.insert(on_join(Pattern::int_range(10, 29)), 0);
        let wildcard = ix.insert(Punctuation::on_attr(2, 1, Pattern::Constant(int(7))), 0);
        let empty = ix.insert(on_join(Pattern::Empty), 0);
        let float = ix.insert(on_join(Pattern::Constant(Value::Float(6.0))), 0);
        assert!(ix.propagable().eq([empty, float]), "exact, not join_eq");
        ix.leave(&tup(6, 0));
        assert!(ix.propagable().eq([list, empty, float]));
        ix.enter(&tup(25, 1));
        ix.leave(&tup(20, 0));
        assert!(ix.propagable().eq([list, empty, float]), "25 is in the range too");
        ix.leave(&tup(25, 1));
        assert!(ix.propagable().eq([list, range, wildcard, empty, float]));
    }

    #[test]
    fn a_pair_is_forgotten_only_once_both_are_retired() {
        let (mut a, mut b) = (PunctuationIndex::new(0), PunctuationIndex::new(0));
        let pa = a.insert(close(5), 0);
        assert_eq!(closed_pair(&a, pa, &b), None, "the other side has not closed 5");
        let pb = b.insert(close(5), 0);
        a.retire(pa);
        assert_eq!(closed_pair(&a, pa, &b), None, "the other side's is not retired");
        // A stored tuple with the value (one the own input sent after
        // closing it) keeps it too.
        b.retire(pb);
        b.enter(&tup(5, 1));
        assert_eq!(closed_pair(&a, pa, &b), None);
        b.leave(&tup(5, 1));
        assert_eq!(closed_pair(&a, pa, &b), Some(pb));
        assert_eq!(closed_pair(&b, pb, &a), Some(pa), "symmetric");
        assert!(a.forget(pa) && b.forget(pb));
        assert!(!a.forget(pa), "once");
        assert!(!a.covers_value(&int(5)));
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
        let range = a.insert(on_join(Pattern::int_range(0, 9)), 0);
        let pa = a.insert(close(5), 0);
        let pb = b.insert(close(5), 0);
        a.retire(pa);
        b.retire(pb);
        assert_eq!(closed_pair(&a, pa, &b), None);
        assert_eq!(closed_pair(&b, pb, &a), None);
        // Once no A tuple with key 5 is left, both may go.
        a.leave(&tup(5, 0));
        assert!(a.propagable().eq([range]));
        assert_eq!(closed_pair(&a, pa, &b), Some(pb));
        // Nor is a punctuation constraining more than the join attribute
        // forgotten.
        let (mut a, mut b) = (PunctuationIndex::new(0), PunctuationIndex::new(0));
        let narrow = Punctuation::new(vec![Pattern::Constant(int(7)), Pattern::Constant(int(1))]);
        let pa = a.insert(narrow, 0);
        let pb = b.insert(close(7), 0);
        a.retire_propagable(&mut Vec::new());
        b.retire_propagable(&mut Vec::new());
        assert_eq!(closed_pair(&a, pa, &b), None, "closes (7, 1) only");
        assert_eq!(closed_pair(&b, pb, &a), None);
    }

    #[test]
    fn an_id_below_base_reads_as_retired() {
        let (mut a, mut b) = (PunctuationIndex::new(0), PunctuationIndex::new(0));
        let pa = a.insert(close(1), 0);
        let pb = b.insert(close(1), 0);
        a.retire_propagable(&mut Vec::new());
        b.retire_propagable(&mut Vec::new());
        a.forget(pa);
        b.forget(pb);
        // The purge watermark holds it until the purge has applied it.
        a.trim(0);
        assert!(a.join_patterns_since(0).eq([&Pattern::Constant(int(1))]));
        a.trim(1);
        assert_eq!(a.base, 1);
        assert!(a.is_retired(pa));
        assert_eq!(a.get(pa), None);
        assert!(a.live_ids().is_empty());
        assert!(!a.contains_join_pattern(&Pattern::Constant(int(1))));
        let next = a.insert(close(2), 0);
        assert_eq!(next, PunctId(1));
        assert!(a.join_patterns_since(0).eq([&Pattern::Constant(int(2))]));
        assert!(a.propagable().eq([next]));
    }

    #[test]
    fn an_unforgotten_front_pins_the_window_but_later_pairs_leave_the_maps() {
        let (mut a, mut b) = (PunctuationIndex::new(0), PunctuationIndex::new(0));
        // Only side A ever closes 100: that punctuation stays retired.
        let pinned = a.insert(close(100), 0);
        let pairs: Vec<(PunctId, PunctId)> =
            (0..3).map(|k| (a.insert(close(k), 0), b.insert(close(k), 0))).collect();
        a.retire_propagable(&mut Vec::new());
        b.retire_propagable(&mut Vec::new());
        assert_eq!(closed_pair(&a, pinned, &b), None);
        for &(pa, pb) in &pairs {
            assert_eq!(closed_pair(&a, pa, &b), Some(pb));
            a.forget(pa);
            b.forget(pb);
        }
        a.trim(u64::MAX);
        b.trim(u64::MAX);
        assert_eq!(a.held(), 4, "the retired front pins A's window");
        assert_eq!(b.held(), 0);
        assert!((0..3).all(|k| !a.covers_value(&int(k))));
        assert!(a.covers_value(&int(100)));
        // Ids stay dense behind the pinned front.
        assert_eq!(a.insert(close(9), 0), PunctId(4));
    }

    /// A range is held only by stored tuples inside it. An earlier
    /// punctuation whose join pattern is a wildcard (it constrains
    /// another attribute) waits while the side stores any tuple, here
    /// `(50, 7)`, but does not hold the range back.
    #[test]
    fn a_range_propagates_past_a_held_wildcard_join_pattern() {
        let mut ix = PunctuationIndex::new(0);
        ix.enter(&tup(50, 7));
        let other_attr = ix.insert(Punctuation::on_attr(2, 1, Pattern::Constant(int(7))), 0);
        let range = ix.insert(on_join(Pattern::int_range(0, 9)), 0);
        assert!(ix.propagable().eq([range]), "only the wildcard join pattern is held");
        let mut retired = Vec::new();
        ix.retire_propagable(&mut retired);
        assert_eq!(retired, vec![range]);
        ix.leave(&tup(50, 7));
        assert!(ix.propagable().eq([other_attr]), "free once the side stores nothing");
    }

    #[test]
    fn contains_join_pattern_sees_a_live_duplicate_behind_a_retired_one() {
        let mut ix = PunctuationIndex::new(0);
        let nine = Pattern::Constant(int(9));
        assert!(!ix.contains_join_pattern(&nine));
        let first = ix.insert(close(9), 0);
        assert!(ix.contains_join_pattern(&nine));
        assert!(
            !ix.contains_join_pattern(&Pattern::Constant(Value::Float(9.0))),
            "exact, not join_eq"
        );
        ix.retire(first);
        assert!(!ix.contains_join_pattern(&nine), "only a retired one left");
        let second = ix.insert(close(9), 0);
        assert!(ix.contains_join_pattern(&nine), "the live duplicate counts");
        ix.retire(second);
        assert!(!ix.contains_join_pattern(&nine));
        // Non-constant patterns compare punctuation by punctuation.
        let range = Pattern::int_range(0, 5);
        assert!(!ix.contains_join_pattern(&range));
        let r = ix.insert(on_join(range.clone()), 0);
        assert!(ix.contains_join_pattern(&range));
        ix.retire(r);
        assert!(!ix.contains_join_pattern(&range));
    }
}
