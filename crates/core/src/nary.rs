//! The n-ary join extension of the paper's §6.
//!
//! > "It is also straightforward to extend the current binary join
//! > implementation of PJoin to handle n-ary joins. … for punctuations
//! > from the i-th stream, the state purge component needs to purge the
//! > states of all other (n−1) streams. … If the join value of a new
//! > tuple from one stream is detected to match the punctuations from
//! > all other (n−1) streams, this tuple can be on-the-fly dropped after
//! > the memory join."
//!
//! [`NaryPJoin`] is a symmetric, memory-resident n-way hash equi-join
//! over one shared join attribute with the three punctuation
//! exploitations generalized:
//!
//! * **Purge.** A tuple of stream *j* can produce a new result only
//!   through a *new* tuple of some other stream carrying its join value,
//!   so it is purged once **every** other stream's punctuation set
//!   covers that value. (This refines the paper's one-line description,
//!   which reads as if a single stream's punctuation sufficed; with
//!   n > 2 a value must be closed by *all* other inputs before stored
//!   tuples become useless.)
//! * **On-the-fly drop.** An arriving tuple covered by all other
//!   punctuation sets joins the states and is not stored — exactly the
//!   paper's condition.
//! * **Propagation.** A punctuation of stream *i* propagates once no
//!   stream-*i* tuple matching it remains in state *i* (Theorem 1,
//!   verbatim — "the punctuation index building and propagation
//!   algorithms for each input stream could remain the same").
//!
//! The state is keyed directly by join value (the join is on one shared
//! attribute), so probes and constant-pattern checks are O(1). Spilling
//! is out of scope here — the binary operator demonstrates that
//! machinery; the paper leaves "correlated purge thresholds" and friends
//! as future work, and so do we.

use std::collections::HashMap;

use punct_types::{Pattern, Punctuation, StreamElement, Tuple, Value};
use stream_sim::{OpOutput, Work};

use crate::config::PurgeStrategy;
use crate::punctuation_index::PunctuationIndex;

/// Configuration of an [`NaryPJoin`].
#[derive(Debug, Clone)]
pub struct NaryConfig {
    /// Tuple width per input stream (also fixes the stream count).
    pub widths: Vec<usize>,
    /// Join attribute index per input stream.
    pub join_attrs: Vec<usize>,
    /// Purge strategy (threshold counts punctuations across all inputs).
    pub purge: PurgeStrategy,
    /// Propagate every `count` punctuations (None = propagate only at
    /// stream end).
    pub propagate_every: Option<u64>,
    /// Drop covered arrivals on the fly.
    pub on_the_fly_drop: bool,
}

impl NaryConfig {
    /// A symmetric configuration: `n` streams of width `width`, joining
    /// on attribute 0, eager purge, propagation every punctuation.
    pub fn symmetric(n: usize, width: usize) -> NaryConfig {
        NaryConfig {
            widths: vec![width; n],
            join_attrs: vec![0; n],
            purge: PurgeStrategy::Eager,
            propagate_every: Some(1),
            on_the_fly_drop: true,
        }
    }

    /// Number of input streams.
    pub fn arity(&self) -> usize {
        self.widths.len()
    }

    /// Output tuple width.
    pub fn output_width(&self) -> usize {
        self.widths.iter().sum()
    }
}

/// Statistics of an n-ary run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NaryStats {
    /// Purge invocations.
    pub purge_runs: u64,
    /// Tuples purged.
    pub tuples_purged: u64,
    /// Arrivals dropped on the fly.
    pub dropped_on_fly: u64,
    /// Punctuations propagated.
    pub puncts_propagated: u64,
    /// Malformed elements dropped at ingest: tuples too short to carry
    /// the join attribute and punctuations of the wrong width.
    pub malformed_dropped: u64,
}

/// One input stream's memory state: join value → tuples.
#[derive(Debug, Default)]
struct NaryState {
    groups: HashMap<Value, Vec<Tuple>>,
    tuples: usize,
}

impl NaryState {
    fn insert(&mut self, key: Value, tuple: Tuple) {
        // Detached: a resident must not pin a block of join outputs.
        self.groups.entry(key).or_default().push(tuple.detached());
        self.tuples += 1;
    }

    fn matches(&self, key: &Value) -> &[Tuple] {
        self.groups.get(key).map_or(&[], Vec::as_slice)
    }

    /// Removes every group whose key satisfies `pred`; returns tuples
    /// removed and keys scanned.
    fn purge_keys(&mut self, mut pred: impl FnMut(&Value) -> bool) -> (usize, usize) {
        let scanned = self.groups.len();
        let mut removed = 0;
        self.groups.retain(|k, v| {
            if pred(k) {
                removed += v.len();
                false
            } else {
                true
            }
        });
        self.tuples -= removed;
        (removed, scanned)
    }

    /// True if any stored tuple matches `pattern` on the join attribute.
    fn any_key_matches(&self, pattern: &Pattern, work: &mut Work) -> bool {
        if let Pattern::Constant(v) = pattern {
            work.index_evals += 1;
            return self.groups.contains_key(v);
        }
        self.groups.keys().any(|k| {
            work.index_evals += 1;
            pattern.matches(k)
        })
    }
}

/// The n-ary punctuation-exploiting join (see module docs).
///
/// ```
/// use pjoin::{NaryConfig, NaryPJoin};
/// use punct_types::Tuple;
/// use stream_sim::OpOutput;
/// let mut join = NaryPJoin::new(NaryConfig::symmetric(3, 2));
/// let mut out = OpOutput::new();
/// join.on_element(0, Tuple::of((1i64, 10i64)).into(), &mut out);
/// join.on_element(1, Tuple::of((1i64, 20i64)).into(), &mut out);
/// join.on_element(2, Tuple::of((1i64, 30i64)).into(), &mut out);
/// assert_eq!(out.drain().count(), 1); // (1,10,1,20,1,30)
/// ```
pub struct NaryPJoin {
    config: NaryConfig,
    states: Vec<NaryState>,
    indexes: Vec<PunctuationIndex>,
    /// Output-schema attribute offset of each stream.
    offsets: Vec<usize>,
    puncts_since_purge: u64,
    puncts_since_propagation: u64,
    work: Work,
    stats: NaryStats,
}

impl NaryPJoin {
    /// Creates an n-ary join (`n >= 2`).
    pub fn new(config: NaryConfig) -> NaryPJoin {
        let n = config.arity();
        assert!(n >= 2, "n-ary join needs at least two inputs");
        assert_eq!(config.join_attrs.len(), n, "one join attribute per stream");
        let mut offsets = Vec::with_capacity(n);
        let mut acc = 0;
        for w in &config.widths {
            offsets.push(acc);
            acc += w;
        }
        NaryPJoin {
            states: (0..n).map(|_| NaryState::default()).collect(),
            indexes: config.join_attrs.iter().map(|&a| PunctuationIndex::new(a)).collect(),
            offsets,
            puncts_since_purge: 0,
            puncts_since_propagation: 0,
            work: Work::ZERO,
            stats: NaryStats::default(),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NaryConfig {
        &self.config
    }

    /// Run statistics.
    pub fn stats(&self) -> &NaryStats {
        &self.stats
    }

    /// Drains accumulated work counters.
    pub fn take_work(&mut self) -> Work {
        std::mem::take(&mut self.work)
    }

    /// Total tuples across all states.
    pub fn state_tuples(&self) -> usize {
        self.states.iter().map(|s| s.tuples).sum()
    }

    /// Tuples per stream state.
    pub fn state_tuples_per_stream(&self) -> Vec<usize> {
        self.states.iter().map(|s| s.tuples).collect()
    }

    /// Processes one element from input `stream`.
    pub fn on_element(&mut self, stream: usize, element: StreamElement, out: &mut OpOutput) {
        assert!(stream < self.config.arity(), "stream index out of range");
        match element {
            StreamElement::Tuple(t) => self.handle_tuple(stream, t, out),
            StreamElement::Punctuation(p) => self.handle_punctuation(stream, p, out),
        }
    }

    /// Both inputs exhausted: flush every remaining punctuation (no
    /// further results are possible).
    pub fn on_end(&mut self, out: &mut OpOutput) {
        for i in 0..self.config.arity() {
            for id in self.indexes[i].live_ids() {
                let p = self.indexes[i].get(id).expect("live ids resolve").clone();
                self.emit_punctuation(i, &p, out);
                self.indexes[i].retire(id);
            }
        }
    }

    fn handle_tuple(&mut self, stream: usize, tuple: Tuple, out: &mut OpOutput) {
        let attr = self.config.join_attrs[stream];
        let Some(key) = tuple.get(attr).cloned() else {
            self.stats.malformed_dropped += 1;
            return;
        };
        self.work.hashes += 1;

        // Memory join: cross product over the matching groups of every
        // other stream, with the arriving tuple at position `stream`.
        self.emit_cross_product(stream, &tuple, &key, out);

        // On-the-fly drop: covered by all other punctuation sets?
        if self.config.on_the_fly_drop {
            let covered = (0..self.config.arity()).all(|k| {
                k == stream || {
                    self.work.index_evals += 1;
                    self.indexes[k].covers_join_value(&key)
                }
            });
            if covered {
                self.stats.dropped_on_fly += 1;
                return;
            }
        }
        self.states[stream].insert(key, tuple);
        self.work.inserts += 1;
    }

    fn emit_cross_product(
        &mut self,
        stream: usize,
        arriving: &Tuple,
        key: &Value,
        out: &mut OpOutput,
    ) {
        let n = self.config.arity();
        // Gather per-stream match lists (the arriving tuple fixes its own
        // position). Any empty list short-circuits.
        let mut parts: Vec<&[Tuple]> = Vec::with_capacity(n);
        let self_slot = [arriving.clone()];
        for (k, state) in self.states.iter().enumerate() {
            if k == stream {
                parts.push(&self_slot);
            } else {
                let matches = state.matches(key);
                self.work.probe_cmps += matches.len() as u64 + 1;
                if matches.is_empty() {
                    return;
                }
                parts.push(matches);
            }
        }
        // Odometer over the cross product.
        let mut idx = vec![0usize; n];
        loop {
            let mut values = Vec::with_capacity(self.config.output_width());
            for (k, part) in parts.iter().enumerate() {
                values.extend_from_slice(part[idx[k]].values());
            }
            self.work.outputs += 1;
            out.push(Tuple::new(values));

            // Advance the odometer.
            let mut pos = n;
            loop {
                if pos == 0 {
                    return;
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < parts[pos].len() {
                    break;
                }
                idx[pos] = 0;
            }
        }
    }

    fn handle_punctuation(&mut self, stream: usize, p: Punctuation, out: &mut OpOutput) {
        self.work.puncts_processed += 1;
        if p.width() != self.config.widths[stream] {
            self.stats.malformed_dropped += 1;
            return;
        }
        self.indexes[stream].insert(p);
        self.puncts_since_purge += 1;
        self.puncts_since_propagation += 1;

        if let Some(threshold) = self.config.purge.threshold() {
            if self.puncts_since_purge >= threshold {
                self.puncts_since_purge = 0;
                self.purge();
            }
        }
        if let Some(count) = self.config.propagate_every {
            if self.puncts_since_propagation >= count {
                self.puncts_since_propagation = 0;
                self.propagate(out);
            }
        }
    }

    /// Purge (§6, refined): stream `j` drops every group whose key is
    /// covered by the punctuation sets of **all** other streams.
    fn purge(&mut self) {
        self.stats.purge_runs += 1;
        let n = self.config.arity();
        for j in 0..n {
            let (indexes, work) = (&self.indexes, &mut self.work);
            let (removed, scanned) = self.states[j].purge_keys(|key| {
                (0..n).all(|k| {
                    k == j || {
                        work.index_evals += 1;
                        indexes[k].covers_join_value(key)
                    }
                })
            });
            self.work.purge_scanned += scanned as u64;
            self.work.purged += removed as u64;
            self.stats.tuples_purged += removed as u64;
        }
    }

    /// Propagation: a stream-`i` punctuation with no matching stream-`i`
    /// tuple left can never match a future result (Theorem 1).
    fn propagate(&mut self, out: &mut OpOutput) {
        for i in 0..self.config.arity() {
            let attr = self.config.join_attrs[i];
            for id in self.indexes[i].live_ids() {
                let p = self.indexes[i].get(id).expect("live ids resolve").clone();
                let blocked = p
                    .pattern(attr)
                    .is_some_and(|pat| {
                        let work = &mut self.work;
                        self.states[i].any_key_matches(pat, work)
                    });
                if !blocked {
                    self.emit_punctuation(i, &p, out);
                    self.indexes[i].retire(id);
                }
            }
        }
    }

    fn emit_punctuation(&mut self, stream: usize, p: &Punctuation, out: &mut OpOutput) {
        let translated = crate::components::propagation::translate_punctuation(
            p,
            self.offsets[stream],
            self.config.output_width(),
        );
        self.work.puncts_propagated += 1;
        self.stats.puncts_propagated += 1;
        out.push(translated);
    }
}

/// Drives an [`NaryPJoin`] over timestamp-ordered input streams, merging
/// by arrival time (ties resolved by stream index). Returns all outputs
/// in emission order.
pub fn run_nary(
    op: &mut NaryPJoin,
    inputs: &[Vec<punct_types::Timestamped<StreamElement>>],
) -> Vec<StreamElement> {
    assert_eq!(inputs.len(), op.config().arity(), "one input per stream");
    let mut cursors = vec![0usize; inputs.len()];
    let mut out = OpOutput::new();
    let mut collected = Vec::new();
    loop {
        let next = (0..inputs.len())
            .filter_map(|i| inputs[i].get(cursors[i]).map(|e| (i, e.ts)))
            .min_by_key(|&(i, ts)| (ts, i));
        let Some((i, _)) = next else { break };
        let e = &inputs[i][cursors[i]];
        cursors[i] += 1;
        op.on_element(i, e.item.clone(), &mut out);
        collected.extend(out.drain());
    }
    op.on_end(&mut out);
    collected.extend(out.drain());
    collected
}

#[cfg(test)]
mod tests {
    use super::*;
    use punct_types::{Timestamp, Timestamped};

    fn tup(us: u64, k: i64, p: i64) -> Timestamped<StreamElement> {
        Timestamped::new(Timestamp(us), StreamElement::Tuple(Tuple::of((k, p))))
    }

    fn punct(us: u64, k: i64) -> Timestamped<StreamElement> {
        Timestamped::new(
            Timestamp(us),
            StreamElement::Punctuation(Punctuation::close_value(2, 0, k)),
        )
    }

    /// n-way nested-loop reference.
    fn reference(inputs: &[Vec<Timestamped<StreamElement>>]) -> Vec<Tuple> {
        fn rec(
            inputs: &[Vec<Timestamped<StreamElement>>],
            i: usize,
            key: Option<&Value>,
            acc: &mut Vec<Value>,
            out: &mut Vec<Tuple>,
        ) {
            if i == inputs.len() {
                out.push(Tuple::new(acc.clone()));
                return;
            }
            for e in &inputs[i] {
                let Some(t) = e.item.as_tuple() else { continue };
                let k = t.get(0).unwrap();
                if key.is_none_or(|key| key.join_eq(k)) {
                    let len = acc.len();
                    acc.extend_from_slice(t.values());
                    rec(inputs, i + 1, Some(key.unwrap_or(k)), acc, out);
                    acc.truncate(len);
                }
            }
        }
        let mut out = Vec::new();
        rec(inputs, 0, None, &mut Vec::new(), &mut out);
        out.sort();
        out
    }

    fn sorted_tuples(elements: &[StreamElement]) -> Vec<Tuple> {
        let mut v: Vec<Tuple> =
            elements.iter().filter_map(StreamElement::as_tuple).cloned().collect();
        v.sort();
        v
    }

    #[test]
    fn three_way_join_matches_reference() {
        let inputs = vec![
            vec![tup(1, 1, 10), tup(4, 2, 11), tup(7, 1, 12)],
            vec![tup(2, 1, 20), tup(5, 2, 21)],
            vec![tup(3, 1, 30), tup(6, 1, 31), tup(8, 3, 32)],
        ];
        let mut op = NaryPJoin::new(NaryConfig::symmetric(3, 2));
        let out = run_nary(&mut op, &inputs);
        assert_eq!(sorted_tuples(&out), reference(&inputs));
        // key 1: 2 × 1 × 2 = 4 results; key 2: 1×1×0 = 0.
        assert_eq!(sorted_tuples(&out).len(), 4);
    }

    #[test]
    fn four_way_join_matches_reference() {
        let mut inputs = Vec::new();
        for s in 0..4u64 {
            let mut v = Vec::new();
            for i in 0..12u64 {
                v.push(tup(i * 4 + s, (i % 3) as i64, (s * 100 + i) as i64));
            }
            inputs.push(v);
        }
        let mut op = NaryPJoin::new(NaryConfig::symmetric(4, 2));
        let out = run_nary(&mut op, &inputs);
        assert_eq!(sorted_tuples(&out), reference(&inputs));
    }

    #[test]
    fn punctuations_do_not_change_results() {
        let inputs = vec![
            vec![tup(1, 1, 10), punct(2, 1), tup(3, 2, 11), punct(9, 2)],
            vec![tup(4, 1, 20), tup(5, 2, 21), punct(6, 1), punct(10, 2)],
            vec![tup(7, 1, 30), punct(8, 1), tup(11, 2, 31), punct(12, 2)],
        ];
        let mut op = NaryPJoin::new(NaryConfig::symmetric(3, 2));
        let out = run_nary(&mut op, &inputs);
        assert_eq!(sorted_tuples(&out), reference(&inputs));
    }

    #[test]
    fn purge_requires_all_other_streams() {
        let mut op = NaryPJoin::new(NaryConfig::symmetric(3, 2));
        let mut out = OpOutput::new();
        op.on_element(0, Tuple::of((1i64, 0i64)).into(), &mut out);
        // Key 1 closed on stream 1 only: stream 0's tuple may yet join a
        // new stream-2 tuple (with stored stream-1 data? no — stream 1
        // has no stored key-1 tuple, but a future stream-2 tuple alone
        // cannot complete a 3-way result either... it could join stored
        // stream-0 and *stored* stream-1 tuples; stream 1 might still
        // store one? No: stream 1 punctuated key 1. Still, the purge rule
        // keys on *future* tuples: stream 2 can deliver key-1 tuples, and
        // a result also needs a stream-1 tuple — none can come and none
        // is stored, so the tuple is in fact dead. Our conservative rule
        // keeps it until stream 2 also closes: correct, just not minimal.
        op.on_element(1, Punctuation::close_value(2, 0, 1i64).into(), &mut out);
        assert_eq!(op.state_tuples(), 1, "conservative: not yet purged");
        // Stream 2 closes key 1 too: now every other stream covers it.
        op.on_element(2, Punctuation::close_value(2, 0, 1i64).into(), &mut out);
        assert_eq!(op.state_tuples(), 0, "purged once all others cover the key");
        assert_eq!(op.stats().tuples_purged, 1);
    }

    #[test]
    fn on_the_fly_drop_requires_all_other_streams() {
        let mut op = NaryPJoin::new(NaryConfig::symmetric(3, 2));
        let mut out = OpOutput::new();
        op.on_element(1, Punctuation::close_value(2, 0, 5i64).into(), &mut out);
        op.on_element(0, Tuple::of((5i64, 1i64)).into(), &mut out);
        assert_eq!(op.state_tuples(), 1, "only one other stream covers key 5");
        // The second covering punctuation also purges the stored tuple
        // (all other streams now cover key 5).
        op.on_element(2, Punctuation::close_value(2, 0, 5i64).into(), &mut out);
        assert_eq!(op.state_tuples(), 0, "purge fires once the key is fully covered");
        op.on_element(0, Tuple::of((5i64, 2i64)).into(), &mut out);
        assert_eq!(op.state_tuples(), 0, "second arrival dropped on the fly");
        assert_eq!(op.stats().dropped_on_fly, 1);
    }

    #[test]
    fn propagation_waits_for_own_state_to_clear() {
        let mut op = NaryPJoin::new(NaryConfig::symmetric(3, 2));
        let mut out = OpOutput::new();
        op.on_element(0, Tuple::of((7i64, 0i64)).into(), &mut out);
        // Stream 0 closes key 7 while its own tuple is stored: blocked.
        op.on_element(0, Punctuation::close_value(2, 0, 7i64).into(), &mut out);
        assert!(out.drain().all(|e| !e.is_punctuation()));
        // The other streams close key 7: the tuple purges, unblocking it.
        op.on_element(1, Punctuation::close_value(2, 0, 7i64).into(), &mut out);
        op.on_element(2, Punctuation::close_value(2, 0, 7i64).into(), &mut out);
        let puncts: Vec<_> = out.drain().filter(|e| e.is_punctuation()).collect();
        assert!(!puncts.is_empty());
        // Translated to the 6-wide output schema.
        let p = puncts.iter().find_map(StreamElement::as_punctuation).unwrap();
        assert_eq!(p.width(), 6);
    }

    #[test]
    fn propagated_punctuations_hold_for_output() {
        // No output tuple after a propagated punctuation may match it.
        let inputs = vec![
            vec![tup(1, 1, 10), punct(5, 1), tup(6, 2, 11), punct(20, 2)],
            vec![tup(2, 1, 20), punct(7, 1), tup(8, 2, 21), punct(21, 2)],
            vec![tup(3, 1, 30), punct(9, 1), tup(10, 2, 31), punct(22, 2)],
        ];
        let mut op = NaryPJoin::new(NaryConfig::symmetric(3, 2));
        let out = run_nary(&mut op, &inputs);
        let mut seen: Vec<Punctuation> = Vec::new();
        for e in &out {
            match e {
                StreamElement::Punctuation(p) => seen.push(p.clone()),
                StreamElement::Tuple(t) => {
                    assert!(
                        !seen.iter().any(|p| p.matches(t)),
                        "result {t} violates a propagated punctuation"
                    );
                }
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn end_flush_releases_all_punctuations() {
        let inputs = vec![
            vec![tup(1, 1, 0), punct(2, 1)],
            vec![tup(3, 1, 1)],
            vec![tup(4, 1, 2)],
        ];
        let mut op = NaryPJoin::new(NaryConfig::symmetric(3, 2));
        let out = run_nary(&mut op, &inputs);
        assert_eq!(out.iter().filter(|e| e.is_punctuation()).count(), 1);
    }

    #[test]
    fn heterogeneous_widths_and_attrs() {
        // Stream 0: (x, key); streams 1, 2: (key, y).
        let config = NaryConfig {
            widths: vec![2, 2, 3],
            join_attrs: vec![1, 0, 0],
            purge: PurgeStrategy::Eager,
            propagate_every: Some(1),
            on_the_fly_drop: true,
        };
        let mut op = NaryPJoin::new(config);
        let mut out = OpOutput::new();
        op.on_element(0, Tuple::of((99i64, 5i64)).into(), &mut out);
        op.on_element(1, Tuple::of((5i64, 100i64)).into(), &mut out);
        op.on_element(2, Tuple::of((5i64, 200i64, 201i64)).into(), &mut out);
        let results: Vec<_> = out.drain().filter_map(|e| e.as_tuple().cloned()).collect();
        assert_eq!(results, vec![Tuple::of((99i64, 5i64, 5i64, 100i64, 5i64, 200i64, 201i64))]);
    }

    /// A tuple too short to carry the join attribute and a punctuation of
    /// the wrong width are counted drops — no panic in a debug build, no
    /// other trace in state, stats or output.
    #[test]
    fn malformed_elements_are_counted_drops() {
        let mut op = NaryPJoin::new(NaryConfig::symmetric(3, 2));
        let mut out = OpOutput::new();
        op.on_element(0, Tuple::of((1i64, 0i64)).into(), &mut out);
        let before = *op.stats();
        op.on_element(1, Tuple::new(Vec::new()).into(), &mut out);
        op.on_element(1, Punctuation::close_value(3, 0, 1i64).into(), &mut out);
        assert_eq!(op.stats().malformed_dropped, 2, "one count per malformed element");
        assert_eq!(op.state_tuples(), 1);
        assert_eq!(out.drain().count(), 0);
        let rest = NaryStats { malformed_dropped: 0, ..*op.stats() };
        assert_eq!(rest, before, "a drop must leave no other trace");
    }

    #[test]
    #[should_panic(expected = "at least two inputs")]
    fn rejects_unary() {
        let _ = NaryPJoin::new(NaryConfig::symmetric(1, 2));
    }

    #[test]
    fn lazy_purge_threshold() {
        let config = NaryConfig {
            purge: PurgeStrategy::Lazy { threshold: 4 },
            ..NaryConfig::symmetric(2, 2)
        };
        let mut op = NaryPJoin::new(config);
        let mut out = OpOutput::new();
        op.on_element(0, Tuple::of((1i64, 0i64)).into(), &mut out);
        op.on_element(1, Punctuation::close_value(2, 0, 1i64).into(), &mut out);
        op.on_element(1, Punctuation::close_value(2, 0, 2i64).into(), &mut out);
        op.on_element(1, Punctuation::close_value(2, 0, 3i64).into(), &mut out);
        assert_eq!(op.state_tuples(), 1, "below threshold: no purge yet");
        op.on_element(1, Punctuation::close_value(2, 0, 4i64).into(), &mut out);
        assert_eq!(op.state_tuples(), 0, "threshold reached: purged");
        assert_eq!(op.stats().purge_runs, 1);
    }
}
