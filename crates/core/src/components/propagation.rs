//! The punctuation propagation component (paper §3.5, Fig. 3's
//! Propagate algorithm).
//!
//! A punctuation whose join-attribute pattern no stored tuple's join
//! value satisfies has no matching tuple left in its stream's state; by
//! Theorem 1 no future join result can match it, so it is translated to
//! the output schema and released. Propagated punctuations are *retired*
//! (see [`PunctuationIndex`](crate::PunctuationIndex) for both deviations
//! from the paper).

use punct_types::{Pattern, PunctId, Punctuation};
use stream_sim::{OpOutput, Work};

use crate::state::JoinState;

/// Translates a punctuation of one input stream to the join's output
/// schema: its patterns occupy that stream's attribute positions
/// (starting at `offset`), everything else is a wildcard.
///
/// The translation is exact: a result tuple matches the translated
/// punctuation iff its input-side part matched the original.
pub fn translate_punctuation(p: &Punctuation, offset: usize, out_width: usize) -> Punctuation {
    debug_assert!(offset + p.width() <= out_width, "offset/width mismatch");
    let own = offset..offset + p.width();
    Punctuation::from_patterns((0..out_width).map(|i| {
        if own.contains(&i) {
            p.patterns()[i - offset].clone()
        } else {
            Pattern::Wildcard
        }
    }))
}

/// Propagates every currently-propagable punctuation of `state` — no
/// tuple in memory, on disk or in the purge buffer has a join value its
/// join-attribute pattern matches — in arrival order, appending the
/// propagated ids to `propagated` (a buffer the caller reuses).
pub fn propagate_side(
    state: &mut JoinState,
    offset: usize,
    out_width: usize,
    out: &mut OpOutput,
    work: &mut Work,
    propagated: &mut Vec<PunctId>,
) {
    let from = propagated.len();
    state.index.retire_propagable(propagated);
    for &id in &propagated[from..] {
        let p = state.index.get(id).expect("retired punctuations stay stored");
        out.push(translate_punctuation(p, offset, out_width));
    }
    work.puncts_propagated += (propagated.len() - from) as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::disk_join::resolve_bucket;
    use crate::components::purge::purge_state;
    use crate::record::PRecord;
    use punct_types::{StreamElement, Tuple, Value};

    fn propagate(s: &mut JoinState, out: &mut OpOutput, w: &mut Work) -> Vec<PunctId> {
        let mut ids = Vec::new();
        propagate_side(s, 0, 4, out, w, &mut ids);
        ids
    }

    fn drain_puncts(out: &mut OpOutput) -> Vec<Punctuation> {
        out.drain()
            .filter_map(|e| match e {
                StreamElement::Punctuation(p) => Some(p),
                StreamElement::Tuple(_) => None,
            })
            .collect()
    }

    #[test]
    fn translation_places_patterns_at_offset() {
        let p = Punctuation::close_value(2, 0, 42i64);
        let t = translate_punctuation(&p, 3, 5);
        assert_eq!(t.width(), 5);
        assert_eq!(t.pattern(0), Some(&Pattern::Wildcard));
        assert_eq!(t.pattern(3), Some(&Pattern::Constant(Value::Int(42))));
        assert_eq!(t.pattern(4), Some(&Pattern::Wildcard));
    }

    #[test]
    fn translation_is_exact_on_results() {
        // Result = A(2) ++ B(2); punctuation from B at offset 2.
        let p = Punctuation::close_value(2, 0, 7i64);
        let t = translate_punctuation(&p, 2, 4);
        let matching = Tuple::of((7i64, 1i64, 7i64, 2i64));
        let other = Tuple::of((7i64, 1i64, 8i64, 2i64));
        assert!(t.matches(&matching));
        assert!(!t.matches(&other));
    }

    #[test]
    fn propagates_zero_count_in_arrival_order() {
        let mut s = JoinState::new(2, 0, 4, 4);
        let a = s.index.insert(Punctuation::close_value(2, 0, 1i64), 0);
        let b = s.index.insert(Punctuation::close_value(2, 0, 2i64), 0);
        let mut out = OpOutput::new();
        let mut w = Work::ZERO;
        let ids = propagate(&mut s, &mut out, &mut w);
        assert_eq!(ids, vec![a, b]);
        let puncts = drain_puncts(&mut out);
        assert_eq!(puncts.len(), 2);
        assert_eq!(puncts[0].pattern(0), Some(&Pattern::Constant(Value::Int(1))));
        assert_eq!(w.puncts_propagated, 2);
        // Retired: a second call propagates nothing.
        assert!(propagate(&mut s, &mut out, &mut w).is_empty());
    }

    #[test]
    fn nonzero_count_blocks_propagation() {
        let mut s = JoinState::new(2, 0, 4, 4);
        s.insert(PRecord::arriving(Tuple::of((5i64, 0i64)), 0));
        let id = s.index.insert(Punctuation::close_value(2, 0, 5i64), 0);
        let mut w = Work::ZERO;
        let mut out = OpOutput::new();
        assert!(propagate(&mut s, &mut out, &mut w).is_empty());
        // Once the tuple is purged (count 0), it propagates.
        purge_state(&mut s, &[Pattern::Constant(Value::Int(5))], |_| false, 1, &mut w);
        let ids = propagate(&mut s, &mut out, &mut w);
        assert_eq!(ids, vec![id]);
    }

    #[test]
    fn a_punctuation_behind_an_earlier_one_on_its_value_waits() {
        // Both punctuations match the stored tuple's value, so a later
        // one waits as long as the earlier one does.
        let earlier = [
            Punctuation::close_value(2, 0, 5i64),
            Punctuation::on_attr(2, 0, Pattern::enumeration(vec![Value::Int(5), Value::Int(6)])),
        ];
        for first in earlier {
            let mut s = JoinState::new(2, 0, 4, 4);
            s.insert(PRecord::arriving(Tuple::of((5i64, 0i64)), 0));
            let first = s.index.insert(first, 0);
            let later = s.index.insert(Punctuation::close_value(2, 0, 5i64), 0);
            assert_eq!(s.index.count(&Value::Int(5)), 1);
            let mut w = Work::ZERO;
            let mut out = OpOutput::new();
            assert!(propagate(&mut s, &mut out, &mut w).is_empty());
            purge_state(&mut s, &[Pattern::Constant(Value::Int(5))], |_| false, 1, &mut w);
            assert_eq!(propagate(&mut s, &mut out, &mut w), vec![first, later]);
        }
    }

    #[test]
    fn unresolved_disk_blocks_propagation() {
        let mut a = JoinState::new(2, 0, 1, 4);
        let mut b = JoinState::new(2, 0, 1, 4);
        a.insert(PRecord::arriving(Tuple::of((1i64, 0i64)), 0));
        let mut w = Work::ZERO;
        a.spill_bucket(0, 1, &mut w);
        // A punctuation on the disk-resident tuple's value waits for it;
        // one on another value does not.
        let held = a.index.insert(Punctuation::close_value(2, 0, 1i64), 0);
        let free = a.index.insert(Punctuation::close_value(2, 0, 99i64), 0);
        let mut out = OpOutput::new();
        assert_eq!(propagate(&mut a, &mut out, &mut w), vec![free]);
        assert!(propagate(&mut a, &mut out, &mut w).is_empty());
        // The disk join drops the tuple once the other side closes 1.
        b.index.insert(Punctuation::close_value(2, 0, 1i64), 0);
        let mut mark = None;
        resolve_bucket(0, &mut a, &mut b, &mut mark, 2, &mut out, &mut w);
        assert_eq!(a.store.disk_tuples(), 0);
        assert_eq!(propagate(&mut a, &mut out, &mut w), vec![held]);
    }
}
