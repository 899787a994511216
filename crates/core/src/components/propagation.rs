//! The punctuation propagation component (paper §3.5, Fig. 3's
//! Propagate algorithm).
//!
//! A punctuation whose index count is zero has no matching tuple left in
//! its stream's state; by Theorem 1 no future join result can match it,
//! so it is translated to the output schema and released. Propagated
//! punctuations are *retired* (see
//! [`PunctuationIndex`](crate::PunctuationIndex) for the deviation from
//! the paper's removal).

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
    let mut patterns = vec![Pattern::Wildcard; out_width];
    for (i, pat) in p.patterns().iter().enumerate() {
        patterns[offset + i] = pat.clone();
    }
    Punctuation::new(patterns)
}

/// Propagates every currently-propagable punctuation of `state` (count
/// zero and not blocked by an unresolved disk portion), in arrival order.
/// Returns the propagated ids.
pub fn propagate_side(
    state: &mut JoinState,
    offset: usize,
    out_width: usize,
    out: &mut OpOutput,
    work: &mut Work,
) -> Vec<PunctId> {
    // Candidates ascend by id and the disk guard blocks every id from a
    // watermark up, so the propagable ones are a prefix.
    let blocked_from = state.disk_blocks_from();
    let propagated: Vec<PunctId> = state
        .index
        .zero_count_ids()
        .take_while(|id| id.0 < blocked_from)
        .collect();
    for &id in &propagated {
        let p = state.index.get(id).expect("zero-count ids are live");
        out.push(translate_punctuation(p, offset, out_width));
        state.index.retire(id);
    }
    work.puncts_propagated += propagated.len() as u64;
    propagated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PRecord;
    use punct_types::{StreamElement, Tuple, Value};

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
        let a = s.index.insert(Punctuation::close_value(2, 0, 1i64));
        let b = s.index.insert(Punctuation::close_value(2, 0, 2i64));
        let mut out = OpOutput::new();
        let mut w = Work::ZERO;
        let ids = propagate_side(&mut s, 0, 4, &mut out, &mut w);
        assert_eq!(ids, vec![a, b]);
        let puncts = drain_puncts(&mut out);
        assert_eq!(puncts.len(), 2);
        assert_eq!(puncts[0].pattern(0), Some(&Pattern::Constant(Value::Int(1))));
        assert_eq!(w.puncts_propagated, 2);
        // Retired: a second call propagates nothing.
        assert!(propagate_side(&mut s, 0, 4, &mut out, &mut w).is_empty());
    }

    #[test]
    fn nonzero_count_blocks_propagation() {
        let mut s = JoinState::new(2, 0, 4, 4);
        s.store.insert(PRecord::arriving(Tuple::of((5i64, 0i64)), 0));
        let id = s.index.insert(Punctuation::close_value(2, 0, 5i64));
        let mut w = Work::ZERO;
        s.index_build(&mut w);
        let mut out = OpOutput::new();
        assert!(propagate_side(&mut s, 0, 4, &mut out, &mut w).is_empty());
        // Once the tuple is purged (count 0), it propagates.
        s.index.decrement(id);
        let ids = propagate_side(&mut s, 0, 4, &mut out, &mut w);
        assert_eq!(ids, vec![id]);
    }

    #[test]
    fn unresolved_disk_blocks_propagation() {
        let mut s = JoinState::new(2, 0, 1, 4);
        s.store.insert(PRecord::arriving(Tuple::of((1i64, 0i64)), 0));
        let mut w = Work::ZERO;
        s.spill_bucket(0, 1, &mut w);
        // Punctuation arrives after the spill: the disk may hold
        // unindexed matches, so it must wait.
        let id = s.index.insert(Punctuation::close_value(2, 0, 99i64));
        let mut out = OpOutput::new();
        assert!(propagate_side(&mut s, 0, 4, &mut out, &mut w).is_empty());
        // Resolving the disk unblocks it.
        s.store.clear_disk(0);
        s.disk_watermark[0] = u64::MAX;
        assert_eq!(propagate_side(&mut s, 0, 4, &mut out, &mut w), vec![id]);
    }
}
