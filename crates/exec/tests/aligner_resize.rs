//! Aligner behavior under shard-set changes — the patterns cluster
//! repartitioning leans on:
//!
//! * expectations registered against an old (smaller) shard mask
//!   complete normally while new expectations register against a wider
//!   mask mid-stream (late-registered shards);
//! * the re-injection pattern: at a barrier, a fresh aligner replaces
//!   the old one, the caller re-registers its pending punctuations by
//!   sequence against the new topology, and each still emits exactly
//!   once;
//! * `observe_seq` reports which ingest instance an observation
//!   resolved, in FIFO order per punctuation.

use punct_exec::{AlignOutcome, Aligner};
use punct_types::{PunctSeq, Punctuation};

fn p(v: i64) -> Punctuation {
    Punctuation::close_value(4, 0, v)
}

fn mask(shards: &[usize]) -> u64 {
    shards.iter().fold(0, |m, s| m | (1 << s))
}

#[test]
fn old_mask_expectations_complete_while_wider_masks_register() {
    let mut a = Aligner::new();
    // In flight before the resize: expectations over shards {0,1}.
    a.expect(p(1), PunctSeq(0), mask(&[0, 1]));
    a.expect(p(2), PunctSeq(1), mask(&[0, 1]));
    assert_eq!(a.observe(0, &p(1)), AlignOutcome::Pending);

    // Resize to four shards: new punctuations target {0,1,2,3} while
    // the old two-shard expectations are still incomplete.
    a.expect(p(3), PunctSeq(2), mask(&[0, 1, 2, 3]));

    // The old expectations complete against their registered masks —
    // the late shards 2 and 3 are not expected to answer for them.
    assert_eq!(a.observe(1, &p(1)), AlignOutcome::Emit);
    assert_eq!(a.observe(1, &p(2)), AlignOutcome::Pending);
    assert_eq!(a.observe(0, &p(2)), AlignOutcome::Emit);

    // The wide expectation needs all four shards.
    assert_eq!(a.observe(0, &p(3)), AlignOutcome::Pending);
    assert_eq!(a.observe(1, &p(3)), AlignOutcome::Pending);
    assert_eq!(a.observe(2, &p(3)), AlignOutcome::Pending);
    assert_eq!(a.observe(3, &p(3)), AlignOutcome::Emit);

    // A late shard answering an old (two-shard) instance is an
    // invariant breach, not a silent double-emit.
    a.expect(p(4), PunctSeq(3), mask(&[0, 1]));
    assert_eq!(a.observe(3, &p(4)), AlignOutcome::Unexpected);
    assert_eq!(a.pending_len(), 1);
}

#[test]
fn drain_and_reregister_emits_exactly_once() {
    // Three punctuations in flight on a two-shard topology; one is
    // half-answered, two untouched. The caller keeps its own record of
    // what is pending, by ingest sequence.
    let pending = [(0, p(1)), (1, p(2)), (2, p(1))];
    let mut a = Aligner::new();
    for (seq, punct) in &pending {
        a.expect(punct.clone(), PunctSeq(*seq), mask(&[0, 1]));
    }
    assert_eq!(a.observe(0, &p(1)), AlignOutcome::Pending);

    // Migration barrier: a fresh aligner replaces the old one, so the
    // partial answers go with it — after the barrier every new shard
    // re-propagates from scratch.
    let mut a = Aligner::new();

    // Post-barrier observations for dropped expectations are flagged,
    // never emitted (no duplicate propagation downstream).
    assert_eq!(a.observe(1, &p(1)), AlignOutcome::Unexpected);

    // Re-register the pending punctuations by sequence against the new
    // three-shard topology and answer them: each emits exactly once,
    // under its own sequence.
    for (seq, punct) in &pending {
        a.expect(punct.clone(), PunctSeq(*seq), mask(&[0, 1, 2]));
    }
    let mut emitted = Vec::new();
    for (_, punct) in &pending {
        for shard in 0..3 {
            if let (AlignOutcome::Emit, Some(seq)) = a.observe_seq(shard, punct) {
                emitted.push(seq.0);
            }
        }
    }
    assert_eq!(emitted, vec![0, 1, 2], "each re-registered punctuation emits exactly once");
    assert_eq!(a.pending_len(), 0);
}

#[test]
fn observe_seq_reports_resolved_instance_in_fifo_order() {
    let mut a = Aligner::new();
    a.expect(p(7), PunctSeq(10), mask(&[0, 1]));
    a.expect(p(7), PunctSeq(11), mask(&[0, 1]));

    // Shard 0 answers both instances: oldest first.
    assert_eq!(a.observe_seq(0, &p(7)), (AlignOutcome::Pending, Some(PunctSeq(10))));
    assert_eq!(a.observe_seq(0, &p(7)), (AlignOutcome::Pending, Some(PunctSeq(11))));
    assert_eq!(a.observe_seq(1, &p(7)), (AlignOutcome::Emit, Some(PunctSeq(10))));
    assert_eq!(a.observe_seq(1, &p(7)), (AlignOutcome::Emit, Some(PunctSeq(11))));
    // Nothing left: unexpected, with no instance.
    assert_eq!(a.observe_seq(1, &p(7)), (AlignOutcome::Unexpected, None));
}
