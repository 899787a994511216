//! Punctuation ids: within one operator, and on one stream.
//!
//! A [`PunctId`] identifies a punctuation *within one operator's*
//! punctuation store (the join's `PunctuationIndex`, one per input);
//! once an executor replicates an operator (e.g. a sharded join where
//! every shard keeps its own store), per-store ids of the same stream
//! punctuation diverge across replicas. A [`PunctSeq`] is assigned once
//! at ingest, *before* fan-out, so all replicas — and the alignment
//! layer that merges their propagations — agree on which punctuation
//! instance they are talking about.
//!
//! Sequence ids are per input side: side A's and side B's punctuations
//! are numbered independently, mirroring the paper's treatment of the
//! two punctuation sequences as separate well-formed streams.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Stable identifier of a punctuation within one operator's store.
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

/// Ingest-order sequence number of a punctuation on one input stream.
///
/// Assigned densely from 0 by a [`PunctSeqAssigner`]; never reused.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct PunctSeq(pub u64);

impl fmt::Display for PunctSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Dense sequence-id source for one input stream's punctuations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PunctSeqAssigner {
    next: u64,
}

impl PunctSeqAssigner {
    /// An assigner starting at sequence 0.
    pub fn new() -> PunctSeqAssigner {
        PunctSeqAssigner::default()
    }

    /// Assigns the next sequence id.
    pub fn assign(&mut self) -> PunctSeq {
        let s = PunctSeq(self.next);
        self.next += 1;
        s
    }

    /// Number of ids assigned so far (equals the next id's value).
    pub fn assigned(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assigns_densely_from_zero() {
        let mut a = PunctSeqAssigner::new();
        assert_eq!(a.assign(), PunctSeq(0));
        assert_eq!(a.assign(), PunctSeq(1));
        assert_eq!(a.assigned(), 2);
    }

    #[test]
    fn independent_assigners_do_not_alias() {
        let mut a = PunctSeqAssigner::new();
        let mut b = PunctSeqAssigner::new();
        a.assign();
        assert_eq!(b.assign(), PunctSeq(0));
    }

    #[test]
    fn ordering_and_display() {
        assert!(PunctSeq(1) < PunctSeq(2));
        assert_eq!(PunctSeq(7).to_string(), "s7");
    }
}
