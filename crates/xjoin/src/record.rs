//! XJoin's stored-tuple record: a tuple plus its memory-residency
//! interval `[ATS, DTS)`.
//!
//! ATS/DTS are **logical instants** — a counter the operator bumps for
//! every processed element and every reactive disk-join run — rather than
//! virtual-time stamps. Wall/virtual clocks can tie (several events at
//! one instant), and a tie between "probed the state" and "was relocated"
//! makes interval overlap ambiguous, producing duplicate or lost results;
//! a per-event logical clock makes every interval comparison strict.

use punct_types::wire::{get_tuple, put_tuple, put_u64, WireError, WireReader};
use punct_types::Tuple;
use spillstore::Record;

/// A logical instant of the operator's event clock.
pub type Instant = u64;

/// Departure instant meaning "still memory-resident".
pub const DTS_RESIDENT: Instant = Instant::MAX;

/// A stored tuple with XJoin residency instants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XRecord {
    /// The data tuple.
    pub tuple: Tuple,
    /// Arrival instant.
    pub ats: Instant,
    /// Departure instant: set when the tuple's bucket is relocated to
    /// disk; [`DTS_RESIDENT`] while it is still in memory.
    pub dts: Instant,
}

impl XRecord {
    /// A freshly-arrived, memory-resident record.
    pub fn arriving(tuple: Tuple, ats: Instant) -> XRecord {
        XRecord { tuple, ats, dts: DTS_RESIDENT }
    }

    /// True while the record has not been relocated.
    pub fn is_resident(&self) -> bool {
        self.dts == DTS_RESIDENT
    }

    /// True if the memory-residency intervals of `self` and `other`
    /// overlapped — i.e. stage 1 already joined this pair.
    pub fn residency_overlaps(&self, other: &XRecord) -> bool {
        self.ats < other.dts && other.ats < self.dts
    }
}

impl Record for XRecord {
    fn tuple(&self) -> &Tuple {
        &self.tuple
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.ats);
        put_u64(buf, self.dts);
        put_tuple(buf, &self.tuple);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let ats = r.u64("record ats")?;
        let dts = r.u64("record dts")?;
        let tuple = get_tuple(r)?;
        Ok(XRecord { tuple, ats, dts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arriving_is_resident() {
        let r = XRecord::arriving(Tuple::of((1i64,)), 10);
        assert!(r.is_resident());
        assert_eq!(r.ats, 10);
    }

    #[test]
    fn overlap_detection() {
        // a resident [10, ∞), b resident [5, 20): overlap (both in memory
        // during [10, 20)).
        let a = XRecord::arriving(Tuple::of((1i64,)), 10);
        let mut b = XRecord::arriving(Tuple::of((1i64,)), 5);
        b.dts = 20;
        assert!(a.residency_overlaps(&b));
        assert!(b.residency_overlaps(&a));

        // b left memory at 20; c arrived at 25: no overlap.
        let c = XRecord::arriving(Tuple::of((1i64,)), 25);
        assert!(!b.residency_overlaps(&c));
        assert!(!c.residency_overlaps(&b));

        // Boundary: c arrived exactly when b departed — no overlap
        // (intervals are half-open).
        let d = XRecord::arriving(Tuple::of((1i64,)), 20);
        assert!(!b.residency_overlaps(&d));
    }

    #[test]
    fn codec_round_trip() {
        let mut r = XRecord::arriving(Tuple::of((7i64, "x", 2.5)), 123);
        r.dts = 456;
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let back = XRecord::decode(&mut WireReader::new(&buf)).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn resident_dts_round_trips() {
        let r = XRecord::arriving(Tuple::of((1i64,)), 1);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let back = XRecord::decode(&mut WireReader::new(&buf)).unwrap();
        assert!(back.is_resident());
    }
}
