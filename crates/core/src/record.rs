//! PJoin's stored-tuple record (paper Fig. 2(b), less the `pid`: the
//! punctuation index counts stored tuples by join value instead): the
//! tuple and its memory-residency interval for disk-join duplicate
//! prevention.

use punct_types::wire::{get_tuple, put_tuple, put_u64, WireError, WireReader};
use punct_types::Tuple;
use spillstore::Record;

/// A logical instant of the operator's event clock (see `crate::dedup`).
pub type Instant = u64;

/// Departure instant meaning "still probe-able in memory".
pub const DTS_RESIDENT: Instant = Instant::MAX;

/// A stored tuple with PJoin metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PRecord {
    /// The data tuple.
    pub tuple: Tuple,
    /// Arrival instant.
    pub ats: Instant,
    /// Instant the tuple stopped being probe-able (relocated to disk or
    /// moved to the purge buffer); [`DTS_RESIDENT`] while probe-able.
    pub dts: Instant,
    /// Arrival *virtual time* in microseconds — used by the sliding-window
    /// extension (§6) to expire tuples; unrelated to the logical `ats`.
    pub arrival_us: u64,
}

impl PRecord {
    /// A freshly-arrived, memory-resident record.
    pub fn arriving(tuple: Tuple, ats: Instant) -> PRecord {
        PRecord { tuple, ats, dts: DTS_RESIDENT, arrival_us: 0 }
    }

    /// Like [`arriving`](Self::arriving) with the arrival virtual time
    /// recorded (sliding-window configurations).
    pub fn arriving_at(tuple: Tuple, ats: Instant, arrival_us: u64) -> PRecord {
        PRecord { tuple, ats, dts: DTS_RESIDENT, arrival_us }
    }

    /// True while the record is probe-able in memory.
    pub fn is_resident(&self) -> bool {
        self.dts == DTS_RESIDENT
    }

    /// True if the probe-ability intervals of `self` and `other`
    /// overlapped — i.e. the memory join already produced this pair.
    pub fn residency_overlaps(&self, other: &PRecord) -> bool {
        self.ats < other.dts && other.ats < self.dts
    }
}

impl Record for PRecord {
    fn tuple(&self) -> &Tuple {
        &self.tuple
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.ats);
        put_u64(buf, self.dts);
        put_u64(buf, self.arrival_us);
        put_tuple(buf, &self.tuple);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let ats = r.u64("record ats")?;
        let dts = r.u64("record dts")?;
        let arrival_us = r.u64("record arrival")?;
        let tuple = get_tuple(r)?;
        Ok(PRecord { tuple, ats, dts, arrival_us })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arriving_defaults() {
        let r = PRecord::arriving(Tuple::of((1i64,)), 5);
        assert!(r.is_resident());
        assert_eq!(r.ats, 5);
    }

    #[test]
    fn overlap_matches_xjoin_semantics() {
        let a = PRecord::arriving(Tuple::of((1i64,)), 10);
        let mut b = PRecord::arriving(Tuple::of((1i64,)), 5);
        b.dts = 20;
        assert!(a.residency_overlaps(&b));
        let c = PRecord::arriving(Tuple::of((1i64,)), 20);
        assert!(!b.residency_overlaps(&c));
    }

    #[test]
    fn codec_round_trips() {
        let r = PRecord { tuple: Tuple::of((7i64, "x")), ats: 1, dts: 2, arrival_us: 777 };
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(PRecord::decode(&mut WireReader::new(&buf)).unwrap(), r);
    }

    #[test]
    fn truncated_decode_errors() {
        let r = PRecord::arriving(Tuple::of((1i64,)), 1);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert!(PRecord::decode(&mut WireReader::new(&buf[..10])).is_err());
    }
}
