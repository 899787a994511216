//! Work accounting and the virtual-time cost model.
//!
//! Operators count what they *do* ([`Work`]); a [`CostModel`] prices each
//! unit of work in nanoseconds of virtual time. The driver charges the
//! priced work to the operator's busy clock. This separation keeps
//! operators free of timing policy and makes every experiment
//! deterministic and replayable.

use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// Counters of the primitive operations an operator performed.
///
/// All counters are "units of work", not time; see [`CostModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Work {
    /// Hash computations over join keys.
    pub hashes: u64,
    /// Key-index lookups (one per keyed probe, and one per closed value
    /// of a keyed purge or keyed index build).
    pub key_lookups: u64,
    /// Stored tuples examined while probing a bucket.
    pub probe_cmps: u64,
    /// Tuples inserted into the join state.
    pub inserts: u64,
    /// Result tuples constructed and emitted.
    pub outputs: u64,
    /// Stored tuples examined by a purge scan.
    pub purge_scanned: u64,
    /// Tuples actually removed by purge.
    pub purged: u64,
    /// Pattern evaluations performed by punctuation-index building: per
    /// candidate of a keyed build, per tuple and new punctuation of a
    /// scanning one.
    pub index_evals: u64,
    /// Punctuations ingested (bookkeeping overhead per punctuation).
    pub puncts_processed: u64,
    /// Punctuations propagated to the output.
    pub puncts_propagated: u64,
    /// Pages read from the disk portion of the state.
    pub pages_read: u64,
    /// Pages written (state relocation).
    pub pages_written: u64,
}

impl Work {
    /// The zero work.
    pub const ZERO: Work = Work {
        hashes: 0,
        key_lookups: 0,
        probe_cmps: 0,
        inserts: 0,
        outputs: 0,
        purge_scanned: 0,
        purged: 0,
        index_evals: 0,
        puncts_processed: 0,
        puncts_propagated: 0,
        pages_read: 0,
        pages_written: 0,
    };

    /// True if every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == Work::ZERO
    }

    /// Sum of all counters — a crude "operations" total used by tests.
    pub fn total_ops(&self) -> u64 {
        self.hashes
            + self.key_lookups
            + self.probe_cmps
            + self.inserts
            + self.outputs
            + self.purge_scanned
            + self.purged
            + self.index_evals
            + self.puncts_processed
            + self.puncts_propagated
            + self.pages_read
            + self.pages_written
    }
}

impl Add for Work {
    type Output = Work;
    fn add(self, rhs: Work) -> Work {
        Work {
            hashes: self.hashes + rhs.hashes,
            key_lookups: self.key_lookups + rhs.key_lookups,
            probe_cmps: self.probe_cmps + rhs.probe_cmps,
            inserts: self.inserts + rhs.inserts,
            outputs: self.outputs + rhs.outputs,
            purge_scanned: self.purge_scanned + rhs.purge_scanned,
            purged: self.purged + rhs.purged,
            index_evals: self.index_evals + rhs.index_evals,
            puncts_processed: self.puncts_processed + rhs.puncts_processed,
            puncts_propagated: self.puncts_propagated + rhs.puncts_propagated,
            pages_read: self.pages_read + rhs.pages_read,
            pages_written: self.pages_written + rhs.pages_written,
        }
    }
}

impl AddAssign for Work {
    fn add_assign(&mut self, rhs: Work) {
        *self = *self + rhs;
    }
}

/// Saturating field-wise difference — used by the profiler to attribute
/// the work performed between two snapshots of a running accumulator.
impl Sub for Work {
    type Output = Work;
    fn sub(self, rhs: Work) -> Work {
        Work {
            hashes: self.hashes.saturating_sub(rhs.hashes),
            key_lookups: self.key_lookups.saturating_sub(rhs.key_lookups),
            probe_cmps: self.probe_cmps.saturating_sub(rhs.probe_cmps),
            inserts: self.inserts.saturating_sub(rhs.inserts),
            outputs: self.outputs.saturating_sub(rhs.outputs),
            purge_scanned: self.purge_scanned.saturating_sub(rhs.purge_scanned),
            purged: self.purged.saturating_sub(rhs.purged),
            index_evals: self.index_evals.saturating_sub(rhs.index_evals),
            puncts_processed: self.puncts_processed.saturating_sub(rhs.puncts_processed),
            puncts_propagated: self.puncts_propagated.saturating_sub(rhs.puncts_propagated),
            pages_read: self.pages_read.saturating_sub(rhs.pages_read),
            pages_written: self.pages_written.saturating_sub(rhs.pages_written),
        }
    }
}

/// Prices [`Work`] in virtual nanoseconds.
///
/// Defaults approximate a Java-1.4-on-Pentium-IV era implementation (the
/// paper's testbed): roughly a microsecond per tuple comparison and
/// ten milliseconds per disk page. Only *relative* costs matter for
/// reproducing the figures' shapes; the experiment harness documents any
/// per-experiment overrides.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// ns per join-key hash.
    pub hash_ns: u64,
    /// ns per key-index lookup.
    pub key_lookup_ns: u64,
    /// ns per stored tuple examined during a probe.
    pub probe_cmp_ns: u64,
    /// ns per tuple insert.
    pub insert_ns: u64,
    /// ns per result tuple constructed.
    pub output_ns: u64,
    /// ns per stored tuple examined by a purge scan.
    pub purge_scan_ns: u64,
    /// ns per tuple removed by purge.
    pub purged_ns: u64,
    /// ns per pattern evaluation during index building.
    pub index_eval_ns: u64,
    /// ns of fixed overhead per ingested punctuation.
    pub punct_overhead_ns: u64,
    /// ns per propagated punctuation.
    pub propagate_ns: u64,
    /// ns per disk page read.
    pub page_read_ns: u64,
    /// ns per disk page written.
    pub page_write_ns: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            hash_ns: 400,
            key_lookup_ns: 500,
            probe_cmp_ns: 1_000,
            insert_ns: 1_200,
            output_ns: 2_000,
            purge_scan_ns: 600,
            purged_ns: 1_000,
            index_eval_ns: 800,
            punct_overhead_ns: 2_000,
            propagate_ns: 1_500,
            page_read_ns: 10_000_000,
            page_write_ns: 10_000_000,
        }
    }
}

impl CostModel {
    /// A model where everything is free — useful for functional tests that
    /// only care about operator outputs.
    pub fn free() -> CostModel {
        CostModel {
            hash_ns: 0,
            key_lookup_ns: 0,
            probe_cmp_ns: 0,
            insert_ns: 0,
            output_ns: 0,
            purge_scan_ns: 0,
            purged_ns: 0,
            index_eval_ns: 0,
            punct_overhead_ns: 0,
            propagate_ns: 0,
            page_read_ns: 0,
            page_write_ns: 0,
        }
    }

    /// Prices `work` in nanoseconds of virtual time.
    pub fn nanos(&self, work: &Work) -> u64 {
        work.hashes * self.hash_ns
            + work.key_lookups * self.key_lookup_ns
            + work.probe_cmps * self.probe_cmp_ns
            + work.inserts * self.insert_ns
            + work.outputs * self.output_ns
            + work.purge_scanned * self.purge_scan_ns
            + work.purged * self.purged_ns
            + work.index_evals * self.index_eval_ns
            + work.puncts_processed * self.punct_overhead_ns
            + work.puncts_propagated * self.propagate_ns
            + work.pages_read * self.page_read_ns
            + work.pages_written * self.page_write_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_work_is_zero() {
        assert!(Work::ZERO.is_zero());
        assert_eq!(Work::ZERO.total_ops(), 0);
        assert!(!Work { inserts: 1, ..Work::ZERO }.is_zero());
    }

    #[test]
    fn addition_is_fieldwise() {
        let a = Work { hashes: 1, probe_cmps: 2, ..Work::ZERO };
        let b = Work { hashes: 10, outputs: 5, ..Work::ZERO };
        let c = a + b;
        assert_eq!(c.hashes, 11);
        assert_eq!(c.probe_cmps, 2);
        assert_eq!(c.outputs, 5);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn subtraction_is_saturating_fieldwise() {
        let a = Work { hashes: 10, outputs: 5, ..Work::ZERO };
        let b = Work { hashes: 3, outputs: 9, probe_cmps: 4, ..Work::ZERO };
        let d = a - b;
        assert_eq!(d.hashes, 7);
        assert_eq!(d.outputs, 0, "saturates instead of underflowing");
        assert_eq!(d.probe_cmps, 0);
        assert_eq!(a - Work::ZERO, a);
    }

    #[test]
    fn pricing_multiplies_units() {
        let m = CostModel { probe_cmp_ns: 100, output_ns: 50, ..CostModel::free() };
        let w = Work { probe_cmps: 3, outputs: 2, ..Work::ZERO };
        assert_eq!(m.nanos(&w), 400);
    }

    #[test]
    fn key_lookups_are_priced() {
        let m = CostModel { key_lookup_ns: 7, ..CostModel::free() };
        let w = Work { key_lookups: 3, ..Work::ZERO };
        assert_eq!(m.nanos(&w), 21);
        assert_eq!(w.total_ops(), 3);
        assert!(!w.is_zero());
    }

    #[test]
    fn free_model_prices_nothing() {
        let w = Work { probe_cmps: 1_000, pages_read: 9, ..Work::ZERO };
        assert_eq!(CostModel::free().nanos(&w), 0);
    }

    #[test]
    fn default_makes_io_dominant() {
        let m = CostModel::default();
        let io = Work { pages_read: 1, ..Work::ZERO };
        let cpu = Work { probe_cmps: 100, ..Work::ZERO };
        assert!(m.nanos(&io) > 10 * m.nanos(&cpu), "a page read must dwarf 100 comparisons");
    }
}
