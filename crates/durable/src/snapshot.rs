//! Typed snapshot payloads: what goes *inside* the CRC-guarded sections
//! of an epoch file.
//!
//! A [`Snapshot`] is what one barrier cut produces, and nothing else: a
//! META section (topology + input cursor), one RECORDS section per
//! `(shard, side)` holding the stored join records (the complete
//! operator state under the cluster-v1 eager pins, exactly what
//! migration exports), and a PENDING section with the input
//! punctuations not yet fully emitted. Punctuation sets and aligners
//! are not serialized: a restoring coordinator rebuilds both by re-injecting
//! the pending log through fresh routes. All encodings reuse the
//! `punct_types::wire` primitives, so values, tuples, and punctuations
//! are bit-exact through a round trip — NaN payloads included.
//!
//! Every encoder here iterates in a canonical order (key order, sequence
//! order), so one snapshot always encodes to the same bytes: the format
//! pins and the round-trip tests compare files byte for byte.

use punct_types::wire::{
    get_punctuation, get_records, put_bytes, put_punctuation, put_records, put_u32, put_u64,
};
use punct_types::{Punctuation, Tuple, WireReader};

use crate::format::{RawSection, SnapshotError};

/// Section kinds used by [`Snapshot`]. Kinds 3 and 4 (serialized
/// punctuation sets and aligners) are retired: a reader rejects them.
pub mod kind {
    /// Topology + stream-cursor metadata (exactly one per epoch).
    pub const META: u8 = 1;
    /// Stored join records for one `(shard, side)`.
    pub const RECORDS: u8 = 2;
    /// Input punctuations ingested before the cut but not yet fully
    /// emitted downstream — re-injected with fresh routes on recovery.
    pub const PENDING: u8 = 5;
}

/// Packs a `(shard, side)` into a section key.
pub fn records_key(shard: u32, side: u8) -> u64 {
    ((shard as u64) << 8) | side as u64
}

/// Snapshot metadata: the topology the records were cut under and the
/// input cursor the driver must rewind its sources to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Opaque driver config blob (the cluster stores its
    /// `ShardMapUpdate` config blob: spec + telemetry + heartbeat).
    pub config_blob: Vec<u8>,
    /// Worker count at the cut.
    pub workers: u32,
    /// Shard count at the cut.
    pub shards: u32,
    /// Number of source elements fully covered by this epoch: a resumed
    /// run re-feeds its input from this offset.
    pub input_cursor: u64,
    /// Total elements pushed at the cut (diagnostics).
    pub pushed: u64,
}

impl SnapshotMeta {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32 + self.config_blob.len());
        put_bytes(&mut buf, &self.config_blob);
        put_u32(&mut buf, self.workers);
        put_u32(&mut buf, self.shards);
        put_u64(&mut buf, self.input_cursor);
        put_u64(&mut buf, self.pushed);
        buf
    }

    fn decode(bytes: &[u8]) -> Result<SnapshotMeta, SnapshotError> {
        let mut r = WireReader::new(bytes);
        let meta = SnapshotMeta {
            config_blob: r.blob("meta config blob")?.to_vec(),
            workers: r.u32("meta workers")?,
            shards: r.u32("meta shards")?,
            input_cursor: r.u64("meta input cursor")?,
            pushed: r.u64("meta pushed")?,
        };
        r.finish()?;
        if meta.workers == 0 || meta.shards == 0 {
            return Err(SnapshotError::Corrupt("meta with zero workers or shards"));
        }
        Ok(meta)
    }
}

/// Stored join records of one `(shard, side)`: `(arrival_us, tuple)`
/// pairs, exactly the migration export shape — and the same bytes: a
/// RECORDS section is the `wire::put_records` run a `MigrateState`
/// frame carries.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecords {
    /// Shard index.
    pub shard: u32,
    /// Side index (0 = left, 1 = right).
    pub side: u8,
    /// The records, in stored order.
    pub records: Vec<(u64, Tuple)>,
}

fn encode_records(records: &[(u64, Tuple)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + records.len() * 16);
    put_records(&mut buf, records);
    buf
}

fn decode_records(bytes: &[u8]) -> Result<Vec<(u64, Tuple)>, SnapshotError> {
    let mut r = WireReader::new(bytes);
    let records = get_records(&mut r)?;
    r.finish()?;
    Ok(records)
}

/// One input punctuation still in flight at the cut: its ingest
/// sequence, the side it arrived on (0 = left, 1 = right), and the
/// punctuation in the **input** schema — everything a recovering
/// coordinator needs to re-route it from scratch. Propagation masks are
/// deliberately not recorded: recovered workers are rebuilt from
/// records, so every pending punctuation restarts with a fresh route.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingPunct {
    /// Ingest sequence at the original push.
    pub seq: u64,
    /// Arrival side index (0 = left, 1 = right).
    pub side: u8,
    /// The punctuation as pushed.
    pub punct: Punctuation,
}

/// Serializes the in-flight input punctuations, in ingest-sequence
/// order (the canonical encoding order).
pub fn encode_pending(pending: &[PendingPunct]) -> Vec<u8> {
    let mut sorted: Vec<&PendingPunct> = pending.iter().collect();
    sorted.sort_by_key(|p| p.seq);
    let mut buf = Vec::with_capacity(8 + sorted.len() * 24);
    put_u32(&mut buf, sorted.len() as u32);
    for p in sorted {
        put_u64(&mut buf, p.seq);
        buf.push(p.side);
        put_punctuation(&mut buf, &p.punct);
    }
    buf
}

/// Restores the in-flight input punctuations.
pub fn decode_pending(bytes: &[u8]) -> Result<Vec<PendingPunct>, SnapshotError> {
    let mut r = WireReader::new(bytes);
    // A pending entry is at least a seq, a side and a punctuation width.
    let count = r.count("pending punct count", 13)?;
    let mut pending = Vec::with_capacity(count);
    for _ in 0..count {
        let seq = r.u64("pending punct seq")?;
        let side = r.u8("pending punct side")?;
        if side > 1 {
            return Err(SnapshotError::Corrupt("pending punct side out of range"));
        }
        pending.push(PendingPunct { seq, side, punct: get_punctuation(&mut r)? });
    }
    r.finish()?;
    Ok(pending)
}

/// The full durable image of a pipeline at one barrier cut.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Checkpoint epoch (1-based, strictly increasing per store).
    pub epoch: u64,
    /// Topology + cursor metadata.
    pub meta: SnapshotMeta,
    /// Stored records per `(shard, side)`.
    pub records: Vec<ShardRecords>,
    /// Input punctuations not fully emitted at the cut.
    pub pending: Vec<PendingPunct>,
}

impl Snapshot {
    /// A snapshot of `records` with an empty pending log.
    pub fn of_records(epoch: u64, meta: SnapshotMeta, mut records: Vec<ShardRecords>) -> Snapshot {
        records.sort_by_key(|r| (r.shard, r.side));
        Snapshot { epoch, meta, records, pending: Vec::new() }
    }

    /// Flattens into framed sections (canonical order: META, RECORDS by
    /// key, PENDING).
    pub fn to_sections(&self) -> Vec<RawSection> {
        let mut sections = Vec::with_capacity(2 + self.records.len());
        sections.push(RawSection {
            kind: kind::META,
            key: 0,
            bytes: self.meta.encode(),
        });
        for r in &self.records {
            sections.push(RawSection {
                kind: kind::RECORDS,
                key: records_key(r.shard, r.side),
                bytes: encode_records(&r.records),
            });
        }
        if !self.pending.is_empty() {
            sections.push(RawSection {
                kind: kind::PENDING,
                key: 0,
                bytes: encode_pending(&self.pending),
            });
        }
        sections
    }

    /// Rebuilds a snapshot from its sections.
    pub fn from_sections(epoch: u64, sections: &[RawSection]) -> Result<Snapshot, SnapshotError> {
        let mut meta = None;
        let mut records = Vec::new();
        let mut pending: Option<Vec<PendingPunct>> = None;
        for s in sections {
            match s.kind {
                kind::META => {
                    if meta.replace(SnapshotMeta::decode(&s.bytes)?).is_some() {
                        return Err(SnapshotError::Corrupt("duplicate META section"));
                    }
                }
                kind::RECORDS => {
                    let side = (s.key & 0xFF) as u8;
                    if side > 1 {
                        return Err(SnapshotError::Corrupt("records key side out of range"));
                    }
                    let shard = u32::try_from(s.key >> 8)
                        .map_err(|_| SnapshotError::Corrupt("records key shard out of range"))?;
                    records.push(ShardRecords { shard, side, records: decode_records(&s.bytes)? });
                }
                kind::PENDING => {
                    if pending.replace(decode_pending(&s.bytes)?).is_some() {
                        return Err(SnapshotError::Corrupt("duplicate PENDING section"));
                    }
                }
                other => return Err(SnapshotError::BadSection(other)),
            }
        }
        let meta = meta.ok_or(SnapshotError::Corrupt("missing META section"))?;
        records.sort_by_key(|r: &ShardRecords| (r.shard, r.side));
        Ok(Snapshot { epoch, meta, records, pending: pending.unwrap_or_default() })
    }

    /// Total stored records across all sections (diagnostics).
    pub fn record_count(&self) -> usize {
        self.records.iter().map(|r| r.records.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> SnapshotMeta {
        SnapshotMeta { config_blob: vec![9, 8, 7], workers: 2, shards: 4, input_cursor: 17, pushed: 21 }
    }

    #[test]
    fn snapshot_sections_round_trip() {
        let snap = Snapshot::of_records(
            3,
            meta(),
            vec![
                ShardRecords {
                    shard: 1,
                    side: 0,
                    records: vec![(5, Tuple::of((1i64, 2i64))), (6, Tuple::of((f64::NAN, -0.0)))],
                },
                ShardRecords { shard: 0, side: 1, records: vec![] },
            ],
        );
        let got = Snapshot::from_sections(3, &snap.to_sections()).unwrap();
        // NaN breaks PartialEq on tuples; compare through re-encoding.
        assert_eq!(
            got.to_sections(),
            snap.to_sections(),
            "sections must survive a round trip byte-identically"
        );
        assert_eq!(got.meta, snap.meta);
        assert_eq!(got.record_count(), 2);
    }

    #[test]
    fn out_of_range_records_keys_are_corrupt() {
        // Side 2 of shard 1, and a shard that does not fit in a u32.
        for key in [0x0102, 1 << 40] {
            let mut sections = Snapshot::of_records(1, meta(), vec![]).to_sections();
            sections.push(RawSection {
                kind: kind::RECORDS,
                key,
                bytes: encode_records(&[]),
            });
            assert!(
                matches!(Snapshot::from_sections(1, &sections), Err(SnapshotError::Corrupt(_))),
                "records key {key:#x} must be rejected"
            );
        }
    }

    #[test]
    fn pending_puncts_round_trip_in_seq_order() {
        let pending = vec![
            PendingPunct { seq: 9, side: 1, punct: Punctuation::close_value(2, 0, 4i64) },
            PendingPunct { seq: 2, side: 0, punct: Punctuation::close_value(2, 0, 7i64) },
        ];
        let got = decode_pending(&encode_pending(&pending)).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].seq, got[0].side), (2, 0), "encoded in seq order");
        assert_eq!(got[1].punct, pending[0].punct);
        let mut snap = Snapshot::of_records(1, meta(), vec![]);
        snap.pending = pending;
        let got = Snapshot::from_sections(1, &snap.to_sections()).unwrap();
        assert_eq!(got.pending.len(), 2);
        // Bad side byte is rejected.
        let mut bytes = encode_pending(&snap.pending);
        bytes[12] = 2;
        assert!(matches!(decode_pending(&bytes).unwrap_err(), SnapshotError::Corrupt(_)));
    }

    #[test]
    fn truncated_payloads_are_typed_errors() {
        let bytes = encode_records(&[(5, Tuple::of((1i64, 2i64)))]);
        for cut in 0..bytes.len() {
            assert!(decode_records(&bytes[..cut]).is_err(), "cut {cut} must not decode");
        }
        let bytes = encode_pending(&[PendingPunct {
            seq: 3,
            side: 1,
            punct: Punctuation::close_value(2, 0, 1i64),
        }]);
        for cut in 0..bytes.len() {
            assert!(decode_pending(&bytes[..cut]).is_err(), "cut {cut} must not decode");
        }
    }
}
