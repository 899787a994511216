//! Typed snapshot payloads: what goes *inside* the CRC-guarded sections
//! of an epoch file.
//!
//! A [`Snapshot`] is the full durable image of a pipeline at one barrier
//! cut: a META section (topology + input cursor), one RECORDS section
//! per `(shard, side)` holding the stored join records (the complete
//! operator state under the cluster-v1 eager pins, exactly what
//! migration exports), and optional PUNCTSET / ALIGNER sections for
//! drivers whose cuts are not provably empty of punctuation state (the
//! in-process executor). All encodings reuse the `punct_types::wire`
//! primitives, so values, tuples, and punctuations are bit-exact through
//! a round trip — NaN payloads included.
//!
//! Section payload determinism matters: the store's delta encoding
//! compares payload bytes across epochs, so every encoder here iterates
//! in a canonical order (id order, sequence order, sorted values).

use punct_exec::Aligner;
use punct_types::wire::{
    get_punctuation, get_records, get_value, put_bytes, put_punctuation, put_records, put_u32,
    put_u64, put_value,
};
use punct_types::{PunctId, PunctSeq, Pattern, Punctuation, PunctuationSet, Tuple, WireReader};

use crate::format::{RawSection, SectionPayload, SnapshotError};

/// Section kinds used by [`Snapshot`].
pub mod kind {
    /// Topology + stream-cursor metadata (exactly one per epoch).
    pub const META: u8 = 1;
    /// Stored join records for one `(shard, side)`.
    pub const RECORDS: u8 = 2;
    /// A serialized [`punct_types::PunctuationSet`].
    pub const PUNCTSET: u8 = 3;
    /// A serialized [`punct_exec::Aligner`].
    pub const ALIGNER: u8 = 4;
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

/// Serializes a [`PunctuationSet`]: join attribute, every entry ever
/// inserted (tombstones included, id order), and the constant-index
/// image (timing-dependent, so carried rather than derived).
pub fn encode_punct_set(set: &PunctuationSet) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    put_u32(&mut buf, set.join_attr() as u32);
    put_u32(&mut buf, set.total_inserted() as u32);
    for (punctuation, removed) in set.snapshot_entries() {
        buf.push(removed as u8);
        put_punctuation(&mut buf, punctuation);
    }
    let constants = set.snapshot_constants();
    put_u32(&mut buf, constants.len() as u32);
    for (value, id) in &constants {
        put_value(&mut buf, value);
        put_u64(&mut buf, id.0);
    }
    buf
}

/// Restores a [`PunctuationSet`]; the result compares equal to the
/// encoded set. The constant-index image is validated against the
/// restored entries, so a corrupted payload can never produce an index
/// pointing at a tombstoned or mismatched punctuation.
pub fn decode_punct_set(bytes: &[u8]) -> Result<PunctuationSet, SnapshotError> {
    let mut r = WireReader::new(bytes);
    let attr = r.u32("punct set attr")? as usize;
    // An entry is at least a tombstone flag and a punctuation width.
    let count = r.count("punct set entry count", 5)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let removed = match r.u8("punct set tombstone flag")? {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::Corrupt("punct set tombstone flag out of range")),
        };
        entries.push((get_punctuation(&mut r)?, removed));
    }
    // A constant is at least a one-byte value and its id.
    let constant_count = r.count("punct set constant count", 9)?;
    let mut constants = Vec::with_capacity(constant_count);
    for _ in 0..constant_count {
        let value = get_value(&mut r)?;
        constants.push((value, PunctId(r.u64("punct set constant id")?)));
    }
    r.finish()?;
    let set = PunctuationSet::restore(attr, entries, constants.clone());
    for (value, id) in &constants {
        let valid = set
            .get(*id)
            .and_then(|p| p.pattern(attr))
            .is_some_and(|p| *p == Pattern::Constant(value.clone()));
        if !valid {
            return Err(SnapshotError::Corrupt("punct set constant index names a non-constant"));
        }
    }
    Ok(set)
}

/// Serializes an [`Aligner`]: counters plus every pending expectation in
/// ingest-sequence order.
pub fn encode_aligner(aligner: &Aligner) -> Vec<u8> {
    let (registered, emitted, unexpected) = aligner.counters();
    let pending = aligner.snapshot_pending();
    let mut buf = Vec::with_capacity(32 + pending.len() * 24);
    put_u64(&mut buf, registered);
    put_u64(&mut buf, emitted);
    put_u64(&mut buf, unexpected);
    put_u32(&mut buf, pending.len() as u32);
    for (punct, seq, waiting) in &pending {
        put_punctuation(&mut buf, punct);
        put_u64(&mut buf, seq.0);
        put_u64(&mut buf, *waiting);
    }
    buf
}

/// Restores an [`Aligner`]; the result compares equal to the encoded
/// one.
pub fn decode_aligner(bytes: &[u8]) -> Result<Aligner, SnapshotError> {
    let mut r = WireReader::new(bytes);
    let counters = (
        r.u64("aligner registered")?,
        r.u64("aligner emitted")?,
        r.u64("aligner unexpected")?,
    );
    // An expectation is at least a punctuation width, a seq and a mask.
    let count = r.count("aligner pending count", 20)?;
    let mut pending = Vec::with_capacity(count);
    for _ in 0..count {
        let punct = get_punctuation(&mut r)?;
        let seq = PunctSeq(r.u64("aligner seq")?);
        let waiting = r.u64("aligner waiting mask")?;
        if waiting == 0 {
            return Err(SnapshotError::Corrupt("aligner expectation waiting on no shard"));
        }
        pending.push((punct, seq, waiting));
    }
    r.finish()?;
    Ok(Aligner::restore(pending, counters))
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
    /// Serialized punctuation sets, keyed like records (empty when the
    /// driver's cut provably carries none — the cluster case).
    pub punct_sets: Vec<(u64, Vec<u8>)>,
    /// Serialized aligner (None when provably empty at the cut).
    pub aligner: Option<Vec<u8>>,
    /// Input punctuations not fully emitted at the cut.
    pub pending: Vec<PendingPunct>,
}

impl Snapshot {
    /// A snapshot with no punctuation-set or aligner sections — the
    /// cluster shape, where the barrier cut proves both empty.
    pub fn of_records(epoch: u64, meta: SnapshotMeta, mut records: Vec<ShardRecords>) -> Snapshot {
        records.sort_by_key(|r| (r.shard, r.side));
        Snapshot {
            epoch,
            meta,
            records,
            punct_sets: Vec::new(),
            aligner: None,
            pending: Vec::new(),
        }
    }

    /// Flattens into framed sections (inline payloads, canonical order:
    /// META, RECORDS by key, PUNCTSET by key, ALIGNER).
    pub fn to_sections(&self) -> Vec<RawSection> {
        let mut sections = Vec::with_capacity(2 + self.records.len() + self.punct_sets.len());
        sections.push(RawSection {
            kind: kind::META,
            key: 0,
            payload: SectionPayload::Inline(self.meta.encode()),
        });
        for r in &self.records {
            sections.push(RawSection {
                kind: kind::RECORDS,
                key: records_key(r.shard, r.side),
                payload: SectionPayload::Inline(encode_records(&r.records)),
            });
        }
        for (key, blob) in &self.punct_sets {
            sections.push(RawSection {
                kind: kind::PUNCTSET,
                key: *key,
                payload: SectionPayload::Inline(blob.clone()),
            });
        }
        if let Some(blob) = &self.aligner {
            sections.push(RawSection {
                kind: kind::ALIGNER,
                key: 0,
                payload: SectionPayload::Inline(blob.clone()),
            });
        }
        if !self.pending.is_empty() {
            sections.push(RawSection {
                kind: kind::PENDING,
                key: 0,
                payload: SectionPayload::Inline(encode_pending(&self.pending)),
            });
        }
        sections
    }

    /// Rebuilds a snapshot from fully-resolved (inline-only) sections.
    pub fn from_sections(epoch: u64, sections: &[RawSection]) -> Result<Snapshot, SnapshotError> {
        let mut meta = None;
        let mut records = Vec::new();
        let mut punct_sets = Vec::new();
        let mut aligner = None;
        let mut pending: Option<Vec<PendingPunct>> = None;
        for s in sections {
            let SectionPayload::Inline(bytes) = &s.payload else {
                return Err(SnapshotError::Corrupt("unresolved ref section"));
            };
            match s.kind {
                kind::META => {
                    if meta.replace(SnapshotMeta::decode(bytes)?).is_some() {
                        return Err(SnapshotError::Corrupt("duplicate META section"));
                    }
                }
                kind::RECORDS => records.push(ShardRecords {
                    shard: (s.key >> 8) as u32,
                    side: (s.key & 0xFF) as u8,
                    records: decode_records(bytes)?,
                }),
                kind::PUNCTSET => {
                    // Validate eagerly: a corrupt section must fail the
                    // restore, not surface later as a bad set.
                    decode_punct_set(bytes)?;
                    punct_sets.push((s.key, bytes.clone()));
                }
                kind::ALIGNER => {
                    decode_aligner(bytes)?;
                    if aligner.replace(bytes.clone()).is_some() {
                        return Err(SnapshotError::Corrupt("duplicate ALIGNER section"));
                    }
                }
                kind::PENDING => {
                    if pending.replace(decode_pending(bytes)?).is_some() {
                        return Err(SnapshotError::Corrupt("duplicate PENDING section"));
                    }
                }
                other => return Err(SnapshotError::BadSection(other)),
            }
        }
        let meta = meta.ok_or(SnapshotError::Corrupt("missing META section"))?;
        records.sort_by_key(|r: &ShardRecords| (r.shard, r.side));
        Ok(Snapshot {
            epoch,
            meta,
            records,
            punct_sets,
            aligner,
            pending: pending.unwrap_or_default(),
        })
    }

    /// Total stored records across all sections (diagnostics).
    pub fn record_count(&self) -> usize {
        self.records.iter().map(|r| r.records.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use punct_types::{Punctuation, Value};

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
    fn punct_set_round_trip_preserves_equality() {
        let mut set = PunctuationSet::new(0);
        let first = set.insert(Punctuation::close_value(2, 0, 7i64));
        set.insert(Punctuation::close_value(2, 0, 7i64));
        set.insert(Punctuation::on_attr(2, 0, Pattern::int_range(10, 19)));
        let dead = set.insert(Punctuation::on_attr(
            2,
            0,
            Pattern::enumeration(vec![Value::Int(1), Value::Int(3)]),
        ));
        set.remove(dead);
        let restored = decode_punct_set(&encode_punct_set(&set)).unwrap();
        assert_eq!(restored, set);
        assert_eq!(restored.set_match(&Tuple::of((7i64, 0i64))), Some(first));
    }

    #[test]
    fn punct_set_bad_constant_index_rejected() {
        let mut set = PunctuationSet::new(0);
        set.insert(Punctuation::close_value(2, 0, 7i64));
        let mut bytes = encode_punct_set(&set);
        // The constant id is the final u64; point it out of range.
        bytes.truncate(bytes.len() - 8);
        put_u64(&mut bytes, 99);
        assert!(matches!(
            decode_punct_set(&bytes).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn aligner_round_trip_preserves_equality() {
        let mut aligner = Aligner::new();
        aligner.expect(Punctuation::close_value(4, 0, 7i64), PunctSeq(0), 0b11);
        aligner.expect(Punctuation::close_value(4, 0, 7i64), PunctSeq(1), 0b01);
        aligner.expect(Punctuation::close_value(4, 0, 9i64), PunctSeq(2), 0b100);
        aligner.observe(0, &Punctuation::close_value(4, 0, 7i64));
        let restored = decode_aligner(&encode_aligner(&aligner)).unwrap();
        assert_eq!(restored, aligner);
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
        let bytes = encode_punct_set(&{
            let mut s = PunctuationSet::new(0);
            s.insert(Punctuation::close_value(2, 0, 1i64));
            s
        });
        for cut in 0..bytes.len() {
            assert!(decode_punct_set(&bytes[..cut]).is_err(), "cut {cut} must not decode");
        }
        let bytes = encode_aligner(&{
            let mut a = Aligner::new();
            a.expect(Punctuation::close_value(4, 0, 7i64), PunctSeq(0), 1);
            a
        });
        for cut in 0..bytes.len() {
            assert!(decode_aligner(&bytes[..cut]).is_err(), "cut {cut} must not decode");
        }
    }
}
