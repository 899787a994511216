//! The on-disk checkpoint directory: epoch files, delta encoding,
//! atomic publication, and bounded retention.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/epoch-000000000042.ckpt   one epoch file (see `format`)
//! <dir>/MANIFEST                  latest *complete* epoch, atomically
//!                                 swapped in after the epoch file lands
//! ```
//!
//! **Atomicity**: an epoch file is written to a `.tmp` sibling and
//! renamed into place; only then is the MANIFEST (same tmp+rename dance)
//! pointed at it. A crash mid-write leaves at worst a stray `.tmp` and a
//! MANIFEST still naming the previous complete epoch — never a manifest
//! naming a partial file.
//!
//! **Delta encoding**: when a section's payload bytes are identical to
//! the previous epoch's, the new file stores a *ref* to the epoch that
//! holds the inline copy (single-hop: refs always name the home epoch,
//! not a chain), so steady-state checkpoints write only changed shards.
//! A ref is re-inlined once its home epoch falls out of the retention
//! window, which keeps every retained epoch loadable after GC.
//!
//! **Retention**: after each commit, epoch files older than the
//! retention window are deleted — except files still serving as ref
//! homes for a retained epoch.

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use punct_types::wire::{put_u32, put_u64};
use punct_types::WireReader;

use crate::format::{
    crc32, read_epoch_file, write_epoch_file, RawSection, SectionPayload, SnapshotError,
    FORMAT_VERSION, MAGIC,
};
use crate::snapshot::Snapshot;

const MANIFEST: &str = "MANIFEST";

/// Cumulative write statistics (for the overhead bench and the
/// zero-writes-when-disabled gate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Complete epochs committed.
    pub epochs: u64,
    /// Bytes written to epoch files (tmp writes included once).
    pub bytes_written: u64,
    /// Sections written inline.
    pub sections_inline: u64,
    /// Sections written as refs to an earlier epoch.
    pub sections_ref: u64,
}

/// Where each (kind, key) payload of the last committed epoch lives.
#[derive(Debug, Clone)]
struct HomeEntry {
    crc: u32,
    len: u32,
    home_epoch: u64,
}

/// A directory of checkpoint epochs.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// Complete epochs to keep on disk (≥ 1).
    retain: usize,
    /// Section homes of the last committed epoch (delta-encoding state;
    /// rebuilt lazily from disk when the store is reopened).
    homes: HashMap<(u8, u64), HomeEntry>,
    last_epoch: Option<u64>,
    stats: StoreStats,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store directory.
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<CheckpointStore, SnapshotError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut store = CheckpointStore {
            dir,
            retain: retain.max(1),
            homes: HashMap::new(),
            last_epoch: None,
            stats: StoreStats::default(),
        };
        // Rebuild delta state from the manifest epoch, if one exists and
        // is loadable; otherwise start deltas from scratch (correct,
        // just less sharing for the first write).
        if let Some(epoch) = store.manifest_epoch()? {
            if let Ok(sections) = store.read_epoch(epoch) {
                store.index_homes(epoch, &sections);
                store.last_epoch = Some(epoch);
            }
        }
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Write statistics so far (this process, this handle).
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    fn epoch_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch-{epoch:012}.ckpt"))
    }

    /// Commits `snapshot` as the next complete epoch. On return the
    /// manifest names it; a crash before return leaves the previous
    /// epoch current.
    pub fn commit(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        if self.last_epoch.is_some_and(|last| snapshot.epoch <= last) {
            return Err(SnapshotError::Corrupt("epochs must be committed in increasing order"));
        }
        let oldest_retained =
            snapshot.epoch.saturating_sub(self.retain as u64 - 1);
        let mut sections = Vec::new();
        let mut homes = HashMap::new();
        let mut inline = 0u64;
        let mut refs = 0u64;
        for section in snapshot.to_sections() {
            let SectionPayload::Inline(bytes) = &section.payload else {
                return Err(SnapshotError::Corrupt("snapshot produced a ref section"));
            };
            let crc = crc32(bytes);
            let len = bytes.len() as u32;
            let id = (section.kind, section.key);
            // Reuse the previous epoch's copy only when the bytes are
            // identical *and* its home file will survive retention.
            let home = self.homes.get(&id).filter(|h| {
                h.crc == crc && h.len == len && h.home_epoch >= oldest_retained
            });
            match home {
                Some(h) => {
                    let home_epoch = h.home_epoch;
                    refs += 1;
                    homes.insert(id, HomeEntry { crc, len, home_epoch });
                    sections.push(RawSection {
                        kind: section.kind,
                        key: section.key,
                        payload: SectionPayload::Ref { home_epoch, crc },
                    });
                }
                None => {
                    inline += 1;
                    homes.insert(id, HomeEntry { crc, len, home_epoch: snapshot.epoch });
                    sections.push(section);
                }
            }
        }
        let bytes = write_epoch_file(snapshot.epoch, &sections);
        let path = self.epoch_path(snapshot.epoch);
        write_atomic(&path, &bytes)?;
        write_atomic(&self.dir.join(MANIFEST), &manifest_bytes(snapshot.epoch))?;
        self.stats.epochs += 1;
        self.stats.bytes_written += bytes.len() as u64;
        self.stats.sections_inline += inline;
        self.stats.sections_ref += refs;
        self.homes = homes;
        self.last_epoch = Some(snapshot.epoch);
        self.gc(snapshot.epoch, oldest_retained)?;
        Ok(())
    }

    /// Deletes epoch files below the retention window, keeping any file
    /// still serving as a ref home for the latest epoch.
    fn gc(&self, latest: u64, oldest_retained: u64) -> Result<(), SnapshotError> {
        let needed: Vec<u64> = self.homes.values().map(|h| h.home_epoch).collect();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(epoch) = parse_epoch_name(&name.to_string_lossy()) else { continue };
            if epoch < oldest_retained && epoch != latest && !needed.contains(&epoch) {
                // Best-effort: a GC failure must never fail a commit.
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    fn index_homes(&mut self, epoch: u64, sections: &[RawSection]) {
        self.homes.clear();
        for s in sections {
            let entry = match &s.payload {
                SectionPayload::Inline(bytes) => HomeEntry {
                    crc: crc32(bytes),
                    len: bytes.len() as u32,
                    home_epoch: epoch,
                },
                SectionPayload::Ref { home_epoch, crc } => {
                    HomeEntry { crc: *crc, len: u32::MAX, home_epoch: *home_epoch }
                }
            };
            self.homes.insert((s.kind, s.key), entry);
        }
    }

    fn manifest_epoch(&self) -> Result<Option<u64>, SnapshotError> {
        let bytes = match fs::read(self.dir.join(MANIFEST)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        parse_manifest(&bytes).map(Some)
    }

    /// Raw sections of one epoch file (refs unresolved).
    fn read_epoch(&self, epoch: u64) -> Result<Vec<RawSection>, SnapshotError> {
        let bytes = fs::read(self.epoch_path(epoch))?;
        let (declared, sections) = read_epoch_file(&bytes)?;
        if declared != epoch {
            return Err(SnapshotError::Corrupt("epoch file declares a different epoch"));
        }
        Ok(sections)
    }

    /// Loads one epoch, resolving delta refs against their home files
    /// (and re-verifying each resolved payload's CRC).
    pub fn load(&self, epoch: u64) -> Result<Snapshot, SnapshotError> {
        let sections = self.read_epoch(epoch)?;
        let mut resolved = Vec::with_capacity(sections.len());
        for s in sections {
            match s.payload {
                SectionPayload::Inline(_) => resolved.push(s),
                SectionPayload::Ref { home_epoch, crc } => {
                    let missing = SnapshotError::MissingBase {
                        epoch: home_epoch,
                        kind: s.kind,
                        key: s.key,
                    };
                    if home_epoch >= epoch {
                        return Err(SnapshotError::Corrupt("ref to a non-earlier epoch"));
                    }
                    let base = self.read_epoch(home_epoch).map_err(|e| match e {
                        SnapshotError::Io(_) => missing,
                        other => other,
                    })?;
                    let Some(found) = base.iter().find(|b| {
                        b.kind == s.kind
                            && b.key == s.key
                            && matches!(&b.payload, SectionPayload::Inline(bytes) if crc32(bytes) == crc)
                    }) else {
                        return Err(SnapshotError::MissingBase {
                            epoch: home_epoch,
                            kind: s.kind,
                            key: s.key,
                        });
                    };
                    resolved.push(RawSection {
                        kind: s.kind,
                        key: s.key,
                        payload: found.payload.clone(),
                    });
                }
            }
        }
        Snapshot::from_sections(epoch, &resolved)
    }

    /// The latest epoch the manifest names, if any.
    pub fn latest(&self) -> Result<Option<u64>, SnapshotError> {
        self.manifest_epoch()
    }

    /// Loads the latest *loadable* complete epoch: the manifest's epoch,
    /// falling back to older on-disk epochs if the newest fails
    /// validation (e.g. a ref whose home was lost). Returns `None` for
    /// an empty store.
    pub fn latest_complete(&self) -> Result<Option<Snapshot>, SnapshotError> {
        let mut epochs: Vec<u64> = Vec::new();
        if let Some(e) = self.manifest_epoch()? {
            epochs.push(e);
        }
        let mut on_disk: Vec<u64> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_epoch_name(&e.file_name().to_string_lossy()))
            .collect();
        on_disk.sort_unstable_by(|a, b| b.cmp(a));
        for e in on_disk {
            if !epochs.contains(&e) {
                epochs.push(e);
            }
        }
        let mut last_err = None;
        for epoch in epochs {
            match self.load(epoch) {
                Ok(snap) => return Ok(Some(snap)),
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            None => Ok(None),
            Some(e) => Err(e),
        }
    }

    /// Epoch numbers currently on disk, ascending (diagnostics/tests).
    pub fn epochs_on_disk(&self) -> Result<Vec<u64>, SnapshotError> {
        let mut out: Vec<u64> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_epoch_name(&e.file_name().to_string_lossy()))
            .collect();
        out.sort_unstable();
        Ok(out)
    }
}

fn parse_epoch_name(name: &str) -> Option<u64> {
    name.strip_prefix("epoch-")?.strip_suffix(".ckpt")?.parse().ok()
}

fn manifest_bytes(epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u64(&mut out, epoch);
    let crc = crc32(&out[12..20]);
    put_u32(&mut out, crc);
    out
}

fn parse_manifest(bytes: &[u8]) -> Result<u64, SnapshotError> {
    if bytes.len() != 24 {
        return Err(SnapshotError::Truncated("manifest"));
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut r = WireReader::new(&bytes[8..]);
    let version = r.u32("manifest version")?;
    if version > FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let epoch = r.u64("manifest epoch")?;
    if crc32(&bytes[12..20]) != r.u32("manifest crc")? {
        return Err(SnapshotError::Crc { kind: 0, key: 0 });
    }
    Ok(epoch)
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use punct_types::Tuple;

    use super::*;
    use crate::snapshot::{ShardRecords, SnapshotMeta};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("punct-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta(cursor: u64) -> SnapshotMeta {
        SnapshotMeta {
            config_blob: vec![1, 2],
            workers: 2,
            shards: 2,
            input_cursor: cursor,
            pushed: cursor,
        }
    }

    fn snap(epoch: u64, cursor: u64, left: Vec<(u64, Tuple)>) -> Snapshot {
        Snapshot::of_records(
            epoch,
            meta(cursor),
            vec![
                ShardRecords { shard: 0, side: 0, records: left },
                ShardRecords { shard: 1, side: 1, records: vec![(1, Tuple::of((9i64, 9i64)))] },
            ],
        )
    }

    #[test]
    fn commit_and_reload_latest() {
        let dir = tempdir("reload");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        assert!(store.latest_complete().unwrap().is_none());
        let s1 = snap(1, 10, vec![(7, Tuple::of((1i64, 1i64)))]);
        store.commit(&s1).unwrap();
        let got = store.latest_complete().unwrap().unwrap();
        assert_eq!(got, s1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unchanged_sections_become_refs_and_still_load() {
        let dir = tempdir("delta");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        store.commit(&snap(1, 10, vec![(7, Tuple::of((1i64, 1i64)))])).unwrap();
        // Same records, different cursor: the two record sections must be
        // refs, only META is re-written inline.
        store.commit(&snap(2, 20, vec![(7, Tuple::of((1i64, 1i64)))])).unwrap();
        assert_eq!(store.stats().sections_ref, 2);
        let got = store.load(2).unwrap();
        assert_eq!(got.meta.input_cursor, 20);
        assert_eq!(got.record_count(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_gc_keeps_ref_homes_loadable() {
        let dir = tempdir("gc");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        for epoch in 1..=6 {
            store.commit(&snap(epoch, epoch * 10, vec![(7, Tuple::of((1i64, 1i64)))])).unwrap();
        }
        // Retention keeps the last 2 epochs plus any ref homes they need.
        let on_disk = store.epochs_on_disk().unwrap();
        assert!(on_disk.contains(&6));
        assert!(on_disk.len() <= 4, "gc left {on_disk:?}");
        let got = store.latest_complete().unwrap().unwrap();
        assert_eq!(got.epoch, 6);
        assert_eq!(got.record_count(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_store_continues_deltas() {
        let dir = tempdir("reopen");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        store.commit(&snap(1, 10, vec![])).unwrap();
        drop(store);
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        store.commit(&snap(2, 20, vec![])).unwrap();
        assert!(store.stats().sections_ref >= 1, "reopen must rebuild delta state");
        assert_eq!(store.latest_complete().unwrap().unwrap().epoch, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_epoch_falls_back_to_older_complete() {
        let dir = tempdir("fallback");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        store.commit(&snap(1, 10, vec![(7, Tuple::of((1i64, 1i64)))])).unwrap();
        store.commit(&snap(2, 20, vec![(8, Tuple::of((2i64, 2i64)))])).unwrap();
        // Flip a byte in epoch 2's file body.
        let path = dir.join("epoch-000000000002.ckpt");
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 20;
        bytes[at] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let got = store.latest_complete().unwrap().unwrap();
        assert_eq!(got.epoch, 1, "must fall back to the older complete epoch");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_epoch_rejected() {
        let dir = tempdir("order");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        store.commit(&snap(5, 10, vec![])).unwrap();
        assert!(store.commit(&snap(5, 11, vec![])).is_err());
        assert!(store.commit(&snap(4, 11, vec![])).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
