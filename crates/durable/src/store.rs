//! The on-disk checkpoint directory: epoch files, atomic publication,
//! and bounded retention.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/epoch-000000000042.ckpt   one epoch file (see `format`)
//! <dir>/MANIFEST                  latest *complete* epoch, atomically
//!                                 swapped in after the epoch file lands
//! ```
//!
//! **Atomicity**: an epoch file is written to a `.tmp` sibling, synced,
//! renamed into place and the directory synced; only then is the
//! MANIFEST (same dance) pointed at it. A crash mid-write leaves at worst
//! a stray `.tmp`, which the next [`CheckpointStore::open`] deletes, and
//! a MANIFEST still naming the previous complete epoch — never a
//! manifest naming a partial file.
//!
//! **Self-contained epochs**: every epoch file holds every section of
//! its snapshot inline, so it loads on its own, whatever else is lost.
//! PJoin purges its state as punctuations arrive, so a shard's records
//! are almost never byte-identical at two cuts, and sharing unchanged
//! sections across epochs would save next to nothing.
//!
//! **Retention**: after each commit, epoch files older than the
//! retention window are deleted.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use punct_types::wire::{put_u32, put_u64};
use punct_types::WireReader;

use crate::format::{crc32, read_epoch_file, write_epoch_file, SnapshotError, FORMAT_VERSION, MAGIC};
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
}

/// A directory of checkpoint epochs.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// Complete epochs to keep on disk (≥ 1).
    retain: usize,
    /// The epoch the manifest names: commits must go past it.
    last_epoch: Option<u64>,
    stats: StoreStats,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store directory. Reads only the
    /// MANIFEST: epoch files are read when they are loaded. Deletes the
    /// `.tmp` files a crash between create and rename left behind.
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<CheckpointStore, SnapshotError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name == "MANIFEST.tmp" || (name.starts_with("epoch-") && name.ends_with(".tmp")) {
                fs::remove_file(dir.join(&*name))?;
            }
        }
        let last_epoch = manifest_epoch(&dir)?;
        Ok(CheckpointStore { dir, retain: retain.max(1), last_epoch, stats: StoreStats::default() })
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
        let bytes = write_epoch_file(snapshot.epoch, &snapshot.to_sections());
        write_atomic(&self.epoch_path(snapshot.epoch), &bytes)?;
        write_atomic(&self.dir.join(MANIFEST), &manifest_bytes(snapshot.epoch))?;
        self.stats.epochs += 1;
        self.stats.bytes_written += bytes.len() as u64;
        self.last_epoch = Some(snapshot.epoch);
        self.gc(snapshot.epoch.saturating_sub(self.retain as u64 - 1))
    }

    /// Deletes the epoch files below `oldest_retained`.
    fn gc(&self, oldest_retained: u64) -> Result<(), SnapshotError> {
        for epoch in self.epochs_on_disk()? {
            if epoch < oldest_retained {
                // Best-effort: a GC failure must never fail a commit.
                let _ = fs::remove_file(self.epoch_path(epoch));
            }
        }
        Ok(())
    }

    /// Loads one epoch from its own file.
    pub fn load(&self, epoch: u64) -> Result<Snapshot, SnapshotError> {
        let bytes = fs::read(self.epoch_path(epoch))?;
        let (declared, sections) = read_epoch_file(&bytes)?;
        if declared != epoch {
            return Err(SnapshotError::Corrupt("epoch file declares a different epoch"));
        }
        Snapshot::from_sections(epoch, &sections)
    }

    /// The latest epoch the manifest names, if any.
    pub fn latest(&self) -> Result<Option<u64>, SnapshotError> {
        manifest_epoch(&self.dir)
    }

    /// Loads the latest *loadable* complete epoch: the manifest's epoch,
    /// falling back to older on-disk epochs if the newest fails
    /// validation (e.g. a corrupt or missing file). Returns `None` for
    /// an empty store.
    pub fn latest_complete(&self) -> Result<Option<Snapshot>, SnapshotError> {
        let mut epochs: Vec<u64> = self.latest()?.into_iter().collect();
        for e in self.epochs_on_disk()?.into_iter().rev() {
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

fn manifest_epoch(dir: &Path) -> Result<Option<u64>, SnapshotError> {
    let bytes = match fs::read(dir.join(MANIFEST)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    parse_manifest(&bytes).map(Some)
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
    // The rename is durable only once the directory entry is.
    if let Some(dir) = path.parent() {
        fs::File::open(dir)?.sync_all()?;
    }
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
    fn an_epoch_loads_without_its_predecessor() {
        let dir = tempdir("standalone");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        store.commit(&snap(1, 10, vec![(7, Tuple::of((1i64, 1i64)))])).unwrap();
        // Same records, different cursor: epoch 2 still holds them itself.
        store.commit(&snap(2, 20, vec![(7, Tuple::of((1i64, 1i64)))])).unwrap();
        fs::remove_file(dir.join("epoch-000000000001.ckpt")).unwrap();
        let got = store.latest_complete().unwrap().unwrap();
        assert_eq!(got, snap(2, 20, vec![(7, Tuple::of((1i64, 1i64)))]));
        assert_eq!(got.record_count(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_gc_keeps_the_window() {
        let dir = tempdir("gc");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        for epoch in 1..=6 {
            store.commit(&snap(epoch, epoch * 10, vec![(7, Tuple::of((1i64, 1i64)))])).unwrap();
        }
        assert_eq!(store.epochs_on_disk().unwrap(), vec![5, 6]);
        let got = store.latest_complete().unwrap().unwrap();
        assert_eq!(got.epoch, 6);
        assert_eq!(got.record_count(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_nonzero_section_flag_is_a_typed_error() {
        let dir = tempdir("flag");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        store.commit(&snap(1, 10, vec![])).unwrap();
        // The META section's flag byte, after the 20-byte header and the
        // section's kind and key. 1 marked a ref in earlier builds.
        let path = dir.join("epoch-000000000001.ckpt");
        let clean = fs::read(&path).unwrap();
        for flag in [1, 2, 0xFF] {
            let mut bytes = clean.clone();
            bytes[8 + 4 + 8 + 1 + 8] = flag;
            fs::write(&path, &bytes).unwrap();
            assert!(matches!(store.load(1), Err(SnapshotError::Corrupt(_))));
            assert!(matches!(store.latest_complete(), Err(SnapshotError::Corrupt(_))));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_store_continues_after_the_manifest_epoch() {
        let dir = tempdir("reopen");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        store.commit(&snap(1, 10, vec![])).unwrap();
        drop(store);
        // Opening reads the MANIFEST only: a damaged epoch file does not
        // stop it, and the next commit must still go past epoch 1.
        fs::write(dir.join("epoch-000000000001.ckpt"), b"damaged").unwrap();
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        assert_eq!(store.latest().unwrap(), Some(1));
        assert!(store.commit(&snap(1, 11, vec![])).is_err());
        store.commit(&snap(2, 20, vec![])).unwrap();
        assert_eq!(store.latest_complete().unwrap().unwrap().epoch, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_deletes_stray_tmp_files() {
        let dir = tempdir("stray");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        store.commit(&snap(1, 10, vec![])).unwrap();
        store.commit(&snap(2, 20, vec![(8, Tuple::of((2i64, 2i64)))])).unwrap();
        drop(store);
        // A crash between create and rename: a partial epoch 3 and a
        // partial MANIFEST naming it.
        let strays = [dir.join("epoch-000000000003.tmp"), dir.join("MANIFEST.tmp")];
        fs::write(&strays[0], b"partial epoch").unwrap();
        fs::write(&strays[1], manifest_bytes(3)).unwrap();
        let store = CheckpointStore::open(&dir, 3).unwrap();
        assert!(strays.iter().all(|p| !p.exists()), "stray .tmp files are deleted");
        assert_eq!(store.latest_complete().unwrap().unwrap().epoch, 2);
        assert_eq!(store.epochs_on_disk().unwrap(), vec![1, 2]);
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
