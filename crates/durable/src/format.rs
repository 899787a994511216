//! The on-disk epoch-file framing: magic, format version, CRC-guarded
//! sections, and the typed errors every reader returns instead of
//! panicking.
//!
//! ```text
//! epoch file := MAGIC(8) "PJSNAP01"
//!             | format_version u32le
//!             | epoch u64le
//!             | section*
//!             | END (kind 0xFF) | section_count u32le
//!
//! section    := kind u8 | key u64le | flag u8 (always 0)
//!             | len u32le | crc32 u32le | bytes[len]
//! ```
//!
//! Every section holds its payload inline, so an epoch file is
//! self-contained: it loads without any other file of the store. The
//! flag byte is kept so files stay byte-identical to format version 1;
//! a reader rejects any value but 0 as corrupt.
//!
//! Every validation failure is a [`SnapshotError`]; no reader path
//! panics on untrusted bytes, and no partially-validated section is ever
//! returned.

use std::fmt;
use std::io;

use punct_types::wire::{put_u32, put_u64};
use punct_types::{WireError, WireReader};

/// File magic for epoch snapshot files.
pub const MAGIC: [u8; 8] = *b"PJSNAP01";

/// On-disk format version. Bump on **any** byte-layout change to the
/// file framing or a section payload (see the crate-level rule).
pub const FORMAT_VERSION: u32 = 1;

/// Section terminator kind.
pub const KIND_END: u8 = 0xFF;

const FLAG_INLINE: u8 = 0;

/// Largest accepted section payload (matches the net layer's frame cap).
pub const MAX_SECTION_LEN: usize = 1 << 24;

/// Errors raised while writing or restoring snapshots.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is newer than this reader.
    UnsupportedVersion(u32),
    /// The file ended before the named structure was complete.
    Truncated(&'static str),
    /// A section's payload failed its CRC32 check.
    Crc { kind: u8, key: u64 },
    /// An unknown section kind was encountered.
    BadSection(u8),
    /// A section payload failed wire-level decoding.
    Wire(WireError),
    /// The decoded structure violates a snapshot invariant.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o: {e}"),
            SnapshotError::BadMagic => f.write_str("not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v} (reader knows {FORMAT_VERSION})")
            }
            SnapshotError::Truncated(what) => write!(f, "snapshot truncated reading {what}"),
            SnapshotError::Crc { kind, key } => {
                write!(f, "snapshot section crc mismatch (kind {kind:#x}, key {key:#x})")
            }
            SnapshotError::BadSection(kind) => write!(f, "unknown snapshot section kind {kind:#x}"),
            SnapshotError::Wire(e) => write!(f, "snapshot payload: {e}"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// Running out of bytes is [`SnapshotError::Truncated`], whether in the
/// file framing or inside a payload; every other decode failure is
/// [`SnapshotError::Wire`].
impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> SnapshotError {
        match e {
            WireError::Truncated { what, .. } => SnapshotError::Truncated(what),
            other => SnapshotError::Wire(other),
        }
    }
}

/// CRC32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Nibble-table variant: small enough to build per call without a
    // global, fast enough for checkpoint-sized payloads.
    const TABLE: [u32; 16] = [
        0x0000_0000, 0x1DB7_1064, 0x3B6E_20C8, 0x26D9_30AC, 0x76DC_4190, 0x6B6B_51F4, 0x4DB2_6158,
        0x5005_713C, 0xEDB8_8320, 0xF00F_9344, 0xD6D6_A3E8, 0xCB61_B38C, 0x9B64_C2B0, 0x86D3_D2D4,
        0xA00A_E278, 0xBDBD_F21C,
    ];
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 4) ^ TABLE[((crc ^ b as u32) & 0xF) as usize];
        crc = (crc >> 4) ^ TABLE[((crc ^ (b as u32 >> 4)) & 0xF) as usize];
    }
    !crc
}

/// One section as stored in an epoch file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSection {
    /// Section kind (see [`crate::snapshot::kind`]).
    pub kind: u8,
    /// Section key — kind-specific (e.g. packed `(shard, side)`).
    pub key: u64,
    /// The payload (CRC already verified on read).
    pub bytes: Vec<u8>,
}

/// Serializes an epoch file from framed sections.
pub fn write_epoch_file(epoch: u64, sections: &[RawSection]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u64(&mut out, epoch);
    for s in sections {
        out.push(s.kind);
        put_u64(&mut out, s.key);
        out.push(FLAG_INLINE);
        put_u32(&mut out, s.bytes.len() as u32);
        put_u32(&mut out, crc32(&s.bytes));
        out.extend_from_slice(&s.bytes);
    }
    out.push(KIND_END);
    put_u32(&mut out, sections.len() as u32);
    out
}

/// Parses an epoch file: validates magic, version, per-section CRCs, and
/// the end marker. Returns the declared epoch and the sections.
pub fn read_epoch_file(bytes: &[u8]) -> Result<(u64, Vec<RawSection>), SnapshotError> {
    let mut r = WireReader::new(bytes);
    if r.bytes("magic", MAGIC.len()).map_err(|_| SnapshotError::BadMagic)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32("format version")?;
    if version > FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let epoch = r.u64("epoch")?;
    let mut sections = Vec::new();
    loop {
        let kind = r.u8("section kind")?;
        if kind == KIND_END {
            let count = r.u32("section count")? as usize;
            if count != sections.len() {
                return Err(SnapshotError::Corrupt("section count mismatch at end marker"));
            }
            if r.remaining() != 0 {
                return Err(SnapshotError::Corrupt("trailing bytes after end marker"));
            }
            return Ok((epoch, sections));
        }
        let key = r.u64("section key")?;
        if r.u8("section flag")? != FLAG_INLINE {
            return Err(SnapshotError::Corrupt("unknown section flag"));
        }
        let len = r.u32("section length")? as usize;
        if len > MAX_SECTION_LEN {
            return Err(SnapshotError::Corrupt("section length exceeds cap"));
        }
        let crc = r.u32("section crc")?;
        let body = r.bytes("section payload", len)?;
        if crc32(body) != crc {
            return Err(SnapshotError::Crc { kind, key });
        }
        sections.push(RawSection { kind, key, bytes: body.to_vec() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punct_types::wire::put_u32_at;

    fn sections() -> Vec<RawSection> {
        vec![
            RawSection { kind: 1, key: 0, bytes: vec![1, 2, 3] },
            RawSection { kind: 2, key: 0x0102, bytes: vec![] },
            RawSection { kind: 2, key: 0x0203, bytes: vec![4] },
        ]
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn epoch_file_round_trips() {
        let bytes = write_epoch_file(7, &sections());
        let (epoch, got) = read_epoch_file(&bytes).unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(got, sections());
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let bytes = write_epoch_file(7, &sections());
        for cut in 0..bytes.len() {
            let err = read_epoch_file(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::BadMagic
                        | SnapshotError::Truncated(_)
                        | SnapshotError::Corrupt(_)
                ),
                "cut at {cut} gave {err}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_fails_crc() {
        let mut bytes = write_epoch_file(7, &sections());
        // Flip a byte inside the first section's payload (header is
        // 8 magic + 4 version + 8 epoch; section header 1+8+1+4+4).
        let payload_at = 8 + 4 + 8 + 1 + 8 + 1 + 4 + 4;
        bytes[payload_at] ^= 0x40;
        assert!(matches!(
            read_epoch_file(&bytes).unwrap_err(),
            SnapshotError::Crc { kind: 1, key: 0 }
        ));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = write_epoch_file(7, &sections());
        put_u32_at(&mut bytes, 8, FORMAT_VERSION + 1);
        assert!(matches!(
            read_epoch_file(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = write_epoch_file(7, &sections());
        bytes[0] = b'X';
        assert!(matches!(read_epoch_file(&bytes).unwrap_err(), SnapshotError::BadMagic));
    }
}
