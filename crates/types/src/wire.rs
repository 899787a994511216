//! The workspace's one byte codec.
//!
//! Every byte the system writes goes through here: values, tuples,
//! every one of the five punctuation pattern kinds, punctuations,
//! schemas, stream elements and state-transfer record runs, and the
//! integers around them — net frames, the cluster config blob, telemetry
//! payloads, durable epoch files and spill pages alike. This module is
//! the only place that knows byte order, integer widths, value tags and
//! the count rule. It lives next to the types so that adding a `Value`
//! or `Pattern` variant forces the format to be revisited in the same
//! change.
//!
//! Design rules:
//!
//! * **Little-endian, length-prefixed, tag-discriminated.** Every
//!   variable-length field carries a `u32` length; every enum carries a
//!   leading tag byte. There is no padding and no alignment, so the
//!   encoding is identical across platforms. Writers append to a
//!   caller's `Vec<u8>`; [`WireReader`] is the one cursor that reads.
//! * **Decode never panics.** Malformed input — truncation, unknown
//!   tags, invalid UTF-8, lengths exceeding the remaining buffer —
//!   surfaces as a typed [`WireError`]. Every collection count passes
//!   the count rule ([`WireReader::check_count`]: its entries must fit
//!   in the bytes actually present) *before* any allocation, so a
//!   corrupt count cannot trigger a huge allocation.
//! * **Bit-exact round trips.** Floats are encoded as their IEEE bit
//!   pattern (`f64::to_bits`), so `NaN` payloads and `-0.0` survive
//!   unchanged — the same totality guarantee `Value`'s `Eq` provides.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::pattern::{Bound, Pattern};
use crate::punctuation::Punctuation;
use crate::schema::{Field, Schema};
use crate::stream::{StreamElement, Timestamp, Timestamped};
use crate::tuple::Tuple;
use crate::value::{Value, ValueType};

/// Decoding failure: what was malformed and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the announced structure was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes needed beyond those available.
        needed: usize,
        /// Bytes remaining.
        available: usize,
    },
    /// An enum tag byte was not a known discriminant.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string field did not hold valid UTF-8.
    BadUtf8 {
        /// What was being decoded.
        what: &'static str,
    },
    /// A length field exceeded the protocol's sanity limit.
    TooLarge {
        /// What was being decoded.
        what: &'static str,
        /// The announced length.
        len: usize,
        /// The maximum the decoder accepts.
        max: usize,
    },
    /// Bytes remained after the outermost structure was decoded.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
    },
    /// A decoded quantity lies outside the range its structure allows.
    OutOfRange {
        /// What was being decoded.
        what: &'static str,
        /// The decoded value.
        value: u64,
        /// The smallest value allowed.
        min: u64,
        /// The largest value allowed.
        max: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what, needed, available } => write!(
                f,
                "truncated {what}: needed {needed} more byte(s), {available} available"
            ),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            WireError::BadUtf8 { what } => write!(f, "invalid UTF-8 in {what}"),
            WireError::TooLarge { what, len, max } => {
                write!(f, "{what} length {len} exceeds limit {max}")
            }
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing byte(s) after decoded structure")
            }
            WireError::OutOfRange { what, value, min, max } => {
                write!(f, "{what} {value} outside {min}..={max}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Upper bound on any single announced collection length (attributes,
/// enumeration values, string bytes). Generous for real workloads while
/// keeping a corrupted length from requesting a multi-gigabyte buffer.
pub const MAX_WIRE_LEN: usize = 1 << 24;

// ---------------------------------------------------------------------
// Writer side
// ---------------------------------------------------------------------

/// Appends a little-endian `u16`.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Overwrites the little-endian `u32` at `pos`: a length or count whose
/// room was reserved (with a placeholder [`put_u32`]) before its value
/// was known.
#[inline]
pub fn put_u32_at(buf: &mut [u8], pos: usize, v: u32) {
    buf[pos..pos + 4].copy_from_slice(&v.to_le_bytes());
}

/// Overwrites the little-endian `u64` at `pos` (see [`put_u32_at`]).
#[inline]
pub fn put_u64_at(buf: &mut [u8], pos: usize, v: u64) {
    buf[pos..pos + 8].copy_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` length and then `bytes` (read back by
/// [`WireReader::blob`]).
#[inline]
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Appends a length-prefixed UTF-8 string (read back by
/// [`WireReader::str`]).
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Appends the encoding of a [`Value`].
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(u8::from(*b));
        }
        Value::Int(i) => {
            buf.push(2);
            put_u64(buf, *i as u64);
        }
        Value::Float(x) => {
            buf.push(3);
            put_u64(buf, x.to_bits());
        }
        Value::Str(s) => {
            buf.push(4);
            put_str(buf, s);
        }
    }
}

fn put_bound(buf: &mut Vec<u8>, b: &Bound) {
    match b {
        Bound::Unbounded => buf.push(0),
        Bound::Inclusive(v) => {
            buf.push(1);
            put_value(buf, v);
        }
        Bound::Exclusive(v) => {
            buf.push(2);
            put_value(buf, v);
        }
    }
}

/// Appends the encoding of a [`Pattern`] (all five kinds).
pub fn put_pattern(buf: &mut Vec<u8>, p: &Pattern) {
    match p {
        Pattern::Wildcard => buf.push(0),
        Pattern::Constant(v) => {
            buf.push(1);
            put_value(buf, v);
        }
        Pattern::Range { lo, hi } => {
            buf.push(2);
            put_bound(buf, lo);
            put_bound(buf, hi);
        }
        Pattern::In(vs) => {
            buf.push(3);
            put_u32(buf, vs.len() as u32);
            for v in vs {
                put_value(buf, v);
            }
        }
        Pattern::Empty => buf.push(4),
    }
}

/// Appends the encoding of a [`Tuple`].
#[inline]
pub fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_tuple_values(buf, t.values());
}

/// Appends the encoding of a tuple of exactly `values`, without a
/// [`Tuple`] to hold them.
pub fn put_tuple_values(buf: &mut Vec<u8>, values: &[Value]) {
    put_u32(buf, values.len() as u32);
    for v in values {
        put_value(buf, v);
    }
}

/// Appends the encoding of a [`Punctuation`].
pub fn put_punctuation(buf: &mut Vec<u8>, p: &Punctuation) {
    put_u32(buf, p.width() as u32);
    for pat in p.patterns() {
        put_pattern(buf, pat);
    }
}

/// Appends the encoding of a [`StreamElement`].
pub fn put_element(buf: &mut Vec<u8>, e: &StreamElement) {
    match e {
        StreamElement::Tuple(t) => {
            buf.push(0);
            put_tuple(buf, t);
        }
        StreamElement::Punctuation(p) => {
            buf.push(1);
            put_punctuation(buf, p);
        }
    }
}

/// Appends the encoding of a [`Timestamped<StreamElement>`].
#[inline]
pub fn put_timestamped(buf: &mut Vec<u8>, e: &Timestamped<StreamElement>) {
    put_u64(buf, e.ts.as_micros());
    put_element(buf, &e.item);
}

/// Appends what [`put_timestamped`] writes for a tuple of exactly
/// `values` arriving at `ts`, straight from the values.
#[inline]
pub fn put_timestamped_tuple(buf: &mut Vec<u8>, ts: Timestamp, values: &[Value]) {
    put_u64(buf, ts.as_micros());
    buf.push(0);
    put_tuple_values(buf, values);
}

/// Appends a state-transfer record run, `count u32 | (arrival_us u64,
/// tuple)*`: the body of a `MigrateState` frame and of a snapshot
/// RECORDS section.
pub fn put_records(buf: &mut Vec<u8>, records: &[(u64, Tuple)]) {
    put_u32(buf, records.len() as u32);
    for (arrival_us, tuple) in records {
        put_u64(buf, *arrival_us);
        put_tuple(buf, tuple);
    }
}

/// Appends the encoding of a [`Schema`].
pub fn put_schema(buf: &mut Vec<u8>, s: &Schema) {
    put_u32(buf, s.width() as u32);
    for f in s.fields() {
        put_str(buf, &f.name);
        buf.push(match f.ty {
            ValueType::Null => 0,
            ValueType::Bool => 1,
            ValueType::Int => 2,
            ValueType::Float => 3,
            ValueType::Str => 4,
        });
    }
}

// ---------------------------------------------------------------------
// Reader side
// ---------------------------------------------------------------------

/// Up to 8 bytes read as one little-endian word, zero-padded at the top:
/// the words [`Value::join_hash`](crate::Value::join_hash) folds a
/// string from, so a string hashes alike on any host.
#[inline]
pub fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// A bounds-checked cursor over an encoded byte slice.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current offset into the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Errors unless the reader consumed the buffer exactly.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            count => Err(WireError::TrailingBytes { count }),
        }
    }

    #[inline]
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(self.truncated(what, n));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// The error for `n` bytes that are not there, kept off the inlined
    /// read path.
    #[cold]
    fn truncated(&self, what: &'static str, n: usize) -> WireError {
        WireError::Truncated { what, needed: n - self.remaining(), available: self.remaining() }
    }

    #[inline(always)]
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], WireError> {
        Ok(self.take(N, what)?.try_into().expect("take returns N bytes"))
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Reads a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self, what: &'static str) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.array(what)?))
    }

    /// The count rule: errors unless `count` entries of at least
    /// `min_entry_bytes` each fit in the bytes not yet consumed, and
    /// `count` is within [`MAX_WIRE_LEN`]. Every decoder checks a
    /// collection count this way before sizing anything from it, so a
    /// corrupt count fails instead of reserving room for entries that
    /// are not there.
    pub fn check_count(
        &self,
        what: &'static str,
        count: usize,
        min_entry_bytes: usize,
    ) -> Result<(), WireError> {
        if count > MAX_WIRE_LEN {
            return Err(WireError::TooLarge { what, len: count, max: MAX_WIRE_LEN });
        }
        let floor = count.saturating_mul(min_entry_bytes.max(1));
        if floor > self.remaining() {
            return Err(self.truncated(what, floor));
        }
        Ok(())
    }

    /// Reads a `u32` collection count and holds it to the
    /// [count rule](WireReader::check_count).
    #[inline]
    pub fn count(&mut self, what: &'static str, min_entry_bytes: usize) -> Result<usize, WireError> {
        let count = self.u32(what)? as usize;
        self.check_count(what, count, min_entry_bytes)?;
        Ok(count)
    }

    /// Reads a length-prefixed byte string (written by [`put_bytes`]).
    pub fn blob(&mut self, what: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.count(what, 1)?;
        self.take(len, what)
    }

    /// Reads a length-prefixed UTF-8 string (written by [`put_str`]).
    pub fn str(&mut self, what: &'static str) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.blob(what)?).map_err(|_| WireError::BadUtf8 { what })
    }

    /// Reads exactly `n` raw bytes.
    pub fn bytes(&mut self, what: &'static str, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n, what)
    }
}

/// Decodes a [`Value`].
pub fn get_value(r: &mut WireReader<'_>) -> Result<Value, WireError> {
    match r.u8("value tag")? {
        0 => Ok(Value::Null),
        1 => match r.u8("bool value")? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            tag => Err(WireError::BadTag { what: "bool value", tag }),
        },
        2 => Ok(Value::Int(r.i64("int value")?)),
        3 => Ok(Value::Float(f64::from_bits(r.u64("float value")?))),
        4 => Ok(Value::str(r.str("string value")?)),
        tag => Err(WireError::BadTag { what: "value", tag }),
    }
}

fn get_bound(r: &mut WireReader<'_>) -> Result<Bound, WireError> {
    match r.u8("bound tag")? {
        0 => Ok(Bound::Unbounded),
        1 => Ok(Bound::Inclusive(get_value(r)?)),
        2 => Ok(Bound::Exclusive(get_value(r)?)),
        tag => Err(WireError::BadTag { what: "bound", tag }),
    }
}

/// Decodes a [`Pattern`].
///
/// Enumeration lists are decoded verbatim — the encoder only ever emits
/// normalized (sorted, deduplicated) lists, so a round trip is
/// bit-exact without re-normalizing.
pub fn get_pattern(r: &mut WireReader<'_>) -> Result<Pattern, WireError> {
    match r.u8("pattern tag")? {
        0 => Ok(Pattern::Wildcard),
        1 => Ok(Pattern::Constant(get_value(r)?)),
        2 => {
            let lo = get_bound(r)?;
            let hi = get_bound(r)?;
            Ok(Pattern::Range { lo, hi })
        }
        3 => {
            let len = r.count("enumeration list", 1)?;
            let mut vs = Vec::with_capacity(len);
            for _ in 0..len {
                vs.push(get_value(r)?);
            }
            Ok(Pattern::In(vs))
        }
        4 => Ok(Pattern::Empty),
        tag => Err(WireError::BadTag { what: "pattern", tag }),
    }
}

/// Appends the values of one encoded [`Tuple`] to `values`: the one
/// tuple decoder behind [`get_tuple`], [`get_timestamped_run`] and
/// [`get_records`].
///
/// A stretch of 9-byte `Int` / `Float` values — most tuples are nothing
/// else — costs one bounds check: every whole 9-byte slot the bytes
/// left can hold is checked at once, and the stretch is decoded from
/// those slots until a tag is not `Int` or `Float`. That value, and
/// anything past the slots, goes through [`get_value`], so malformed
/// input fails with the same error at the same offset.
fn get_tuple_values(r: &mut WireReader<'_>, values: &mut Vec<Value>) -> Result<(), WireError> {
    let width = r.count("tuple width", 1)?;
    values.reserve(width);
    let mut left = width;
    while left > 0 {
        let slots = &r.buf[r.pos..r.pos + 9 * left.min(r.remaining() / 9)];
        let stretch = slots.chunks_exact(9).take_while(|slot| matches!(slot[0], 2 | 3)).count();
        values.extend(slots[..9 * stretch].chunks_exact(9).map(fixed_width_value));
        r.pos += 9 * stretch;
        left -= stretch;
        if left > 0 {
            values.push(get_value(r)?);
            left -= 1;
        }
    }
    Ok(())
}

/// The value a 9-byte `slot` tagged `Int` (2) or `Float` (3) encodes.
#[inline(always)]
fn fixed_width_value(slot: &[u8]) -> Value {
    let bits = u64::from_le_bytes(slot[1..9].try_into().expect("a 9-byte slot"));
    if slot[0] == 2 {
        Value::Int(bits as i64)
    } else {
        Value::Float(f64::from_bits(bits))
    }
}

/// Decodes a [`Tuple`].
pub fn get_tuple(r: &mut WireReader<'_>) -> Result<Tuple, WireError> {
    let mut values = Vec::new();
    get_tuple_values(r, &mut values)?;
    Ok(Tuple::new(values))
}

/// Decodes a [`Punctuation`].
pub fn get_punctuation(r: &mut WireReader<'_>) -> Result<Punctuation, WireError> {
    let width = r.count("punctuation width", 1)?;
    let mut patterns = Vec::with_capacity(width);
    for _ in 0..width {
        patterns.push(get_pattern(r)?);
    }
    Ok(Punctuation::new(patterns))
}

/// Decodes a [`StreamElement`].
pub fn get_element(r: &mut WireReader<'_>) -> Result<StreamElement, WireError> {
    match r.u8("element tag")? {
        0 => Ok(StreamElement::Tuple(get_tuple(r)?)),
        1 => Ok(StreamElement::Punctuation(get_punctuation(r)?)),
        tag => Err(WireError::BadTag { what: "element", tag }),
    }
}

/// Decodes a [`Timestamped<StreamElement>`].
pub fn get_timestamped(
    r: &mut WireReader<'_>,
) -> Result<Timestamped<StreamElement>, WireError> {
    let ts = Timestamp::from_micros(r.u64("timestamp")?);
    let item = get_element(r)?;
    Ok(Timestamped::new(ts, item))
}

/// An element of a run, decoded before its tuples' block exists.
enum RunSlot {
    Tuple(Range<usize>),
    Punctuation(Punctuation),
}

/// Decodes `count` consecutive [`Timestamped<StreamElement>`]s — the body
/// of a data frame — with the values of all their tuples in **one**
/// block: every tuple is a [`Tuple::view`] into it, so a run costs at
/// most four allocations however many tuples it holds (plus one per
/// string value, as everywhere), where [`get_timestamped`] costs two per
/// tuple. The bytes are those of `count` calls to [`get_timestamped`],
/// and so are the elements, under every reader `Tuple` has; `count` is
/// held to the [count rule](WireReader::check_count) first.
///
/// The block lives as long as any of its tuples. A receiver that keeps a
/// tuple for long stores it [`detached`](Tuple::detached), as join state
/// does, so one survivor cannot pin its whole run.
pub fn get_timestamped_run(
    r: &mut WireReader<'_>,
    count: usize,
) -> Result<Vec<Timestamped<StreamElement>>, WireError> {
    // An element is at least 13 bytes: timestamp, tag and a width.
    // Values are sized for 9-byte `Int`s: narrower ones only regrow.
    r.check_count("run length", count, 13)?;
    let mut slots = Vec::with_capacity(count);
    let mut values = Vec::with_capacity(r.remaining() / 9);
    for _ in 0..count {
        let ts = Timestamp::from_micros(r.u64("timestamp")?);
        let slot = match r.u8("element tag")? {
            0 => {
                let start = values.len();
                get_tuple_values(r, &mut values)?;
                RunSlot::Tuple(start..values.len())
            }
            1 => RunSlot::Punctuation(get_punctuation(r)?),
            tag => return Err(WireError::BadTag { what: "element", tag }),
        };
        slots.push(Timestamped::new(ts, slot));
    }
    let block: Arc<[Value]> = values.into();
    let element = |slot: RunSlot| match slot {
        RunSlot::Tuple(range) => StreamElement::Tuple(Tuple::view(Arc::clone(&block), range)),
        RunSlot::Punctuation(p) => StreamElement::Punctuation(p),
    };
    Ok(slots.into_iter().map(|e| e.map(element)).collect())
}

/// Decodes a record run written by [`put_records`]. Each tuple is
/// detached (its own allocation), as state that outlives the frame or
/// section it came in.
pub fn get_records(r: &mut WireReader<'_>) -> Result<Vec<(u64, Tuple)>, WireError> {
    // A record is at least 12 bytes: arrival and a tuple width.
    let count = r.count("record count", 12)?;
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let arrival_us = r.u64("record arrival")?;
        records.push((arrival_us, get_tuple(r)?));
    }
    Ok(records)
}

/// Decodes a [`Schema`].
pub fn get_schema(r: &mut WireReader<'_>) -> Result<Schema, WireError> {
    let width = r.count("schema width", 5)?;
    let mut fields = Vec::with_capacity(width);
    for _ in 0..width {
        let name = r.str("field name")?.to_string();
        let ty = match r.u8("field type")? {
            0 => ValueType::Null,
            1 => ValueType::Bool,
            2 => ValueType::Int,
            3 => ValueType::Float,
            4 => ValueType::Str,
            tag => return Err(WireError::BadTag { what: "field type", tag }),
        };
        fields.push(Field::new(name, ty));
    }
    Ok(Schema::new(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_element(e: &StreamElement) {
        let mut buf = Vec::new();
        put_element(&mut buf, e);
        let mut r = WireReader::new(&buf);
        let back = get_element(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        assert_eq!(&back, e);
    }

    #[test]
    fn values_round_trip_bit_exactly() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(1.5),
            Value::str(""),
            Value::str("héllo, wörld"),
        ] {
            let mut buf = Vec::new();
            put_value(&mut buf, &v);
            let mut r = WireReader::new(&buf);
            let back = get_value(&mut r).expect("decode");
            r.finish().expect("consumed");
            // Eq on Value is total (NaN == NaN via total_cmp), and the
            // bits encoding preserves the exact payload.
            assert_eq!(back, v);
            if let (Value::Float(a), Value::Float(b)) = (&v, &back) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn all_pattern_kinds_round_trip() {
        let patterns = vec![
            Pattern::Wildcard,
            Pattern::Empty,
            Pattern::Constant(Value::str("k")),
            Pattern::Range { lo: Bound::Unbounded, hi: Bound::Exclusive(Value::Int(9)) },
            Pattern::Range {
                lo: Bound::Inclusive(Value::Float(0.5)),
                hi: Bound::Unbounded,
            },
            Pattern::In(vec![Value::Int(1), Value::Int(3), Value::str("z")]),
        ];
        for p in &patterns {
            let mut buf = Vec::new();
            put_pattern(&mut buf, p);
            let mut r = WireReader::new(&buf);
            assert_eq!(&get_pattern(&mut r).expect("decode"), p);
            r.finish().expect("consumed");
        }
        roundtrip_element(&StreamElement::Punctuation(Punctuation::new(patterns)));
    }

    #[test]
    fn tuples_and_timestamps_round_trip() {
        roundtrip_element(&StreamElement::Tuple(Tuple::of((1i64, "a", 2.5, true))));
        let e = Timestamped::new(
            Timestamp::from_micros(123_456),
            StreamElement::Tuple(Tuple::of((7i64,))),
        );
        let mut buf = Vec::new();
        put_timestamped(&mut buf, &e);
        let mut r = WireReader::new(&buf);
        assert_eq!(get_timestamped(&mut r).expect("decode"), e);
        r.finish().expect("consumed");

        // Encoding a tuple from its values writes the same bytes.
        let t = Tuple::of((1i64, "a", 2.5, true));
        let e = Timestamped::new(Timestamp(9), StreamElement::Tuple(t.clone()));
        let mut whole = Vec::new();
        put_timestamped(&mut whole, &e);
        let mut from_values = Vec::new();
        put_timestamped_tuple(&mut from_values, Timestamp(9), t.values());
        assert_eq!(from_values, whole);
    }

    #[test]
    fn a_run_decodes_into_one_block() {
        let run = vec![
            Timestamped::new(Timestamp(1), StreamElement::Tuple(Tuple::of((1i64, "a")))),
            Timestamped::new(Timestamp(2), Punctuation::close_value(2, 0, 1).into()),
            Timestamped::new(Timestamp(3), StreamElement::Tuple(Tuple::new(Vec::new()))),
            Timestamped::new(Timestamp(4), StreamElement::Tuple(Tuple::of((2i64, "b")))),
            // A stretch of fixed-width values, then every tag in one tuple.
            Timestamped::new(Timestamp(5), StreamElement::Tuple(Tuple::of((1i64, 2i64, 3i64, 4i64)))),
            Timestamped::new(
                Timestamp(6),
                StreamElement::Tuple(Tuple::new(vec![
                    Value::Int(-5),
                    Value::Float(0.5),
                    Value::Int(i64::MAX),
                    Value::Null,
                    Value::Bool(true),
                    Value::str("z"),
                ])),
            ),
        ];
        let mut buf = Vec::new();
        run.iter().for_each(|e| put_timestamped(&mut buf, e));
        let mut r = WireReader::new(&buf);
        let back = get_timestamped_run(&mut r, run.len()).expect("decode");
        r.finish().expect("consumed");
        assert_eq!(back, run);
        let tuples: Vec<&Tuple> = back.iter().filter_map(|e| e.item.as_tuple()).collect();
        assert!(tuples.iter().all(|t| !t.is_detached()), "views into one block");
        assert_eq!(tuples[0].values().as_ptr_range().end, tuples[2].values().as_ptr());
        for cut in 0..buf.len() {
            let mut r = WireReader::new(&buf[..cut]);
            assert!(get_timestamped_run(&mut r, run.len()).is_err(), "prefix of {cut} bytes");
        }

        // A bad tag inside a stretch of `Int`s: timestamp, element tag and
        // width take 13 bytes, so the third value's tag is byte 31.
        let mut buf = Vec::new();
        put_timestamped(&mut buf, &run[4]);
        buf[31] = 9;
        let mut r = WireReader::new(&buf);
        assert_eq!(
            get_timestamped_run(&mut r, 1),
            Err(WireError::BadTag { what: "value", tag: 9 })
        );
    }

    #[test]
    fn record_runs_round_trip_and_hold_the_count_rule() {
        let records = vec![(7, Tuple::of((1i64, "a"))), (u64::MAX, Tuple::new(Vec::new()))];
        let mut buf = Vec::new();
        put_records(&mut buf, &records);
        let mut r = WireReader::new(&buf);
        assert_eq!(get_records(&mut r).expect("decode"), records);
        r.finish().expect("consumed");
        // A count that 12-byte records could not fill is rejected up front.
        put_u32_at(&mut buf, 0, 4);
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            get_records(&mut r),
            Err(WireError::Truncated { what: "record count", .. })
        ));
    }

    #[test]
    fn schemas_round_trip() {
        let s = Schema::of(&[
            ("item_id", ValueType::Int),
            ("name", ValueType::Str),
            ("price", ValueType::Float),
            ("live", ValueType::Bool),
        ]);
        let mut buf = Vec::new();
        put_schema(&mut buf, &s);
        let mut r = WireReader::new(&buf);
        assert_eq!(get_schema(&mut r).expect("decode"), s);
        r.finish().expect("consumed");
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_element(&mut buf, &StreamElement::Tuple(Tuple::of((1i64, "abc"))));
        for cut in 0..buf.len() {
            let mut r = WireReader::new(&buf[..cut]);
            assert!(get_element(&mut r).is_err(), "prefix of {cut} bytes must fail");
        }
    }

    #[test]
    fn bogus_tags_are_errors() {
        let mut r = WireReader::new(&[9u8]);
        assert!(matches!(get_value(&mut r), Err(WireError::BadTag { tag: 9, .. })));
        let mut r = WireReader::new(&[7u8]);
        assert!(matches!(get_pattern(&mut r), Err(WireError::BadTag { tag: 7, .. })));
        let mut r = WireReader::new(&[3u8]);
        assert!(matches!(get_element(&mut r), Err(WireError::BadTag { tag: 3, .. })));
    }

    #[test]
    fn corrupt_length_cannot_request_huge_allocation() {
        // A tuple claiming 2^32-1 attributes with no bytes behind it.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        let mut r = WireReader::new(&buf);
        match get_tuple(&mut r) {
            Err(WireError::TooLarge { .. }) | Err(WireError::Truncated { .. }) => {}
            other => panic!("expected length rejection, got {other:?}"),
        }
        // A string claiming more bytes than remain.
        let mut buf = vec![4u8]; // Str tag
        put_u32(&mut buf, 1000);
        buf.extend_from_slice(b"short");
        let mut r = WireReader::new(&buf);
        assert!(matches!(get_value(&mut r), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut buf = vec![4u8]; // Str tag
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut r = WireReader::new(&buf);
        assert!(matches!(get_value(&mut r), Err(WireError::BadUtf8 { .. })));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Int(1));
        buf.push(0xAA);
        let mut r = WireReader::new(&buf);
        get_value(&mut r).expect("value decodes");
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { count: 1 }));
    }
}
