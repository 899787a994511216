//! Dynamically-typed values used as tuple attributes and join keys.
//!
//! Stream operators hash and compare attribute values, so [`Value`]
//! implements `Eq`, `Ord` and `Hash` with a *total* order: values of
//! different types order by their [`ValueType`] tag first, and floats use a
//! total ordering (`f64::total_cmp`) so `NaN` is handled deterministically.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// The type tag of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ValueType {
    /// The null type (only inhabited by `Value::Null`).
    Null,
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float (totally ordered via `total_cmp`).
    Float,
    /// UTF-8 string (reference counted; cloning is cheap).
    Str,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Null => "null",
            ValueType::Bool => "bool",
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Str => "str",
        };
        f.write_str(s)
    }
}

/// A dynamically-typed attribute value.
///
/// `Value` is the unit of comparison for equi-joins and pattern matching.
/// It is two words and cheap to clone. The tag takes a full word
/// (`repr(u64)`), so every payload sits at offset 8 and a clone of a
/// non-string value is two 8-byte moves (a one-byte tag puts the payload
/// at offset 1, which the compiler copies through overlapping narrow
/// stores that store-to-load forwarding cannot serve). Strings are
/// `Arc<String>`, a thin pointer (`Arc<str>` is fat and would make the
/// enum three words); building one costs two allocations, the `String`'s
/// buffer and the `Arc`, or one when it adopts a `String` the caller holds.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[repr(u64)]
pub enum Value {
    /// Absent / unknown value. Joins never match on `Null`.
    Null,
    /// Boolean value.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. Ordered with `f64::total_cmp` so `Value` is `Ord`.
    Float(f64),
    /// UTF-8 string.
    Str(Arc<String>),
}

impl Value {
    /// Returns the type tag of this value.
    pub fn type_of(&self) -> ValueType {
        match self {
            Value::Null => ValueType::Null,
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
        }
    }

    /// True if this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Constructs a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::new(s.as_ref().to_owned()))
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float payload, if this is a `Float` (does not coerce ints).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Returns the numeric payload as `f64`, coercing `Int` to `Float`.
    pub fn as_numeric(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Compares two values for *join equality*.
    ///
    /// This is ordinary equality except that `Null` never equals anything
    /// (including `Null`), matching SQL join semantics. Equality across
    /// `Int`/`Float` coerces numerically so `Int(2)` join-equals
    /// `Float(2.0)`.
    pub fn join_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => false,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            _ => self == other,
        }
    }

    /// Canonical hash key for [`join_eq`](Value::join_eq)-based lookup
    /// structures: values that join-equal each other map to the same key
    /// wherever an exact key exists.
    ///
    /// - `Null` returns `None` — it can never satisfy `join_eq`, so
    ///   callers skip indexing/probing it entirely.
    /// - `Float`s holding an exactly representable `i64` (including
    ///   `-0.0`) canonicalize to `Int`, so `Int(2)` and `Float(2.0)`
    ///   collide as `join_eq` requires. Other floats (fractional, huge,
    ///   `NaN`) key as themselves, matching `join_eq`'s fallback to
    ///   bitwise (`total_cmp`) equality for same-type floats.
    ///
    /// One caveat inherited from `join_eq` itself: an `Int` beyond 2^53
    /// can `join_eq` a `Float` through `as f64` rounding while their
    /// keys differ. Such pairs were never discoverable through the
    /// hash-partitioned store either, so keyed lookups do not regress
    /// them.
    pub fn join_key(&self) -> Option<Value> {
        match self {
            Value::Null => None,
            Value::Float(f)
                if f.trunc() == *f && *f >= i64::MIN as f64 && *f < i64::MAX as f64 =>
            {
                Some(Value::Int(*f as i64))
            }
            other => Some(other.clone()),
        }
    }

    /// The canonical join-key hash — the **single** hash every layer of
    /// the partitioned data path derives its placement from: the sharded
    /// router takes the high 32 bits for shard selection, the per-shard
    /// store takes `hash % buckets` for bucketing (decorrelated moduli).
    /// Computed once per tuple at the router and carried downstream so
    /// no layer re-hashes.
    ///
    /// `None` mirrors [`join_key`](Value::join_key): the value can never
    /// satisfy `join_eq`, and callers park it on shard/bucket 0.
    ///
    /// Hashing goes through one shared (zero-sized) `BuildHasher` whose
    /// `DefaultHasher` keys are fixed, so the result is bit-identical to
    /// the historical `DefaultHasher::new()` + `Hash` + `finish()`
    /// sequence the router and store each used to run independently —
    /// every existing shard and bucket assignment is preserved.
    pub fn join_hash(&self) -> Option<u64> {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::BuildHasher;
        let canonical = self.join_key()?;
        Some(BuildHasherDefault::<DefaultHasher>::default().hash_one(&canonical))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            // Cross-type numeric comparison keeps Int(2) < Float(2.5) sensible
            // for range patterns over mixed numeric streams.
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            _ => self.type_of().cmp(&other.type_of()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash must agree with Eq: Int/Float that are numerically equal under
        // `join_eq` are distinct under `Eq`, so hashing the tag is fine.
        self.type_of().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(x) => x.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            // Debug formatting keeps a decimal point (`-8.0`, not `-8`),
            // so the punctuation grammar round-trips floats as floats.
            Value::Float(x) => write!(f, "{x:?}"),
            Value::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::new(s))
    }
}

/// A small deterministic hasher for maps keyed by [`Value`]: each word
/// that [`Value`]'s `Hash` writes (type tag, then payload) is folded in
/// with a rotate, xor and multiply, and `finish` rotates the well-mixed
/// high bits down to where the table takes its bucket index. SipHash
/// with random keys costs several times as much per key; these maps hold
/// operator-internal join values, and the store's bucket hash
/// ([`Value::join_hash`]) is deterministic already.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValueHasher {
    hash: u64,
}

impl ValueHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for ValueHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            self.add(tail.iter().fold(0u64, |acc, &b| (acc << 8) | u64::from(b)));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A hash map keyed by [`Value`] under [`ValueHasher`].
pub type ValueMap<V> = std::collections::HashMap<Value, V, BuildHasherDefault<ValueHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn value_hasher_is_deterministic_and_keeps_types_apart() {
        let hash = |v: &Value| {
            let mut h = ValueHasher::default();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&Value::Int(7)), hash(&Value::Int(7)));
        assert_ne!(hash(&Value::Int(7)), hash(&Value::Int(8)));
        assert_ne!(hash(&Value::Int(1)), hash(&Value::Float(f64::from_bits(1))));
        assert_ne!(hash(&Value::str("abcdefghi")), hash(&Value::str("abcdefghj")));
        let map: ValueMap<i64> = (0..1000).map(|i| (Value::Int(i), i)).collect();
        assert!((0..1000).all(|i| map.get(&Value::Int(i)) == Some(&i)));
        assert_eq!(map.get(&Value::Float(1.0)), None);
    }

    #[test]
    fn type_tags() {
        assert_eq!(Value::Null.type_of(), ValueType::Null);
        assert_eq!(Value::Bool(true).type_of(), ValueType::Bool);
        assert_eq!(Value::Int(1).type_of(), ValueType::Int);
        assert_eq!(Value::Float(1.0).type_of(), ValueType::Float);
        assert_eq!(Value::str("x").type_of(), ValueType::Str);
    }

    #[test]
    fn equality_within_types() {
        assert_eq!(Value::Int(7), Value::Int(7));
        assert_ne!(Value::Int(7), Value::Int(8));
        assert_eq!(Value::str("a"), Value::str("a"));
        assert_ne!(Value::str("a"), Value::str("b"));
        assert_eq!(Value::Float(1.5), Value::Float(1.5));
    }

    #[test]
    fn equality_across_types_is_false() {
        assert_ne!(Value::Int(1), Value::Float(1.0));
        assert_ne!(Value::Int(0), Value::Bool(false));
        assert_ne!(Value::str("1"), Value::Int(1));
    }

    #[test]
    fn join_eq_null_never_matches() {
        assert!(!Value::Null.join_eq(&Value::Null));
        assert!(!Value::Null.join_eq(&Value::Int(1)));
        assert!(!Value::Int(1).join_eq(&Value::Null));
    }

    #[test]
    fn join_eq_coerces_numerics() {
        assert!(Value::Int(2).join_eq(&Value::Float(2.0)));
        assert!(Value::Float(2.0).join_eq(&Value::Int(2)));
        assert!(!Value::Int(2).join_eq(&Value::Float(2.5)));
    }

    #[test]
    fn join_key_canonicalizes_join_equal_values() {
        // Values that join_eq each other share a key.
        assert_eq!(Value::Int(2).join_key(), Value::Float(2.0).join_key());
        assert_eq!(Value::Float(-0.0).join_key(), Some(Value::Int(0)));
        // Unjoinable values have no key.
        assert_eq!(Value::Null.join_key(), None);
        // Fractional and out-of-i64-range floats key as themselves.
        assert_eq!(Value::Float(2.5).join_key(), Some(Value::Float(2.5)));
        assert_eq!(Value::Float(1e20).join_key(), Some(Value::Float(1e20)));
        // NaN keys as itself: join_eq accepts same-bits NaN (total_cmp)
        // and the bitwise hash of Float preserves exactly that.
        assert_eq!(Value::Float(f64::NAN).join_key(), Some(Value::Float(f64::NAN)));
        // Non-numerics pass through.
        assert_eq!(Value::str("k").join_key(), Some(Value::str("k")));
        assert_eq!(Value::Bool(true).join_key(), Some(Value::Bool(true)));
    }

    #[test]
    fn nan_is_deterministic() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn ordering_is_total_across_types() {
        let mut vs = [
            Value::str("z"),
            Value::Int(3),
            Value::Null,
            Value::Float(-1.0),
            Value::Bool(true),
        ];
        vs.sort();
        // Null < Bool < numerics < Str per ValueType ordering (numerics
        // compare cross-type numerically).
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[4], Value::str("z"));
    }

    #[test]
    fn mixed_numeric_ordering() {
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn hash_agrees_with_eq() {
        assert_eq!(hash_of(&Value::Int(42)), hash_of(&Value::Int(42)));
        assert_eq!(hash_of(&Value::str("abc")), hash_of(&Value::str("abc")));
        // Not required by the Hash contract but desirable: distinct values
        // usually hash differently.
        assert_ne!(hash_of(&Value::Int(1)), hash_of(&Value::Int(2)));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Float(0.5).as_float(), Some(0.5));
        assert_eq!(Value::Int(5).as_numeric(), Some(5.0));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("hi").as_int(), None);
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(0.25), Value::Float(0.25));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from("s".to_string()), Value::str("s"));
        // A `String` is adopted, not copied.
        let owned = String::from("adopted");
        let at = owned.as_ptr();
        assert_eq!(Value::from(owned).as_str().map(str::as_ptr), Some(at));
    }

    /// `Value` is two words and `Option<Value>` uses a spare tag, and
    /// `join_hash` — every shard and bucket placement — does not depend on
    /// the layout: the pins are the numbers of the one-byte-tag,
    /// `Arc<str>` layout.
    #[test]
    fn layout_and_join_hash_pins() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
        assert_eq!(std::mem::size_of::<Option<Value>>(), 16);
        let pins = [
            (Value::Int(7), 0x2d82_a040_feab_3b08),
            (Value::Int(-7), 0x0c62_f89c_dd44_3ae0),
            (Value::Int(2), 0x5ebf_8b44_23da_c078),
            (Value::Float(2.0), 0x5ebf_8b44_23da_c078),
            (Value::Float(-0.0), 0x9efc_058f_0609_8283),
            (Value::Float(2.5), 0x2fcf_ff6a_91e2_596d),
            (Value::Float(f64::NAN), 0x0151_9f2d_c006_28ed),
            (Value::Bool(true), 0xc926_504f_a831_3a74),
            (Value::Bool(false), 0xdc58_fdc2_e5c5_babe),
            (Value::str("abc"), 0x7d4c_5cf1_ddd4_e93f),
        ];
        for (v, hash) in pins {
            assert_eq!(v.join_hash(), Some(hash), "{v:?}");
        }
        assert_eq!(Value::from(String::from("abc")).join_hash(), Some(0x7d4c_5cf1_ddd4_e93f));
        assert_eq!(Value::Null.join_hash(), None);
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::str("ab").to_string(), "\"ab\"");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }
}
