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
            Value::Float(f) => Some(integral(*f).map_or(Value::Float(*f), Value::Int)),
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
    /// The hash is murmur3's 64-bit finalizer (`fmix64`) over one word
    /// of the canonical key — the integer (a float holding an exact
    /// `i64` hashes as that integer, without building the key), the
    /// float's bits, the bool, or a string's little-endian 8-byte words
    /// folded by multiply and rotate — xored with a multiple of the
    /// key's type tag. It is fixed, so every process of a cluster places
    /// a key alike and a restore places it where the checkpoint did.
    /// SipHash-1-3 with its keys pinned, as before, bought no HashDoS
    /// resistance and cost a compression round per word.
    pub fn join_hash(&self) -> Option<u64> {
        let (ty, word) = match self {
            Value::Null => return None,
            Value::Bool(b) => (ValueType::Bool, u64::from(*b)),
            Value::Int(i) => (ValueType::Int, *i as u64),
            Value::Float(f) => match integral(*f) {
                Some(i) => (ValueType::Int, i as u64),
                None => (ValueType::Float, f.to_bits()),
            },
            Value::Str(s) => (ValueType::Str, fold_words(s.as_bytes())),
        };
        Some(fmix64(word ^ (ty as u64).wrapping_mul(GOLDEN)))
    }
}

/// The `i64` a float join-equals exactly (`-0.0` is `0`), if any: the
/// one rule [`Value::join_key`] and [`Value::join_hash`] canonicalize by.
#[inline]
fn integral(f: f64) -> Option<i64> {
    (f.trunc() == f && f >= i64::MIN as f64 && f < i64::MAX as f64).then_some(f as i64)
}

/// 2^64 / φ, odd: the multiplier of [`fold_words`] and of the type tag.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// murmur3's 64-bit finalizer: a bijection on `u64` in which every input
/// bit flips every output bit with probability close to one half.
#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A string's bytes folded into one word: its length, then each
/// little-endian 8-byte word (the tail zero-padded) xored in, multiplied
/// and rotated. Little-endian words make the hash the same on any host.
#[inline]
fn fold_words(bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(bytes.len() as u64, |h, word| {
        (h ^ crate::wire::le_word(word)).wrapping_mul(GOLDEN).rotate_left(29)
    })
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
    /// `join_hash` — every shard and bucket placement — is pinned: a
    /// change here moves keys between shards and buckets, so the
    /// coordinator and its workers must bump the wire version with it.
    #[test]
    fn layout_and_join_hash_pins() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
        assert_eq!(std::mem::size_of::<Option<Value>>(), 16);
        let pins = [
            (Value::Int(7), 0xa59c_30e5_a24e_d8dd),
            (Value::Int(-7), 0x27b3_b082_b5d6_8cf9),
            (Value::Int(2), 0x0d90_97e6_65ee_a7a3),
            (Value::Float(2.0), 0x0d90_97e6_65ee_a7a3),
            (Value::Float(-0.0), 0xd30b_0542_6513_3dd7),
            (Value::Float(2.5), 0x7f3e_80fc_3a6d_c40a),
            (Value::Float(f64::NAN), 0x0a77_5ef8_2646_4c02),
            (Value::Bool(true), 0x25b7_75fa_eca8_f520),
            (Value::Bool(false), 0x9ca0_66f1_a4ab_2eea),
            (Value::str("abc"), 0xc834_87ae_3dfd_3c62),
        ];
        for (v, hash) in pins {
            assert_eq!(v.join_hash(), Some(hash), "{v:?}");
        }
        assert_eq!(Value::from(String::from("abc")).join_hash(), Value::str("abc").join_hash());
        assert_eq!(Value::Null.join_hash(), None);
    }

    #[test]
    fn an_int_and_the_float_holding_it_hash_alike() {
        let edges = [0, 1, -1, 7, 1 << 53, -(1 << 53), (1 << 53) + 2, i64::MIN, i64::MAX >> 11];
        for k in edges {
            assert_eq!(Value::Int(k).join_hash(), Value::Float(k as f64).join_hash(), "{k}");
        }
        assert_eq!(Value::Float(-0.0).join_hash(), Value::Int(0).join_hash());
        // A float with no exact integer keys as its own bits.
        assert_ne!(Value::Float(2.5).join_hash(), Value::Int(2).join_hash());
        assert_ne!(Value::Float(-0.5).join_hash(), Value::Int(0).join_hash());
    }

    /// The string fold reads little-endian words, written out here with
    /// shifts so the expectation does not depend on the host's byte order.
    #[test]
    fn a_string_hashes_from_little_endian_words() {
        let le = |bytes: &[u8]| bytes.iter().rev().fold(0u64, |w, &b| (w << 8) | u64::from(b));
        let fold = |s: &str| {
            s.as_bytes().chunks(8).fold(s.len() as u64, |h, word| {
                (h ^ le(word)).wrapping_mul(GOLDEN).rotate_left(29)
            })
        };
        let str_tag = (ValueType::Str as u64).wrapping_mul(GOLDEN);
        for s in ["", "a", "abcdefgh", "abcdefghi", "key-12345", "héllo wörld, longer than two words"] {
            assert_eq!(Value::str(s).join_hash(), Some(fmix64(str_tag ^ fold(s))), "{s:?}");
        }
        assert_eq!(le(b"ab"), 0x6261);
        // A zero-padded tail does not alias a string with trailing NULs.
        assert_ne!(Value::str("a").join_hash(), Value::str("a\0").join_hash());
    }

    /// Sequential keys — the common case — spread evenly over 2, 4 and 8
    /// shards (high 32 bits) and over 64 buckets (low bits): every slot
    /// within 5 % of its even share, or within four standard deviations
    /// of the binomial noise a uniformly random hash shows where that is
    /// wider. At 1 562 keys per bucket one deviation is 2.5 %, so an
    /// ideal hash misses 5 % on some of 64 buckets in most draws; 4σ
    /// (10 %) it misses on any of them with probability below 0.2 %.
    #[test]
    fn join_hash_spreads_sequential_keys_evenly() {
        const N: i64 = 100_000;
        let ints = (0..N).map(Value::Int);
        let strs = (0..N).map(|i| Value::from(format!("key-{i}")));
        for (name, hashes) in [
            ("ints", ints.map(|v| v.join_hash().unwrap()).collect::<Vec<_>>()),
            ("strings", strs.map(|v| v.join_hash().unwrap()).collect()),
        ] {
            let spread = |slots: u64, slot: &dyn Fn(u64) -> u64| {
                let mut counts = vec![0u64; slots as usize];
                for &h in &hashes {
                    counts[slot(h) as usize] += 1;
                }
                let even = N as f64 / slots as f64;
                let noise = (even * (1.0 - 1.0 / slots as f64)).sqrt() / even;
                let bound = (4.0 * noise).max(0.05);
                let worst = counts.iter().map(|&c| (c as f64 - even).abs() / even).fold(0.0, f64::max);
                assert!(worst <= bound, "{name} over {slots}: {counts:?} ({worst:.3} off even)");
            };
            for shards in [2, 4, 8] {
                spread(shards, &|h| (h >> 32) % shards);
            }
            spread(64, &|h| h % 64);
        }
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::str("ab").to_string(), "\"ab\"");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }
}
