//! Immutable, cheaply-cloneable stream tuples.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::TypeError;
use crate::value::Value;

/// A row of attribute [`Value`]s.
///
/// Tuples are immutable and internally reference-counted, so cloning one
/// is a pointer bump. A tuple is a *view* `[start, start + len)` into a
/// block of values it may share with other tuples: an input tuple owns a
/// block of exactly its own values, while join outputs produced together
/// are carved out of one shared block (one allocation per block instead
/// of one per match — see `stream_sim::OpOutput::push_joined`). Equality,
/// ordering, hashing and formatting see the tuple's own values only, so
/// the two kinds are indistinguishable to every reader.
///
/// A view keeps its whole block alive. A consumer that *retains* a join
/// output for long (operator state, a cache, a result set held across
/// many batches) should store [`detached`](Tuple::detached) copies so one
/// survivor cannot pin its neighbours' values; consumers that read and
/// drop outputs need do nothing.
#[derive(Clone, Serialize, Deserialize)]
#[serde(from = "Vec<Value>", into = "Vec<Value>")]
pub struct Tuple {
    block: Arc<[Value]>,
    start: u32,
    len: u32,
}

impl Tuple {
    /// Creates a tuple from values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple::owning(values.into())
    }

    /// A tuple spanning the whole of `block`.
    fn owning(block: Arc<[Value]>) -> Tuple {
        let len = u32::try_from(block.len()).expect("tuple width fits in u32");
        Tuple { block, start: 0, len }
    }

    /// Creates a tuple from anything convertible to values.
    ///
    /// ```
    /// use punct_types::Tuple;
    /// let t = Tuple::of((1i64, "widget", 9.5));
    /// assert_eq!(t.width(), 3);
    /// ```
    pub fn of(row: impl IntoTuple) -> Tuple {
        row.into_tuple()
    }

    /// A tuple over `block[range]`, sharing the block with every other
    /// view of it (callers hand each view its own `Arc::clone`).
    ///
    /// # Panics
    /// If `range` does not lie within `block`, or the block is longer
    /// than `u32::MAX` values.
    // `#[inline]` so a caller building views in a loop writes each one
    // straight into its destination: out of line, the view returns
    // through a stack temporary the caller reloads with wider loads.
    #[inline]
    pub fn view(block: Arc<[Value]>, range: Range<usize>) -> Tuple {
        assert!(
            range.start <= range.end && range.end <= block.len(),
            "view {range:?} outside a block of {} values",
            block.len()
        );
        let end = u32::try_from(range.end).expect("block length fits in u32");
        let start = range.start as u32; // <= end
        Tuple { block, start, len: end - start }
    }

    /// This tuple over a block holding its own values only: `self` when
    /// that is already so (every tuple not built by [`view`](Tuple::view)
    /// — a length compare, no refcount traffic), otherwise a copy of the
    /// values into a fresh block.
    #[inline]
    pub fn detached(self) -> Tuple {
        if self.is_detached() {
            self
        } else {
            Tuple::owning(self.values().into())
        }
    }

    /// Whether the tuple's block holds nothing but its own values.
    #[inline]
    pub fn is_detached(&self) -> bool {
        self.len as usize == self.block.len()
    }

    /// Number of attributes.
    #[inline]
    pub fn width(&self) -> usize {
        self.len as usize
    }

    /// Whether this tuple has no attributes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The values, in attribute order.
    // `#[inline]` here and on the accessors built on it: the slice's
    // panic path makes them non-leaf, so rustc would no longer inline
    // them into other crates by itself, and probes call `get` once per
    // candidate.
    #[inline]
    pub fn values(&self) -> &[Value] {
        let start = self.start as usize;
        &self.block[start..start + self.len as usize]
    }

    /// Value at `index`, if in range.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&Value> {
        self.values().get(index)
    }

    /// Value at `index`, with a typed error when out of range.
    pub fn try_get(&self, index: usize) -> Result<&Value, TypeError> {
        self.get(index)
            .ok_or(TypeError::IndexOutOfRange { index, width: self.width() })
    }

    /// Concatenates two tuples into a tuple of its own block.
    ///
    /// Collects straight into the `Arc<[Value]>` backing store (the
    /// chained slice iterators have a trusted length): one allocation,
    /// one pass. Join operators do not call this — they emit through
    /// `OpOutput::push_joined`, which shares one block among many
    /// outputs.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple::owning(self.values().iter().chain(other.values()).cloned().collect())
    }

    /// Projects the tuple onto the given attribute indices.
    pub fn project(&self, indices: &[usize]) -> Result<Tuple, TypeError> {
        let mut values = Vec::with_capacity(indices.len());
        for &i in indices {
            values.push(self.try_get(i)?.clone());
        }
        Ok(Tuple::new(values))
    }

    /// Approximate in-memory footprint in bytes, used by spill accounting.
    /// Counts the tuple's own values, never the rest of a shared block; a
    /// string value adds its heap header (the `Arc`'s counts and the
    /// `String`) and its bytes.
    pub fn approx_bytes(&self) -> usize {
        const STR_HEADER: usize = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<String>();
        let mut n = std::mem::size_of::<Tuple>();
        for v in self.values() {
            n += std::mem::size_of::<Value>();
            if let Value::Str(s) = v {
                n += STR_HEADER + s.len();
            }
        }
        n
    }
}

// What `#[serde(from, into)]` goes through: a tuple serializes as its own
// values, never as the block it happens to sit in.
impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Tuple {
        Tuple::new(values)
    }
}

impl From<Tuple> for Vec<Value> {
    fn from(t: Tuple) -> Vec<Value> {
        t.values().to_vec()
    }
}

// Identity is the tuple's own values: where they sit in which block is
// not observable.

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Tuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Tuple) -> Ordering {
        self.values().cmp(other.values())
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tuple").field("values", &self.values()).finish()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

/// Conversion of Rust tuples into stream [`Tuple`]s, for test and example
/// ergonomics.
pub trait IntoTuple {
    /// Performs the conversion.
    fn into_tuple(self) -> Tuple;
}

macro_rules! impl_into_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Into<Value>),+> IntoTuple for ($($name,)+) {
            fn into_tuple(self) -> Tuple {
                Tuple::new(vec![$(self.$idx.into()),+])
            }
        }
    };
}

impl_into_tuple!(A: 0);
impl_into_tuple!(A: 0, B: 1);
impl_into_tuple!(A: 0, B: 1, C: 2);
impl_into_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_into_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_into_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_into_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
impl_into_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);

impl IntoTuple for Vec<Value> {
    fn into_tuple(self) -> Tuple {
        Tuple::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tuple::of((7i64, "bolt", 1.25));
        assert_eq!(t.width(), 3);
        assert_eq!(t.get(0), Some(&Value::Int(7)));
        assert_eq!(t.get(1), Some(&Value::str("bolt")));
        assert_eq!(t.get(3), None);
        assert!(t.try_get(3).is_err());
        assert!(!t.is_empty());
    }

    #[test]
    fn concat_preserves_order() {
        let a = Tuple::of((1i64, 2i64));
        let b = Tuple::of(("x", "y"));
        let c = a.concat(&b);
        assert_eq!(c.width(), 4);
        assert_eq!(c.get(2), Some(&Value::str("x")));
    }

    #[test]
    fn project_selects_and_reorders() {
        let t = Tuple::of((10i64, 20i64, 30i64));
        let p = t.project(&[2, 0]).unwrap();
        assert_eq!(p.values(), &[Value::Int(30), Value::Int(10)]);
        assert!(t.project(&[5]).is_err());
    }

    #[test]
    fn clone_is_shallow() {
        let t = Tuple::of((1i64, "a"));
        let u = t.clone();
        assert_eq!(t, u);
        assert!(Arc::ptr_eq(&t.block, &u.block));
    }

    #[test]
    fn view_reads_as_its_own_values_and_detaches() {
        let block: Arc<[Value]> = (0..6i64).map(Value::Int).collect();
        let v = Tuple::view(block.clone(), 2..4);
        let alone = Tuple::of((2i64, 3i64));
        assert_eq!(v, alone);
        assert_eq!(format!("{v:?}"), format!("{alone:?}"));
        assert!(!v.is_detached());
        let d = v.clone().detached();
        assert!(d.is_detached() && d == v && !Arc::ptr_eq(&d.block, &block));
        // Already detached: the same block, not a copy.
        let again = d.clone().detached();
        assert!(Arc::ptr_eq(&again.block, &d.block));
    }

    #[test]
    #[should_panic(expected = "outside a block")]
    fn view_outside_the_block_panics() {
        let block: Arc<[Value]> = vec![Value::Int(1)].into();
        let _ = Tuple::view(block, 0..2);
    }

    #[test]
    fn display_formats() {
        let t = Tuple::of((1i64, "a"));
        assert_eq!(t.to_string(), "(1, \"a\")");
    }

    #[test]
    fn approx_bytes_grows_with_strings() {
        let small = Tuple::of((1i64,));
        let big = Tuple::of(("a long string value that occupies real space",));
        assert!(big.approx_bytes() > small.approx_bytes());
        // An empty string still counts its heap header.
        assert!(Tuple::of(("",)).approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn eq_and_hash_by_value() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Tuple::of((1i64, "a")));
        assert!(set.contains(&Tuple::of((1i64, "a"))));
        assert!(!set.contains(&Tuple::of((2i64, "a"))));
    }
}
