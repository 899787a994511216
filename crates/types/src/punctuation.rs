//! Punctuations: ordered sets of patterns embedded into data streams.
//!
//! A punctuation `p` asserts that **no tuple arriving after `p`** matches
//! `p` — formally, viewing `p` as a predicate, every later stream element
//! evaluates to `false` under it (paper §2.2). The elements *before* the
//! punctuation may match or not.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::TypeError;
use crate::pattern::Pattern;
use crate::tuple::Tuple;
use crate::value::Value;

/// An ordered set of [`Pattern`]s, one per attribute of the stream schema.
///
/// Punctuations are immutable and cheap to clone.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Punctuation {
    patterns: Arc<[Pattern]>,
}

impl Punctuation {
    /// Creates a punctuation from per-attribute patterns.
    pub fn new(patterns: Vec<Pattern>) -> Punctuation {
        Punctuation { patterns: patterns.into() }
    }

    /// Creates a punctuation from per-attribute patterns collected
    /// straight into its shared slice: one allocation when the iterator's
    /// length is known exactly (a mapped range, a slice iterator).
    pub fn from_patterns(patterns: impl IntoIterator<Item = Pattern>) -> Punctuation {
        Punctuation { patterns: patterns.into_iter().collect() }
    }

    /// A punctuation of width `width` that constrains only attribute
    /// `attr` with `pattern`; all other attributes are wildcards.
    ///
    /// This is the common shape for join-attribute punctuations (the paper
    /// "only focus\[es\] on exploiting punctuations over the join attribute").
    pub fn on_attr(width: usize, attr: usize, pattern: Pattern) -> Punctuation {
        debug_assert!(attr < width, "attribute index within width");
        let mut patterns = vec![Pattern::Wildcard; width];
        patterns[attr] = pattern;
        Punctuation::new(patterns)
    }

    /// Shorthand: close a single constant key value on `attr`.
    pub fn close_value(width: usize, attr: usize, value: impl Into<Value>) -> Punctuation {
        Punctuation::on_attr(width, attr, Pattern::Constant(value.into()))
    }

    /// Number of attribute patterns.
    pub fn width(&self) -> usize {
        self.patterns.len()
    }

    /// The patterns in attribute order.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Pattern for attribute `attr`, if in range.
    pub fn pattern(&self, attr: usize) -> Option<&Pattern> {
        self.patterns.get(attr)
    }

    /// True if tuple `t` matches this punctuation, i.e. every attribute
    /// value matches the corresponding pattern (the paper's `match(t, p)`).
    ///
    /// Returns an error if arities differ.
    pub fn try_matches(&self, t: &Tuple) -> Result<bool, TypeError> {
        if t.width() != self.width() {
            return Err(TypeError::ArityMismatch { expected: self.width(), found: t.width() });
        }
        Ok(self.patterns.iter().zip(t.values()).all(|(p, v)| p.matches(v)))
    }

    /// Infallible variant of [`Punctuation::try_matches`]; arity mismatches
    /// simply do not match. Operators on validated streams use this on the
    /// hot path.
    pub fn matches(&self, t: &Tuple) -> bool {
        self.width() == t.width()
            && self.patterns.iter().zip(t.values()).all(|(p, v)| p.matches(v))
    }

    /// Conjunction of two punctuations: attribute-wise `and` of the
    /// patterns. Per the paper, the `and` of two punctuations is again a
    /// punctuation.
    pub fn and(&self, other: &Punctuation) -> Result<Punctuation, TypeError> {
        if self.width() != other.width() {
            return Err(TypeError::ArityMismatch {
                expected: self.width(),
                found: other.width(),
            });
        }
        Ok(Punctuation::new(
            self.patterns
                .iter()
                .zip(other.patterns.iter())
                .map(|(a, b)| a.and(b))
                .collect(),
        ))
    }

    /// True if this punctuation matches no tuple at all (some attribute
    /// pattern is empty).
    pub fn is_empty(&self) -> bool {
        self.patterns.iter().any(Pattern::is_empty)
    }

    /// True if every tuple matched by `self` is matched by `other`.
    ///
    /// This attribute-wise check is sound (if every attribute pattern is
    /// subsumed, the punctuation is subsumed) and exact for non-empty
    /// punctuations of this crate's pattern language.
    pub fn subsumed_by(&self, other: &Punctuation) -> bool {
        self.width() == other.width()
            && (self.is_empty()
                || self
                    .patterns
                    .iter()
                    .zip(other.patterns.iter())
                    .all(|(a, b)| a.subsumed_by(b)))
    }

    /// The paper's well-formedness assumption for join-attribute
    /// punctuation sequences: for `p_i` arriving before `p_j`, their join
    /// attribute patterns satisfy `Ptn_i ∧ Ptn_j = ∅` or
    /// `Ptn_i ∧ Ptn_j = Ptn_i`. Returns true when `self` (earlier) and
    /// `other` (later) satisfy the assumption on attribute `attr`.
    pub fn compatible_on(&self, other: &Punctuation, attr: usize) -> bool {
        match (self.pattern(attr), other.pattern(attr)) {
            (Some(a), Some(b)) => {
                let both = a.and(b);
                both.is_empty() || both == *a
            }
            _ => false,
        }
    }
}

impl fmt::Display for Punctuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("<")?;
        for (i, p) in self.patterns.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{p}")?;
        }
        f.write_str(">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Bound;

    fn t(vals: (i64, &str, i64)) -> Tuple {
        Tuple::of(vals)
    }

    #[test]
    fn on_attr_builds_wildcards_elsewhere() {
        let p = Punctuation::on_attr(3, 1, Pattern::Constant(Value::str("x")));
        assert_eq!(p.width(), 3);
        assert_eq!(p.pattern(0), Some(&Pattern::Wildcard));
        assert_eq!(p.pattern(2), Some(&Pattern::Wildcard));
    }

    #[test]
    fn matches_all_attributes() {
        let p = Punctuation::new(vec![
            Pattern::Constant(Value::Int(1)),
            Pattern::Wildcard,
            Pattern::int_range(0, 100),
        ]);
        assert!(p.matches(&t((1, "anything", 50))));
        assert!(!p.matches(&t((2, "anything", 50))));
        assert!(!p.matches(&t((1, "anything", 500))));
    }

    #[test]
    fn try_matches_checks_arity() {
        let p = Punctuation::close_value(2, 0, 7i64);
        assert!(p.try_matches(&Tuple::of((7i64, "x", 1i64))).is_err());
        assert!(p.try_matches(&Tuple::of((7i64, "x"))).unwrap());
        // Infallible variant treats arity mismatch as non-match.
        assert!(!p.matches(&Tuple::of((7i64, "x", 1i64))));
    }

    #[test]
    fn and_is_attributewise() {
        let a = Punctuation::new(vec![Pattern::int_range(0, 10), Pattern::Wildcard]);
        let b = Punctuation::new(vec![Pattern::int_range(5, 20), Pattern::Constant(Value::str("k"))]);
        let c = a.and(&b).unwrap();
        assert_eq!(c.pattern(0), Some(&Pattern::int_range(5, 10)));
        assert_eq!(c.pattern(1), Some(&Pattern::Constant(Value::str("k"))));
    }

    #[test]
    fn and_rejects_arity_mismatch() {
        let a = Punctuation::new(vec![Pattern::Wildcard]);
        let b = Punctuation::new(vec![Pattern::Wildcard, Pattern::Wildcard]);
        assert!(a.and(&b).is_err());
    }

    #[test]
    fn empty_detection() {
        let p = Punctuation::new(vec![Pattern::Wildcard, Pattern::Empty]);
        assert!(p.is_empty());
        assert!(!Punctuation::new(vec![Pattern::Wildcard]).is_empty());
    }

    #[test]
    fn subsumption() {
        let narrow = Punctuation::close_value(2, 0, 5i64);
        let wide = Punctuation::on_attr(2, 0, Pattern::int_range(0, 10));
        assert!(narrow.subsumed_by(&wide));
        assert!(!wide.subsumed_by(&narrow));
        let empty = Punctuation::new(vec![Pattern::Empty, Pattern::Constant(Value::Int(1))]);
        assert!(empty.subsumed_by(&narrow));
    }

    #[test]
    fn paper_compatibility_assumption() {
        // Disjoint constants: compatible.
        let p1 = Punctuation::close_value(1, 0, 1i64);
        let p2 = Punctuation::close_value(1, 0, 2i64);
        assert!(p1.compatible_on(&p2, 0));
        // Nested ranges where earlier is contained in later: compatible.
        let narrow = Punctuation::on_attr(1, 0, Pattern::int_range(3, 4));
        let wide = Punctuation::on_attr(1, 0, Pattern::int_range(0, 10));
        assert!(narrow.compatible_on(&wide, 0));
        // Partially overlapping ranges: incompatible.
        let a = Punctuation::on_attr(1, 0, Pattern::int_range(0, 5));
        let b = Punctuation::on_attr(1, 0, Pattern::int_range(3, 8));
        assert!(!a.compatible_on(&b, 0));
    }

    #[test]
    fn display() {
        let p = Punctuation::new(vec![
            Pattern::Wildcard,
            Pattern::Constant(Value::Int(42)),
            Pattern::Range { lo: Bound::Inclusive(Value::Int(1)), hi: Bound::Unbounded },
            Pattern::Empty,
        ]);
        assert_eq!(p.to_string(), "<*, 42, [1,..), ->");
    }
}
