//! The five punctuation pattern kinds of the paper (§2.2): wildcard,
//! constant, range, enumeration list and empty — with `matches` and `and`
//! (conjunction) semantics.
//!
//! A pattern describes a set of attribute values. The conjunction (`and`)
//! of any two patterns is again a pattern, which the paper relies on to
//! combine punctuations.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::TypeError;
use crate::value::Value;

/// One endpoint of a range pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Bound {
    /// Unbounded endpoint.
    Unbounded,
    /// Inclusive endpoint.
    Inclusive(Value),
    /// Exclusive endpoint.
    Exclusive(Value),
}

impl Bound {
    /// True if `v` satisfies this bound interpreted as a *lower* bound.
    pub fn admits_from_below(&self, v: &Value) -> bool {
        match self {
            Bound::Unbounded => true,
            Bound::Inclusive(b) => v >= b,
            Bound::Exclusive(b) => v > b,
        }
    }

    /// True if `v` satisfies this bound interpreted as an *upper* bound.
    pub fn admits_from_above(&self, v: &Value) -> bool {
        match self {
            Bound::Unbounded => true,
            Bound::Inclusive(b) => v <= b,
            Bound::Exclusive(b) => v < b,
        }
    }

    /// Picks the tighter of two lower bounds.
    fn tighter_lower(a: &Bound, b: &Bound) -> Bound {
        match (a, b) {
            (Bound::Unbounded, x) | (x, Bound::Unbounded) => x.clone(),
            (Bound::Inclusive(x), Bound::Inclusive(y)) => {
                Bound::Inclusive(std::cmp::max(x, y).clone())
            }
            (Bound::Exclusive(x), Bound::Exclusive(y)) => {
                Bound::Exclusive(std::cmp::max(x, y).clone())
            }
            (Bound::Inclusive(x), Bound::Exclusive(y))
            | (Bound::Exclusive(y), Bound::Inclusive(x)) => {
                if y >= x {
                    Bound::Exclusive(y.clone())
                } else {
                    Bound::Inclusive(x.clone())
                }
            }
        }
    }

    /// Picks the tighter of two upper bounds.
    fn tighter_upper(a: &Bound, b: &Bound) -> Bound {
        match (a, b) {
            (Bound::Unbounded, x) | (x, Bound::Unbounded) => x.clone(),
            (Bound::Inclusive(x), Bound::Inclusive(y)) => {
                Bound::Inclusive(std::cmp::min(x, y).clone())
            }
            (Bound::Exclusive(x), Bound::Exclusive(y)) => {
                Bound::Exclusive(std::cmp::min(x, y).clone())
            }
            (Bound::Inclusive(x), Bound::Exclusive(y))
            | (Bound::Exclusive(y), Bound::Inclusive(x)) => {
                if y <= x {
                    Bound::Exclusive(y.clone())
                } else {
                    Bound::Inclusive(x.clone())
                }
            }
        }
    }
}

/// A punctuation pattern over a single attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pattern {
    /// `*` — matches every value.
    Wildcard,
    /// A single constant — matches exactly that value.
    Constant(Value),
    /// A (possibly half-open) interval — matches values within the bounds.
    Range {
        /// Lower endpoint.
        lo: Bound,
        /// Upper endpoint.
        hi: Bound,
    },
    /// An enumeration list — matches any of the listed values.
    /// The list is kept sorted and deduplicated so equality is structural.
    In(Vec<Value>),
    /// `-` — the empty pattern; matches nothing.
    Empty,
}

impl Pattern {
    /// Builds a normalized enumeration-list pattern. A singleton list
    /// normalizes to a [`Pattern::Constant`] and an empty list to
    /// [`Pattern::Empty`].
    pub fn enumeration(mut values: Vec<Value>) -> Pattern {
        values.sort();
        values.dedup();
        match values.len() {
            0 => Pattern::Empty,
            1 => Pattern::Constant(values.pop().expect("len checked")),
            _ => Pattern::In(values),
        }
    }

    /// Builds a validated range pattern. Returns an error when the lower
    /// bound exceeds the upper one; a degenerate `[v, v]` normalizes to
    /// a constant.
    pub fn range(lo: Bound, hi: Bound) -> Result<Pattern, TypeError> {
        if let (Bound::Inclusive(a) | Bound::Exclusive(a), Bound::Inclusive(b) | Bound::Exclusive(b)) =
            (&lo, &hi)
        {
            if a > b {
                return Err(TypeError::InvalidRange(format!("lower bound {a} exceeds upper {b}")));
            }
            if a == b {
                return Ok(match (&lo, &hi) {
                    (Bound::Inclusive(v), Bound::Inclusive(_)) => Pattern::Constant(v.clone()),
                    // [v,v) or (v,v] or (v,v) are all empty.
                    _ => Pattern::Empty,
                });
            }
        }
        Ok(Pattern::Range { lo, hi })
    }

    /// Convenience: the inclusive integer range `[lo, hi]`.
    pub fn int_range(lo: i64, hi: i64) -> Pattern {
        Pattern::range(Bound::Inclusive(Value::Int(lo)), Bound::Inclusive(Value::Int(hi)))
            .expect("lo <= hi ranges are valid")
    }

    /// True if the pattern matches value `v`.
    ///
    /// `Null` values match only the wildcard: a punctuation about specific
    /// values never speaks about unknown ones.
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            Pattern::Wildcard => true,
            Pattern::Empty => false,
            _ if v.is_null() => false,
            Pattern::Constant(c) => c == v,
            Pattern::Range { lo, hi } => lo.admits_from_below(v) && hi.admits_from_above(v),
            // Exact membership, as for a constant: `Ord` ties an `Int`
            // with the numerically equal `Float`, so a tie is not enough.
            Pattern::In(vs) => {
                let from = vs.partition_point(|x| x < v);
                vs[from..].iter().take_while(|&x| x <= v).any(|x| x == v)
            }
        }
    }

    /// True if this pattern matches no value at all.
    ///
    /// This is syntactic for `Empty` and enumeration lists; range emptiness
    /// is detected for fully-bounded ranges.
    pub fn is_empty(&self) -> bool {
        match self {
            Pattern::Empty => true,
            Pattern::In(vs) => vs.is_empty(),
            Pattern::Range { lo, hi } => match (lo, hi) {
                (
                    Bound::Inclusive(a) | Bound::Exclusive(a),
                    Bound::Inclusive(b) | Bound::Exclusive(b),
                ) => {
                    a > b
                        || (a == b
                            && !matches!((lo, hi), (Bound::Inclusive(_), Bound::Inclusive(_))))
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// Conjunction of two patterns: the pattern matching exactly the values
    /// both operands match. Per the paper, "the *and* of any two
    /// punctuations is also a punctuation"; this is the attribute-wise core
    /// of that operation.
    pub fn and(&self, other: &Pattern) -> Pattern {
        use Pattern::*;
        match (self, other) {
            (Wildcard, p) | (p, Wildcard) => p.clone(),
            (Empty, _) | (_, Empty) => Empty,
            (Constant(a), Constant(b)) => {
                if a == b {
                    Constant(a.clone())
                } else {
                    Empty
                }
            }
            (Constant(c), p) | (p, Constant(c)) => {
                if p.matches(c) {
                    Constant(c.clone())
                } else {
                    Empty
                }
            }
            (In(vs), p @ (In(_) | Range { .. })) | (p @ Range { .. }, In(vs)) => {
                Pattern::enumeration(vs.iter().filter(|v| p.matches(v)).cloned().collect())
            }
            (Range { lo: l1, hi: h1 }, Range { lo: l2, hi: h2 }) => {
                let lo = Bound::tighter_lower(l1, l2);
                let hi = Bound::tighter_upper(h1, h2);
                let candidate = Range { lo, hi };
                if candidate.is_empty() {
                    Empty
                } else {
                    candidate
                }
            }
        }
    }

    /// True if every value matched by `self` is also matched by `other`
    /// (i.e. `self ∧ other = self`). Used to check the paper's assumption
    /// that successive punctuations on the join attribute are either
    /// disjoint or nested.
    pub fn subsumed_by(&self, other: &Pattern) -> bool {
        self.and(other) == *self
    }

    /// True if the two patterns share no matching value
    /// (i.e. `self ∧ other = ∅`).
    pub fn disjoint_with(&self, other: &Pattern) -> bool {
        self.and(other).is_empty()
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Wildcard => f.write_str("*"),
            Pattern::Empty => f.write_str("-"),
            Pattern::Constant(v) => write!(f, "{v}"),
            Pattern::Range { lo, hi } => {
                match lo {
                    Bound::Unbounded => f.write_str("(.."),
                    Bound::Inclusive(v) => write!(f, "[{v}"),
                    Bound::Exclusive(v) => write!(f, "({v}"),
                }?;
                f.write_str(",")?;
                match hi {
                    Bound::Unbounded => f.write_str("..)"),
                    Bound::Inclusive(v) => write!(f, "{v}]"),
                    Bound::Exclusive(v) => write!(f, "{v})"),
                }
            }
            Pattern::In(vs) => {
                f.write_str("{")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(Pattern::Wildcard.matches(&int(1)));
        assert!(Pattern::Wildcard.matches(&Value::str("x")));
        assert!(Pattern::Wildcard.matches(&Value::Null));
    }

    #[test]
    fn empty_matches_nothing() {
        assert!(!Pattern::Empty.matches(&int(1)));
        assert!(!Pattern::Empty.matches(&Value::Null));
        assert!(Pattern::Empty.is_empty());
    }

    #[test]
    fn constant_matches_exactly() {
        let p = Pattern::Constant(int(5));
        assert!(p.matches(&int(5)));
        assert!(!p.matches(&int(6)));
        assert!(!p.matches(&Value::Null));
        assert!(!p.is_empty());
    }

    #[test]
    fn range_matching_respects_bound_kinds() {
        let p = Pattern::Range {
            lo: Bound::Inclusive(int(10)),
            hi: Bound::Exclusive(int(20)),
        };
        assert!(p.matches(&int(10)));
        assert!(p.matches(&int(19)));
        assert!(!p.matches(&int(20)));
        assert!(!p.matches(&int(9)));
    }

    #[test]
    fn half_open_ranges() {
        let below = Pattern::Range { lo: Bound::Unbounded, hi: Bound::Inclusive(int(0)) };
        assert!(below.matches(&int(-100)));
        assert!(below.matches(&int(0)));
        assert!(!below.matches(&int(1)));
        let above = Pattern::Range { lo: Bound::Exclusive(int(0)), hi: Bound::Unbounded };
        assert!(above.matches(&int(1)));
        assert!(!above.matches(&int(0)));
    }

    #[test]
    fn range_constructor_validates() {
        assert!(Pattern::range(Bound::Inclusive(int(5)), Bound::Inclusive(int(1))).is_err());
        assert_eq!(
            Pattern::range(Bound::Inclusive(int(3)), Bound::Inclusive(int(3))).unwrap(),
            Pattern::Constant(int(3))
        );
        assert_eq!(
            Pattern::range(Bound::Inclusive(int(3)), Bound::Exclusive(int(3))).unwrap(),
            Pattern::Empty
        );
    }

    /// A list matches its values exactly, as a constant does: `Int(3)`
    /// is not `Float(3.0)`, though `Ord` ties them.
    #[test]
    fn enumeration_matches_exact_values() {
        let list = Pattern::enumeration(vec![int(1), Value::Float(3.0), int(4)]);
        assert!(list.matches(&Value::Float(3.0)));
        assert!(!list.matches(&int(3)));
        assert!(list.matches(&int(4)) && !list.matches(&Value::Float(4.0)));
        let other = Pattern::enumeration(vec![int(3), int(4)]);
        assert_eq!(list.and(&other), Pattern::Constant(int(4)));
        assert_eq!(Pattern::Constant(int(3)).and(&list), Pattern::Empty);
    }

    #[test]
    fn enumeration_normalizes() {
        assert_eq!(Pattern::enumeration(vec![]), Pattern::Empty);
        assert_eq!(Pattern::enumeration(vec![int(4)]), Pattern::Constant(int(4)));
        assert_eq!(
            Pattern::enumeration(vec![int(2), int(1), int(2)]),
            Pattern::In(vec![int(1), int(2)])
        );
    }

    #[test]
    fn enumeration_matches_members_only() {
        let p = Pattern::enumeration(vec![int(1), int(3), int(5)]);
        assert!(p.matches(&int(3)));
        assert!(!p.matches(&int(2)));
    }

    #[test]
    fn and_with_wildcard_is_identity() {
        let p = Pattern::int_range(1, 9);
        assert_eq!(Pattern::Wildcard.and(&p), p);
        assert_eq!(p.and(&Pattern::Wildcard), p);
    }

    #[test]
    fn and_with_empty_is_empty() {
        let p = Pattern::Constant(int(2));
        assert_eq!(p.and(&Pattern::Empty), Pattern::Empty);
        assert_eq!(Pattern::Empty.and(&p), Pattern::Empty);
    }

    #[test]
    fn and_constants() {
        assert_eq!(
            Pattern::Constant(int(1)).and(&Pattern::Constant(int(1))),
            Pattern::Constant(int(1))
        );
        assert_eq!(Pattern::Constant(int(1)).and(&Pattern::Constant(int(2))), Pattern::Empty);
    }

    #[test]
    fn and_constant_with_range() {
        let r = Pattern::int_range(0, 10);
        assert_eq!(r.and(&Pattern::Constant(int(5))), Pattern::Constant(int(5)));
        assert_eq!(r.and(&Pattern::Constant(int(50))), Pattern::Empty);
    }

    #[test]
    fn and_ranges_intersect() {
        let a = Pattern::int_range(0, 10);
        let b = Pattern::int_range(5, 20);
        assert_eq!(a.and(&b), Pattern::int_range(5, 10));
        let c = Pattern::int_range(11, 20);
        assert_eq!(a.and(&c), Pattern::Empty);
    }

    #[test]
    fn and_ranges_mixed_bound_kinds() {
        let a = Pattern::Range { lo: Bound::Inclusive(int(0)), hi: Bound::Exclusive(int(10)) };
        let b = Pattern::Range { lo: Bound::Exclusive(int(0)), hi: Bound::Inclusive(int(10)) };
        let c = a.and(&b);
        assert!(!c.matches(&int(0)));
        assert!(c.matches(&int(5)));
        assert!(!c.matches(&int(10)));
    }

    #[test]
    fn and_enumerations_intersect() {
        let a = Pattern::enumeration(vec![int(1), int(2), int(3)]);
        let b = Pattern::enumeration(vec![int(2), int(3), int(4)]);
        assert_eq!(a.and(&b), Pattern::In(vec![int(2), int(3)]));
        let c = Pattern::enumeration(vec![int(9)]);
        assert_eq!(a.and(&c), Pattern::Empty);
    }

    #[test]
    fn and_enumeration_with_range_filters() {
        let e = Pattern::enumeration(vec![int(1), int(5), int(9)]);
        let r = Pattern::int_range(2, 8);
        assert_eq!(e.and(&r), Pattern::Constant(int(5)));
    }

    #[test]
    fn subsumption_and_disjointness() {
        let narrow = Pattern::int_range(3, 5);
        let wide = Pattern::int_range(0, 10);
        assert!(narrow.subsumed_by(&wide));
        assert!(!wide.subsumed_by(&narrow));
        assert!(narrow.disjoint_with(&Pattern::int_range(6, 9)));
        assert!(!narrow.disjoint_with(&wide));
        assert!(Pattern::Constant(int(1)).subsumed_by(&Pattern::Wildcard));
    }

    #[test]
    fn range_emptiness_detection() {
        let empty = Pattern::Range { lo: Bound::Exclusive(int(3)), hi: Bound::Inclusive(int(3)) };
        assert!(empty.is_empty());
        let ok = Pattern::int_range(3, 3);
        assert!(!ok.is_empty());
        let unbounded = Pattern::Range { lo: Bound::Unbounded, hi: Bound::Unbounded };
        assert!(!unbounded.is_empty());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Pattern::Wildcard.to_string(), "*");
        assert_eq!(Pattern::Empty.to_string(), "-");
        assert_eq!(Pattern::Constant(int(7)).to_string(), "7");
        assert_eq!(Pattern::int_range(1, 2).to_string(), "[1,2]");
        assert_eq!(
            Pattern::enumeration(vec![int(2), int(1)]).to_string(),
            "{1,2}"
        );
    }

    #[test]
    fn string_patterns() {
        let p = Pattern::Constant(Value::str("item-42"));
        assert!(p.matches(&Value::str("item-42")));
        assert!(!p.matches(&Value::str("item-43")));
        let r = Pattern::Range {
            lo: Bound::Inclusive(Value::str("a")),
            hi: Bound::Exclusive(Value::str("m")),
        };
        assert!(r.matches(&Value::str("hello")));
        assert!(!r.matches(&Value::str("zebra")));
    }
}
