//! Scalar values stored in relations.
//!
//! The paper models graphs as relations `V(ID, vw)` and `E(F, T, ew)` where
//! identifiers are integers and weights are numeric (Section 4). We therefore
//! support a deliberately small set of scalar types: 64-bit integers, 64-bit
//! floats, interned text (node labels for Label-Propagation / Keyword-Search)
//! and SQL `NULL`.
//!
//! Two distinct notions of equality coexist:
//!
//! * **Storage equality** ([`PartialEq`]/[`Eq`]/[`Hash`]/[`Ord`]) is a total,
//!   structural relation used for grouping, duplicate elimination and join
//!   keys. `Null == Null`, values of different types are never equal
//!   (`Int(1) != Float(1.0)`), `-0.0 == 0.0` and every NaN equals every
//!   other. [`Ord`] refines it — `cmp` is `Equal` exactly when `==` holds —
//!   so sorting and hashing see the same key classes.
//! * **SQL comparison** ([`Value::sql_cmp`]) implements three-valued logic:
//!   any comparison involving `NULL` is *unknown* (`None`), and integers
//!   coerce to floats when compared against them. Predicate evaluation in
//!   `aio-algebra` uses this form.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single scalar value.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer (node identifiers, levels, counts).
    Int(i64),
    /// 64-bit IEEE float (edge weights, PageRank mass, distances).
    Float(f64),
    /// Interned string (node labels).
    Text(Arc<str>),
}

impl Value {
    /// A string value, interning the given text.
    pub fn text(s: impl AsRef<str>) -> Self {
        Value::Text(Arc::from(s.as_ref()))
    }

    /// True iff this is SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer payload, if this is an `Int`.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric payload widened to `f64` (ints coerce), if numeric.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// SQL three-valued comparison. `None` means *unknown* (a NULL operand
    /// or incomparable types). Integers and floats compare numerically.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Text(a), Text(b)) => Some(a.as_ref().cmp(b.as_ref())),
            _ => None,
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Text(_) => 2,
        }
    }

    /// Canonical float bits used for hashing: `-0.0` folds into `0.0` and
    /// every NaN folds into one canonical NaN, so that storage-equal values
    /// hash equally.
    fn float_bits(f: f64) -> u64 {
        if f == 0.0 {
            0u64 // +0.0 and -0.0
        } else if f.is_nan() {
            f64::NAN.to_bits()
        } else {
            f.to_bits()
        }
    }

    /// The canonical float bits above, exposed so columnar code (NDV
    /// sketches, dictionary hashing) agrees with `Value`'s storage
    /// equality without re-deriving the folding rules.
    pub fn canonical_f64_bits(f: f64) -> u64 {
        Self::float_bits(f)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => Value::float_bits(*a) == Value::float_bits(*b),
            (Text(a), Text(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Int(i) => {
                state.write_u8(1);
                state.write_i64(*i);
            }
            Value::Float(f) => {
                state.write_u8(2);
                state.write_u64(Value::float_bits(*f));
            }
            Value::Text(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

impl Ord for Value {
    /// Total storage order: NULL first, then numerics (ints and floats
    /// interleaved numerically, an Int before the Float it ties with; both
    /// zeros equal; every NaN equal and greatest), then text. It refines
    /// [`Eq`]: `a.cmp(b) == Equal` iff `a == b`, so a sort puts exactly the
    /// rows a hash table would bucket together next to each other.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.as_ref().cmp(b.as_ref()),
            (Float(a), Float(b)) => cmp_f64(*a, *b),
            (Int(a), Float(b)) => cmp_f64(*a as f64, *b).then(Ordering::Less),
            (Float(a), Int(b)) => cmp_f64(*a, *b as f64).then(Ordering::Greater),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

/// Float order on the canonical form [`Value::canonical_f64_bits`] defines:
/// `-0.0` equals `0.0`, every NaN equals every other and is greater than `+∞`.
pub(crate) fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn storage_equality_is_total() {
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Int(1), Value::Float(1.0)); // strict by type
    }

    #[test]
    fn hash_consistent_with_eq() {
        assert_eq!(h(&Value::Float(0.0)), h(&Value::Float(-0.0)));
        assert_eq!(h(&Value::Float(f64::NAN)), h(&Value::Float(f64::NAN)));
        assert_eq!(h(&Value::text("ab")), h(&Value::text("ab")));
    }

    #[test]
    fn sql_cmp_three_valued() {
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(3).sql_cmp(&Value::Null), None);
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::text("a").sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_sorts_null_first() {
        use Ordering::*;
        let (i, f) = (Value::Int, Value::Float);
        let mut v = [Value::text("z"), i(5), Value::Null, f(2.5)];
        v.sort();
        assert_eq!(v, [Value::Null, f(2.5), i(5), Value::text("z")]);
        // and refines equality: numeric ties break by type, zeros and NaNs fold
        assert_eq!(i(1).cmp(&f(1.0)), Less, "Int before the Float it ties with");
        assert_eq!(f(1.0).cmp(&i(1)), Greater);
        assert_eq!(f(0.5).cmp(&i(1)), Less, "still interleaved numerically");
        assert_eq!(f(-0.0).cmp(&f(0.0)), Equal);
        assert_eq!(f(-f64::NAN).cmp(&f(f64::NAN)), Equal);
        assert_eq!(f(-f64::NAN).cmp(&i(i64::MAX)), Greater, "NaN is greatest");
        assert_eq!(f(f64::NAN).cmp(&f(f64::INFINITY)), Greater);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::text("lbl").to_string(), "lbl");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3usize), Value::Int(3));
        assert_eq!(Value::from(0.5), Value::Float(0.5));
        assert_eq!(Value::from("x"), Value::text("x"));
    }
}
