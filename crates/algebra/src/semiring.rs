//! Semirings for MM-join / MV-join.
//!
//! Section 4 of the paper: a semiring `(M, ⊕, ⊙, 0, 1)` drives the
//! matrix-matrix / matrix-vector products of Eqs. (1)–(2); the ⊕ maps to the
//! aggregate of the group-by and the ⊙ to the expression computed while
//! joining. "All graph algorithms that can be expressed by the semiring can
//! be supported under the framework of algebra + while" (Section 4.2).

use crate::agg::AggFunc;
use crate::expr::{BinOp, Func, ScalarExpr};
use aio_storage::Value;

/// A semiring's multiplication `⊙`: an arithmetic operator or `least`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Times {
    Op(BinOp),
    Least,
}

impl Times {
    /// `l ⊙ r` as a scalar expression — the select item of an aggregate
    /// join.
    pub fn expr(self, l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        match self {
            Times::Op(op) => ScalarExpr::binary(op, l, r),
            Times::Least => ScalarExpr::Func(Func::Least, vec![l, r]),
        }
    }

    /// `(⊙, l, r)` of an expression [`Times::expr`] builds, `⊙` an
    /// arithmetic operator or `least`; `None` for any other shape.
    pub fn of(e: &ScalarExpr) -> Option<(Times, &ScalarExpr, &ScalarExpr)> {
        use BinOp::{Add, Div, Mod, Mul, Sub};
        match e {
            ScalarExpr::Binary(op @ (Add | Sub | Mul | Div | Mod), l, r) => {
                Some((Times::Op(*op), l, r))
            }
            ScalarExpr::Func(Func::Least, args) if args.len() == 2 => {
                Some((Times::Least, &args[0], &args[1]))
            }
            _ => None,
        }
    }
}

/// A semiring instance: `⊕` is an aggregate, `⊙` a binary scalar operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Semiring {
    pub name: &'static str,
    /// The addition `⊕` (commutative monoid with `zero`).
    pub plus: AggFunc,
    /// The multiplication `⊙` (monoid with `one`).
    pub times: Times,
    /// Identity of `⊕`; annihilator of `⊙`.
    pub zero: Value,
    /// Identity of `⊙`.
    pub one: Value,
}

/// `(max, ×, 0, 1)` — BFS reachability (Eq. (5)): a node's flag becomes 1 if
/// any in-neighbour is visited.
pub const BOOLEAN: Semiring = Semiring {
    name: "boolean(max,*)",
    plus: AggFunc::Max,
    times: Times::Op(BinOp::Mul),
    zero: Value::Float(0.0),
    one: Value::Float(1.0),
};

/// `(min, +, +∞, 0)` — the tropical semiring of Bellman-Ford (Eq. (7)) and
/// Floyd-Warshall (Eq. (8)).
pub const TROPICAL: Semiring = Semiring {
    name: "tropical(min,+)",
    plus: AggFunc::Min,
    times: Times::Op(BinOp::Add),
    zero: Value::Float(f64::INFINITY),
    one: Value::Float(0.0),
};

/// `(sum, ×, 0, 1)` — the real field restriction used by PageRank (Eq. (9)),
/// SimRank (Eq. (11)) and HITS (Eq. (12)).
pub const COUNTING: Semiring = Semiring {
    name: "real(sum,*)",
    plus: AggFunc::Sum,
    times: Times::Op(BinOp::Mul),
    zero: Value::Float(0.0),
    one: Value::Float(1.0),
};

/// `(min, ×, +∞, 1)` — label flooding by smallest id, Connected-Component
/// (Eq. (6)).
pub const MIN_MUL: Semiring = Semiring {
    name: "minmul(min,*)",
    plus: AggFunc::Min,
    times: Times::Op(BinOp::Mul),
    zero: Value::Float(f64::INFINITY),
    one: Value::Float(1.0),
};

/// `(max, min, -∞, +∞)` — bottleneck/capacity paths; exercises a semiring
/// whose `⊙` is not arithmetic (used in tests and the widest-path example).
pub const MAX_MIN: Semiring = Semiring {
    name: "bottleneck(max,min)",
    plus: AggFunc::Max,
    times: Times::Least,
    zero: Value::Float(f64::NEG_INFINITY),
    one: Value::Float(f64::INFINITY),
};

#[cfg(test)]
mod tests {
    use super::*;

    impl Semiring {
        /// Apply `⊙` to two scalars.
        fn times_eval(&self, a: Value, b: Value) -> crate::error::Result<Value> {
            self.times
                .expr(ScalarExpr::Lit(a), ScalarExpr::Lit(b))
                .eval(&[])
        }
    }

    #[test]
    fn tropical_times_is_add() {
        let v = TROPICAL
            .times_eval(Value::Float(2.0), Value::Float(3.0))
            .unwrap();
        assert_eq!(v, Value::Float(5.0));
    }

    #[test]
    fn zero_annihilates_in_boolean() {
        let v = BOOLEAN
            .times_eval(BOOLEAN.zero.clone(), Value::Float(1.0))
            .unwrap();
        assert_eq!(v, BOOLEAN.zero);
    }

    #[test]
    fn one_is_identity() {
        for sr in [&BOOLEAN, &TROPICAL, &COUNTING, &MIN_MUL, &MAX_MIN] {
            let x = Value::Float(7.0);
            assert_eq!(
                sr.times_eval(sr.one.clone(), x.clone()).unwrap(),
                x,
                "1 ⊙ x = x in {}",
                sr.name
            );
        }
    }

    #[test]
    fn times_of_inverts_expr() {
        let (l, r) = (ScalarExpr::col("P.W"), ScalarExpr::col("E.ew"));
        for sr in [&BOOLEAN, &TROPICAL, &COUNTING, &MIN_MUL, &MAX_MIN] {
            let e = sr.times.expr(l.clone(), r.clone());
            assert_eq!(Times::of(&e), Some((sr.times, &l, &r)), "{}", sr.name);
        }
        let cmp = ScalarExpr::binary(BinOp::Lt, l.clone(), r.clone());
        assert_eq!(Times::of(&cmp), None);
        assert_eq!(Times::of(&l), None);
    }

    #[test]
    fn bottleneck_times_is_min() {
        let sr = MAX_MIN;
        assert_eq!(
            sr.times_eval(Value::Float(4.0), Value::Float(2.0)).unwrap(),
            Value::Float(2.0)
        );
    }
}
