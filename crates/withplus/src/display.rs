//! Pretty-printing for the with+ AST: `Display` implementations whose
//! output re-parses to the identical AST (round-trip tested against every
//! shipped algorithm program).

use crate::ast::*;
use std::fmt;

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "{c}"),
            Expr::Lit(v) => match v {
                aio_storage::Value::Text(s) => write!(f, "'{s}'"),
                aio_storage::Value::Null => write!(f, "null"),
                other => write!(f, "{other}"),
            },
            Expr::Param(p) => write!(f, ":{p}"),
            // postfix `is null` and prefix `not` bind looser than
            // arithmetic in the grammar, so both are fully parenthesized
            // to stay valid in operand position
            Expr::Unary(op, x) => match op {
                UnaryOp::Neg => write!(f, "-({x})"),
                UnaryOp::Not => write!(f, "(not ({x}))"),
                UnaryOp::IsNull => write!(f, "(({x}) is null)"),
                UnaryOp::IsNotNull => write!(f, "(({x}) is not null)"),
            },
            Expr::Binary(op, l, r) => write!(f, "({l} {op} {r})"),
            Expr::Func(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Agg {
                func,
                arg,
                over_partition_by,
            } => {
                write!(f, "{func}({arg})")?;
                if let Some(p) = over_partition_by {
                    write!(f, " over (partition by {})", p.join(", "))?;
                }
                Ok(())
            }
            Expr::In {
                needle,
                subquery,
                negated,
            } => write!(
                f,
                "{needle} {}in ({subquery})",
                if *negated { "not " } else { "" }
            ),
            Expr::Exists { subquery, negated } => write!(
                f,
                "{}exists ({subquery})",
                if *negated { "not " } else { "" }
            ),
        }
    }
}

impl fmt::Display for FromItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FromItem::Table { name, alias } => match alias {
                Some(a) => write!(f, "{name} as {a}"),
                None => write!(f, "{name}"),
            },
            FromItem::Join {
                left,
                right,
                kind,
                on,
            } => {
                let kw = match kind {
                    JoinKind::Inner => "join",
                    JoinKind::LeftOuter => "left outer join",
                    JoinKind::FullOuter => "full outer join",
                };
                write!(f, "{left} {kw} {right} on {on}")
            }
        }
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "select ")?;
        if self.distinct {
            write!(f, "distinct ")?;
        }
        for (i, it) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", it.expr)?;
            if let Some(a) = &it.alias {
                write!(f, " as {a}")?;
            }
        }
        write!(f, " from ")?;
        for (i, fi) in self.from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fi}")?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " where {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " group by {}", self.group_by.join(", "))?;
        }
        if let Some(h) = &self.having {
            write!(f, " having {h}")?;
        }
        Ok(())
    }
}

impl fmt::Display for WithPlus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "with {}({}) as (",
            self.rec_name,
            self.rec_cols.join(", ")
        )?;
        for (i, q) in self.subqueries.iter().enumerate() {
            if i > 0 {
                match &self.union {
                    UnionMode::All => writeln!(f, "  union all")?,
                    UnionMode::Distinct => writeln!(f, "  union")?,
                    UnionMode::ByUpdate(None) => writeln!(f, "  union by update")?,
                    UnionMode::ByUpdate(Some(keys)) => {
                        writeln!(f, "  union by update {}", keys.join(", "))?
                    }
                }
            }
            write!(f, "  ({}", q.select)?;
            if !q.computed_by.is_empty() {
                writeln!(f, "\n   computed by")?;
                for d in &q.computed_by {
                    write!(f, "     {}", d.name)?;
                    if let Some(cols) = &d.cols {
                        write!(f, "({})", cols.join(", "))?;
                    }
                    writeln!(f, " as {};", d.query)?;
                }
                write!(f, "  ")?;
            }
            writeln!(f, ")")?;
        }
        if let Some(m) = self.max_recursion {
            writeln!(f, "  maxrecursion {m}")?;
        }
        writeln!(f, ")")?;
        write!(f, "{}", self.final_select)
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::{Parser, Statement};

    fn roundtrip(sql: &str) {
        let first = Parser::parse_statement(sql).unwrap();
        let printed = match &first {
            Statement::WithPlus(w) => w.to_string(),
            Statement::Select(s) => s.to_string(),
        };
        let second = Parser::parse_statement(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed ---\n{printed}"));
        assert_eq!(first, second, "--- printed ---\n{printed}");
    }

    #[test]
    fn roundtrips_plain_selects() {
        roundtrip("select E.F, E.T as dst from E as e1, V where e1.T = V.ID and V.vw > 1.5");
        roundtrip("select distinct V.ID from V where V.ID not in (select E.T from E)");
        roundtrip("select V.ID from V left outer join E on V.ID = E.T where E.T is null");
        roundtrip("select count(*), sum(E.ew) over (partition by E.T) from E");
        roundtrip("select coalesce(V.vw, 0.0), sqrt(:x + 2) from V group by V.ID");
    }

    #[test]
    fn roundtrips_with_plus_forms() {
        roundtrip(
            "with TC(F, T) as ((select E.F, E.T from E) union (select TC.F, E.T from TC, E where TC.T = E.F) maxrecursion 9) select * from TC",
        );
        roundtrip(
            "with P(ID, W) as ((select V.ID, 0.0 from V) union by update ID (select E.T, :c * sum(P.W * E.ew) + (1 - :c) / :n from P, E where P.ID = E.F group by E.T) maxrecursion 15) select ID, W from P",
        );
    }

    #[test]
    fn roundtrips_computed_by() {
        roundtrip(
            "with Topo(ID, L) as (
               (select V.ID, 0 from V where V.ID not in (select E.T from E))
               union all
               (select T_n.ID, T_n.L from T_n
                computed by
                  L_n(L) as select max(Topo.L) + 1 from Topo;
                  T_n(ID, L) as select V.ID, L_n.L from V, L_n where V.ID not in (select Topo.ID from Topo);))
             select * from Topo",
        );
    }
}
