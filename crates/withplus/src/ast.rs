//! The abstract syntax of with+ (Section 6, Fig. 4) and of the SQL
//! subset its subqueries are written in.

use aio_algebra::AggFunc;
use aio_storage::Value;

/// A parsed expression (pre-lowering; may contain subqueries and named
/// parameters).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Possibly-qualified column reference.
    Col(String),
    Lit(Value),
    /// Named parameter `:name`, bound at execution.
    Param(String),
    Unary(UnaryOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Scalar function call by name (resolved during lowering).
    Func(String, Vec<Expr>),
    /// Aggregate call; `over_partition_by = Some(cols)` makes it a window
    /// aggregate (`partition by`, used by the SQL'99 baseline, Fig. 9).
    Agg {
        func: AggFunc,
        arg: Box<Expr>,
        over_partition_by: Option<Vec<String>>,
    },
    /// `expr [NOT] IN (subquery)`
    In {
        needle: Box<Expr>,
        subquery: Box<SelectStmt>,
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery)` — the subquery may be correlated through
    /// equality predicates on outer columns.
    Exists {
        subquery: Box<SelectStmt>,
        negated: bool,
    },
}

pub use aio_algebra::{BinOp, UnaryOp};

/// `expr [AS alias]` in a select list.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: Option<String>,
}

/// An item in a FROM clause.
#[derive(Clone, Debug, PartialEq)]
pub enum FromItem {
    Table {
        name: String,
        alias: Option<String>,
    },
    /// Explicit join syntax (`LEFT OUTER JOIN`, `FULL OUTER JOIN`, `JOIN`).
    Join {
        left: Box<FromItem>,
        right: Box<FromItem>,
        kind: JoinKind,
        on: Expr,
    },
}

impl FromItem {
    pub fn table(name: impl Into<String>) -> FromItem {
        FromItem::Table {
            name: name.into(),
            alias: None,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    LeftOuter,
    FullOuter,
}

/// A SELECT statement.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStmt {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Vec<FromItem>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<String>,
    /// `HAVING` predicate over the grouped output (aliases resolvable).
    pub having: Option<Expr>,
}

/// `name [(cols)] AS select` inside `computed by` (Section 6).
#[derive(Clone, Debug, PartialEq)]
pub struct ComputedDef {
    pub name: String,
    pub cols: Option<Vec<String>>,
    pub query: SelectStmt,
}

/// One subquery `Q_i` of the with+ body, with its local `computed by`
/// relations.
#[derive(Clone, Debug, PartialEq)]
pub struct Subquery {
    pub select: SelectStmt,
    pub computed_by: Vec<ComputedDef>,
}

/// How the subqueries of the body are combined.
#[derive(Clone, Debug, PartialEq)]
pub enum UnionMode {
    /// `union all` (SQL'99; inflationary).
    All,
    /// `union` with duplicate elimination (PostgreSQL extension, Table 1).
    Distinct,
    /// `union by update [cols]` — the paper's noninflationary union. `None`
    /// replaces the relation wholesale.
    ByUpdate(Option<Vec<String>>),
}

/// A full with+ statement:
/// `with R(cols) as ( body [maxrecursion n] ) final_select`.
#[derive(Clone, Debug, PartialEq)]
pub struct WithPlus {
    pub rec_name: String,
    pub rec_cols: Vec<String>,
    pub subqueries: Vec<Subquery>,
    pub union: UnionMode,
    pub max_recursion: Option<usize>,
    pub final_select: SelectStmt,
}

impl WithPlus {
    /// Does `q` (including its computed-by chain) reference the recursive
    /// relation? Determines initial vs. recursive subqueries (Section 6).
    pub fn is_recursive_subquery(&self, q: &Subquery) -> bool {
        let mut tables = Vec::new();
        collect_select_tables(&q.select, &mut tables);
        for d in &q.computed_by {
            collect_select_tables(&d.query, &mut tables);
        }
        tables
            .iter()
            .any(|t| t.eq_ignore_ascii_case(&self.rec_name))
    }

    pub fn initial_subqueries(&self) -> Vec<&Subquery> {
        self.subqueries
            .iter()
            .filter(|q| !self.is_recursive_subquery(q))
            .collect()
    }

    pub fn recursive_subqueries(&self) -> Vec<&Subquery> {
        self.subqueries
            .iter()
            .filter(|q| self.is_recursive_subquery(q))
            .collect()
    }
}

/// Every table name read by a select (FROM items + subqueries in WHERE).
pub fn collect_select_tables(s: &SelectStmt, out: &mut Vec<String>) {
    fn from_item(f: &FromItem, out: &mut Vec<String>) {
        match f {
            FromItem::Table { name, .. } => out.push(name.clone()),
            FromItem::Join { left, right, .. } => {
                from_item(left, out);
                from_item(right, out);
            }
        }
    }
    for f in &s.from {
        from_item(f, out);
    }
    fn walk_expr(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::Unary(_, x) => walk_expr(x, out),
            Expr::Binary(_, l, r) => {
                walk_expr(l, out);
                walk_expr(r, out);
            }
            Expr::Func(_, args) => args.iter().for_each(|a| walk_expr(a, out)),
            Expr::Agg { arg, .. } => walk_expr(arg, out),
            Expr::In {
                needle, subquery, ..
            } => {
                walk_expr(needle, out);
                collect_select_tables(subquery, out);
            }
            Expr::Exists { subquery, .. } => collect_select_tables(subquery, out),
            _ => {}
        }
    }
    if let Some(w) = &s.where_clause {
        walk_expr(w, out);
    }
    if let Some(h) = &s.having {
        walk_expr(h, out);
    }
    for it in &s.items {
        walk_expr(&it.expr, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select_from(tables: &[&str]) -> SelectStmt {
        SelectStmt {
            distinct: false,
            items: vec![SelectItem {
                expr: Expr::Col("x".into()),
                alias: None,
            }],
            from: tables.iter().map(|t| FromItem::table(*t)).collect(),
            where_clause: None,
            group_by: vec![],
            having: None,
        }
    }

    #[test]
    fn classify_initial_vs_recursive() {
        let w = WithPlus {
            rec_name: "P".into(),
            rec_cols: vec!["ID".into(), "W".into()],
            subqueries: vec![
                Subquery {
                    select: select_from(&["R"]),
                    computed_by: vec![],
                },
                Subquery {
                    select: select_from(&["P", "S"]),
                    computed_by: vec![],
                },
            ],
            union: UnionMode::ByUpdate(Some(vec!["ID".into()])),
            max_recursion: Some(10),
            final_select: select_from(&["P"]),
        };
        assert_eq!(w.initial_subqueries().len(), 1);
        assert_eq!(w.recursive_subqueries().len(), 1);
    }

    #[test]
    fn recursion_through_computed_by_detected() {
        let w = WithPlus {
            rec_name: "H".into(),
            rec_cols: vec!["ID".into()],
            subqueries: vec![Subquery {
                select: select_from(&["R_ha"]),
                computed_by: vec![ComputedDef {
                    name: "R_ha".into(),
                    cols: None,
                    query: select_from(&["H", "E"]),
                }],
            }],
            union: UnionMode::ByUpdate(None),
            max_recursion: Some(15),
            final_select: select_from(&["H"]),
        };
        assert!(w.is_recursive_subquery(&w.subqueries[0]));
    }

    #[test]
    fn recursion_through_subquery_in_where_detected() {
        let mut s = select_from(&["V"]);
        s.where_clause = Some(Expr::In {
            needle: Box::new(Expr::Col("ID".into())),
            subquery: Box::new(select_from(&["Topo"])),
            negated: true,
        });
        let w = WithPlus {
            rec_name: "Topo".into(),
            rec_cols: vec!["ID".into()],
            subqueries: vec![Subquery {
                select: s,
                computed_by: vec![],
            }],
            union: UnionMode::All,
            max_recursion: None,
            final_select: select_from(&["Topo"]),
        };
        assert!(w.is_recursive_subquery(&w.subqueries[0]));
    }
}
