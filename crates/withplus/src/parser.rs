//! Recursive-descent parser for the with+ dialect (Section 6, Fig. 4).
//!
//! The accepted grammar covers every program in the paper: Fig. 3
//! (PageRank), Fig. 5 (TopoSort), Fig. 6 (HITS), Fig. 9 (the SQL'99
//! PageRank with `partition by` + `distinct`), plus plain one-shot SELECTs.

use crate::ast::*;
use crate::error::{Result, WithPlusError};
use crate::lexer::{tokenize, Token};
use aio_algebra::{AggFunc, BinOp, UnaryOp};
use aio_storage::Value;

pub struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

/// Keywords that terminate an alias-free expression context.
const RESERVED: &[&str] = &[
    "select",
    "from",
    "where",
    "group",
    "by",
    "union",
    "all",
    "update",
    "maxrecursion",
    "computed",
    "left",
    "full",
    "outer",
    "inner",
    "join",
    "on",
    "not",
    "in",
    "exists",
    "is",
    "having",
    "null",
    "and",
    "or",
    "as",
    "with",
    "recursive",
    "partition",
    "over",
    "distinct",
    "when",
];

impl Parser {
    pub fn new(input: &str) -> Result<Parser> {
        Ok(Parser {
            toks: tokenize(input)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.toks[self.pos]
    }

    fn peek2(&self) -> &Token {
        self.toks.get(self.pos + 1).unwrap_or(&Token::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: &str) -> Result<T> {
        Err(WithPlusError::Parse {
            message: msg.to_string(),
            near: format!("{:?}", self.peek()),
        })
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(&format!("expected keyword `{kw}`"))
        }
    }

    fn expect(&mut self, t: &Token, what: &str) -> Result<()> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(&format!("expected {what}"))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            _ => {
                self.pos -= 1;
                self.err("expected identifier")
            }
        }
    }

    fn ident_list_paren(&mut self) -> Result<Vec<String>> {
        self.expect(&Token::LParen, "`(`")?;
        let mut cols = vec![self.ident()?];
        while self.peek() == &Token::Comma {
            self.bump();
            cols.push(self.ident()?);
        }
        self.expect(&Token::RParen, "`)`")?;
        Ok(cols)
    }

    /// Parse either a full with+ statement or a bare SELECT.
    pub fn parse_statement(input: &str) -> Result<Statement> {
        let mut p = Parser::new(input)?;
        let stmt = if p.peek().is_kw("with") {
            Statement::WithPlus(p.parse_with_plus()?)
        } else {
            Statement::Select(p.parse_select()?)
        };
        if p.peek() == &Token::Semi {
            p.bump();
        }
        if p.peek() != &Token::Eof {
            return p.err("trailing input after statement");
        }
        Ok(stmt)
    }

    pub fn parse_with_plus(&mut self) -> Result<WithPlus> {
        self.expect_kw("with")?;
        self.eat_kw("recursive");
        let rec_name = self.ident()?;
        let rec_cols = self.ident_list_paren()?;
        self.expect_kw("as")?;
        self.expect(&Token::LParen, "`(` opening the with body")?;

        let mut subqueries = vec![self.parse_subquery()?];
        let mut union = UnionMode::All;
        let mut union_seen = false;
        let mut max_recursion = None;

        loop {
            if self.eat_kw("union") {
                if self.eat_kw("all") {
                    if union_seen && union != UnionMode::All {
                        return self.err("cannot mix union all with union by update");
                    }
                    union = UnionMode::All;
                } else if self.eat_kw("by") {
                    self.expect_kw("update")?;
                    if union_seen {
                        return self.err("union by update may appear only once");
                    }
                    // optional key columns (bare idents, not parenthesized)
                    let mut keys = Vec::new();
                    while matches!(self.peek(), Token::Ident(s) if !is_reserved(s)) {
                        keys.push(self.ident()?);
                        if self.peek() == &Token::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    union = UnionMode::ByUpdate(if keys.is_empty() { None } else { Some(keys) });
                } else {
                    if union_seen && union != UnionMode::Distinct {
                        return self.err("cannot mix union with union by update");
                    }
                    union = UnionMode::Distinct;
                }
                union_seen = true;
                subqueries.push(self.parse_subquery()?);
            } else if self.eat_kw("maxrecursion") {
                match self.bump() {
                    Token::Int(n) if (0..=32_767).contains(&n) => max_recursion = Some(n as usize),
                    _ => return self.err("maxrecursion takes an integer in 0..=32767"),
                }
            } else {
                break;
            }
        }
        self.expect(&Token::RParen, "`)` closing the with body")?;
        let final_select = self.parse_select()?;
        Ok(WithPlus {
            rec_name,
            rec_cols,
            subqueries,
            union,
            max_recursion,
            final_select,
        })
    }

    /// `( select [computed by ...] )` or a bare select.
    fn parse_subquery(&mut self) -> Result<Subquery> {
        let parenthesized = self.peek() == &Token::LParen;
        if parenthesized {
            self.bump();
        }
        let select = self.parse_select()?;
        let mut computed_by = Vec::new();
        if self.eat_kw("computed") {
            self.expect_kw("by")?;
            loop {
                let name = self.ident()?;
                let cols = if self.peek() == &Token::LParen {
                    Some(self.ident_list_paren()?)
                } else {
                    None
                };
                self.expect_kw("as")?;
                let query = self.parse_select()?;
                computed_by.push(ComputedDef { name, cols, query });
                if self.peek() == &Token::Semi {
                    self.bump();
                    // allow a trailing `;` before the closing paren
                    if self.peek() == &Token::RParen || self.peek().is_kw("union") {
                        break;
                    }
                } else {
                    break;
                }
            }
        }
        if parenthesized {
            self.expect(&Token::RParen, "`)` closing subquery")?;
        }
        Ok(Subquery {
            select,
            computed_by,
        })
    }

    pub fn parse_select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut items = Vec::new();
        // `select from R` (Fig. 5/6 use it) means `select *`
        if !self.peek().is_kw("from") {
            items.push(self.parse_select_item()?);
            while self.peek() == &Token::Comma {
                self.bump();
                items.push(self.parse_select_item()?);
            }
        } else {
            items.push(SelectItem {
                expr: Expr::Col("*".into()),
                alias: None,
            });
        }
        self.expect_kw("from")?;
        let mut from = vec![self.parse_from_item()?];
        while self.peek() == &Token::Comma {
            self.bump();
            from.push(self.parse_from_item()?);
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.peek().is_kw("group") {
            self.bump();
            self.expect_kw("by")?;
            group_by.push(self.parse_colref_string()?);
            while self.peek() == &Token::Comma {
                self.bump();
                group_by.push(self.parse_colref_string()?);
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.peek() == &Token::Star {
            self.bump();
            return Ok(SelectItem {
                expr: Expr::Col("*".into()),
                alias: None,
            });
        }
        let expr = self.parse_expr()?;
        // `AS alias` and a bare unreserved identifier both name the item
        let alias =
            if self.eat_kw("as") || matches!(self.peek(), Token::Ident(s) if !is_reserved(s)) {
                Some(self.ident()?)
            } else {
                None
            };
        Ok(SelectItem { expr, alias })
    }

    fn parse_from_item(&mut self) -> Result<FromItem> {
        let mut item = self.parse_from_primary()?;
        loop {
            let kind = if self.peek().is_kw("left") {
                self.bump();
                self.eat_kw("outer");
                JoinKind::LeftOuter
            } else if self.peek().is_kw("full") {
                self.bump();
                self.eat_kw("outer");
                JoinKind::FullOuter
            } else if self.peek().is_kw("inner") {
                self.bump();
                JoinKind::Inner
            } else if self.peek().is_kw("join") {
                JoinKind::Inner
            } else {
                break;
            };
            self.expect_kw("join")?;
            let right = self.parse_from_primary()?;
            self.expect_kw("on")?;
            let on = self.parse_expr()?;
            item = FromItem::Join {
                left: Box::new(item),
                right: Box::new(right),
                kind,
                on,
            };
        }
        Ok(item)
    }

    fn parse_from_primary(&mut self) -> Result<FromItem> {
        let name = self.ident()?;
        // `AS alias` and a bare unreserved identifier both name the item
        let alias =
            if self.eat_kw("as") || matches!(self.peek(), Token::Ident(s) if !is_reserved(s)) {
                Some(self.ident()?)
            } else {
                None
            };
        Ok(FromItem::Table { name, alias })
    }

    /// A possibly-qualified column reference as a dotted string.
    fn parse_colref_string(&mut self) -> Result<String> {
        let first = self.ident()?;
        if self.peek() == &Token::Dot {
            self.bump();
            let second = self.ident()?;
            Ok(format!("{first}.{second}"))
        } else {
            Ok(first)
        }
    }

    // ---- expressions -------------------------------------------------

    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut e = self.parse_and()?;
        while self.peek().is_kw("or") {
            self.bump();
            let r = self.parse_and()?;
            e = Expr::Binary(BinOp::Or, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut e = self.parse_not()?;
        while self.peek().is_kw("and") {
            self.bump();
            let r = self.parse_not()?;
            e = Expr::Binary(BinOp::And, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.peek().is_kw("not") && !self.peek2().is_kw("exists") && !self.peek2().is_kw("in") {
            self.bump();
            let e = self.parse_not()?;
            return Ok(Expr::Unary(UnaryOp::Not, Box::new(e)));
        }
        self.parse_predicate()
    }

    fn parse_predicate(&mut self) -> Result<Expr> {
        // [NOT] EXISTS (select)
        if self.peek().is_kw("exists") || (self.peek().is_kw("not") && self.peek2().is_kw("exists"))
        {
            let negated = self.eat_kw("not");
            self.expect_kw("exists")?;
            self.expect(&Token::LParen, "`(`")?;
            let sub = self.parse_select()?;
            self.expect(&Token::RParen, "`)`")?;
            return Ok(Expr::Exists {
                subquery: Box::new(sub),
                negated,
            });
        }
        let left = self.parse_additive()?;
        // IS [NOT] NULL
        if self.peek().is_kw("is") {
            self.bump();
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            let op = if negated {
                UnaryOp::IsNotNull
            } else {
                UnaryOp::IsNull
            };
            return Ok(Expr::Unary(op, Box::new(left)));
        }
        // [NOT] IN (select)
        if self.peek().is_kw("in") || (self.peek().is_kw("not") && self.peek2().is_kw("in")) {
            let negated = self.eat_kw("not");
            self.expect_kw("in")?;
            // the paper's Fig. 3/5 omit parentheses around the subquery —
            // accept both `in (select …)` and `in select …`
            let parenthesized = self.peek() == &Token::LParen;
            if parenthesized {
                self.bump();
            }
            let sub = self.parse_select()?;
            if parenthesized {
                self.expect(&Token::RParen, "`)`")?;
            }
            return Ok(Expr::In {
                needle: Box::new(left),
                subquery: Box::new(sub),
                negated,
            });
        }
        let op = match self.peek() {
            Token::Eq => Some(BinOp::Eq),
            Token::Ne => Some(BinOp::Ne),
            Token::Lt => Some(BinOp::Lt),
            Token::Le => Some(BinOp::Le),
            Token::Gt => Some(BinOp::Gt),
            Token::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_additive()?;
            return Ok(Expr::Binary(op, Box::new(left), Box::new(right)));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut e = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let r = self.parse_multiplicative()?;
            e = Expr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut e = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                Token::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let r = self.parse_unary()?;
            e = Expr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.peek() == &Token::Minus {
            self.bump();
            let e = self.parse_unary()?;
            return Ok(Expr::Unary(UnaryOp::Neg, Box::new(e)));
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<Expr> {
        match self.bump() {
            Token::Int(i) => Ok(Expr::Lit(Value::Int(i))),
            Token::Float(f) => Ok(Expr::Lit(Value::Float(f))),
            Token::Str(s) => Ok(Expr::Lit(Value::text(s))),
            Token::Param(p) => Ok(Expr::Param(p)),
            Token::LParen => {
                let e = self.parse_expr()?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(e)
            }
            Token::Ident(name) if name.eq_ignore_ascii_case("null") => Ok(Expr::Lit(Value::Null)),
            Token::Ident(name) => {
                if self.peek() == &Token::LParen {
                    return self.parse_call(name);
                }
                if self.peek() == &Token::Dot {
                    self.bump();
                    let col = self.ident()?;
                    return Ok(Expr::Col(format!("{name}.{col}")));
                }
                Ok(Expr::Col(name))
            }
            other => {
                self.pos -= 1;
                let _ = other;
                self.err("expected expression")
            }
        }
    }

    fn parse_call(&mut self, name: String) -> Result<Expr> {
        self.expect(&Token::LParen, "`(`")?;
        // count(*)
        let mut args = Vec::new();
        if self.peek() == &Token::Star && name.eq_ignore_ascii_case("count") {
            self.bump();
            args.push(Expr::Lit(Value::Int(1)));
        } else if self.peek() != &Token::RParen {
            args.push(self.parse_expr()?);
            while self.peek() == &Token::Comma {
                self.bump();
                args.push(self.parse_expr()?);
            }
        }
        self.expect(&Token::RParen, "`)`")?;
        if let Some(func) = AggFunc::from_name(&name) {
            let arg = args
                .into_iter()
                .next()
                .ok_or_else(|| WithPlusError::Parse {
                    message: format!("{name}() needs an argument"),
                    near: String::new(),
                })?;
            // optional OVER (PARTITION BY ...)
            let over = if self.peek().is_kw("over") {
                self.bump();
                self.expect(&Token::LParen, "`(`")?;
                self.expect_kw("partition")?;
                self.expect_kw("by")?;
                let mut cols = vec![self.parse_colref_string()?];
                while self.peek() == &Token::Comma {
                    self.bump();
                    cols.push(self.parse_colref_string()?);
                }
                self.expect(&Token::RParen, "`)`")?;
                Some(cols)
            } else {
                None
            };
            return Ok(Expr::Agg {
                func,
                arg: Box::new(arg),
                over_partition_by: over,
            });
        }
        Ok(Expr::Func(name, args))
    }
}

fn is_reserved(s: &str) -> bool {
    RESERVED.iter().any(|k| s.eq_ignore_ascii_case(k))
}

/// A top-level statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    WithPlus(WithPlus),
    Select(SelectStmt),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 3: the paper's with+ PageRank, verbatim modulo `:c`/`:n`.
    const PAGERANK: &str = "\
with P(ID, W) as (
  (select R.ID, 0.0 from R)
  union by update ID
  (select S.T, :c * sum(W * ew) + (1 - :c) / :n from P, S
   where P.ID = S.F group by S.T)
  maxrecursion 10)
select ID, W from P";

    #[test]
    fn parses_fig3_pagerank() {
        let stmt = Parser::parse_statement(PAGERANK).unwrap();
        let Statement::WithPlus(w) = stmt else {
            panic!("expected with+")
        };
        assert_eq!(w.rec_name, "P");
        assert_eq!(w.rec_cols, vec!["ID", "W"]);
        assert_eq!(w.union, UnionMode::ByUpdate(Some(vec!["ID".into()])));
        assert_eq!(w.max_recursion, Some(10));
        assert_eq!(w.subqueries.len(), 2);
        let rec = &w.subqueries[1].select;
        assert_eq!(rec.group_by, vec!["S.T"]);
        assert!(matches!(rec.items[1].expr, Expr::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn parses_union_by_update_without_keys() {
        let sql = "with P(ID) as ((select ID from V) union by update (select ID from P)) select ID from P";
        let Statement::WithPlus(w) = Parser::parse_statement(sql).unwrap() else {
            panic!()
        };
        assert_eq!(w.union, UnionMode::ByUpdate(None));
    }

    #[test]
    fn parses_computed_by_chain() {
        // Fig. 5 TopoSort skeleton
        let sql = "\
with Topo(ID, L) as (
  (select ID, 0 from V where ID not in (select E.T from E))
  union all
  (select ID, L from T_n
   computed by
     L_n(L) as select max(L) + 1 from Topo;
     V_1 as select V.ID from V where ID not in (select ID from Topo);
     E_1 as select E.F, E.T from V_1, E where V_1.ID = E.F;
     T_n as select ID, L from V_1, L_n where ID not in (select T from E_1);))
select * from Topo";
        let Statement::WithPlus(w) = Parser::parse_statement(sql).unwrap() else {
            panic!()
        };
        assert_eq!(w.subqueries.len(), 2);
        let rec = &w.subqueries[1];
        assert_eq!(rec.computed_by.len(), 4);
        assert_eq!(rec.computed_by[0].name, "L_n");
        assert_eq!(rec.computed_by[0].cols, Some(vec!["L".into()]));
        assert_eq!(rec.computed_by[3].name, "T_n");
        assert!(w.is_recursive_subquery(rec));
        assert!(!w.is_recursive_subquery(&w.subqueries[0]));
    }

    #[test]
    fn parses_left_outer_join_anti_pattern() {
        let sql = "select R.ID from R left outer join S on R.ID = S.ID where S.ID is null";
        let Statement::Select(s) = Parser::parse_statement(sql).unwrap() else {
            panic!()
        };
        assert!(matches!(
            &s.from[0],
            FromItem::Join {
                kind: JoinKind::LeftOuter,
                ..
            }
        ));
        assert!(matches!(
            s.where_clause,
            Some(Expr::Unary(UnaryOp::IsNull, _))
        ));
    }

    #[test]
    fn parses_window_aggregate() {
        // Fig. 9's shape
        let sql = "select distinct E.T, 0.85 * (sum(P.W * ew) over (partition by E.T)) + 0.15, P.L + 1 from P, E where P.ID = E.F and P.L < 10";
        let Statement::Select(s) = Parser::parse_statement(sql).unwrap() else {
            panic!()
        };
        assert!(s.distinct);
        fn find_window(e: &Expr) -> bool {
            match e {
                Expr::Agg {
                    over_partition_by: Some(_),
                    ..
                } => true,
                Expr::Binary(_, l, r) => find_window(l) || find_window(r),
                Expr::Unary(_, x) => find_window(x),
                Expr::Func(_, args) => args.iter().any(find_window),
                _ => false,
            }
        }
        assert!(find_window(&s.items[1].expr));
    }

    #[test]
    fn parses_count_star_and_funcs() {
        let sql = "select count(*), sqrt(coalesce(vw, 0.0)) from V group by ID";
        let Statement::Select(s) = Parser::parse_statement(sql).unwrap() else {
            panic!()
        };
        assert!(matches!(
            s.items[0].expr,
            Expr::Agg {
                func: AggFunc::Count,
                ..
            }
        ));
        assert!(matches!(&s.items[1].expr, Expr::Func(name, _) if name == "sqrt"));
    }

    #[test]
    fn alias_forms() {
        let sql = "select E.F as src, E.T dst from E as e1, E e2 where e1.T = e2.F";
        let Statement::Select(s) = Parser::parse_statement(sql).unwrap() else {
            panic!()
        };
        assert_eq!(s.items[0].alias.as_deref(), Some("src"));
        assert_eq!(s.items[1].alias.as_deref(), Some("dst"));
        assert!(matches!(&s.from[0], FromItem::Table { alias: Some(a), .. } if a == "e1"));
    }

    #[test]
    fn rejects_mixed_union_modes() {
        let sql = "with R(x) as ((select x from a) union by update x (select x from R) union all (select x from b)) select x from R";
        assert!(Parser::parse_statement(sql).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Parser::parse_statement("select x from t 42 extra").is_err());
    }

    #[test]
    fn not_exists_parses() {
        let sql = "select ID from V where not exists (select ID from E where F = 1)";
        let Statement::Select(s) = Parser::parse_statement(sql).unwrap() else {
            panic!()
        };
        assert!(matches!(
            s.where_clause,
            Some(Expr::Exists { negated: true, .. })
        ));
    }
}
