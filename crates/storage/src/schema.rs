//! Relation schemas and column resolution.
//!
//! Columns carry optional *qualifiers* (`E.F`, `V.ID`) so that the output of
//! a join can expose both sides' columns unambiguously, exactly as the
//! paper's SQL examples do (`select TC.F, E.T from TC, E ...`, Fig. 1).

use crate::error::{Result, StorageError};
use std::fmt;
use std::sync::Arc;

/// The declared type of a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataType {
    Int,
    Float,
    Text,
    /// Accepts any value; used for derived expressions whose type is not
    /// statically pinned (e.g. `coalesce(V.vw, V2.vw)`).
    Any,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Text => "text",
            DataType::Any => "any",
        };
        f.write_str(s)
    }
}

/// One column of a schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// Table qualifier, if any (the alias a column came from).
    pub qualifier: Option<String>,
    /// The bare column name.
    pub name: String,
    pub ty: DataType,
}

impl Column {
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Column {
            qualifier: None,
            name: name.into(),
            ty,
        }
    }

    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>, ty: DataType) -> Self {
        Column {
            qualifier: Some(qualifier.into()),
            name: name.into(),
            ty,
        }
    }

    /// `qualifier.name` if qualified, else just `name`.
    pub fn full_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// An ordered list of columns. Cheap to clone (`Arc` inside [`Schema`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    cols: Arc<Vec<Column>>,
}

impl Schema {
    pub fn new(cols: Vec<Column>) -> Self {
        Schema {
            cols: Arc::new(cols),
        }
    }

    /// Schema from `(name, type)` pairs, unqualified.
    pub fn of(pairs: &[(&str, DataType)]) -> Self {
        Schema::new(pairs.iter().map(|(n, t)| Column::new(*n, *t)).collect())
    }

    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Are these the same schema — one `Arc`, not merely equal columns?
    /// What a fact resolved against a schema keys its reuse on.
    pub fn ptr_eq(&self, other: &Schema) -> bool {
        Arc::ptr_eq(&self.cols, &other.cols)
    }

    /// Re-qualify every column with `alias` (what `FROM t AS a` does).
    pub fn with_qualifier(&self, alias: &str) -> Schema {
        Schema::new(
            self.cols
                .iter()
                .map(|c| Column::qualified(alias, &c.name, c.ty))
                .collect(),
        )
    }

    /// Drop all qualifiers (the shape a stored table has).
    pub fn unqualified(&self) -> Schema {
        Schema::new(
            self.cols
                .iter()
                .map(|c| Column::new(&c.name, c.ty))
                .collect(),
        )
    }

    /// Concatenate two schemas (the schema of a product or join).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut cols = self.cols.as_ref().clone();
        cols.extend(other.cols.iter().cloned());
        Schema::new(cols)
    }

    /// Resolve a (possibly qualified) column reference to an index.
    ///
    /// `"E.F"` matches only columns whose qualifier is `E` and name is `F`;
    /// `"F"` matches any column named `F`. Ambiguity is an error, per SQL.
    pub fn index_of(&self, reference: &str) -> Result<usize> {
        let (qual, name) = match reference.split_once('.') {
            Some((q, n)) => (Some(q), n),
            None => (None, reference),
        };
        let mut found: Option<usize> = None;
        for (i, c) in self.cols.iter().enumerate() {
            let matches = match qual {
                Some(q) => c.qualifier.as_deref() == Some(q) && eq_ident(&c.name, name),
                None => eq_ident(&c.name, name),
            };
            if matches {
                if found.is_some() {
                    return Err(StorageError::AmbiguousColumn {
                        column: reference.to_string(),
                        schema: self.describe(),
                    });
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| StorageError::NoSuchColumn {
            column: reference.to_string(),
            schema: self.describe(),
        })
    }

    /// Human-readable `name type, name type, ...` form for error messages.
    pub fn describe(&self) -> String {
        self.cols
            .iter()
            .map(|c| format!("{} {}", c.full_name(), c.ty))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// SQL identifiers are case-insensitive.
fn eq_ident(a: &str, b: &str) -> bool {
    a.eq_ignore_ascii_case(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_schema() -> Schema {
        Schema::of(&[
            ("F", DataType::Int),
            ("T", DataType::Int),
            ("ew", DataType::Float),
        ])
    }

    #[test]
    fn resolves_unqualified() {
        let s = edge_schema();
        assert_eq!(s.index_of("F").unwrap(), 0);
        assert_eq!(s.index_of("ew").unwrap(), 2);
        assert_eq!(s.index_of("EW").unwrap(), 2, "case-insensitive");
    }

    #[test]
    fn resolves_qualified_after_alias() {
        let s = edge_schema().with_qualifier("E1");
        assert_eq!(s.index_of("E1.T").unwrap(), 1);
        assert!(s.index_of("E2.T").is_err());
        assert_eq!(s.index_of("T").unwrap(), 1, "bare name still resolves");
    }

    #[test]
    fn join_schema_detects_ambiguity() {
        let j = edge_schema()
            .with_qualifier("A")
            .join(&edge_schema().with_qualifier("B"));
        assert_eq!(j.arity(), 6);
        assert_eq!(j.index_of("A.F").unwrap(), 0);
        assert_eq!(j.index_of("B.F").unwrap(), 3);
        assert!(matches!(
            j.index_of("F"),
            Err(StorageError::AmbiguousColumn { .. })
        ));
    }

    #[test]
    fn missing_column_names_schema() {
        let err = edge_schema().index_of("vw").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("vw") && msg.contains("ew"), "{msg}");
    }
}
