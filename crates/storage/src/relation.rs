//! In-memory relations (bags of rows under a schema).
//!
//! The with+ execution model materializes a relation per operator, mirroring
//! the paper's SQL/PSM translation where every step is an `INSERT INTO` a
//! temporary table (Section 6, "The implementation"). `Relation` is therefore
//! an owned, materialized row store rather than a streaming iterator.

use crate::error::{Result, StorageError};
use crate::hash::FxHashMap;
use crate::keyidx::KeyGroups;
use crate::schema::{DataType, Schema};
use crate::value::Value;

/// A stored row. Boxed slice: two words, no spare capacity.
pub type Row = Box<[Value]>;

/// Build a [`Row`] from anything convertible to [`Value`]s.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        vec![$($crate::value::Value::from($v)),*].into_boxed_slice()
    };
}

/// Estimated resident bytes of one row of the given arity: the boxed-slice
/// header plus one `Value` slot per column (string spill ignored).
pub fn approx_row_bytes(arity: usize) -> u64 {
    (std::mem::size_of::<Row>() + arity * std::mem::size_of::<Value>()) as u64
}

/// A bag of rows with a schema and an optional primary key.
#[derive(Clone, Debug)]
pub struct Relation {
    schema: Schema,
    rows: Vec<Row>,
    /// Column indexes forming the primary key, if declared.
    pk: Option<Vec<usize>>,
}

impl Relation {
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            rows: Vec::new(),
            pk: None,
        }
    }

    /// Create with a declared primary key (by column reference).
    ///
    /// The paper declares `(F, T)` the primary key of `E` and `ID` of `V`
    /// (Section 4). The declaration is metadata: the WAL and snapshots
    /// persist it, nothing enforces it. Union-by-update checks the
    /// uniqueness it needs on its own input (`KeyIndex::first_duplicate`).
    pub fn with_pk(schema: Schema, pk_cols: &[&str]) -> Result<Self> {
        let pk = pk_cols
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<Result<Vec<_>>>()?;
        Ok(Relation {
            schema,
            rows: Vec::new(),
            pk: Some(pk),
        })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn pk(&self) -> Option<&[usize]> {
        self.pk.as_deref()
    }

    /// Replace the primary-key declaration (used when re-deriving relations).
    pub fn set_pk(&mut self, pk: Option<Vec<usize>>) {
        self.pk = pk;
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// O(1) resident-size estimate: per-row `Vec` header plus one `Value`
    /// slot per column. Ignores string spill — this feeds metrics (peak
    /// memory, catalog footprint), not an allocator.
    pub fn approx_bytes(&self) -> u64 {
        self.rows.len() as u64 * approx_row_bytes(self.schema.arity())
    }

    pub fn rows_mut(&mut self) -> &mut Vec<Row> {
        &mut self.rows
    }

    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }

    /// Append one row, checking arity only (a declared primary key is not
    /// enforced; see [`Relation::with_pk`]).
    pub fn push(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Bulk append with arity checks.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        for r in rows {
            self.push(r)?;
        }
        Ok(())
    }

    /// Build a relation from a schema and literal rows (tests, loaders).
    pub fn from_rows(schema: Schema, rows: Vec<Row>) -> Result<Self> {
        let mut r = Relation::new(schema);
        r.extend(rows)?;
        Ok(r)
    }

    pub fn truncate(&mut self) {
        self.rows.clear();
    }

    /// Remove each row in `victims` once (multiset semantics): a victim
    /// appearing k times removes at most k matching rows. Rows absent from
    /// the relation are ignored. Returns how many rows were removed.
    /// First-occurrence order of the survivors is preserved — deletions must
    /// not reorder a table whose bytes the WAL after-images.
    pub fn remove_rows(&mut self, victims: &[Row]) -> usize {
        if victims.is_empty() || self.rows.is_empty() {
            return 0;
        }
        let mut pending: FxHashMap<&Row, usize> = FxHashMap::default();
        for v in victims {
            *pending.entry(v).or_insert(0) += 1;
        }
        let before = self.rows.len();
        self.rows.retain(|r| match pending.get_mut(r) {
            Some(c) if *c > 0 => {
                *c -= 1;
                false
            }
            _ => true,
        });
        before - self.rows.len()
    }

    /// Remove exact duplicate rows (set semantics, storage equality),
    /// preserving first occurrence order.
    pub fn dedup_rows(&mut self) {
        let all: Vec<usize> = (0..self.schema.arity()).collect();
        let mut groups = KeyGroups::new(&all);
        let new: Vec<bool> = self.rows.iter().map(|r| groups.assign(r).1).collect();
        let mut new = new.into_iter();
        self.rows.retain(|_| new.next().unwrap());
    }

    /// The rows of `self` that `other` does not cover, as multisets: a row
    /// `other` holds k times covers k of its occurrences here. Storage
    /// equality, so ±0.0 and every NaN cover each other.
    pub fn uncovered<'a>(&'a self, other: &'a Relation) -> impl Iterator<Item = &'a Row> {
        let mut counts: FxHashMap<&Row, usize> = FxHashMap::default();
        for r in &other.rows {
            *counts.entry(r).or_insert(0) += 1;
        }
        self.rows.iter().filter(move |r| match counts.get_mut(*r) {
            Some(c) if *c > 0 => {
                *c -= 1;
                false
            }
            _ => true,
        })
    }

    /// Bag equality ignoring row order.
    pub fn same_rows_unordered(&self, other: &Relation) -> bool {
        self.len() == other.len() && self.uncovered(other).next().is_none()
    }

    /// Render the first `limit` rows as an aligned text table (debugging,
    /// examples).
    pub fn display(&self, limit: usize) -> String {
        let mut out = String::new();
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.full_name())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let shown: Vec<Vec<String>> = self
            .rows
            .iter()
            .take(limit)
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &shown {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        };
        line(&headers, &mut out);
        for row in &shown {
            line(row, &mut out);
        }
        if self.rows.len() > limit {
            out.push_str(&format!("... ({} rows total)\n", self.rows.len()));
        }
        out
    }
}

/// Per-column sketch: distinct count plus min/max (NULLs excluded), the
/// inputs of textbook selectivity formulas. An exact pass — relations here
/// are in-memory, so one scan is cheap relative to query execution.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnSketch {
    /// Number of distinct non-NULL values.
    pub ndv: usize,
    /// Smallest non-NULL value, if any row has one.
    pub min: Option<Value>,
    /// Largest non-NULL value, if any row has one.
    pub max: Option<Value>,
    /// Rows whose value in this column is NULL.
    pub nulls: usize,
}

/// Table-level statistics: cardinality + one [`ColumnSketch`] per column,
/// positionally aligned with the schema.
#[derive(Clone, Debug, PartialEq)]
pub struct RelationStats {
    pub rows: usize,
    pub columns: Vec<ColumnSketch>,
}

impl RelationStats {
    /// The sketch for the column at schema position `i`, if in range.
    pub fn column(&self, i: usize) -> Option<&ColumnSketch> {
        self.columns.get(i)
    }
}

impl Relation {
    /// Collect [`RelationStats`] column-at-a-time: each column is lifted
    /// into its typed [`crate::column::ColumnVec`] layout and sketched over
    /// dense `i64`/`f64` vectors (NDV via primitive hash sets, min/max over
    /// machine types) instead of hashing `Value` enums per cell.
    /// Heterogeneous columns fall back to the generic `Value` path; the
    /// resulting sketches are identical either way — NULLs counted
    /// separately, excluded from NDV and bounds, ordering per the total
    /// `Ord` on [`Value`].
    pub fn collect_stats(&self) -> RelationStats {
        let arity = self.schema.arity();
        let mut columns = Vec::with_capacity(arity);
        for i in 0..arity {
            let col = crate::column::ColumnVec::from_values(self.rows.iter().map(|r| &r[i]));
            columns.push(col.sketch());
        }
        RelationStats {
            rows: self.rows.len(),
            columns,
        }
    }
}

/// Convenience: the paper's canonical edge relation schema `E(F, T, ew)`.
pub fn edge_schema() -> Schema {
    Schema::of(&[
        ("F", DataType::Int),
        ("T", DataType::Int),
        ("ew", DataType::Float),
    ])
}

/// Convenience: the paper's canonical node relation schema `V(ID, vw)`.
pub fn node_schema() -> Schema {
    Schema::of(&[("ID", DataType::Int), ("vw", DataType::Float)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        let mut r = Relation::with_pk(edge_schema(), &["F", "T"]).unwrap();
        r.extend([row![1, 2, 1.0], row![2, 3, 1.0], row![1, 3, 0.5]])
            .unwrap();
        r
    }

    #[test]
    fn arity_enforced() {
        let mut r = Relation::new(node_schema());
        assert!(r.push(row![1, 2.0]).is_ok());
        assert!(matches!(
            r.push(row![1]),
            Err(StorageError::ArityMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn dedup_keeps_first_occurrences_under_storage_equality() {
        let mut r = Relation::new(node_schema());
        r.extend([
            row![3, 1.0],
            row![1, -0.0],
            row![3, 1.0],
            row![2, 5.0],
            row![1, 0.0],
            row![2, f64::NAN],
            row![2, -f64::NAN],
        ])
        .unwrap();
        r.dedup_rows();
        let want = [row![3, 1.0], row![1, -0.0], row![2, 5.0], row![2, f64::NAN]];
        assert_eq!(r.rows(), &want[..]);
        assert!(
            r.rows()[1][1].as_f64().unwrap().is_sign_negative(),
            "first spelling kept"
        );
    }

    #[test]
    fn remove_rows_multiset_first_match() {
        let mut r = Relation::new(node_schema());
        r.extend([row![1, 1.0], row![2, 2.0], row![1, 1.0], row![3, 3.0]])
            .unwrap();
        // one victim removes only one of the two duplicates
        let removed = r.remove_rows(&[row![1, 1.0], row![9, 9.0]]);
        assert_eq!(removed, 1);
        assert_eq!(r.len(), 3);
        // duplicate victims remove both copies; survivor order preserved
        let mut r2 = Relation::new(node_schema());
        r2.extend([row![1, 1.0], row![2, 2.0], row![1, 1.0], row![3, 3.0]])
            .unwrap();
        assert_eq!(r2.remove_rows(&[row![1, 1.0], row![1, 1.0]]), 2);
        let ids: Vec<i64> = r2.iter().map(|x| x[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn unordered_equality() {
        let mut a = Relation::new(node_schema());
        a.extend([row![1, 1.0], row![2, 2.0], row![1, 1.0]])
            .unwrap();
        let mut b = Relation::new(node_schema());
        b.extend([row![2, 2.0], row![1, 1.0], row![1, 1.0]])
            .unwrap();
        assert!(a.same_rows_unordered(&b));
        b.rows_mut().pop();
        assert!(!a.same_rows_unordered(&b));
        // multiset difference: b lacks one copy of (1, 1.0)
        let missing: Vec<&Row> = a.uncovered(&b).collect();
        assert_eq!(missing, vec![&row![1, 1.0]]);
        assert_eq!(b.uncovered(&a).count(), 0);
    }

    #[test]
    fn display_renders_header_and_rows() {
        let r = sample();
        let s = r.display(2);
        assert!(s.contains('F') && s.contains("ew"));
        assert!(s.contains("(3 rows total)"));
    }
}
