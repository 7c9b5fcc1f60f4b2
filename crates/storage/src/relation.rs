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
use std::ops::{Index, Range};
use std::sync::Arc;

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

/// Rows per chunk of a [`Relation`]'s store. A power of two, so a position
/// splits into (chunk, offset) with a shift and a mask.
pub const CHUNK_ROWS: usize = 1024;

/// One chunk of rows, shared between the versions of a table that have not
/// written it (DESIGN §20).
type Chunk = Arc<Vec<Row>>;

/// A bag of rows with a schema and an optional primary key.
///
/// The rows live in chunks of [`CHUNK_ROWS`] behind `Arc`: every chunk but
/// the last is full and none is empty, so row `i` is row `i % CHUNK_ROWS`
/// of chunk `i / CHUNK_ROWS`. A clone shares every chunk; a write copies
/// only the shared chunks it touches, so a writer under a pinned reader
/// pays for the rows it changes, not for the table.
#[derive(Clone, Debug)]
pub struct Relation {
    schema: Schema,
    chunks: Vec<Chunk>,
    /// Column indexes forming the primary key, if declared.
    pk: Option<Vec<usize>>,
}

/// Write access to a chunk, copying it first if another version of the
/// table shares it (counted in `mvcc_cow_rows_total`).
fn chunk_mut(c: &mut Chunk) -> &mut Vec<Row> {
    if Arc::strong_count(c) > 1 {
        aio_metrics::hooks::mvcc_cow_rows(c.len() as u64);
    }
    Arc::make_mut(c)
}

/// A chunk's rows by value: moved out if the chunk is held alone, cloned
/// if it is shared.
fn owned_rows(c: Chunk) -> Vec<Row> {
    Arc::try_unwrap(c).unwrap_or_else(|c| c.to_vec())
}

impl Relation {
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            chunks: Vec::new(),
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
            chunks: Vec::new(),
            pk: Some(pk),
        })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The same rows under another schema of the same arity (column
    /// renames), sharing every chunk. Panics on an arity change.
    pub fn with_schema(self, schema: Schema) -> Self {
        assert_eq!(schema.arity(), self.schema.arity(), "renaming keeps arity");
        Relation { schema, ..self }
    }

    pub fn pk(&self) -> Option<&[usize]> {
        self.pk.as_deref()
    }

    /// Replace the primary-key declaration (used when re-deriving relations).
    pub fn set_pk(&mut self, pk: Option<Vec<usize>>) {
        self.pk = pk;
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |t| (self.chunks.len() - 1) * CHUNK_ROWS + t.len())
    }

    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    #[inline]
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            chunks: &self.chunks,
            start: 0,
            len: self.len(),
        }
    }

    /// The rows chunk by chunk. Two versions of a table share the chunk at
    /// a position exactly when the slices there are the same (`ptr::eq`).
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = &[Row]> + '_ {
        self.chunks.iter().map(|c| &c[..])
    }

    /// O(1) resident-size estimate: per-row `Vec` header plus one `Value`
    /// slot per column. Ignores string spill — this feeds metrics (peak
    /// memory, catalog footprint), not an allocator.
    pub fn approx_bytes(&self) -> u64 {
        self.len() as u64 * approx_row_bytes(self.schema.arity())
    }

    /// The rows by value, moved out of the chunks this relation holds alone
    /// (the first chunk's `Vec` becomes the result).
    pub fn into_rows(self) -> Vec<Row> {
        let len = self.len();
        let mut chunks = self.chunks.into_iter().map(owned_rows);
        let mut out = chunks.next().unwrap_or_default();
        out.reserve_exact(len - out.len());
        chunks.for_each(|c| out.extend(c));
        out
    }

    #[inline]
    pub fn iter(&self) -> RowIter<'_> {
        self.rows().iter()
    }

    /// The rows as one `Vec` to edit freely, put back into chunks (with no
    /// arity check) when the guard drops. O(|rows|) both ways: for code
    /// that builds a relation wholesale, not for writes under readers,
    /// which go through [`Relation::set`], [`Relation::extend`] and
    /// [`Relation::retain`] and copy only the chunks they touch.
    pub fn rows_mut(&mut self) -> RowsMut<'_> {
        let rows = std::mem::take(&mut self.chunks)
            .into_iter()
            .flat_map(owned_rows)
            .collect();
        RowsMut { rel: self, rows }
    }

    /// Write access to every row. Copies each shared chunk: for writes
    /// that touch few rows, [`Relation::set`] copies only their chunks.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Row> {
        self.chunks.iter_mut().flat_map(|c| chunk_mut(c).iter_mut())
    }

    /// Overwrite row `i`, returning the old row. Copies only `i`'s chunk
    /// if it is shared. Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, row: Row) -> Row {
        debug_assert_eq!(row.len(), self.schema.arity());
        let slot = &mut chunk_mut(&mut self.chunks[i / CHUNK_ROWS])[i % CHUNK_ROWS];
        std::mem::replace(slot, row)
    }

    /// Append one row, checking arity only (a declared primary key is not
    /// enforced; see [`Relation::with_pk`]).
    pub fn push(&mut self, row: Row) -> Result<()> {
        self.extend(std::iter::once(row))
    }

    /// Bulk append with arity checks. Fills the tail chunk (copying it
    /// first if it is shared), then opens new ones.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        let expected = self.schema.arity();
        let mut rows = rows.into_iter().map(|row| match row.len() {
            n if n == expected => Ok(row),
            got => Err(StorageError::ArityMismatch { expected, got }),
        });
        while let Some(row) = rows.next() {
            let row = row?; // before a new chunk opens: none is empty
            if self.chunks.last().is_none_or(|t| t.len() == CHUNK_ROWS) {
                // a chunk after a full one will fill too, whatever the hint
                let want = if self.chunks.is_empty() {
                    rows.size_hint().0.saturating_add(1).min(CHUNK_ROWS)
                } else {
                    CHUNK_ROWS
                };
                self.chunks.push(Arc::new(Vec::with_capacity(want)));
            }
            let tail = chunk_mut(self.chunks.last_mut().expect("a chunk with room"));
            tail.push(row);
            while tail.len() < CHUNK_ROWS {
                let Some(row) = rows.next() else { break };
                tail.push(row?);
            }
        }
        Ok(())
    }

    /// Build a relation from a schema and literal rows (tests, loaders).
    pub fn from_rows(schema: Schema, rows: Vec<Row>) -> Result<Self> {
        let mut r = Relation::new(schema);
        r.extend(rows)?;
        Ok(r)
    }

    /// Keep the first `len` rows: drops the chunks past them, and copies
    /// the chunk they end in if it is shared.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        self.chunks.truncate(len.div_ceil(CHUNK_ROWS));
        if let (Some(t), keep @ 1..) = (self.chunks.last_mut(), len % CHUNK_ROWS) {
            chunk_mut(t).truncate(keep);
        }
    }

    /// Keep the rows `keep` accepts, in order; `keep` sees every row once,
    /// in order. Chunks before the first dropped row stay as they are
    /// (shared ones stay shared); the rest are rebuilt.
    pub fn retain(&mut self, mut keep: impl FnMut(&Row) -> bool) {
        let Some(first) = self.rows().iter().position(|r| !keep(r)) else {
            return;
        };
        let k = first / CHUNK_ROWS;
        let rest = self.chunks.split_off(k);
        let shared = rest.iter().filter(|c| Arc::strong_count(c) > 1);
        aio_metrics::hooks::mvcc_cow_rows(shared.map(|c| c.len() as u64).sum());
        let rest = rest
            .into_iter()
            .flat_map(owned_rows)
            .enumerate()
            .filter_map(|(j, row)| {
                let i = k * CHUNK_ROWS + j;
                (i < first || (i > first && keep(&row))).then_some(row)
            });
        self.extend(rest).expect("rows of this relation");
    }

    /// Remove each row in `victims` once (multiset semantics): a victim
    /// appearing k times removes at most k matching rows. Rows absent from
    /// the relation are ignored. Returns how many rows were removed.
    /// First-occurrence order of the survivors is preserved — deletions must
    /// not reorder a table whose bytes the WAL after-images.
    pub fn remove_rows(&mut self, victims: &[Row]) -> usize {
        if victims.is_empty() || self.is_empty() {
            return 0;
        }
        let mut pending: FxHashMap<&Row, usize> = FxHashMap::default();
        for v in victims {
            *pending.entry(v).or_insert(0) += 1;
        }
        let before = self.len();
        self.retain(|r| match pending.get_mut(r) {
            Some(c) if *c > 0 => {
                *c -= 1;
                false
            }
            _ => true,
        });
        before - self.len()
    }

    /// Remove exact duplicate rows (set semantics, storage equality),
    /// preserving first occurrence order.
    pub fn dedup_rows(&mut self) {
        let all: Vec<usize> = (0..self.schema.arity()).collect();
        let mut groups = KeyGroups::new(&all);
        let new: Vec<bool> = self.iter().map(|r| groups.assign(r).1).collect();
        let mut new = new.into_iter();
        self.retain(|_| new.next().unwrap_or(true));
    }

    /// The rows of `self` that `other` does not cover, as multisets: a row
    /// `other` holds k times covers k of its occurrences here. Storage
    /// equality, so ±0.0 and every NaN cover each other.
    pub fn uncovered<'a>(&'a self, other: &'a Relation) -> impl Iterator<Item = &'a Row> {
        let mut counts: FxHashMap<&Row, usize> = FxHashMap::default();
        for r in other.iter() {
            *counts.entry(r).or_insert(0) += 1;
        }
        self.iter().filter(move |r| match counts.get_mut(*r) {
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
        if self.len() > limit {
            out.push_str(&format!("... ({} rows total)\n", self.len()));
        }
        out
    }
}

/// [`Relation::rows_mut`]'s guard.
pub struct RowsMut<'a> {
    rel: &'a mut Relation,
    rows: Vec<Row>,
}

impl std::ops::Deref for RowsMut<'_> {
    type Target = Vec<Row>;

    fn deref(&self) -> &Vec<Row> {
        &self.rows
    }
}

impl std::ops::DerefMut for RowsMut<'_> {
    fn deref_mut(&mut self) -> &mut Vec<Row> {
        &mut self.rows
    }
}

impl Drop for RowsMut<'_> {
    fn drop(&mut self) {
        let mut rows = std::mem::take(&mut self.rows).into_iter();
        while rows.len() > 0 {
            self.rel
                .chunks
                .push(Arc::new(rows.by_ref().take(CHUNK_ROWS).collect()));
        }
    }
}

/// Row `i`. Panics if out of range.
impl Index<usize> for Relation {
    type Output = Row;

    #[inline]
    fn index(&self, i: usize) -> &Row {
        &self.chunks[i / CHUNK_ROWS][i % CHUNK_ROWS]
    }
}

/// A borrowed run of a [`Relation`]'s rows: what `&[Row]` was before the
/// rows were chunked. Copy; indexing is two lookups (chunk, then row).
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    chunks: &'a [Chunk],
    start: usize,
    len: usize,
}

impl<'a> Rows<'a> {
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows at positions `range` of this view. Panics if out of range.
    #[inline]
    pub fn range(&self, range: Range<usize>) -> Rows<'a> {
        let (lo, hi) = (range.start, range.end);
        assert!(
            lo <= hi && hi <= self.len,
            "rows {lo}..{hi} of {}",
            self.len
        );
        Rows {
            chunks: self.chunks,
            start: self.start + lo,
            len: hi - lo,
        }
    }

    #[inline]
    pub fn iter(&self) -> RowIter<'a> {
        let (k, off) = (self.start / CHUNK_ROWS, self.start % CHUNK_ROWS);
        let chunks = self.chunks.get(k..).unwrap_or_default();
        let mut it = RowIter {
            cur: [].iter(),
            chunks: chunks.iter(),
            rest: self.len,
        };
        if let Some(c) = it.chunks.next() {
            let take = (c.len() - off).min(self.len);
            it.cur = c[off..off + take].iter();
            it.rest -= take;
        }
        it
    }

    pub fn to_vec(&self) -> Vec<Row> {
        self.iter().cloned().collect()
    }
}

impl Index<usize> for Rows<'_> {
    type Output = Row;

    #[inline]
    fn index(&self, i: usize) -> &Row {
        assert!(i < self.len, "row {i} of {}", self.len);
        let j = self.start + i;
        &self.chunks[j / CHUNK_ROWS][j % CHUNK_ROWS]
    }
}

impl<'a> IntoIterator for Rows<'a> {
    type Item = &'a Row;
    type IntoIter = RowIter<'a>;

    #[inline]
    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl PartialEq for Rows<'_> {
    fn eq(&self, other: &Rows<'_>) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// Against a slice, a `Vec` or an array of rows.
impl<T: AsRef<[Row]> + ?Sized> PartialEq<T> for Rows<'_> {
    fn eq(&self, other: &T) -> bool {
        let other = other.as_ref();
        self.len == other.len() && self.iter().eq(other)
    }
}

/// Same text as the `&[Row]` it replaced.
impl std::fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Borrowing iterator over [`Rows`]: a slice iterator per chunk.
#[derive(Clone)]
pub struct RowIter<'a> {
    cur: std::slice::Iter<'a, Row>,
    chunks: std::slice::Iter<'a, Chunk>,
    /// Rows left after `cur`.
    rest: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a Row;

    #[inline]
    fn next(&mut self) -> Option<&'a Row> {
        loop {
            if let Some(r) = self.cur.next() {
                return Some(r);
            }
            if self.rest == 0 {
                return None;
            }
            let c = self.chunks.next()?;
            let take = c.len().min(self.rest);
            self.cur = c[..take].iter();
            self.rest -= take;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.cur.len() + self.rest;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

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
            let col = crate::column::ColumnVec::from_values(self.iter().map(|r| &r[i]));
            columns.push(col.sketch());
        }
        RelationStats {
            rows: self.len(),
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
            r[1][1].as_f64().unwrap().is_sign_negative(),
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
        b.truncate(b.len() - 1);
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
