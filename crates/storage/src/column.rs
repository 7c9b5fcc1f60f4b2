//! Typed columnar batches: the SoA execution representation (ISSUE 6).
//!
//! A [`Batch`] is a set of aligned [`ColumnVec`]s sharing one length — the
//! column-major counterpart of a [`Relation`]'s `Vec<Row>`. Each column is
//! stored in the densest layout its values admit:
//!
//! * `Int`   — `Vec<i64>` plus a [`NullMask`] (null slots hold `0`),
//! * `Float` — `Vec<f64>` with the exact IEEE bits preserved (so
//!   `-0.0` / NaN payloads round-trip),
//! * `Mixed` — `Vec<Value>` for everything else: text columns, and the
//!   heterogeneous columns the row layer permits (`Relation::push` checks
//!   arity only).
//!
//! Null bitmap semantics: a [`NullMask`] is a little-endian `u64` word
//! vector where bit `i % 64` of word `i / 64` set means *row `i` is NULL*.
//! An empty mask means "no nulls"; the word vector may be shorter than
//! `len/64` words (trailing rows are non-null). Typed columns keep a
//! placeholder value (`0`, `0.0`) in null slots so the dense
//! vectors stay aligned.
//!
//! Conversions are exact: `Batch::from_relation(r).to_relation()` yields
//! value-for-value identical rows (storage equality *and* float bits).
//! That exactness is what lets the batch executor hand results back across
//! the `Value`-row bridge at the with+/SQL'99 boundary without the four
//! engines noticing.

use std::sync::{Arc, Mutex};

use crate::hash::FxHashSet;
use crate::relation::{ColumnSketch, Relation, Rows};
use crate::schema::Schema;
use crate::value::{cmp_f64, Value};

/// Row index sentinel used by [`Batch::gather`]: `u32::MAX` gathers a NULL
/// (outer-join padding).
pub const GATHER_NULL: u32 = u32::MAX;

/// Null bitmap: little-endian `u64` words, bit set ⇒ row is NULL. An empty
/// word vector (or any bit past the vector's end) means non-null.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NullMask {
    words: Vec<u64>,
}

impl NullMask {
    /// A mask with no nulls.
    pub fn none() -> Self {
        Self::default()
    }

    /// True iff row `i` is NULL.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Mark row `i` NULL (grows the word vector on demand).
    pub fn set(&mut self, i: usize) {
        let w = i / 64;
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (i % 64);
    }

    /// True iff any row is NULL.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of NULL rows.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Raw words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Indexes of the NULL rows, ascending (all-zero words are skipped).
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.ones_from_word(0)
    }

    fn ones_from_word(&self, first: usize) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .skip(first)
            .flat_map(|(w, &word)| {
                let mut m = word;
                std::iter::from_fn(move || {
                    (m != 0).then(|| {
                        let b = m.trailing_zeros() as usize;
                        m &= m - 1;
                        w * 64 + b
                    })
                })
            })
    }

    /// Rows NULL in either mask (the NULL propagation of a binary kernel).
    pub fn union(&self, other: &NullMask) -> NullMask {
        let (long, short) = if self.words.len() >= other.words.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut words = long.words.clone();
        for (w, s) in words.iter_mut().zip(&short.words) {
            *w |= s;
        }
        NullMask { words }
    }

    /// The mask of rows `range`, re-based so row `range.start` is bit 0.
    pub fn slice(&self, range: std::ops::Range<usize>) -> NullMask {
        let mut out = NullMask::none();
        let inside = self
            .ones_from_word(range.start / 64)
            .skip_while(|&i| i < range.start)
            .take_while(|&i| i < range.end);
        for i in inside {
            out.set(i - range.start);
        }
        out
    }

    /// OR `other` into `self` with every bit shifted up by `offset` rows
    /// (column concatenation for `UNION ALL`).
    pub fn extend_shifted(&mut self, other: &NullMask, offset: usize, other_len: usize) {
        for i in other.ones().take_while(|&i| i < other_len) {
            self.set(offset + i);
        }
    }
}

/// One typed column of a [`Batch`].
#[derive(Clone, Debug)]
pub enum ColumnVec {
    /// Dense `i64`s; null slots hold `0` and are flagged in `nulls`.
    Int { vals: Vec<i64>, nulls: NullMask },
    /// Dense `f64`s with exact bits; null slots hold `0.0`.
    Float { vals: Vec<f64>, nulls: NullMask },
    /// Text and heterogeneous columns: the row layer's `Value`s verbatim.
    Mixed(Vec<Value>),
}

impl ColumnVec {
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int { vals, .. } => vals.len(),
            ColumnVec::Float { vals, .. } => vals.len(),
            ColumnVec::Mixed(vals) => vals.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// O(1) resident-size estimate (strings counted by the width of their
    /// `Value` only; null masks by their words). Feeds the batch metrics.
    pub fn approx_bytes(&self) -> u64 {
        let mask = |m: &NullMask| (m.words().len() * 8) as u64;
        match self {
            ColumnVec::Int { vals, nulls } => (vals.len() * 8) as u64 + mask(nulls),
            ColumnVec::Float { vals, nulls } => (vals.len() * 8) as u64 + mask(nulls),
            ColumnVec::Mixed(vals) => (vals.len() * std::mem::size_of::<Value>()) as u64,
        }
    }

    /// True iff row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVec::Int { nulls, .. } | ColumnVec::Float { nulls, .. } => nulls.get(i),
            ColumnVec::Mixed(vals) => vals[i] == Value::Null,
        }
    }

    /// Materialize row `i` as a [`Value`] (an `Arc` bump for strings).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int { vals, nulls } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Int(vals[i])
                }
            }
            ColumnVec::Float { vals, nulls } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Float(vals[i])
                }
            }
            ColumnVec::Mixed(vals) => vals[i].clone(),
        }
    }

    /// Build a typed column from row-major values, sniffing the densest
    /// representation in one pass. A column that mixes types (beyond NULL)
    /// spills to `Mixed` — `Int` and `Float` never coerce into each other
    /// because storage equality distinguishes them.
    pub fn from_values<'a>(values: impl Iterator<Item = &'a Value>) -> ColumnVec {
        let mut b = ColumnBuilder::new();
        for v in values {
            b.push(v);
        }
        b.finish()
    }

    /// Re-spell a kernel-built column the way [`ColumnVec::from_values`]
    /// would have: a `Float` column with no non-NULL value (empty included)
    /// is an all-NULL `Int` column. Keeps a batch's layout a function of
    /// its values alone, whichever path produced it.
    pub fn canonical(self) -> ColumnVec {
        match self {
            ColumnVec::Float { vals, nulls } if nulls.count() == vals.len() => ColumnVec::Int {
                vals: vec![0; vals.len()],
                nulls,
            },
            other => other,
        }
    }

    /// Concatenate per-morsel parts in order. Typed parts of one variant
    /// append in place; anything else folds through [`ColumnVec::concat`].
    pub fn concat_all(parts: Vec<ColumnVec>) -> ColumnVec {
        let mut parts = parts.into_iter();
        let Some(mut acc) = parts.next() else {
            return ColumnBuilder::new().finish();
        };
        for part in parts {
            match (&mut acc, part) {
                (
                    ColumnVec::Int { vals, nulls },
                    ColumnVec::Int {
                        vals: pv,
                        nulls: pn,
                    },
                ) => {
                    nulls.extend_shifted(&pn, vals.len(), pv.len());
                    vals.extend(pv);
                }
                (
                    ColumnVec::Float { vals, nulls },
                    ColumnVec::Float {
                        vals: pv,
                        nulls: pn,
                    },
                ) => {
                    nulls.extend_shifted(&pn, vals.len(), pv.len());
                    vals.extend(pv);
                }
                (_, part) => acc = acc.concat(&part),
            }
        }
        acc
    }

    /// Gather rows by index into a new column; [`GATHER_NULL`] produces
    /// NULL (outer-join padding). A NULL-free number column gathered
    /// without padding (every inner join) takes a loop with no per-row
    /// NULL test.
    pub fn gather(&self, idx: &[u32]) -> ColumnVec {
        fn take<T: Copy>(vals: &[T], idx: &[u32]) -> Vec<T> {
            idx.iter().map(|&i| vals[i as usize]).collect()
        }
        let dense = |nulls: &NullMask| !nulls.any() && !idx.contains(&GATHER_NULL);
        match self {
            ColumnVec::Int { vals, nulls } if dense(nulls) => ColumnVec::Int {
                vals: take(vals, idx),
                nulls: NullMask::none(),
            },
            ColumnVec::Float { vals, nulls } if dense(nulls) => ColumnVec::Float {
                vals: take(vals, idx),
                nulls: NullMask::none(),
            },
            ColumnVec::Int { vals, nulls } => {
                let mut out = Vec::with_capacity(idx.len());
                let mut on = NullMask::none();
                for (o, &i) in idx.iter().enumerate() {
                    if i == GATHER_NULL || nulls.get(i as usize) {
                        out.push(0);
                        on.set(o);
                    } else {
                        out.push(vals[i as usize]);
                    }
                }
                ColumnVec::Int {
                    vals: out,
                    nulls: on,
                }
            }
            ColumnVec::Float { vals, nulls } => {
                let mut out = Vec::with_capacity(idx.len());
                let mut on = NullMask::none();
                for (o, &i) in idx.iter().enumerate() {
                    if i == GATHER_NULL || nulls.get(i as usize) {
                        out.push(0.0);
                        on.set(o);
                    } else {
                        out.push(vals[i as usize]);
                    }
                }
                ColumnVec::Float {
                    vals: out,
                    nulls: on,
                }
            }
            ColumnVec::Mixed(vals) => ColumnVec::Mixed(
                idx.iter()
                    .map(|&i| {
                        if i == GATHER_NULL {
                            Value::Null
                        } else {
                            vals[i as usize].clone()
                        }
                    })
                    .collect(),
            ),
        }
    }

    /// Concatenate `other` after `self` (UNION ALL). Matching typed
    /// variants stay typed; anything else is `Mixed`.
    pub fn concat(&self, other: &ColumnVec) -> ColumnVec {
        match (self, other) {
            (ColumnVec::Int { vals: a, nulls: an }, ColumnVec::Int { vals: b, nulls: bn }) => {
                let mut vals = a.clone();
                vals.extend_from_slice(b);
                let mut nulls = an.clone();
                nulls.extend_shifted(bn, a.len(), b.len());
                ColumnVec::Int { vals, nulls }
            }
            (ColumnVec::Float { vals: a, nulls: an }, ColumnVec::Float { vals: b, nulls: bn }) => {
                let mut vals = a.clone();
                vals.extend_from_slice(b);
                let mut nulls = an.clone();
                nulls.extend_shifted(bn, a.len(), b.len());
                ColumnVec::Float { vals, nulls }
            }
            _ => {
                let mut vals = Vec::with_capacity(self.len() + other.len());
                for i in 0..self.len() {
                    vals.push(self.value(i));
                }
                for i in 0..other.len() {
                    vals.push(other.value(i));
                }
                ColumnVec::Mixed(vals)
            }
        }
    }

    /// The per-column statistics sketch, computed columnar: typed NDV sets
    /// (`i64` / canonical float bits) instead of hashing `Value` enums.
    /// Produces exactly what [`Relation::collect_stats`] produces row-wise.
    pub fn sketch(&self) -> ColumnSketch {
        match self {
            ColumnVec::Int { vals, nulls } => {
                let mut seen = FxHashSet::default();
                let mut min = None;
                let mut max = None;
                let mut nullc = 0usize;
                for (i, &v) in vals.iter().enumerate() {
                    if nulls.get(i) {
                        nullc += 1;
                        continue;
                    }
                    seen.insert(v);
                    min = Some(min.map_or(v, |m: i64| m.min(v)));
                    max = Some(max.map_or(v, |m: i64| m.max(v)));
                }
                ColumnSketch {
                    ndv: seen.len(),
                    min: min.map(Value::Int),
                    max: max.map(Value::Int),
                    nulls: nullc,
                }
            }
            ColumnVec::Float { vals, nulls } => {
                let mut seen = FxHashSet::default();
                let mut min: Option<f64> = None;
                let mut max: Option<f64> = None;
                let mut nullc = 0usize;
                for (i, &v) in vals.iter().enumerate() {
                    if nulls.get(i) {
                        nullc += 1;
                        continue;
                    }
                    seen.insert(Value::canonical_f64_bits(v));
                    min = Some(min.map_or(v, |m| if cmp_f64(v, m).is_lt() { v } else { m }));
                    max = Some(max.map_or(v, |m| if cmp_f64(v, m).is_gt() { v } else { m }));
                }
                ColumnSketch {
                    ndv: seen.len(),
                    min: min.map(Value::Float),
                    max: max.map(Value::Float),
                    nulls: nullc,
                }
            }
            ColumnVec::Mixed(vals) => {
                let mut seen: FxHashSet<&Value> = FxHashSet::default();
                let mut min: Option<&Value> = None;
                let mut max: Option<&Value> = None;
                let mut nullc = 0usize;
                for v in vals {
                    if *v == Value::Null {
                        nullc += 1;
                        continue;
                    }
                    seen.insert(v);
                    if min.is_none_or(|m| v < m) {
                        min = Some(v);
                    }
                    if max.is_none_or(|m| v > m) {
                        max = Some(v);
                    }
                }
                ColumnSketch {
                    ndv: seen.len(),
                    min: min.cloned(),
                    max: max.cloned(),
                    nulls: nullc,
                }
            }
        }
    }
}

/// Incremental single-pass builder for [`ColumnVec`]: starts typed on the
/// first non-null value and spills to `Mixed` on the first type conflict
/// (reconstructing the already-collected prefix from the typed buffers).
#[derive(Debug, Default)]
pub struct ColumnBuilder {
    col: Option<ColumnVec>,
    len: usize,
    /// Rows the caller expects: the typed buffer is sized once, on the
    /// first value.
    cap: usize,
}

impl ColumnBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder whose typed buffer is allocated once for `cap` rows
    /// instead of growing by doubling.
    pub fn with_capacity(cap: usize) -> Self {
        ColumnBuilder {
            cap,
            ..Self::default()
        }
    }

    /// The typed buffer holding the column's first value.
    fn first<T>(&self, v: T) -> Vec<T> {
        let mut buf = Vec::with_capacity(self.cap.max(1));
        buf.push(v);
        buf
    }

    /// A builder that carries on from `col` as though it had pushed `col`'s
    /// values itself, with room reserved for `more` rows (amortized growth:
    /// a column extended again and again reallocates O(log n) times). The
    /// next pushes re-type or spill it exactly as they would a fresh
    /// build's, so the result is the column of all the values pushed.
    fn resume(col: ColumnVec, more: usize) -> Self {
        let len = col.len();
        let col = match col {
            // an empty column is a builder that has seen nothing yet
            _ if len == 0 => None,
            ColumnVec::Int { mut vals, nulls } => {
                vals.reserve(more);
                Some(ColumnVec::Int { vals, nulls })
            }
            ColumnVec::Float { mut vals, nulls } => {
                vals.reserve(more);
                Some(ColumnVec::Float { vals, nulls })
            }
            ColumnVec::Mixed(mut vals) => {
                vals.reserve(more);
                Some(ColumnVec::Mixed(vals))
            }
        };
        ColumnBuilder {
            col,
            len,
            cap: more,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn spill(&mut self) -> &mut Vec<Value> {
        let cur = self.col.take().unwrap_or(ColumnVec::Mixed(Vec::new()));
        let vals = match cur {
            ColumnVec::Mixed(v) => v,
            typed => (0..typed.len()).map(|i| typed.value(i)).collect(),
        };
        self.col = Some(ColumnVec::Mixed(vals));
        match self.col.as_mut() {
            Some(ColumnVec::Mixed(v)) => v,
            _ => unreachable!(),
        }
    }

    pub fn push(&mut self, v: &Value) {
        let i = self.len;
        self.len += 1;
        match (&mut self.col, v) {
            (None, Value::Null) => {
                // type still unknown: keep an all-null Int column for now;
                // a later typed value will keep it, a Text will spill
                let mut nulls = NullMask::none();
                nulls.set(i);
                self.col = Some(ColumnVec::Int {
                    vals: self.first(0),
                    nulls,
                });
            }
            (None, Value::Int(x)) => {
                self.col = Some(ColumnVec::Int {
                    vals: self.first(*x),
                    nulls: NullMask::none(),
                })
            }
            (None, Value::Float(x)) => {
                self.col = Some(ColumnVec::Float {
                    vals: self.first(*x),
                    nulls: NullMask::none(),
                })
            }
            (None, Value::Text(_)) => self.col = Some(ColumnVec::Mixed(self.first(v.clone()))),
            (Some(ColumnVec::Int { vals, nulls }), Value::Null) => {
                vals.push(0);
                nulls.set(i);
            }
            (Some(ColumnVec::Int { vals, nulls }), Value::Int(x)) => {
                // an all-null prefix is representable as Int regardless of
                // what type the column turns out to be
                let _ = nulls;
                vals.push(*x);
            }
            (Some(ColumnVec::Float { vals, nulls }), Value::Null) => {
                vals.push(0.0);
                nulls.set(i);
            }
            (Some(ColumnVec::Float { vals, .. }), Value::Float(x)) => vals.push(*x),
            (Some(ColumnVec::Mixed(vals)), v) => vals.push(v.clone()),
            // an all-null Int prefix meeting a Float re-types instead of
            // spilling: nothing concrete was committed yet
            (Some(ColumnVec::Int { vals, nulls }), Value::Float(x))
                if nulls.count() == vals.len() =>
            {
                let mut floats = vec![0.0; vals.len()];
                floats.push(*x);
                let nulls = std::mem::take(nulls);
                self.col = Some(ColumnVec::Float {
                    vals: floats,
                    nulls,
                });
            }
            // any other type conflict (Text after numbers or NULLs, Int
            // meeting Float): spill to Mixed
            (Some(_), v) => self.spill().push(v.clone()),
        }
    }

    pub fn finish(self) -> ColumnVec {
        self.col.unwrap_or(ColumnVec::Int {
            vals: Vec::new(),
            nulls: NullMask::none(),
        })
    }
}

/// A batch: aligned columns under one schema. Columns are `Arc`-shared so
/// projections and scans can pass them along without copying.
#[derive(Clone, Debug)]
pub struct Batch {
    schema: Schema,
    cols: Vec<Arc<ColumnVec>>,
    len: usize,
}

impl Batch {
    /// Assemble from parts; every column must have length `len`.
    pub fn from_columns(schema: Schema, cols: Vec<Arc<ColumnVec>>, len: usize) -> Batch {
        debug_assert!(cols.iter().all(|c| c.len() == len));
        debug_assert_eq!(schema.arity(), cols.len());
        Batch { schema, cols, len }
    }

    /// Convert a row-major relation, sniffing the densest layout per
    /// column. `schema` overrides the relation's (scan-time requalifying);
    /// pass `rel.schema().clone()` to keep it.
    pub fn from_relation_with_schema(rel: &Relation, schema: Schema) -> Batch {
        let builders = (0..schema.arity())
            .map(|_| ColumnBuilder::with_capacity(rel.len()))
            .collect();
        Batch::fill(schema, builders, rel.rows(), rel.len())
    }

    pub fn from_relation(rel: &Relation) -> Batch {
        Batch::from_relation_with_schema(rel, rel.schema().clone())
    }

    /// This batch, the image of `rel`'s first `self.len()` rows, completed
    /// to `Batch::from_relation(rel)` — layout and bits — by transposing
    /// only the rows past it. A column this batch holds alone grows in
    /// place; one still shared (a scan holding it) is copied first.
    fn extend_to(self, rel: &Relation) -> Batch {
        let (from, to) = (self.len, rel.len());
        debug_assert!(from <= to, "an image covers a prefix of its table");
        let builders = self
            .cols
            .into_iter()
            .map(|c| ColumnBuilder::resume(Arc::unwrap_or_clone(c), to - from))
            .collect();
        let rows = rel.rows().range(from..to);
        Batch::fill(rel.schema().clone(), builders, rows, to)
    }

    /// Push `rows` through one builder per column: a batch of `len` rows.
    fn fill(schema: Schema, mut builders: Vec<ColumnBuilder>, rows: Rows<'_>, len: usize) -> Batch {
        for row in rows.iter() {
            for (b, v) in builders.iter_mut().zip(row.iter()) {
                b.push(v);
            }
        }
        Batch {
            schema,
            cols: builders.into_iter().map(|b| Arc::new(b.finish())).collect(),
            len,
        }
    }

    /// Materialize back to rows — the `Value` bridge at the with+/SQL'99
    /// boundary. Exact: float bits and string identities survive.
    pub fn to_relation(&self) -> Relation {
        let mut rel = Relation::new(self.schema.clone());
        let rows = (0..self.len).map(|i| self.cols.iter().map(|c| c.value(i)).collect());
        rel.extend(rows).expect("batch columns are schema-aligned");
        rel
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn col(&self, i: usize) -> &ColumnVec {
        &self.cols[i]
    }

    /// Estimated resident bytes across all columns (see
    /// [`ColumnVec::approx_bytes`]).
    pub fn approx_bytes(&self) -> u64 {
        self.cols.iter().map(|c| c.approx_bytes()).sum()
    }

    pub fn col_arc(&self, i: usize) -> Arc<ColumnVec> {
        Arc::clone(&self.cols[i])
    }

    pub fn columns(&self) -> &[Arc<ColumnVec>] {
        &self.cols
    }

    /// Same columns (shared), different qualifier — the batch engine's
    /// zero-copy `rename` used at scan time.
    pub fn with_schema(&self, schema: Schema) -> Batch {
        debug_assert_eq!(schema.arity(), self.schema.arity());
        Batch {
            schema,
            cols: self.cols.clone(),
            len: self.len,
        }
    }

    /// Materialize row `i` into `out` (scratch-row bridge for generic
    /// expression evaluation).
    pub fn fill_row(&self, i: usize, out: &mut [Value]) {
        for (slot, c) in out.iter_mut().zip(&self.cols) {
            *slot = c.value(i);
        }
    }

    /// Gather rows by index ([`GATHER_NULL`] ⇒ NULL padding) across every
    /// column.
    pub fn gather(&self, idx: &[u32]) -> Batch {
        Batch {
            schema: self.schema.clone(),
            cols: self.cols.iter().map(|c| Arc::new(c.gather(idx))).collect(),
            len: idx.len(),
        }
    }
}

/// Per-table cache of the *columnar image* — `Batch::from_relation` of the
/// table's rows — shared through `&Catalog` so the first batch-mode scan
/// transposes and every later one hands out the same `Arc` columns. Same
/// shape and lifetime as [`crate::trie::TrieCache`] — cloning an entry
/// clones the `Arc`s, and it is never WAL-logged — except that an append
/// keeps the image as the image of the rows it covers (a *prefix*), which
/// the next scan completes by transposing only the appended rows.
#[derive(Default)]
pub struct ImageCache(Mutex<Image>);

/// What an [`ImageCache`] holds.
#[derive(Clone, Default)]
enum Image {
    #[default]
    Empty,
    /// The image of the table's first `len()` rows: appends came after it.
    Prefix(Batch),
    /// The image of every row.
    Complete(Batch),
}

impl Clone for ImageCache {
    fn clone(&self) -> Self {
        ImageCache(Mutex::new(self.lock().clone()))
    }
}

impl std::fmt::Debug for ImageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match *self.lock() {
            Image::Empty => "empty",
            Image::Prefix(_) => "prefix",
            Image::Complete(_) => "built",
        };
        write!(f, "ImageCache({state})")
    }
}

impl ImageCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, Image> {
        // a poisoned cache holds nothing, a prefix or a complete image
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The cached image, if it covers every row: built or completed since
    /// the last mutation.
    pub fn cached(&self) -> Option<Batch> {
        match &*self.lock() {
            Image::Complete(b) => Some(b.clone()),
            _ => None,
        }
    }

    /// The image held, complete or the prefix an append kept: the image
    /// of the table's first `len()` rows either way.
    pub fn prefix(&self) -> Option<Batch> {
        match &*self.lock() {
            Image::Prefix(b) | Image::Complete(b) => Some(b.clone()),
            Image::Empty => None,
        }
    }

    /// The image of `rel`, transposing and caching it on a miss; a prefix
    /// is completed with `rel`'s rows past it (a miss unless there were
    /// none). The returned batch shares its columns with the cache.
    pub fn get_or_build(&self, rel: &Relation) -> Batch {
        let mut g = self.lock();
        let (image, hit) = match std::mem::take(&mut *g) {
            Image::Complete(b) => (b, true),
            Image::Prefix(b) => {
                let hit = b.len() == rel.len();
                (b.extend_to(rel), hit)
            }
            Image::Empty => (Batch::from_relation(rel), false),
        };
        aio_metrics::hooks::column_cache(hit);
        *g = Image::Complete(image.clone());
        image
    }

    /// Keep the image as the image of a prefix: the rows it covers are
    /// unchanged and more follow them (an append).
    pub(crate) fn keep_prefix(&self) {
        let mut g = self.lock();
        *g = match std::mem::take(&mut *g) {
            Image::Complete(b) | Image::Prefix(b) => Image::Prefix(b),
            Image::Empty => Image::Empty,
        };
    }

    /// Move the image out, leaving this cache empty.
    pub(crate) fn take(&self) -> ImageCache {
        ImageCache(Mutex::new(std::mem::take(&mut *self.lock())))
    }

    /// Drop the image (any mutation of the base rows but an append).
    pub fn clear(&self) {
        *self.lock() = Image::Empty;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{edge_schema, node_schema, RelationStats};
    use crate::row;
    use crate::schema::DataType;

    fn mixed_rel() -> Relation {
        let mut r = Relation::new(Schema::of(&[("a", DataType::Any), ("b", DataType::Any)]));
        r.push(row![1, 1.5]).unwrap();
        r.push(row![Value::Null, "x"]).unwrap();
        r.push(row![3, Value::Null]).unwrap();
        r.push(row![-0.0, "x"]).unwrap();
        r
    }

    #[test]
    fn roundtrip_is_exact() {
        let r = mixed_rel();
        let b = Batch::from_relation(&r);
        assert_eq!(b.len(), 4);
        let back = b.to_relation();
        assert_eq!(r.rows(), back.rows());
        // float bits survive: -0.0 stays -0.0
        match &back[3][0] {
            Value::Float(f) => assert!(f.is_sign_negative()),
            v => panic!("expected float, got {v:?}"),
        }
    }

    #[test]
    fn typed_sniffing() {
        let mut r = Relation::new(edge_schema());
        r.push(row![1, 2, 0.5]).unwrap();
        r.push(row![Value::Null, 3, 1.5]).unwrap();
        let b = Batch::from_relation(&r);
        assert!(matches!(b.col(0), ColumnVec::Int { .. }));
        assert!(matches!(b.col(1), ColumnVec::Int { .. }));
        assert!(matches!(b.col(2), ColumnVec::Float { .. }));
        assert!(b.col(0).is_null(1));
        assert!(!b.col(0).is_null(0));
        // column 0 mixes Int and Float in `a` of mixed_rel → Mixed
        let m = Batch::from_relation(&mixed_rel());
        assert!(matches!(m.col(0), ColumnVec::Mixed(_)));
        assert!(matches!(m.col(1), ColumnVec::Mixed(_)));
    }

    #[test]
    fn all_null_prefix_retypes() {
        let mut r = Relation::new(Schema::of(&[("a", DataType::Any)]));
        r.push(row![Value::Null]).unwrap();
        r.push(row![Value::Null]).unwrap();
        r.push(row![2.5]).unwrap();
        let b = Batch::from_relation(&r);
        assert!(matches!(b.col(0), ColumnVec::Float { .. }));
        assert_eq!(b.to_relation().rows(), r.rows());
    }

    #[test]
    fn text_columns_are_mixed() {
        let mut r = Relation::new(Schema::of(&[("s", DataType::Text)]));
        for w in [Value::Null, "a".into(), "b".into(), "a".into()] {
            r.push(row![w]).unwrap();
        }
        let b = Batch::from_relation(&r);
        assert!(matches!(b.col(0), ColumnVec::Mixed(_)));
        assert_eq!(b.to_relation().rows(), r.rows());
    }

    /// Column for column the same layout, values and float bits.
    fn same_batch(a: &Batch, b: &Batch) -> bool {
        let same_col = |x: &ColumnVec, y: &ColumnVec| match (x, y) {
            (ColumnVec::Int { vals: a, nulls: an }, ColumnVec::Int { vals: b, nulls: bn }) => {
                a == b && an == bn
            }
            (ColumnVec::Float { vals: a, nulls: an }, ColumnVec::Float { vals: b, nulls: bn }) => {
                a.iter()
                    .map(|f| f.to_bits())
                    .eq(b.iter().map(|f| f.to_bits()))
                    && an == bn
            }
            (ColumnVec::Mixed(a), ColumnVec::Mixed(b)) => a == b,
            _ => false,
        };
        a.len() == b.len()
            && a.schema() == b.schema()
            && a.columns()
                .iter()
                .zip(b.columns())
                .all(|(x, y)| same_col(x, y))
    }

    /// Completing the image of any prefix gives the fresh build of the
    /// whole, whatever the rows past the cut do to the sniffed layout
    /// (re-type an all-NULL prefix, spill to `Mixed`, or keep it).
    #[test]
    fn extending_a_prefix_image_matches_a_fresh_build() {
        let one = |vals: &[Value]| {
            let mut r = Relation::new(Schema::of(&[("a", DataType::Any)]));
            r.extend(vals.iter().map(|v| row![v.clone()])).unwrap();
            r
        };
        let (nan, nz) = (Value::Float(f64::NAN), Value::Float(-0.0));
        let rels = [
            mixed_rel(),
            one(&[Value::Int(1), Value::Null, Value::Float(2.5)]),
            one(&[Value::Null, Value::Null, Value::Float(2.5), Value::Null]),
            one(&[Value::Null, Value::Null, "t".into(), Value::Int(3)]),
            one(&[nz.clone(), Value::Null, nan.clone(), nz, nan]),
            one(&[Value::Int(1), "t".into(), Value::Null]),
            one(&[]),
        ];
        for rel in &rels {
            let want = Batch::from_relation(rel);
            for cut in 0..=rel.len() {
                let mut pre = rel.clone();
                pre.truncate(cut);
                let image = Batch::from_relation(&pre);
                // held by a scan: the columns are copied, not grown
                let held = image.clone();
                let got = image.extend_to(rel);
                assert!(same_batch(&got, &want), "{rel:?} cut at {cut}");
                assert!(same_batch(&held, &Batch::from_relation(&pre)));
                // held alone: grown in place
                assert!(same_batch(&held.extend_to(rel), &want), "{rel:?} at {cut}");
            }
        }
    }

    #[test]
    fn gather_pads_nulls() {
        let mut r = Relation::new(node_schema());
        r.push(row![1, 0.1]).unwrap();
        r.push(row![2, 0.2]).unwrap();
        r.push(row![3, 0.3]).unwrap();
        let b = Batch::from_relation(&r);
        let g = b.gather(&[2, GATHER_NULL, 0]);
        assert_eq!(g.len(), 3);
        let rows = g.to_relation();
        assert_eq!(rows[0], row![3, 0.3]);
        assert_eq!(rows[1], row![Value::Null, Value::Null]);
        assert_eq!(rows[2], row![1, 0.1]);
    }

    /// Every layout, with and without NULLs, gathered with and without
    /// padding (repeats and reversals included): row for row what reading
    /// each source row with `value` gives, float bits and column type kept.
    #[test]
    fn gather_matches_a_per_row_read() {
        let int = |i: usize| Value::Int(i as i64 * 3 - 4);
        let float = |i: usize| Value::Float([1.5, -0.0, f64::NAN, 0.0, f64::INFINITY][i % 5]);
        let text = |i: usize| Value::from(["a", "b", "c"][i % 3]);
        let mixed = |i: usize| [Value::Int(1), Value::Float(-0.0), Value::from("x")][i % 3].clone();
        // row `i` of `c` with its float bits, `GATHER_NULL` read as NULL
        let read = |c: &ColumnVec, i: u32| match i {
            GATHER_NULL => format!("{:?}", Value::Null),
            i => format!("{:?}", c.value(i as usize)),
        };
        for make in [&int as &dyn Fn(usize) -> Value, &float, &text, &mixed] {
            for null in [None, Some(0), Some(4), Some(8)] {
                let vals: Vec<Value> = (0..9)
                    .map(|i| {
                        Some(i)
                            .filter(|&i| null != Some(i))
                            .map_or(Value::Null, make)
                    })
                    .collect();
                let col = ColumnVec::from_values(vals.iter());
                let lists: [Vec<u32>; 4] = [
                    (0..9).collect(),
                    (0..9).rev().chain([0, 0, 8]).collect(),
                    vec![8, GATHER_NULL, 0, 2, GATHER_NULL],
                    vec![],
                ];
                for idx in &lists {
                    let got = col.gather(idx);
                    let same_layout = std::mem::discriminant(&got) == std::mem::discriminant(&col);
                    assert!(same_layout, "{col:?} by {idx:?}");
                    let got: Vec<String> = (0..got.len() as u32).map(|o| read(&got, o)).collect();
                    let want: Vec<String> = idx.iter().map(|&i| read(&col, i)).collect();
                    assert_eq!(got, want, "{col:?} by {idx:?}");
                }
            }
        }
    }

    #[test]
    fn concat_matches_union_all() {
        let mut a = Relation::new(node_schema());
        a.push(row![1, 0.1]).unwrap();
        let mut b = Relation::new(node_schema());
        b.push(row![Value::Null, 0.2]).unwrap();
        b.push(row![2, Value::Null]).unwrap();
        let (ba, bb) = (Batch::from_relation(&a), Batch::from_relation(&b));
        let cat = ColumnVec::concat(ba.col(0), bb.col(0));
        assert_eq!(cat.len(), 3);
        assert_eq!(cat.value(0), Value::Int(1));
        assert_eq!(cat.value(1), Value::Null);
        assert_eq!(cat.value(2), Value::Int(2));
    }

    #[test]
    fn null_mask_slice_union_and_ones() {
        let mut m = NullMask::none();
        for i in [0, 5, 63, 64, 130, 199] {
            m.set(i);
        }
        assert_eq!(m.ones().collect::<Vec<_>>(), vec![0, 5, 63, 64, 130, 199]);
        for range in [0..200, 5..64, 63..131, 64..64, 131..199, 190..400] {
            let s = m.slice(range.clone());
            for i in 0..range.len() + 70 {
                assert_eq!(
                    s.get(i),
                    i < range.len() && m.get(range.start + i),
                    "{range:?} bit {i}"
                );
            }
        }
        let mut other = NullMask::none();
        other.set(3);
        other.set(300);
        for u in [m.union(&other), other.union(&m)] {
            assert_eq!(
                u.ones().collect::<Vec<_>>(),
                vec![0, 3, 5, 63, 64, 130, 199, 300]
            );
        }
        assert!(!NullMask::none().union(&NullMask::none()).any());
    }

    #[test]
    fn concat_all_and_canonical_match_from_values() {
        let vals: Vec<Value> = (0..150)
            .map(|i| {
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Float(i as f64 / 4.0)
                }
            })
            .collect();
        for cuts in [
            vec![150],
            vec![0, 150],
            vec![1, 64, 65, 150],
            vec![70, 70, 150],
        ] {
            let mut parts = Vec::new();
            let mut lo = 0;
            for hi in cuts {
                let mut nulls = NullMask::none();
                let part: Vec<f64> = vals[lo..hi]
                    .iter()
                    .enumerate()
                    .map(|(o, v)| {
                        v.as_f64().unwrap_or_else(|| {
                            nulls.set(o);
                            0.0
                        })
                    })
                    .collect();
                parts.push(ColumnVec::Float { vals: part, nulls });
                lo = hi;
            }
            let col = ColumnVec::concat_all(parts).canonical();
            assert!(matches!(col, ColumnVec::Float { .. }));
            assert_eq!((0..150).map(|i| col.value(i)).collect::<Vec<_>>(), vals);
        }
        // no non-NULL float (or nothing at all) is an all-NULL Int column,
        // as `from_values` spells it
        let mut nulls = NullMask::none();
        nulls.set(0);
        nulls.set(1);
        for col in [
            ColumnVec::Float {
                vals: vec![0.0, 0.0],
                nulls,
            }
            .canonical(),
            ColumnVec::concat_all(vec![]).canonical(),
            ColumnVec::Float {
                vals: vec![],
                nulls: NullMask::none(),
            }
            .canonical(),
        ] {
            assert!(matches!(&col, ColumnVec::Int { nulls, vals } if nulls.count() == vals.len()));
        }
    }

    /// Row-at-a-time reference implementation of the stats sketch (the
    /// pre-columnar `collect_stats`), kept as the oracle.
    fn row_stats(r: &Relation) -> RelationStats {
        let arity = r.schema().arity();
        let mut seen: Vec<FxHashSet<&Value>> = (0..arity).map(|_| Default::default()).collect();
        let mut columns: Vec<ColumnSketch> = (0..arity)
            .map(|_| ColumnSketch {
                ndv: 0,
                min: None,
                max: None,
                nulls: 0,
            })
            .collect();
        for row in r.iter() {
            for (i, v) in row.iter().enumerate() {
                if *v == Value::Null {
                    columns[i].nulls += 1;
                    continue;
                }
                seen[i].insert(v);
                let c = &mut columns[i];
                if c.min.as_ref().is_none_or(|m| v < m) {
                    c.min = Some(v.clone());
                }
                if c.max.as_ref().is_none_or(|m| v > m) {
                    c.max = Some(v.clone());
                }
            }
        }
        for (c, s) in columns.iter_mut().zip(&seen) {
            c.ndv = s.len();
        }
        RelationStats {
            rows: r.len(),
            columns,
        }
    }

    #[test]
    fn columnar_stats_match_row_stats() {
        let mut typed = Relation::new(edge_schema());
        typed.push(row![1, 2, 0.5]).unwrap();
        typed.push(row![Value::Null, 2, -0.0]).unwrap();
        typed.push(row![1, 7, f64::NAN]).unwrap();
        typed.push(row![4, Value::Null, 0.0]).unwrap();
        for rel in [&mixed_rel(), &typed] {
            let (a, b) = (row_stats(rel), rel.collect_stats());
            assert_eq!(a.rows, b.rows);
            for i in 0..rel.schema().arity() {
                let (x, y) = (a.column(i).unwrap(), b.column(i).unwrap());
                assert_eq!(x.ndv, y.ndv, "col {i} ndv");
                assert_eq!(x.min, y.min, "col {i} min");
                assert_eq!(x.max, y.max, "col {i} max");
                assert_eq!(x.nulls, y.nulls, "col {i} nulls");
            }
        }
    }
}
