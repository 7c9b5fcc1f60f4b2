//! Typed columnar batches: the SoA execution representation (ISSUE 6).
//!
//! A [`Batch`] is a set of aligned [`ColumnVec`]s sharing one length — the
//! column-major counterpart of a [`Relation`]'s `Vec<Row>`. Each column is
//! stored in the densest layout its values admit:
//!
//! * `Int`   — `Vec<i64>` plus a [`NullMask`] (null slots hold `0`),
//! * `Float` — `Vec<f64>` with the exact IEEE bits preserved (so
//!   `-0.0` / NaN payloads round-trip),
//! * `Str`   — dictionary-encoded: `Vec<u32>` ids into an interned
//!   [`StringTable`] (one entry per distinct string),
//! * `Mixed` — `Vec<Value>` fallback for heterogeneous columns, which the
//!   row layer permits (`Relation::push` checks arity only).
//!
//! Null bitmap semantics: a [`NullMask`] is a little-endian `u64` word
//! vector where bit `i % 64` of word `i / 64` set means *row `i` is NULL*.
//! An empty mask means "no nulls"; the word vector may be shorter than
//! `len/64` words (trailing rows are non-null). Typed columns keep a
//! placeholder value (`0`, `0.0`, id `0`) in null slots so the dense
//! vectors stay aligned.
//!
//! Conversions are exact: `Batch::from_relation(r).to_relation()` yields
//! value-for-value identical rows (storage equality *and* float bits).
//! That exactness is what lets the batch executor hand results back across
//! the `Value`-row bridge at the with+/SQL'99 boundary without the four
//! engines noticing.

use std::sync::{Arc, Mutex};

use crate::hash::{FxHashMap, FxHashSet};
use crate::relation::{ColumnSketch, Relation, RelationStats};
use crate::schema::Schema;
use crate::value::{cmp_f64, Value};

/// Row index sentinel used by [`Batch::gather`]: `u32::MAX` gathers a NULL
/// (outer-join padding).
pub const GATHER_NULL: u32 = u32::MAX;

/// An interned string table: one [`Arc<str>`] per distinct string, with
/// O(1) id lookup for interning. Ids are dense and assigned in first-seen
/// order.
#[derive(Clone, Debug, Default)]
pub struct StringTable {
    strings: Vec<Arc<str>>,
    index: FxHashMap<Arc<str>, u32>,
}

impl StringTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Intern `s`, returning its dense id. Re-interning an equal string
    /// returns the same id and allocates nothing.
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(Arc::clone(s));
        self.index.insert(Arc::clone(s), id);
        id
    }

    /// The string behind `id` (panics on an out-of-range id — ids only come
    /// from [`StringTable::intern`] on the same table).
    pub fn get(&self, id: u32) -> &Arc<str> {
        &self.strings[id as usize]
    }

    /// All interned strings in id order.
    pub fn strings(&self) -> &[Arc<str>] {
        &self.strings
    }
}

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
    /// Dictionary-encoded strings; null slots hold id `0`.
    Str {
        ids: Vec<u32>,
        nulls: NullMask,
        dict: StringTable,
    },
    /// Heterogeneous fallback: the row layer's `Value`s verbatim.
    Mixed(Vec<Value>),
}

impl ColumnVec {
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int { vals, .. } => vals.len(),
            ColumnVec::Float { vals, .. } => vals.len(),
            ColumnVec::Str { ids, .. } => ids.len(),
            ColumnVec::Mixed(vals) => vals.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// O(1)-ish resident-size estimate (dict strings counted by pointer
    /// width only; null masks by their words). Feeds the batch metrics.
    pub fn approx_bytes(&self) -> u64 {
        let mask = |m: &NullMask| (m.words().len() * 8) as u64;
        match self {
            ColumnVec::Int { vals, nulls } => (vals.len() * 8) as u64 + mask(nulls),
            ColumnVec::Float { vals, nulls } => (vals.len() * 8) as u64 + mask(nulls),
            ColumnVec::Str { ids, nulls, dict } => {
                (ids.len() * 4 + dict.len() * std::mem::size_of::<Arc<str>>()) as u64 + mask(nulls)
            }
            ColumnVec::Mixed(vals) => (vals.len() * std::mem::size_of::<Value>()) as u64,
        }
    }

    /// True iff row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVec::Int { nulls, .. }
            | ColumnVec::Float { nulls, .. }
            | ColumnVec::Str { nulls, .. } => nulls.get(i),
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
            ColumnVec::Str { ids, nulls, dict } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Text(Arc::clone(dict.get(ids[i])))
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
    /// NULL (outer-join padding). String gathers share the dictionary work
    /// by interning into a fresh table (ids stay dense in the output). A
    /// NULL-free number column gathered without padding (every inner join)
    /// takes a loop with no per-row NULL test.
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
            ColumnVec::Str { ids, nulls, dict } => {
                let mut out = Vec::with_capacity(idx.len());
                let mut on = NullMask::none();
                let mut od = StringTable::new();
                for (o, &i) in idx.iter().enumerate() {
                    if i == GATHER_NULL || nulls.get(i as usize) {
                        out.push(0);
                        on.set(o);
                    } else {
                        out.push(od.intern(dict.get(ids[i as usize])));
                    }
                }
                ColumnVec::Str {
                    ids: out,
                    nulls: on,
                    dict: od,
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
    /// variants stay typed (strings re-intern into `self`'s dictionary);
    /// mismatches spill to `Mixed`.
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
            (
                ColumnVec::Str {
                    ids: a,
                    nulls: an,
                    dict: ad,
                },
                ColumnVec::Str {
                    ids: b,
                    nulls: bn,
                    dict: bd,
                },
            ) => {
                let mut dict = ad.clone();
                let mut ids = a.clone();
                ids.extend(b.iter().map(|&id| dict.intern(bd.get(id))));
                let mut nulls = an.clone();
                nulls.extend_shifted(bn, a.len(), b.len());
                ColumnVec::Str { ids, nulls, dict }
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
            ColumnVec::Str { ids, nulls, dict } => {
                let mut seen = FxHashSet::default();
                let mut min: Option<u32> = None;
                let mut max: Option<u32> = None;
                let mut nullc = 0usize;
                let pick = |cur: Option<u32>, id: u32, want_lt: bool| -> Option<u32> {
                    Some(match cur {
                        None => id,
                        Some(c) => {
                            let ord = dict.get(id).cmp(dict.get(c));
                            if (want_lt && ord.is_lt()) || (!want_lt && ord.is_gt()) {
                                id
                            } else {
                                c
                            }
                        }
                    })
                };
                for (i, &id) in ids.iter().enumerate() {
                    if nulls.get(i) {
                        nullc += 1;
                        continue;
                    }
                    seen.insert(id);
                    min = pick(min, id, true);
                    max = pick(max, id, false);
                }
                ColumnSketch {
                    ndv: seen.len(),
                    min: min.map(|id| Value::Text(Arc::clone(dict.get(id)))),
                    max: max.map(|id| Value::Text(Arc::clone(dict.get(id)))),
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
            (None, Value::Text(s)) => {
                let mut dict = StringTable::new();
                let id = dict.intern(s);
                self.col = Some(ColumnVec::Str {
                    ids: self.first(id),
                    nulls: NullMask::none(),
                    dict,
                })
            }
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
            (Some(ColumnVec::Str { ids, nulls, .. }), Value::Null) => {
                ids.push(0);
                nulls.set(i);
            }
            (Some(ColumnVec::Str { ids, dict, .. }), Value::Text(s)) => {
                ids.push(dict.intern(s));
            }
            (Some(ColumnVec::Mixed(vals)), v) => vals.push(v.clone()),
            // type conflict (incl. an all-null Int prefix meeting a
            // Float/Text, or Int meeting Float): spill to Mixed
            (Some(col), v) => {
                // all-null Int prefix meeting Float/Text re-types instead
                // of spilling — nothing concrete was committed yet
                let all_null = match col {
                    ColumnVec::Int { vals, nulls } => nulls.count() == vals.len(),
                    _ => false,
                };
                if all_null {
                    let n = col.len();
                    match v {
                        Value::Float(x) => {
                            let mut nulls = NullMask::none();
                            for j in 0..n {
                                nulls.set(j);
                            }
                            let mut vals = vec![0.0; n];
                            vals.push(*x);
                            self.col = Some(ColumnVec::Float { vals, nulls });
                        }
                        Value::Text(s) => {
                            let mut nulls = NullMask::none();
                            for j in 0..n {
                                nulls.set(j);
                            }
                            let mut dict = StringTable::new();
                            let mut ids = vec![0u32; n];
                            ids.push(dict.intern(s));
                            self.col = Some(ColumnVec::Str { ids, nulls, dict });
                        }
                        _ => unreachable!("Null/Int handled above"),
                    }
                } else {
                    self.spill().push(v.clone());
                }
            }
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
        let arity = schema.arity();
        let mut builders: Vec<ColumnBuilder> = (0..arity)
            .map(|_| ColumnBuilder::with_capacity(rel.len()))
            .collect();
        for row in rel.iter() {
            for (b, v) in builders.iter_mut().zip(row.iter()) {
                b.push(v);
            }
        }
        Batch {
            schema,
            cols: builders.into_iter().map(|b| Arc::new(b.finish())).collect(),
            len: rel.len(),
        }
    }

    pub fn from_relation(rel: &Relation) -> Batch {
        Batch::from_relation_with_schema(rel, rel.schema().clone())
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

    /// Column-wise statistics: same result as
    /// [`Relation::collect_stats`], computed over typed vectors.
    pub fn collect_stats(&self) -> RelationStats {
        RelationStats {
            rows: self.len,
            columns: self.cols.iter().map(|c| c.sketch()).collect(),
        }
    }
}

/// Per-table cache of the *columnar image* — `Batch::from_relation` of the
/// table's rows — shared through `&Catalog` so the first batch-mode scan
/// transposes and every later one hands out the same `Arc` columns. Same
/// shape and lifetime as [`crate::trie::TrieCache`]: cloning an entry
/// clones the `Arc`s, any mutation of the rows drops the image, and it is
/// never WAL-logged.
#[derive(Default)]
pub struct ImageCache(Mutex<Option<Batch>>);

impl Clone for ImageCache {
    fn clone(&self) -> Self {
        ImageCache(Mutex::new(self.lock().clone()))
    }
}

impl std::fmt::Debug for ImageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ImageCache({})",
            if self.lock().is_some() {
                "built"
            } else {
                "empty"
            }
        )
    }
}

impl ImageCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Batch>> {
        // a poisoned cache holds either nothing or a complete image
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The cached image, if built since the last mutation.
    pub fn cached(&self) -> Option<Batch> {
        self.lock().clone()
    }

    /// The image of `rel`, transposing and caching it on a miss. The
    /// returned batch shares its columns with the cache.
    pub fn get_or_build(&self, rel: &Relation) -> Batch {
        let mut g = self.lock();
        aio_metrics::hooks::column_cache(g.is_some());
        g.get_or_insert_with(|| Batch::from_relation(rel)).clone()
    }

    /// Drop the image (any mutation of the base rows).
    pub fn clear(&self) {
        *self.lock() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{edge_schema, node_schema};
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
    fn dictionary_interns() {
        let mut r = Relation::new(Schema::of(&[("s", DataType::Text)]));
        for w in ["a", "b", "a", "c", "b", "a"] {
            r.push(row![w]).unwrap();
        }
        let b = Batch::from_relation(&r);
        match b.col(0) {
            ColumnVec::Str { ids, dict, .. } => {
                assert_eq!(dict.len(), 3);
                assert_eq!(ids, &[0, 1, 0, 2, 1, 0]);
            }
            c => panic!("expected Str, got {c:?}"),
        }
        assert_eq!(b.to_relation().rows(), r.rows());
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
        let r = mixed_rel();
        let a = row_stats(&r);
        let b = Batch::from_relation(&r).collect_stats();
        assert_eq!(r.collect_stats().rows, b.rows);
        let mut typed = Relation::new(edge_schema());
        typed.push(row![1, 2, 0.5]).unwrap();
        typed.push(row![Value::Null, 2, -0.0]).unwrap();
        typed.push(row![1, 7, f64::NAN]).unwrap();
        typed.push(row![4, Value::Null, 0.0]).unwrap();
        for (rel, (a, b)) in [
            (&r, (a, b)),
            (
                &typed,
                (
                    row_stats(&typed),
                    Batch::from_relation(&typed).collect_stats(),
                ),
            ),
        ] {
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
