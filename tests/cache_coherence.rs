//! Cache coherence of the catalog's derived data (proptest over random
//! mutation sequences).
//!
//! A table entry caches four things derived from its rows: optimizer
//! statistics, sorted indexes, tries and the columnar image. The contract
//! is that none of them ever describes rows the table no longer holds:
//!
//! 1. after **every** step of a random interleaving of every mutation path
//!    the catalog has — `insert_rows`, `apply_delta`, `truncate`, in-place
//!    `patch_rows` edits, `create_or_replace`, rename, drop + recreate,
//!    the four union-by-update implementations and `ubu_merge_improve` —
//!    whatever is cached equals a fresh build over the current rows (the
//!    image value for value by `to_bits` and in the same per-column layout
//!    as `Batch::from_relation`, every trie equal to `TrieIndex::build`),
//!    and the image of a prefix an append kept equals the fresh build of
//!    the rows it covers;
//! 2. a `fork_readonly` taken before a writer mutation keeps reading its
//!    own generation — rows and image — whatever the writer does next;
//! 3. derived data is never logged: after a durable close / reopen the
//!    contents are back (as multisets once a patch — an in-place edit,
//!    merge, update-from or merge-improve — rewrote a table, whose log
//!    record re-appends the rows it overwrote) and both caches
//!    start empty;
//! 4. the single-level trie a batch join looks keys up in (`[0]`, built
//!    through `Catalog::join_trie`) dies with its table version: every
//!    mutation path drops it, the next join returns the new rows, and a
//!    fork or pinned reader joins through the trie of its own generation;
//! 5. after append-only `apply_delta`s, a pinned reader still
//!    batch-scans its own rows, and so does the writer, which completes
//!    the image it kept;
//! 6. on tables of several row chunks, appends, deletes, `patch_rows`,
//!    overwrites and prefix replaces landing in the first, a middle or the tail
//!    chunk keep 1 and 2, and leave every chunk they did not write shared
//!    with the reader pinned before them;
//! 7. an append keeps the image as a prefix — `insert_rows`, `apply_delta`
//!    without deletes, `patch_rows` without overwrites — and the next scan
//!    completes it to a fresh build even where the appended rows change
//!    the layout the prefix was sniffed as, and a batch a scan still holds
//!    stays as it was; every other row mutation leaves no image.
//!
//! The tables carry NULL-bearing Int and Float columns (NaN, `-0.0`), a
//! text column and a mixed-type column, so every `ColumnVec` layout is
//! under test.

use all_in_one::algebra::ops::{ubu_merge_improve, union_by_update};
use all_in_one::algebra::{
    execute, oracle_like, ExecMode, ExecStats, JoinType, Optimizer, Plan, UbuImpl,
};
use all_in_one::storage::{
    edge_schema, open_catalog, Batch, Catalog, Column, ColumnVec, DataType, KeyIndex, Mutation,
    Relation, Row, Schema, SimVfs, SortedIndex, TableEntry, TrieIndex, Value, WalPolicy,
    CHUNK_ROWS,
};
use proptest::prelude::*;
use std::sync::Arc;

const DIR: &str = "db";
const TABLES: [&str; 3] = ["t0", "t1", "t2"];
/// Key orders the steps build tries and sorted indexes on; `[0]` is the
/// single-level trie a batch join looks `Int` keys up in.
const KEYS: [&[usize]; 5] = [&[0, 1], &[1, 0], &[2], &[3, 0], &[0]];

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("f", DataType::Float),
        Column::new("s", DataType::Text),
        Column::new("m", DataType::Any),
    ])
}

/// A deterministic row from a small integer: keys collide often, every
/// column sees NULLs, the float column sees NaN and both zeros, the last
/// column changes type from row to row.
fn gen_row(x: u64) -> Row {
    let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
    let k = if h.is_multiple_of(11) {
        Value::Null
    } else {
        Value::Int((h % 7) as i64)
    };
    let f = match (h >> 4) % 6 {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        2 => Value::Float(-0.0),
        3 => Value::Float(0.0),
        n => Value::Float(n as f64 / 4.0),
    };
    let s = match (h >> 8) % 5 {
        0 => Value::Null,
        n => Value::from(["x", "y", "zz", "x"][n as usize - 1]),
    };
    let m = match (h >> 12) % 4 {
        0 => Value::Null,
        1 => Value::Int((h >> 16) as i64 % 3),
        2 => Value::Float(1.5),
        _ => Value::from("mixed"),
    };
    vec![k, f, s, m].into_boxed_slice()
}

fn rows(seed: u8, n: u8) -> Vec<Row> {
    (0..n as u64)
        .map(|i| gen_row(seed as u64 * 31 + i))
        .collect()
}

fn relation(seed: u8, n: u8) -> Relation {
    let mut rel = Relation::new(schema());
    rel.extend(rows(seed, n)).unwrap();
    rel
}

/// A delta with distinct, non-NULL keys (what the union-by-update
/// implementations require of their source).
fn keyed_delta(seed: u8, n: u8) -> Relation {
    let mut rel = Relation::new(schema());
    for i in 0..n as u64 {
        let mut row = gen_row(seed as u64 * 17 + i).into_vec();
        row[0] = Value::Int(i as i64 + (seed % 3) as i64);
        rel.push(row.into_boxed_slice()).unwrap();
    }
    rel
}

/// One step on table `t`, parameterized by two small numbers.
fn step(cat: &mut Catalog, kind: u8, t: usize, a: u8, n: u8) {
    let name = TABLES[t];
    let other = TABLES[(t + 1 + a as usize % 2) % TABLES.len()];
    let mut stats = ExecStats::new();
    if !cat.contains(name) {
        // drop + recreate, as a base or a temp table
        let _ = if a.is_multiple_of(2) {
            cat.create_table(name, relation(a, n))
        } else {
            cat.create_temp(name, relation(a, n))
        };
        return;
    }
    match kind {
        0 => cat.insert_rows(name, rows(a, n), WalPolicy::None).unwrap(),
        1 => {
            let dels = cat
                .relation(name)
                .unwrap()
                .rows()
                .iter()
                .take(n as usize / 2)
                .cloned();
            let dels: Vec<Row> = dels.collect();
            cat.apply_delta(name, rows(a, n % 3), dels, WalPolicy::None)
                .unwrap();
        }
        2 => cat.truncate(name).unwrap(),
        3 => {
            // in place: overwrite one row, append another
            let at = n as usize % 5;
            let set = (at < cat.relation(name).unwrap().len()).then(|| (at, gen_row(a as u64)));
            let append = vec![gen_row(a as u64 + 1)];
            cat.patch_rows(name, set.into_iter().collect(), append)
                .unwrap();
        }
        4 => cat
            .create_or_replace(name, relation(a, n), a % 2 == 1)
            .unwrap(),
        5 => {
            if !cat.contains(other) {
                cat.rename_table(name, other).unwrap();
            }
        }
        6 => {
            cat.drop_table(name).unwrap();
        }
        7..=10 => {
            let imp = UbuImpl::ALL[kind as usize - 7];
            // an implementation may refuse (duplicate keys); a refusal
            // must leave the caches as coherent as a success
            let _ = union_by_update(
                cat,
                name,
                keyed_delta(a, n),
                Some(&[0]),
                imp,
                &oracle_like(),
                &mut stats,
            );
        }
        11 => {
            // through the caller's key index over the target, as the
            // fixpoint loop holds one
            let mut idx = KeyIndex::build(cat.relation(name).unwrap(), &[0]);
            let _ = ubu_merge_improve(
                cat,
                name,
                keyed_delta(a, n),
                &mut idx,
                1,
                a.is_multiple_of(2),
                &mut stats,
            );
        }
        _ => warm(cat, name, a),
    }
}

/// Fill the caches the way query execution does, through `&Catalog` where
/// the engine does.
fn warm(cat: &mut Catalog, name: &str, a: u8) {
    cat.columnar(name).unwrap();
    let cols = KEYS[a as usize % KEYS.len()];
    cat.trie_for(name, cols).unwrap();
    cat.trie_for(name, KEYS[(a as usize + 1) % KEYS.len()])
        .unwrap();
    // the join's way in: `a % 4` joins, of which the third builds
    for _ in 0..a % 4 {
        cat.join_trie(name, &[0]).unwrap();
    }
    cat.build_index(name, cols).unwrap();
    cat.analyze(name).unwrap();
}

fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Same layout, same values: what a fresh `Batch::from_relation` holds.
fn assert_same_image(got: &Batch, want: &Batch, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: image length");
    assert_eq!(got.schema(), want.schema(), "{ctx}: image schema");
    for c in 0..want.schema().arity() {
        let (g, w) = (got.col(c), want.col(c));
        let same_layout = matches!(
            (g, w),
            (ColumnVec::Int { .. }, ColumnVec::Int { .. })
                | (ColumnVec::Float { .. }, ColumnVec::Float { .. })
                | (ColumnVec::Mixed(_), ColumnVec::Mixed(_))
        );
        assert!(same_layout, "{ctx}: column {c} layout {g:?} vs {w:?}");
        for i in 0..want.len() {
            assert!(
                same_bits(&g.value(i), &w.value(i)),
                "{ctx}: column {c} row {i}: {:?} vs {:?}",
                g.value(i),
                w.value(i)
            );
        }
    }
}

/// The first `n` rows of `rel`.
fn prefix_of(rel: &Relation, n: usize) -> Relation {
    let mut pre = rel.clone();
    pre.truncate(n);
    pre
}

/// Everything `e` caches equals a fresh build over `e.rel`; an image an
/// append kept, over the rows it covers.
fn assert_entry_coherent(e: &TableEntry, ctx: &str) {
    if let Some(image) = e.image.cached() {
        assert_same_image(&image, &Batch::from_relation(&e.rel), ctx);
    }
    if let Some(prefix) = e.image.prefix() {
        assert!(prefix.len() <= e.rel.len(), "{ctx}: image past the rows");
        let want = Batch::from_relation(&prefix_of(&e.rel, prefix.len()));
        assert_same_image(&prefix, &want, &format!("{ctx} (prefix)"));
    }
    for trie in e.tries.all() {
        assert!(
            *trie == TrieIndex::build(&e.rel, trie.cols()),
            "{ctx}: stale trie on {:?}",
            trie.cols()
        );
    }
    for idx in &e.indexes {
        assert_eq!(
            idx.order(),
            SortedIndex::build(&e.rel, idx.cols()).order(),
            "{ctx}: stale sorted index on {:?}",
            idx.cols()
        );
    }
    if let Some(stats) = &e.stats {
        assert!(*stats == e.rel.collect_stats(), "{ctx}: stale statistics");
    }
}

fn assert_coherent(cat: &Catalog, ctx: &str) {
    for name in cat.names() {
        assert_entry_coherent(cat.entry(&name).unwrap(), &format!("{ctx}: {name}"));
    }
}

/// A fork and what it must keep reading: every table's rows at fork time.
struct Pinned {
    fork: Catalog,
    rows: Vec<(String, Vec<Row>)>,
}

impl Pinned {
    fn take(cat: &Catalog) -> Pinned {
        let rows = cat
            .names()
            .into_iter()
            .map(|n| {
                let rows = cat.relation(&n).unwrap().rows().to_vec();
                (n, rows)
            })
            .collect();
        Pinned {
            fork: cat.fork_readonly(),
            rows,
        }
    }

    fn assert_unmoved(&self, ctx: &str) {
        assert_eq!(
            self.fork.names().len(),
            self.rows.len(),
            "{ctx}: fork tables"
        );
        for (name, rows) in &self.rows {
            let ctx = format!("{ctx}: pinned {name}");
            let e = self.fork.entry(name).unwrap();
            assert_eq!(e.rel.rows(), &rows[..], "{ctx}: rows moved under the fork");
            let mut pre = Relation::new(e.rel.schema().clone());
            pre.extend(rows.iter().cloned()).unwrap();
            // reads through the fork — cached or rebuilt — see its own rows
            assert_same_image(
                &self.fork.columnar(name).unwrap(),
                &Batch::from_relation(&pre),
                &ctx,
            );
            assert!(
                *self.fork.trie_for(name, KEYS[0]).unwrap() == TrieIndex::build(&pre, KEYS[0]),
                "{ctx}: trie"
            );
            assert_entry_coherent(e, &ctx);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Properties 1 and 2 on an in-memory catalog.
    #[test]
    fn caches_stay_coherent_under_random_mutation(
        raw in proptest::collection::vec((0u8..14, 0u8..3, 0u8..16, 0u8..9), 1..40),
    ) {
        let mut cat = Catalog::new();
        let mut pinned: Vec<Pinned> = Vec::new();
        for (i, &(kind, t, a, n)) in raw.iter().enumerate() {
            let ctx = format!("step {i} {:?}", (kind, t, a, n));
            step(&mut cat, kind, t as usize, a, n);
            assert_coherent(&cat, &ctx);
            for p in &pinned {
                p.assert_unmoved(&ctx);
            }
            // warm what the next step will have to invalidate, and pin a
            // generation now and then so the next mutation copies on write
            for name in cat.names() {
                if !(a as usize + i).is_multiple_of(3) {
                    warm(&mut cat, &name, a.wrapping_add(i as u8));
                }
            }
            assert_coherent(&cat, &format!("{ctx} (warmed)"));
            if (a + n).is_multiple_of(4) {
                pinned.truncate(2);
                pinned.insert(0, Pinned::take(&cat));
            }
        }
    }

    /// Property 3, and property 1 on a durable catalog (the WAL hooks sit on
    /// the same mutation paths).
    #[test]
    fn caches_start_empty_after_reopen(
        raw in proptest::collection::vec((0u8..14, 0u8..3, 0u8..16, 0u8..9), 1..16),
    ) {
        let vfs = Arc::new(SimVfs::new());
        let (mut cat, _) = open_catalog(vfs.clone(), DIR, None).unwrap();
        let mut patched = false;
        for (i, &(kind, t, a, n)) in raw.iter().enumerate() {
            // a patch (an in-place edit, merge, update-from, merge-improve)
            // logs the rows it overwrote as an `EdgeDelta`, whose replay
            // appends their new versions (DESIGN §19)
            patched |= matches!(kind, 3 | 7 | 10 | 11);
            step(&mut cat, kind, t as usize, a, n);
            assert_coherent(&cat, &format!("durable step {i} {:?}", (kind, t, a, n)));
            for name in cat.names() {
                warm(&mut cat, &name, a);
            }
        }
        let before = cat.fork_readonly();
        drop(cat);

        let (reopened, report) = open_catalog(vfs, DIR, None).unwrap();
        prop_assert!(report.corrupt.is_none(), "{:?}", report.corrupt);
        if patched {
            prop_assert_eq!(reopened.names(), before.names());
            for name in before.names() {
                let (x, y) = (reopened.entry(&name).unwrap(), before.entry(&name).unwrap());
                prop_assert!(x.temp == y.temp && x.rel.schema() == y.rel.schema() && x.rel.pk() == y.rel.pk());
                prop_assert!(x.rel.same_rows_unordered(&y.rel), "reopen changed the rows of {}", name);
            }
        } else {
            prop_assert!(reopened.same_content(&before), "reopen changed the contents");
        }
        for name in reopened.names() {
            let e = reopened.entry(&name).unwrap();
            prop_assert!(e.image.cached().is_none(), "{name}: an image survived the reopen");
            prop_assert!(e.tries.is_empty(), "{name}: a trie survived the reopen");
            prop_assert!(e.indexes.is_empty(), "{name}: a sorted index survived the reopen");
        }
        assert_coherent(&reopened, "reopened");
    }
}

// ---------------------------------------------------------------------------
// Tables of several chunks: writes in the first, a middle and the tail chunk
// ---------------------------------------------------------------------------

/// `n` rows of `gen_row`'s shape with distinct keys from `from` on, so a
/// row is deleted where it stands and nowhere else.
fn keyed_rows(from: usize, n: usize) -> Vec<Row> {
    (from..from + n)
        .map(|i| {
            let mut row = gen_row(i as u64).into_vec();
            row[0] = Value::Int(1_000 + i as i64);
            row.into_boxed_slice()
        })
        .collect()
}

/// A position in chunk `which` (0 the first, 1 a middle one, 2 the tail)
/// of a table of `len` rows.
fn in_chunk(len: usize, which: u8, off: usize) -> usize {
    let last = (len - 1) / CHUNK_ROWS;
    let k = [0, last / 2, last][which as usize % 3];
    (k * CHUNK_ROWS + off % CHUNK_ROWS).min(len - 1)
}

/// One write to `t0` at chunk `which`. Returns the chunks it may have
/// written: from the first one on, or (for the point writes) that one and
/// the tail.
fn chunk_step(
    cat: &mut Catalog,
    kind: u8,
    which: u8,
    off: usize,
    next: &mut usize,
) -> (usize, bool) {
    let t = TABLES[0];
    let len = cat.relation(t).unwrap().len();
    let p = in_chunk(len, which, off);
    match kind {
        0 => {
            let n = 1 + off % (2 * CHUNK_ROWS);
            cat.insert_rows(t, keyed_rows(*next, n), WalPolicy::None)
                .unwrap();
            *next += n;
            (len / CHUNK_ROWS, false)
        }
        1 => {
            let rel = cat.relation(t).unwrap();
            let dels = rel.rows().range(p..(p + 1 + off % 7).min(len)).to_vec();
            let adds = keyed_rows(*next, off % 3);
            *next += adds.len();
            cat.apply_delta(t, adds, dels, WalPolicy::None).unwrap();
            (p / CHUNK_ROWS, false)
        }
        2 => {
            let end = ((p / CHUNK_ROWS + 1) * CHUNK_ROWS).min(len);
            let set: Vec<(usize, Row)> = (p..end.min(p + 1 + off % 5))
                .zip(keyed_rows(*next, 5))
                .collect();
            let append = keyed_rows(*next + 5, off % 2);
            *next += 6;
            cat.patch_rows(t, set, append).unwrap();
            (p / CHUNK_ROWS, true)
        }
        3 => {
            // keep a prefix: the rows up to `p`, sharing their chunks
            let mut rel = cat.relation(t).unwrap().clone();
            rel.truncate(p);
            let table = t.to_string();
            cat.apply(Mutation::ReplaceRows { table, rel }, WalPolicy::None)
                .unwrap();
            (p / CHUNK_ROWS, false)
        }
        _ => {
            let set = vec![(p, keyed_rows(*next, 1).remove(0))];
            cat.patch_rows(t, set, Vec::new()).unwrap();
            *next += 1;
            (p / CHUNK_ROWS, true)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 6: every write under a fresh pin, on a table kept at three
    /// chunks or more, beside an untouched table of two.
    #[test]
    fn chunk_writes_copy_only_what_they_touch(
        raw in proptest::collection::vec((0u8..5, 0u8..3, 0usize..4096, any::<bool>()), 1..10),
    ) {
        let mut cat = Catalog::new();
        let mut next = 0;
        for (t, n) in [(TABLES[0], 3 * CHUNK_ROWS + 100), (TABLES[1], 2 * CHUNK_ROWS)] {
            let mut rel = Relation::new(schema());
            rel.extend(keyed_rows(next, n)).unwrap();
            next += n;
            cat.create_table(t, rel).unwrap();
        }
        let mut pinned: Vec<Pinned> = Vec::new();
        for (i, &(kind, which, off, warm_first)) in raw.iter().enumerate() {
            let ctx = format!("step {i} {:?}", (kind, which, off));
            let len = cat.relation(TABLES[0]).unwrap().len();
            if len < 2 * CHUNK_ROWS + 1 {
                let n = 3 * CHUNK_ROWS + 100 - len;
                cat.insert_rows(TABLES[0], keyed_rows(next, n), WalPolicy::None).unwrap();
                next += n;
            }
            if warm_first {
                for name in cat.names() {
                    warm(&mut cat, &name, which + kind);
                }
            }
            pinned.truncate(1);
            pinned.insert(0, Pinned::take(&cat));
            let (first, point) = chunk_step(&mut cat, kind, which, off, &mut next);
            assert_coherent(&cat, &ctx);
            for p in &pinned {
                p.assert_unmoved(&ctx);
            }
            let shared = |name: &str| -> Vec<bool> {
                let (w, r) = (cat.relation(name).unwrap(), pinned[0].fork.relation(name).unwrap());
                w.chunks().zip(r.chunks()).map(|(a, b)| std::ptr::eq(a, b)).collect()
            };
            prop_assert!(shared(TABLES[1]).iter().all(|&s| s), "{}: untouched table copied", ctx);
            let full = pinned[0].fork.relation(TABLES[0]).unwrap().len() / CHUNK_ROWS;
            for (k, s) in shared(TABLES[0]).into_iter().enumerate() {
                let written = k == first || (!point && k > first) || k >= full;
                prop_assert!(s || written, "{}: chunk {} copied (first written {})", ctx, k, first);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The join's single-level trie: dies with its table version
// ---------------------------------------------------------------------------

/// `E(F, T, ew)` with NULL-free `Int` keys, so a batch join may look them up
/// in the trie on `[F]`.
fn edges(rows: &[(i64, i64)]) -> Relation {
    let mut e = Relation::new(edge_schema());
    for &(f, t) in rows {
        e.push(vec![Value::Int(f), Value::Int(t), Value::Float(1.0)].into())
            .unwrap();
    }
    e
}

/// `E` holding `rows` and eight rows no join here matches (keys 100..108,
/// distinct): enough rows for a one-row input to drive a join through it.
fn table(rows: &[(i64, i64)]) -> Relation {
    let filler: Vec<(i64, i64)> = (100..108).map(|f| (f, 0)).collect();
    edges(&[rows, &filler].concat())
}

/// `Join(Scan E, Scan F)` on `E.F = F.F` with `F` a one-row temp table:
/// once built, `E`'s trie lets `F` drive the join.
fn driven_join() -> Plan {
    Plan::Join {
        left: Box::new(Plan::scan("E")),
        right: Box::new(Plan::scan("F")),
        on: vec![("E.F".into(), "F.F".into())],
        residual: None,
        kind: JoinType::Inner,
    }
}

fn join_catalog(rows: &[(i64, i64)]) -> Catalog {
    let mut cat = Catalog::new();
    cat.create_table("E", table(rows)).unwrap();
    cat.create_temp("F", edges(&[(1, 0)])).unwrap();
    cat
}

/// Runs the join until it has built (or hit) `E`'s trie, checking every
/// run against `Off`; returns the last run's rows.
fn join_through_trie(cat: &Catalog) -> Vec<Row> {
    let best = oracle_like()
        .with_optimizer(Optimizer::Cost)
        .with_exec(ExecMode::Batch);
    let (want, _) = execute(&driven_join(), cat, &oracle_like()).unwrap();
    let mut got = Vec::new();
    for _ in 0..3 {
        got = execute(&driven_join(), cat, &best)
            .unwrap()
            .0
            .rows()
            .to_vec();
        assert_eq!(want.rows(), got, "the driven join differs from Off");
    }
    // an empty `E` is no bigger than `F`, so that join hashes
    let e = cat.relation("E").unwrap();
    if !e.is_empty() {
        let trie = cat
            .trie_on("E", &[0])
            .expect("the third join builds the trie");
        assert!(*trie == TrieIndex::build(e, &[0]));
    }
    got
}

/// `E.T` of each joined row (`E`'s columns come first).
fn targets(rows: &[Row]) -> Vec<i64> {
    rows.iter().map(|r| r[1].as_int().unwrap()).collect()
}

/// Every mutation path drops the join's trie, and the next joins see the
/// new rows — a stale trie would hand out row ids of the old version.
#[test]
fn join_trie_is_dropped_by_every_mutation() {
    type Mutation = (&'static str, fn(&mut Catalog), &'static [i64]);
    fn rows(r: &[(i64, i64)]) -> Vec<Row> {
        edges(r).rows().to_vec()
    }
    let mutations: [Mutation; 8] = [
        (
            "insert_rows",
            |c| {
                c.insert_rows("E", rows(&[(1, 13)]), WalPolicy::None)
                    .unwrap()
            },
            &[10, 13],
        ),
        (
            "apply_delta",
            |c| {
                let (add, del) = (rows(&[(1, 14)]), rows(&[(1, 10)]));
                c.apply_delta("E", add, del, WalPolicy::None).unwrap();
            },
            &[14],
        ),
        ("truncate", |c| c.truncate("E").unwrap(), &[]),
        (
            "patch_rows",
            |c| {
                let mut row = c.relation("E").unwrap()[1].clone();
                row[0] = Value::Int(1);
                c.patch_rows("E", vec![(1, row)], Vec::new()).unwrap();
            },
            &[10, 20],
        ),
        (
            "create_or_replace",
            |c| {
                c.create_or_replace("E", table(&[(1, 15), (2, 16)]), false)
                    .unwrap()
            },
            &[15],
        ),
        (
            "drop + create",
            |c| {
                c.drop_table("E").unwrap();
                c.create_table("E", table(&[(4, 40), (1, 16)])).unwrap();
            },
            &[16],
        ),
        (
            "rename away + create",
            |c| {
                c.rename_table("E", "E_old").unwrap();
                c.create_table("E", table(&[(1, 17)])).unwrap();
            },
            &[17],
        ),
        (
            "union_by_update",
            |c| {
                let delta = edges(&[(1, 18), (5, 50)]);
                let (key, profile) = ([0], oracle_like());
                let mut stats = ExecStats::new();
                union_by_update(
                    c,
                    "E",
                    delta,
                    Some(&key),
                    UbuImpl::Merge,
                    &profile,
                    &mut stats,
                )
                .unwrap();
            },
            &[18],
        ),
    ];
    for (what, mutate, want) in mutations {
        let mut cat = join_catalog(&[(1, 10), (2, 20), (3, 30)]);
        assert_eq!(targets(&join_through_trie(&cat)), [10], "{what}");
        mutate(&mut cat);
        assert!(
            cat.trie_on("E", &[0]).is_none(),
            "{what}: the trie survived"
        );
        assert_eq!(
            targets(&join_through_trie(&cat)),
            want,
            "{what}: stale rows"
        );
    }
}

/// A fork and a pinned reader keep the trie of their own generation: the
/// writer's next change leaves their joins on their rows, and a join on
/// the writer sees the writer's.
#[test]
fn forks_and_pinned_readers_join_through_their_own_trie() {
    let mut cat = join_catalog(&[(1, 10), (2, 20), (1, 11)]);
    assert_eq!(targets(&join_through_trie(&cat)), [10, 11]);
    let hub = cat.enable_mvcc();
    let pin = hub.pin();
    let fork = cat.fork_readonly();
    cat.insert_rows("E", edges(&[(1, 12)]).rows().to_vec(), WalPolicy::None)
        .unwrap();
    assert!(cat.trie_on("E", &[0]).is_none(), "writer's trie dropped");
    for (who, old) in [("pin", pin.catalog()), ("fork", &fork)] {
        let kept = old
            .trie_on("E", &[0])
            .expect("the old generation keeps its trie");
        assert!(
            *kept == TrieIndex::build(old.relation("E").unwrap(), &[0]),
            "{who}"
        );
        assert_eq!(targets(&join_through_trie(old)), [10, 11], "{who}");
    }
    assert_eq!(targets(&join_through_trie(&cat)), [10, 11, 12], "writer");
    let pin_trie = pin.catalog().trie_on("E", &[0]).unwrap();
    assert!(!Arc::ptr_eq(&pin_trie, &cat.trie_on("E", &[0]).unwrap()));
}

/// An append-only `apply_delta` under a pinned reader: the writer's copy
/// starts with the pinned entry's image as a prefix, the pinned entry gives
/// its image up, and a batch scan on either side returns its own rows.
#[test]
fn pinned_readers_batch_scan_their_own_rows_after_an_append() {
    let mut cat = join_catalog(&[(1, 10), (2, 20)]);
    let hub = cat.enable_mvcc();
    cat.columnar("E").unwrap();
    let pin = hub.pin();
    let old = cat.relation("E").unwrap().clone();
    let adds = edges(&[(3, 30), (1, 11)]).rows().to_vec();
    cat.apply_delta("E", adds, Vec::new(), WalPolicy::None)
        .unwrap();
    assert!(cat.entry("E").unwrap().image.cached().is_none());
    let kept = cat.entry("E").unwrap().image.prefix().map(|b| b.len());
    assert_eq!(kept, Some(old.len()), "the writer took the image");
    assert!(pin.catalog().entry("E").unwrap().image.prefix().is_none());

    let batch = oracle_like().with_exec(ExecMode::Batch);
    let (scan, _) = execute(&Plan::scan("E"), pin.catalog(), &batch).unwrap();
    assert_eq!(scan.rows(), old.rows(), "the pinned reader's rows");
    let pinned = pin.catalog().columnar("E").unwrap();
    assert_same_image(&pinned, &Batch::from_relation(&old), "pinned");
    let (scan, _) = execute(&Plan::scan("E"), &cat, &batch).unwrap();
    assert_eq!(
        scan.rows(),
        cat.relation("E").unwrap().rows(),
        "the writer's rows"
    );
}

// ---------------------------------------------------------------------------
// Appends keep the image as a prefix (property 7)
// ---------------------------------------------------------------------------

/// A named append of rows to a table.
type Append = (&'static str, fn(&mut Catalog, &str, Vec<Row>));

/// The three append-only mutations, each appending `rows` to `t`.
const APPENDS: [Append; 3] = [
    ("insert_rows", |c, t, rows| {
        c.insert_rows(t, rows, WalPolicy::None).unwrap()
    }),
    ("apply_delta without deletes", |c, t, rows| {
        c.apply_delta(t, rows, Vec::new(), WalPolicy::None).unwrap()
    }),
    ("patch_rows without overwrites", |c, t, rows| {
        c.patch_rows(t, Vec::new(), rows).unwrap()
    }),
];

/// A one-column table of `Any` values.
fn any_table(vals: &[Value]) -> Relation {
    let mut rel = Relation::new(Schema::of(&[("v", DataType::Any)]));
    rel.extend(vals.iter().map(|v| vec![v.clone()].into_boxed_slice()))
        .unwrap();
    rel
}

fn layout(c: &ColumnVec) -> &'static str {
    match c {
        ColumnVec::Int { .. } => "Int",
        ColumnVec::Float { .. } => "Float",
        ColumnVec::Mixed(_) => "Mixed",
    }
}

/// An image, then an append whose first row changes the layout the image
/// was sniffed as (or keeps it): each append-only mutation keeps the image
/// as a prefix, and the next scan completes it to exactly the fresh build.
#[test]
fn an_append_that_changes_the_sniffed_layout_completes_to_a_fresh_build() {
    let (nan, nz) = (Value::Float(f64::NAN), Value::Float(-0.0));
    let text = || Value::from("t");
    // (prefix, appended rows, layout before, layout after)
    let cases: Vec<(Vec<Value>, Vec<Value>, &str, &str)> = vec![
        (
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Float(2.5), Value::Int(3)],
            "Int",
            "Mixed",
        ),
        (
            vec![Value::Null, Value::Null],
            vec![Value::Float(2.5), Value::Null],
            "Int",
            "Float",
        ),
        (
            vec![Value::Null, Value::Null],
            vec![text(), Value::Null],
            "Int",
            "Mixed",
        ),
        (vec![Value::Null], vec![Value::Int(7)], "Int", "Int"),
        (
            vec![nz.clone(), Value::Null],
            vec![nan.clone(), nz.clone()],
            "Float",
            "Float",
        ),
        (vec![nan.clone()], vec![Value::Int(1)], "Float", "Mixed"),
        (
            vec![text()],
            vec![nz.clone(), Value::Null],
            "Mixed",
            "Mixed",
        ),
        (vec![], vec![nan.clone(), Value::Null], "Int", "Float"),
        (vec![], vec![text()], "Int", "Mixed"),
        (vec![], vec![], "Int", "Int"),
    ];
    for (what, append) in APPENDS {
        for (pre, add, before, after) in &cases {
            let ctx = format!("{what}: {pre:?} + {add:?}");
            let mut cat = Catalog::new();
            cat.create_table("t", any_table(pre)).unwrap();
            let image = cat.columnar("t").unwrap();
            assert_eq!(layout(image.col(0)), *before, "{ctx}");
            drop(image); // nothing else holds the columns: they grow in place
            append(&mut cat, "t", any_table(add).rows().to_vec());
            let e = cat.entry("t").unwrap();
            assert!(
                e.image.cached().is_none(),
                "{ctx}: a prefix is not the image"
            );
            let kept = e.image.prefix().expect("an append keeps the image");
            assert_eq!(kept.len(), pre.len(), "{ctx}");
            drop(kept);
            assert_entry_coherent(e, &ctx);
            let got = cat.columnar("t").unwrap();
            let want = Batch::from_relation(cat.relation("t").unwrap());
            assert_eq!(layout(want.col(0)), *after, "{ctx}");
            assert_same_image(&got, &want, &ctx);
            assert_entry_coherent(cat.entry("t").unwrap(), &ctx);
        }
    }
}

/// A batch a scan took from `columnar` and still holds across appends keeps
/// its rows and bits: the writer's completion copies the shared columns
/// instead of growing them under the reader.
#[test]
fn a_held_image_is_copied_not_grown() {
    let mut cat = Catalog::new();
    cat.create_table("t", relation(3, 8)).unwrap();
    for (k, (what, append)) in APPENDS.into_iter().enumerate() {
        let old = cat.relation("t").unwrap().clone();
        let held = cat.columnar("t").unwrap();
        append(&mut cat, "t", rows(k as u8 + 40, 5));
        let now = cat.columnar("t").unwrap();
        assert_same_image(
            &now,
            &Batch::from_relation(cat.relation("t").unwrap()),
            what,
        );
        assert_same_image(&held, &Batch::from_relation(&old), what);
        for c in 0..held.schema().arity() {
            assert!(!Arc::ptr_eq(&held.col_arc(c), &now.col_arc(c)), "{what}");
        }
    }
}

/// Every row mutation that is not an append leaves no image, not even a
/// prefix: a delete, an overwrite, a truncate, a replace.
#[test]
fn a_mutation_that_is_not_an_append_drops_the_image() {
    type Write = (&'static str, fn(&mut Catalog));
    let drops: [Write; 4] = [
        ("apply_delta with deletes", |c| {
            let dels = c.relation("t").unwrap().rows().range(2..3).to_vec();
            c.apply_delta("t", rows(9, 2), dels, WalPolicy::None)
                .unwrap();
        }),
        ("patch_rows with an overwrite", |c| {
            c.patch_rows("t", vec![(1, gen_row(5))], rows(9, 1))
                .unwrap();
        }),
        ("truncate", |c| c.truncate("t").unwrap()),
        ("replace rows", |c| {
            let (table, rel) = ("t".to_string(), relation(7, 4));
            c.apply(Mutation::ReplaceRows { table, rel }, WalPolicy::None)
                .unwrap();
        }),
    ];
    for (what, mutate) in drops {
        for pinned in [false, true] {
            let mut cat = Catalog::new();
            cat.create_table("t", relation(3, 8)).unwrap();
            cat.columnar("t").unwrap();
            let fork = pinned.then(|| cat.fork_readonly());
            mutate(&mut cat);
            let e = cat.entry("t").unwrap();
            assert!(e.image.prefix().is_none(), "{what} (pinned: {pinned})");
            if let Some(fork) = fork {
                assert!(fork.entry("t").unwrap().image.prefix().is_none(), "{what}");
            }
            let got = cat.columnar("t").unwrap();
            assert_same_image(&got, &Batch::from_relation(&e.rel), what);
        }
    }
}

/// k appends under one pin, the writer batch-scanning between them: the
/// pinned reader reads its generation, the writer its own, each through
/// the batch engine and its own image.
#[test]
fn after_k_appends_under_a_pin_writer_and_reader_scan_their_own_rows() {
    let mut cat = join_catalog(&[(1, 10), (2, 20)]);
    let hub = cat.enable_mvcc();
    cat.columnar("E").unwrap();
    let pin = hub.pin();
    let old = cat.relation("E").unwrap().clone();
    let batch = oracle_like().with_exec(ExecMode::Batch);
    for k in 0..5i64 {
        let (what, append) = APPENDS[k as usize % APPENDS.len()];
        append(
            &mut cat,
            "E",
            edges(&[(k, 30 + k), (k + 1, 40 + k)]).rows().to_vec(),
        );
        let kept = cat.entry("E").unwrap().image.prefix().map(|b| b.len());
        let before = cat.relation("E").unwrap().len() - 2;
        assert_eq!(kept, Some(before), "{what}: the writer kept its image");
        let (scan, _) = execute(&Plan::scan("E"), &cat, &batch).unwrap();
        assert_eq!(
            scan.rows(),
            cat.relation("E").unwrap().rows(),
            "{what}: writer"
        );
        assert_coherent(&cat, what);
        let (scan, _) = execute(&Plan::scan("E"), pin.catalog(), &batch).unwrap();
        assert_eq!(scan.rows(), old.rows(), "{what}: the pinned reader's rows");
        let pinned = pin.catalog().columnar("E").unwrap();
        assert_same_image(&pinned, &Batch::from_relation(&old), what);
        assert_coherent(pin.catalog(), what);
    }
}
