//! The trie build against the comparison sort it replaced.
//!
//! `TrieIndex::build` orders row ids column by column, last key column
//! first, each pass a stable sort: a CSR build for a NULL-free `Int`
//! column, a comparison sort for any other. The reference below is the
//! one-pass build over boxed rows — a lexicographic `key_cmp` sort with
//! ties broken by row id, then the same layering over `Value`s. On 1–3 key
//! columns of every shape — dense and sparse `Int` spans, the ends of
//! `i64`, `Float` with NaN, ±0.0 and ±∞, NULLs, `Text` and mixed types,
//! duplicate full keys — the two give the same `perm`, the same keys per
//! level (bit for bit), the same child ranges and the same rows under every
//! node, and a level stores raw `i64`s exactly when all its keys are `Int`.
//!
//! Below the property: the trie's contract on small hand-built tables, and
//! Fig. 10's sorted index, which is a one-level trie.

use all_in_one::storage::{
    edge_schema, key_cmp, row, DataType, Relation, Schema, TrieCache, TrieIndex, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

/// What the build was before it sorted column by column: one comparison
/// sort of boxed rows, then the layering pass over `Value`s. Per level:
/// the keys, the first row of every node (`row_start`) and the end of
/// every node's children (`child_end`, empty at the deepest level).
struct Reference {
    perm: Vec<u32>,
    levels: Vec<(Vec<Value>, Vec<u32>, Vec<u32>)>,
}

fn reference(rel: &Relation, cols: &[usize]) -> Reference {
    let rows: Vec<_> = rel.iter().collect();
    let mut perm: Vec<u32> = (0..rows.len() as u32).collect();
    perm.sort_unstable_by(|&a, &b| {
        key_cmp(rows[a as usize], cols, rows[b as usize], cols).then(a.cmp(&b))
    });
    let depth = cols.len();
    let mut starts: Vec<Vec<u32>> = vec![Vec::new(); depth];
    for (i, &r) in perm.iter().enumerate() {
        let d0 = if i == 0 {
            0
        } else {
            let (pr, cr) = (&rows[perm[i - 1] as usize], &rows[r as usize]);
            match cols.iter().position(|&c| pr[c] != cr[c]) {
                Some(d) => d,
                None => continue,
            }
        };
        for s in &mut starts[d0..] {
            s.push(i as u32);
        }
    }
    let mut levels = Vec::with_capacity(depth);
    for (d, start) in starts.iter().enumerate() {
        let keys: Vec<Value> = start
            .iter()
            .map(|&i| rows[perm[i as usize] as usize][cols[d]].clone())
            .collect();
        let child_end = if d + 1 < depth {
            let next = &starts[d + 1];
            let mut out = Vec::with_capacity(start.len());
            let mut k = 0usize;
            for j in 0..start.len() {
                let end_row = start.get(j + 1).copied().unwrap_or(perm.len() as u32);
                while k < next.len() && next[k] < end_row {
                    k += 1;
                }
                out.push(k as u32);
            }
            out
        } else {
            Vec::new()
        };
        levels.push((keys, start.clone(), child_end));
    }
    Reference { perm, levels }
}

/// Storage equality is not enough: `-0.0 == 0.0` and every NaN is equal.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// `t` equals the reference build over the same rows and columns.
fn assert_matches(t: &TrieIndex, want: &Reference) -> Result<(), TestCaseError> {
    prop_assert_eq!(t.perm(), &want.perm[..]);
    prop_assert_eq!(t.depth(), want.levels.len());
    for (d, (keys, row_start, child_end)) in want.levels.iter().enumerate() {
        let got = t.keys(d);
        prop_assert_eq!(got.len(), keys.len(), "level {} size", d);
        for (g, w) in got.iter().zip(keys) {
            prop_assert!(same_bits(g, w), "level {}: key {:?} vs {:?}", d, g, w);
        }
        let all_int = keys.iter().all(|k| matches!(k, Value::Int(_)));
        prop_assert_eq!(t.int_keys(d).is_some(), all_int, "level {} typing", d);
        for j in 0..keys.len() {
            let hi = row_start
                .get(j + 1)
                .map_or(want.perm.len(), |&e| e as usize);
            let rows = &want.perm[row_start[j] as usize..hi];
            prop_assert_eq!(t.rows_under(d, j), rows, "rows under {}/{}", d, j);
            if d + 1 < want.levels.len() {
                let lo = if j == 0 { 0 } else { child_end[j - 1] as usize };
                let range = (lo, child_end[j] as usize);
                prop_assert_eq!(t.child_range(d, j), range, "children of {}/{}", d, j);
            }
        }
    }
    Ok(())
}

/// splitmix64: the table's values from one drawn seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One key value of column shape `shape` over `n` rows.
fn key(shape: u8, n: usize, r: u64) -> Value {
    const ENDS: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    let floats = [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0,
        -2.5,
    ];
    let pick = |m: usize| (r >> 8) as usize % m;
    match shape {
        // dense: a span of at most the row count, anywhere
        0 => Value::Int((r % (n as u64 + 1)) as i64 - 7),
        // sparse: anywhere in i64, or one of few wide-apart keys
        1 => match r % 3 {
            0 => Value::Int(r as i64),
            _ => Value::Int(pick(5) as i64 * 1_000_003 - 2_000_000),
        },
        // the ends of the range
        2 => Value::Int(ENDS[pick(ENDS.len())]),
        // Int with NULLs
        3 => match r % 4 {
            0 => Value::Null,
            _ => Value::Int(pick(4) as i64),
        },
        // Float with NaN, ±0.0, ±∞
        4 => Value::Float(floats[pick(floats.len())]),
        // Text
        5 => Value::text(["", "a", "ab", "b"][pick(4)]),
        // mixed: Int 1 and Float 1.0 are two keys, the zeros one
        _ => [
            Value::Null,
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::text("a"),
        ][pick(7)]
        .clone(),
    }
}

/// Three key columns of the given shapes and a payload telling rows apart;
/// about one row in five repeats an earlier row's keys.
fn table(shapes: [u8; 3], n: usize, seed: u64) -> Relation {
    let schema = Schema::of(&[
        ("k0", DataType::Any),
        ("k1", DataType::Any),
        ("k2", DataType::Any),
        ("w", DataType::Int),
    ]);
    let mut state = seed;
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(n);
    for i in 0..n {
        let r = mix(&mut state);
        let mut keys: Vec<Value> = match r % 5 {
            0 if i > 0 => rows[(r >> 16) as usize % i][..3].to_vec(),
            _ => shapes.iter().map(|&s| key(s, n, mix(&mut state))).collect(),
        };
        keys.push(Value::Int(i as i64));
        rows.push(keys);
    }
    let mut rel = Relation::new(schema);
    rel.extend(rows.into_iter().map(Vec::into_boxed_slice))
        .unwrap();
    rel
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn column_by_column_build_equals_the_comparison_sort(
        shapes in (0u8..7, 0u8..7, 0u8..7),
        n in 0usize..300,
        seed in any::<u64>(),
        order in 0usize..6,
        depth in 1usize..4,
    ) {
        let rel = table([shapes.0, shapes.1, shapes.2], n, seed);
        const ORDERS: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let cols = &ORDERS[order][..depth];
        let t = TrieIndex::build(&rel, cols);
        prop_assert_eq!(t.cols(), cols);
        prop_assert_eq!(t.len(), n);
        assert_matches(&t, &reference(&rel, cols))?;
    }
}

fn rel() -> Relation {
    let mut r = Relation::new(edge_schema());
    r.extend([
        row![3, 1, 1.0],
        row![1, 2, 1.0],
        row![2, 3, 1.0],
        row![1, 2, 2.0], // duplicate (F, T) key, distinct payload
        row![1, 3, 1.0],
    ])
    .unwrap();
    r
}

/// DFS over the level slices: every root-to-leaf key tuple, and the
/// row ids under each leaf.
fn tuples(t: &TrieIndex) -> Vec<(Vec<Value>, Vec<u32>)> {
    fn walk(
        t: &TrieIndex,
        d: usize,
        (lo, hi): (usize, usize),
        prefix: &mut Vec<Value>,
        out: &mut Vec<(Vec<Value>, Vec<u32>)>,
    ) {
        let level = t.keys(d);
        let keys = &level[lo..hi];
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "level {d} under {prefix:?} is not strictly increasing: {keys:?}"
        );
        for (j, key) in level.iter().enumerate().take(hi).skip(lo) {
            prefix.push(key.clone());
            if d + 1 < t.depth() {
                walk(t, d + 1, t.child_range(d, j), prefix, out);
            } else {
                out.push((prefix.clone(), t.rows_under(d, j).to_vec()));
            }
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    if t.depth() > 0 {
        walk(t, 0, (0, t.keys(0).len()), &mut Vec::new(), &mut out);
    }
    out
}

fn ints(tuple: &[Value]) -> Vec<i64> {
    tuple.iter().map(|v| v.as_int().unwrap()).collect()
}

#[test]
fn iterate_yields_sorted_distinct_tuples() {
    let r = rel();
    let t = TrieIndex::build(&r, &[0, 1]);
    assert_eq!(t.len(), 5);
    let walked: Vec<Vec<i64>> = tuples(&t).iter().map(|(k, _)| ints(k)).collect();
    assert_eq!(walked, vec![vec![1, 2], vec![1, 3], vec![2, 3], vec![3, 1]]);
    assert!(t.all_int());
    assert_eq!(t.int_keys(0), Some(&[1, 2, 3][..]));
    assert_eq!(t.int_keys(1), Some(&[2, 3, 3, 1][..]));
}

#[test]
fn matches_returns_all_duplicate_rows() {
    let r = rel();
    let t = TrieIndex::build(&r, &[0, 1]);
    let walked = tuples(&t);
    let (key, rows) = &walked[0];
    assert_eq!(ints(key), [1, 2]);
    assert_eq!(rows, &[1, 3], "both (1,2) rows, in row order");
    let mut all: Vec<u32> = walked.iter().flat_map(|(_, rows)| rows.clone()).collect();
    assert_eq!(all, t.perm(), "leaf runs are perm, cut at the leaves");
    all.sort_unstable();
    assert_eq!(all, [0, 1, 2, 3, 4], "row-id runs partition the relation");
}

#[test]
fn next_visits_strictly_increasing_keys() {
    let r = rel();
    let t = TrieIndex::build(&r, &[1]); // T column: 1,2,2,3,3
    assert_eq!(t.int_keys(0), Some(&[1, 2, 3][..]));

    // A node is one class of storage equality and the order refines
    // it: Int 1 and Float 1.0 are two nodes (Int first), the zeros one,
    // the NaNs one (last), NULL first; Text after every number.
    let (i, f, nan) = (Value::Int, Value::Float, f64::NAN);
    #[rustfmt::skip]
    let keys = [
        f(1.0), i(1), f(nan), f(-0.0), Value::text("a"), Value::Null, f(0.0), i(1), f(-nan), i(0),
    ];
    let any = Schema::of(&[("k", DataType::Any)]);
    let mut mixed = Relation::new(any);
    mixed
        .extend(keys.map(|k| vec![k].into_boxed_slice()))
        .unwrap();
    let t = TrieIndex::build(&mixed, &[0]);
    assert!(!t.all_int());
    let classes: Vec<(Value, usize)> = tuples(&t)
        .into_iter()
        .map(|(mut k, rows)| (k.remove(0), rows.len()))
        .collect();
    assert_eq!(
        format!("{classes:?}"),
        "[(Null, 1), (Int(0), 1), (Float(-0.0), 2), (Int(1), 2), (Float(1.0), 1), \
         (Float(NaN), 2), (Text(\"a\"), 1)]"
    );
}

#[test]
fn cache_builds_once_and_clears() {
    let r = rel();
    let cache = TrieCache::default();
    assert!(cache.cached(&[0, 1]).is_none());
    let a = cache.get_or_build(&r, &[0, 1]);
    let b = cache.get_or_build(&r, &[0, 1]);
    assert!(Arc::ptr_eq(&a, &b), "second lookup hits the cache");
    assert_eq!(cache.len(), 1);
    let _ = cache.get_or_build(&r, &[1, 0]);
    assert_eq!(cache.len(), 2, "distinct column orders cache separately");
    cache.clear();
    assert!(cache.cached(&[0, 1]).is_none());
}

/// Fig. 10's sorted index on a join column is the one-level trie on it: a
/// merge join's index scan reads its `perm`, row ids in key order.
#[test]
fn fig10_index_is_a_one_level_trie() {
    let mut r = Relation::new(edge_schema());
    r.extend([
        row![3, 1, 1.0],
        row![1, 2, 1.0],
        row![2, 3, 1.0],
        row![1, 3, 1.0],
    ])
    .unwrap();
    let idx = TrieIndex::build(&r, &[0]);
    let keys: Vec<(i64, i64)> = idx
        .perm()
        .iter()
        .map(|&i| {
            let row = &r[i as usize];
            (row[0].as_int().unwrap(), row[1].as_int().unwrap())
        })
        .collect();
    assert_eq!(keys, vec![(1, 2), (1, 3), (2, 3), (3, 1)]);
    assert_eq!(idx.depth(), 1);
    assert!(idx.covers(&[0]));
    assert!(!idx.covers(&[0, 1]));
}
