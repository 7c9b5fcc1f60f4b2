//! The improve fold (`ubu_merge_improve`, DESIGN §16) and the key lookup
//! it holds over R (`KeyLookup`): improvements and inserts, the best row
//! per key of a seed, one lookup across a sequence of folds, the slot array
//! against a key index, and a step's columns read in place where they can
//! be.

use all_in_one::algebra::ops::{ubu_merge_improve, Delta, KeyLookup};
use all_in_one::algebra::ExecStats;
use all_in_one::storage::{
    node_schema, row, Batch, Catalog, DataType, KeyIndex, Relation, Row, Schema, Value,
};

fn setup(target_rows: &[(i64, f64)]) -> Catalog {
    let mut c = Catalog::new();
    let mut r = Relation::with_pk(node_schema(), &["ID"]).unwrap();
    for &(id, w) in target_rows {
        r.push(row![id, w]).unwrap();
    }
    c.create_temp("V", r).unwrap();
    c
}

fn delta(rows: &[(i64, f64)]) -> Relation {
    let mut d = Relation::new(node_schema());
    for &(id, w) in rows {
        d.push(row![id, w]).unwrap();
    }
    d
}

/// One fold under a fresh lookup over `V`'s key.
fn improve(c: &mut Catalog, d: Relation, min: bool, s: &mut ExecStats) -> Relation {
    let mut idx = KeyLookup::build(c.relation("V").unwrap(), &[0]).unwrap();
    ubu_merge_improve(c, "V", Delta::Rows(d), &mut idx, 1, min, s)
        .unwrap()
        .0
}

fn contents(c: &Catalog) -> Vec<(i64, f64)> {
    let mut v: Vec<(i64, f64)> = c
        .relation("V")
        .unwrap()
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_f64().unwrap()))
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v
}

#[test]
fn improves_inserts_and_ignores_worse() {
    let mut c = setup(&[(1, 5.0), (2, 2.0), (3, 1.0)]);
    let d = delta(&[(1, 3.0), (2, 9.0), (4, 4.0)]);
    let mut s = ExecStats::new();
    let front = improve(&mut c, d, true, &mut s);
    // 1 improved (3 < 5), 2 ignored (9 > 2), 4 inserted
    assert_eq!(contents(&c), vec![(1, 3.0), (2, 2.0), (3, 1.0), (4, 4.0)]);
    let ids: Vec<i64> = front.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![1, 4]);
}

#[test]
fn max_direction_flips_comparison() {
    let mut c = setup(&[(1, 5.0)]);
    let d = delta(&[(1, 3.0), (1, 8.0)]);
    let mut s = ExecStats::new();
    let front = improve(&mut c, d, false, &mut s);
    assert_eq!(contents(&c), vec![(1, 8.0)]);
    assert_eq!(front.len(), 1);
}

#[test]
fn duplicate_delta_keys_reduced_to_best() {
    let mut c = setup(&[(1, 5.0)]);
    let d = delta(&[(1, 4.0), (1, 2.0), (1, 3.0)]);
    let mut s = ExecStats::new();
    let front = improve(&mut c, d, true, &mut s);
    assert_eq!(contents(&c), vec![(1, 2.0)]);
    assert_eq!(front.len(), 1);
    assert_eq!(front[0][1].as_f64().unwrap(), 2.0);
}

#[test]
fn empty_frontier_when_nothing_improves() {
    let mut c = setup(&[(1, 1.0), (2, 2.0)]);
    let d = delta(&[(1, 1.0), (2, 5.0)]);
    let mut s = ExecStats::new();
    let front = improve(&mut c, d, true, &mut s);
    assert!(front.is_empty(), "ties and regressions are not changes");
    assert_eq!(contents(&c), vec![(1, 1.0), (2, 2.0)]);
}

#[test]
fn one_index_serves_a_sequence_of_folds() {
    // the second fold must find the key the first one inserted, through
    // the pushed index entry alone
    let mut c = setup(&[(1, 5.0)]);
    let mut idx = KeyLookup::build(c.relation("V").unwrap(), &[0]).unwrap();
    let mut s = ExecStats::new();
    for (d, changed) in [(&[(2, 7.0), (1, 4.0)][..], 2), (&[(2, 6.0), (3, 1.0)], 2)] {
        let d = Delta::Rows(delta(d));
        let front = ubu_merge_improve(&mut c, "V", d, &mut idx, 1, true, &mut s);
        assert_eq!(front.unwrap().0.len(), changed);
    }
    assert_eq!(contents(&c), vec![(1, 4.0), (2, 6.0), (3, 1.0)]);
    let v = c.relation("V").unwrap();
    assert!(KeyLookup::build(v, &[0]).is_ok(), "no key inserted twice");
    assert_eq!(s.ubu_changed_rows, 4);
}

/// The lookup finds, for every key of `V` and some that are not, the
/// row a key index over `V` probes.
fn finds_what_a_key_index_finds(c: &Catalog, lookup: &KeyLookup) {
    let v = c.relation("V").unwrap();
    let index = KeyIndex::build(v, &[0]);
    for k in v.iter().map(|r| r[0].as_int().unwrap()).chain(-20..20) {
        let row = [Value::Int(k), Value::Null];
        let want = index.probe(v, &row, &[0]).next().map(|i| i as usize);
        assert_eq!(lookup.row_of(v, &row, &[0]), want, "key {k}");
    }
}

/// A dense key span (a slot array) and a sparse one (a key index), grown
/// inside the span, above it while it stays dense, below it and far above
/// it: after every step the held lookup finds what a fresh key index finds.
#[test]
fn the_slot_array_finds_what_a_key_index_finds() {
    let dense: Vec<(i64, f64)> = (0..50).map(|k| (k * 3, 1.0)).collect();
    let sparse: Vec<(i64, f64)> = (0..50).map(|k| (k * 1000, 1.0)).collect();
    for rows in [dense, sparse] {
        let mut c = setup(&rows);
        let mut lookup = KeyLookup::build(c.relation("V").unwrap(), &[0]).unwrap();
        finds_what_a_key_index_finds(&c, &lookup);
        for added in [[1, 2], [150, 160], [-7, 170], [1i64 << 40, 5]] {
            let kept = c.relation("V").unwrap().len();
            let append = added.iter().map(|&k| row![k, 2.0]).collect();
            c.patch_rows("V", Vec::new(), append).unwrap();
            lookup.extend(c.relation("V").unwrap(), kept);
            finds_what_a_key_index_finds(&c, &lookup);
        }
    }
    let mut c = setup(&[(1, 1.0), (2, 2.0), (1, 3.0)]);
    assert_eq!(
        KeyLookup::build(c.relation("V").unwrap(), &[0]).err(),
        Some(2)
    );
    c.patch_rows("V", vec![(2, row![3, 3.0])], Vec::new())
        .unwrap();
    assert!(KeyLookup::build(c.relation("V").unwrap(), &[0]).is_ok());
}

/// `V(ID, d)` with an `Int` or a mixed value column, one fold of `d`'s
/// rows read as columns: the frontier, and whether the fold read them
/// as columns.
fn fold_cols(target: &[(i64, Value)], d: &[(i64, Value)]) -> (Vec<Row>, bool) {
    let schema = Schema::of(&[("ID", DataType::Int), ("d", DataType::Int)]);
    let rel = |rows: &[(i64, Value)]| {
        let mut r = Relation::new(schema.clone());
        r.extend(
            rows.iter()
                .map(|(k, v)| vec![Value::Int(*k), v.clone()].into()),
        )
        .unwrap();
        r
    };
    let mut c = Catalog::new();
    c.create_temp("V", rel(target)).unwrap();
    let mut lookup = KeyLookup::build(c.relation("V").unwrap(), &[0]).unwrap();
    let delta = Delta::Cols(Batch::from_relation(&rel(d)));
    let mut s = ExecStats::new();
    let fold = ubu_merge_improve(&mut c, "V", delta, &mut lookup, 1, true, &mut s);
    let (front, cols) = fold.unwrap();
    (front.rows().to_vec(), cols.is_some())
}

#[test]
fn columns_of_ints_fold_in_place_and_mixed_ones_as_rows() {
    let (i, f) = (Value::Int, Value::Float);
    let target = [(1, i(5)), (2, i(2))];
    let (front, cols) = fold_cols(&target, &[(1, i(3)), (2, i(9)), (4, i(4))]);
    assert!(cols, "an Int value column is read in place");
    assert_eq!(front, vec![row![1, 3], row![4, 4]]);
    // a mixed column, and repeated keys (a seed's), take the rows
    let (front, cols) = fold_cols(&target, &[(1, f(3.0)), (2, i(1)), (4, i(4))]);
    assert!(!cols, "mixed Int / Float values are read as rows");
    assert_eq!(front, vec![row![1, 3.0], row![2, 1], row![4, 4]]);
    let (front, cols) = fold_cols(&target, &[(4, i(9)), (1, i(4)), (4, i(3)), (1, i(6))]);
    assert!(!cols, "repeated keys are reduced as rows");
    assert_eq!(front, vec![row![4, 3], row![1, 4]]);
}
