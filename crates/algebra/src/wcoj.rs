//! Worst-case-optimal multiway join (leapfrog triejoin).
//!
//! Binary join plans are provably suboptimal on cyclic patterns: a triangle
//! query must materialize Θ(Σ deg²) wedges before the closing join, while
//! the AGM bound caps the output at |E|^{3/2}. The leapfrog triejoin of
//! Veldhuizen meets that bound by intersecting one *variable* at a time
//! across every relation containing it, using the sorted [`TrieIndex`]es the
//! storage layer caches per table.
//!
//! This module holds both halves of the feature:
//!
//! * the executor (`multiway_join`) — one leapfrog search, `Lftj<K>`,
//!   written once over the tries' level slices and instantiated for
//!   `K = i64` when every key level of every trie is all-`Int` (graph
//!   vertex ids: machine-integer compares, no NULLs to skip) and for
//!   `K = Value` otherwise; which one runs is read off the tries, not
//!   configured. Bag semantics: payload columns and duplicate rows are
//!   re-expanded from the trie's row-id runs, so the output is
//!   multiset-identical to the equivalent binary join tree. Scan-like
//!   children (a scan, or a projection of plain columns over one) read the
//!   catalog's cached tries; only filtered or computed children are
//!   indexed per execution;
//! * the planning helpers the cost pass uses — GYO cyclicity detection
//!   ([`is_cyclic`]), the AGM bound via an exact half-integral minimum
//!   fractional edge cover ([`agm_bound`]), and the variable elimination
//!   order heuristic ([`choose_order`]).

use crate::error::{AlgebraError, Result};
use crate::expr::ScalarExpr;
use crate::fault;
use crate::plan::{Data, Plan};
use crate::stats::ExecStats;
use aio_storage::{Catalog, Relation, TrieIndex, Value};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Phase timings of the most recent multiway join on this thread, read by
/// the traced evaluator right after a `Plan::MultiwayJoin` node returns
/// (children evaluate before the join runs, so the last join on the thread
/// is the node being closed — same protocol as `ops::last_join_phases`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WcojPhases {
    /// Time spent building (or fetching cached) tries.
    pub build_ns: u64,
    /// Time spent in the leapfrog search + output expansion.
    pub probe_ns: u64,
    /// How many tries came from the catalog cache.
    pub tries_cached: u64,
    /// How many tries were built for this execution.
    pub tries_built: u64,
}

thread_local! {
    static LAST_WCOJ: Cell<WcojPhases> = const {
        Cell::new(WcojPhases { build_ns: 0, probe_ns: 0, tries_cached: 0, tries_built: 0 })
    };
}

/// Phase timings of the most recent multiway join on this thread.
pub fn last_wcoj_phases() -> WcojPhases {
    LAST_WCOJ.with(|c| c.get())
}

/// A *scan-like* child — a `Scan`, or a `Project` of plain column
/// references over one — as `(table, column map)`: row `r` of the child is
/// row `r` of `table` with child column `j` read from table column
/// `map[j]`. Such a child needs no index of its own: the table's cached
/// trie on the mapped key columns numbers its rows identically. `None` for
/// anything filtered or computed.
fn scan_like<'p>(plan: &'p Plan, catalog: &Catalog) -> Option<(&'p str, Vec<usize>)> {
    match plan {
        Plan::Scan { table, .. } => {
            let arity = catalog.relation(table).ok()?.schema().arity();
            Some((table, (0..arity).collect()))
        }
        Plan::Project { input, items } => {
            let Plan::Scan { table, .. } = &**input else {
                return None;
            };
            let schema = input.schema(catalog).ok()?;
            let map = items
                .iter()
                .map(|(e, _)| match e {
                    ScalarExpr::Col(name) => schema.index_of(name).ok(),
                    ScalarExpr::BoundCol(i) => Some(*i),
                    _ => None,
                })
                .collect::<Option<_>>()?;
            Some((table, map))
        }
        _ => None,
    }
}

/// Execute a multiway join: `inputs[i]` is the evaluated output of
/// `plans[i]` (rows or columns, as its operator produced it), `vars[i][j]`
/// is the elimination-order position of the variable bound by column `j`
/// of child `i` (`None` = payload column), and `n_vars` is the number of
/// join variables.
pub(crate) fn multiway_join(
    catalog: &Catalog,
    plans: &[Plan],
    inputs: Vec<Data>,
    vars: &[Vec<Option<usize>>],
    n_vars: usize,
    stats: &mut ExecStats,
) -> Result<Relation> {
    if inputs.is_empty() || inputs.len() != vars.len() {
        return Err(AlgebraError::Plan(
            "multiway join: malformed variable map".into(),
        ));
    }
    stats.joins += 1;
    stats.rows_scanned += inputs.iter().map(|d| d.len() as u64).sum::<u64>();
    let schema = crate::plan::joined(inputs.iter().map(Data::schema));

    // Key columns per child, in elimination order; a duplicate position
    // within one child would need intra-row equality the trie cannot
    // express (the optimizer never emits one).
    let mut key_cols: Vec<Vec<usize>> = Vec::with_capacity(inputs.len());
    for (i, v) in vars.iter().enumerate() {
        if v.len() != inputs[i].schema().arity() {
            return Err(AlgebraError::Plan(
                "multiway join: variable map arity mismatch".into(),
            ));
        }
        let mut kc: Vec<(usize, usize)> = v
            .iter()
            .enumerate()
            .filter_map(|(j, p)| p.map(|p| (p, j)))
            .collect();
        kc.sort_unstable();
        if kc.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(AlgebraError::Plan(
                "multiway join: duplicate variable in one atom".into(),
            ));
        }
        key_cols.push(kc.into_iter().map(|(_, j)| j).collect());
    }

    // Which children participate at each elimination depth.
    let mut participants: Vec<Vec<usize>> = vec![Vec::new(); n_vars];
    for (i, v) in vars.iter().enumerate() {
        for p in v.iter().flatten() {
            participants
                .get_mut(*p)
                .ok_or_else(|| AlgebraError::Plan("multiway join: variable out of range".into()))?
                .push(i);
        }
    }

    // One trie per child. A scan-like child takes its table's cached trie
    // on the mapped key columns (children reading one table in one key
    // order share it) and is expanded from what it already is; anything
    // else is materialized and indexed privately for this execution.
    let build_start = Instant::now();
    let mut phases = WcojPhases::default();
    let mut tries: Vec<Arc<TrieIndex>> = Vec::with_capacity(inputs.len());
    let mut children: Vec<Data> = Vec::with_capacity(inputs.len());
    for ((plan, data), cols) in plans.iter().zip(inputs).zip(&key_cols) {
        match scan_like(plan, catalog) {
            Some((table, map)) => {
                let cols: Vec<usize> = cols.iter().map(|&j| map[j]).collect();
                if catalog.trie_on(table, &cols).is_some() {
                    phases.tries_cached += 1;
                } else {
                    phases.tries_built += 1;
                }
                tries.push(catalog.trie_for(table, &cols)?);
                children.push(data);
            }
            None => {
                phases.tries_built += 1;
                let rel = data.into_relation();
                tries.push(Arc::new(TrieIndex::build(&rel, cols)));
                children.push(Data::Rows(rel));
            }
        }
    }
    let children = &children[..];
    phases.build_ns = build_start.elapsed().as_nanos() as u64;

    let probe_start = Instant::now();
    let all_rows: Vec<Option<Vec<u32>>> = children
        .iter()
        .zip(&key_cols)
        .map(|(d, kc)| kc.is_empty().then(|| (0..d.len() as u32).collect()))
        .collect();
    // Graph keys are almost always Int, and the probe is the hot loop of
    // the whole operator: when every key level is all-Int (hence
    // NULL-free) the search compares the tries' raw `i64` columns.
    let out_rows = if tries.iter().all(|t| t.all_int()) {
        let level = |t, d| TrieIndex::int_keys(t, d).expect("all-Int level");
        Lftj::run(children, &tries, level, &participants, all_rows)?
    } else {
        Lftj::run(children, &tries, TrieIndex::keys, &participants, all_rows)?
    };
    phases.probe_ns = probe_start.elapsed().as_nanos() as u64;
    LAST_WCOJ.with(|c| c.set(phases));

    stats.rows_produced += out_rows.len() as u64;
    let mut out = Relation::new(schema);
    out.extend(out_rows)?;
    Ok(out)
}

/// Append each combination of one row per child to `out`, every child's
/// values read by row id from its rows or its columns.
fn cross(
    children: &[Data],
    ranges: &[&[u32]],
    child: usize,
    row: &mut Vec<Value>,
    out: &mut Vec<aio_storage::Row>,
) {
    if child == children.len() {
        out.push(row.clone().into_boxed_slice());
        return;
    }
    for &rid in ranges[child] {
        let before = row.len();
        children[child].push_row(rid as usize, row);
        cross(children, ranges, child + 1, row, out);
        row.truncate(before);
    }
}

/// What the leapfrog needs of a trie key beyond its order: whether it is
/// SQL NULL, which equality never matches. (`Clone` so the two-way loop can
/// hold its two current keys by value: an `i64` then lives in a register
/// across the recursion, and a `Value` clone is at most a reference-count
/// increment.)
trait TrieKey: Ord + Clone {
    fn is_null(&self) -> bool;
}

impl TrieKey for i64 {
    #[inline]
    fn is_null(&self) -> bool {
        false
    }
}

impl TrieKey for Value {
    #[inline]
    fn is_null(&self) -> bool {
        Value::is_null(self)
    }
}

/// One in-flight leapfrog search over the tries' level slices. A child's
/// position is a stack of `(pos, hi)` node-index frames, one per opened
/// level: `open` reads the node's child range off the trie, `next` is one
/// increment, `seek` gallops on the level's key slice.
struct Lftj<'a, K> {
    children: &'a [Data],
    /// `keys[c][d]` = child `c`'s distinct level-`d` keys.
    keys: Vec<Vec<&'a [K]>>,
    /// The tries themselves: child ranges at `open`, row runs at `emit`.
    tries: &'a [Arc<TrieIndex>],
    /// Per-child frame stack; `frames[c][d] = (pos, hi)` with `pos == hi`
    /// meaning at-end.
    frames: Vec<Vec<(usize, usize)>>,
    participants: &'a [Vec<usize>],
    /// For keyless children (pure cross-product factors): every row id.
    all_rows: Vec<Option<Vec<u32>>>,
    /// Fault flag hoisted out of the per-seek TLS read.
    armed: bool,
    /// Seek count for this search, flushed to metrics once at the end.
    seeks: u64,
    /// Galloping probe-loop iterations across every seek, same flush.
    gallop_steps: u64,
    out: Vec<aio_storage::Row>,
    row: Vec<Value>,
}

impl<'a, K: TrieKey> Lftj<'a, K> {
    /// Run the whole search; `level(trie, d)` is the trie's level-`d` key
    /// slice in this instantiation's key type.
    fn run(
        children: &'a [Data],
        tries: &'a [Arc<TrieIndex>],
        level: impl Fn(&'a TrieIndex, usize) -> &'a [K],
        participants: &'a [Vec<usize>],
        all_rows: Vec<Option<Vec<u32>>>,
    ) -> Result<Vec<aio_storage::Row>> {
        let mut lftj = Lftj {
            children,
            keys: tries
                .iter()
                .map(|t| (0..t.depth()).map(|d| level(t, d)).collect())
                .collect(),
            tries,
            frames: vec![Vec::new(); children.len()],
            participants,
            all_rows,
            armed: fault::wcoj_fault_armed(),
            seeks: 0,
            gallop_steps: 0,
            out: Vec::new(),
            row: Vec::new(),
        };
        lftj.search(0)?;
        aio_metrics::hooks::wcoj_flush(lftj.seeks, lftj.gallop_steps);
        Ok(lftj.out)
    }

    /// Descend child `c` into the children of its current node (the root
    /// level if nothing is open). NULLs sort first and nodes are distinct,
    /// so stepping over one leading key clears them.
    #[inline]
    fn open(&mut self, c: usize) {
        let d = self.frames[c].len();
        let (mut lo, hi) = match self.frames[c].last() {
            None => (0, self.keys[c][0].len()),
            Some(&(pos, _)) => self.tries[c].child_range(d - 1, pos),
        };
        if lo < hi && self.keys[c][d][lo].is_null() {
            lo += 1;
        }
        self.frames[c].push((lo, hi));
    }

    #[inline]
    fn at_end(&self, c: usize) -> bool {
        let &(pos, hi) = self.frames[c].last().expect("at_end above the root");
        pos >= hi
    }

    #[inline]
    fn key(&self, c: usize) -> &'a K {
        let d = self.frames[c].len() - 1;
        &self.keys[c][d][self.frames[c][d].0]
    }

    #[inline]
    fn next(&mut self, c: usize) -> bool {
        let d = self.frames[c].len() - 1;
        let (pos, hi) = self.frames[c][d];
        self.frames[c][d].0 = pos + 1;
        pos + 1 < hi
    }

    /// The least position in `col[from..hi]` whose key is `>= target`
    /// (`hi` if none) — the one seek every loop below goes through. With
    /// the injectable off-by-one armed, a seek that lands exactly on its
    /// target skips one position too far: `lower_bound` miscomputed as
    /// `upper_bound`. (`inline(always)`: left out of line, it costs the
    /// two-way loop its register-resident positions.)
    #[inline(always)]
    fn seek(&mut self, col: &[K], from: usize, hi: usize, target: &K) -> usize {
        self.seeks += 1;
        let mut pos = gallop(col, from, hi, |k| k < target, &mut self.gallop_steps);
        if self.armed && pos < hi && col[pos] == *target {
            fault::note_wcoj_hit();
            pos += 1;
        }
        pos
    }

    /// Position child `c` at its least key `>= v`; `false` at-end.
    #[inline]
    fn seek_lub(&mut self, c: usize, v: &K) -> bool {
        let d = self.frames[c].len() - 1;
        let (pos, hi) = self.frames[c][d];
        let landed = self.seek(self.keys[c][d], pos, hi, v);
        self.frames[c][d].0 = landed;
        landed < hi
    }

    fn search(&mut self, depth: usize) -> Result<()> {
        if depth == self.participants.len() {
            self.emit();
            return Ok(());
        }
        let parts = &self.participants[depth];
        if parts.is_empty() {
            return Err(AlgebraError::Plan("multiway join: unbound variable".into()));
        }
        for &c in parts {
            self.open(c);
        }
        if let [c0, c1] = *parts.as_slice() {
            // Two participants — the overwhelmingly common case for edge
            // patterns (every variable of a triangle / k-cycle touches two
            // atoms). Keep positions and keys in locals; only sync the
            // frame stack around recursion, which reads it via `open`.
            self.intersect2(depth, c0, c1)?;
        } else if parts.iter().all(|&c| !self.at_end(c)) {
            'search: loop {
                // Find the largest current key and the child holding the
                // smallest; equal ⇒ a match on this variable.
                let mut max = self.key(parts[0]);
                let mut min_c = parts[0];
                let mut min = max;
                for &c in &parts[1..] {
                    let k = self.key(c);
                    if k > max {
                        max = k;
                    }
                    if k < min {
                        min = k;
                        min_c = c;
                    }
                }
                if min == max {
                    self.search(depth + 1)?;
                    if !self.next(parts[0]) {
                        break 'search;
                    }
                } else if !self.seek_lub(min_c, max) {
                    break 'search;
                }
            }
        }
        for &c in parts {
            self.frames[c].pop();
        }
        Ok(())
    }

    /// The register-resident two-way leapfrog: advance the smaller key to
    /// the larger, recurse on equality — the general loop above with the
    /// frame stack read once.
    fn intersect2(&mut self, depth: usize, c0: usize, c1: usize) -> Result<()> {
        let d0 = self.frames[c0].len() - 1;
        let d1 = self.frames[c1].len() - 1;
        let col0 = self.keys[c0][d0];
        let col1 = self.keys[c1][d1];
        let (mut p0, h0) = self.frames[c0][d0];
        let (mut p1, h1) = self.frames[c1][d1];
        if p0 >= h0 || p1 >= h1 {
            return Ok(());
        }
        let (mut k0, mut k1) = (col0[p0].clone(), col1[p1].clone());
        loop {
            if k0 == k1 {
                self.frames[c0][d0].0 = p0;
                self.frames[c1][d1].0 = p1;
                self.search(depth + 1)?;
                // `next` on the first participant
                p0 += 1;
                if p0 >= h0 {
                    return Ok(());
                }
                k0 = col0[p0].clone();
            } else if k0 < k1 {
                p0 = self.seek(col0, p0, h0, &k1);
                if p0 >= h0 {
                    return Ok(());
                }
                k0 = col0[p0].clone();
            } else {
                p1 = self.seek(col1, p1, h1, &k0);
                if p1 >= h1 {
                    return Ok(());
                }
                k1 = col1[p1].clone();
            }
        }
    }

    /// Expand the cross product of every child's matching row run — bag
    /// semantics: duplicate keys and payload columns come back here. By
    /// the time every variable is bound, each keyed child sits at its
    /// deepest level on the matching key, so the rows under that node are
    /// the run of row ids under the full prefix.
    fn emit(&mut self) {
        let Lftj {
            children,
            tries,
            frames,
            all_rows,
            out,
            row,
            ..
        } = self;
        let ranges: Vec<&[u32]> = frames
            .iter()
            .zip(all_rows.iter())
            .enumerate()
            .map(|(c, (fs, all))| match all {
                Some(v) => &v[..],
                None => {
                    let d = fs.len() - 1;
                    tries[c].rows_under(d, fs[d].0)
                }
            })
            .collect();
        cross(children, &ranges, 0, row, out);
    }
}

/// First index in `[from, hi)` where the monotone predicate `holds` turns
/// false: exponential probe then binary search within the bracket. Seek
/// distances and run lengths in a leapfrog join are usually a handful of
/// positions, so this is O(log distance), not O(log level-size).
#[inline]
fn gallop<K>(
    s: &[K],
    from: usize,
    hi: usize,
    holds: impl Fn(&K) -> bool,
    steps: &mut u64,
) -> usize {
    if from >= hi || !holds(&s[from]) {
        return from;
    }
    let mut lo = from; // invariant: holds(s[lo])
    let mut step = 1usize;
    while lo + step < hi && holds(&s[lo + step]) {
        lo += step;
        step <<= 1;
        *steps += 1;
    }
    let end = hi.min(lo.saturating_add(step));
    lo + 1 + s[lo + 1..end].partition_point(holds)
}

// ---------------------------------------------------------------------------
// planning helpers (used by the cost pass)
// ---------------------------------------------------------------------------

/// Is the join hypergraph cyclic? `atom_vars[i]` is the set of join-variable
/// ids atom `i` contains. Implements the GYO reduction: repeatedly delete
/// variables private to one atom and atoms whose variable set is contained
/// in another's; the query is α-cyclic iff a non-empty core remains. Trees
/// and chains of equi-joins always reduce to nothing; triangles, k-cycles
/// (k ≥ 3, e.g. diamonds' 4-cycles) and cliques never do.
pub fn is_cyclic(atom_vars: &[Vec<usize>]) -> bool {
    let mut atoms: Vec<std::collections::BTreeSet<usize>> = atom_vars
        .iter()
        .map(|v| v.iter().copied().collect())
        .filter(|s: &std::collections::BTreeSet<usize>| !s.is_empty())
        .collect();
    loop {
        let mut changed = false;
        // delete variables occurring in exactly one atom
        let mut count = std::collections::BTreeMap::new();
        for s in &atoms {
            for &v in s {
                *count.entry(v).or_insert(0usize) += 1;
            }
        }
        for s in &mut atoms {
            let before = s.len();
            s.retain(|v| count[v] > 1);
            changed |= s.len() != before;
        }
        atoms.retain(|s| !s.is_empty());
        // delete atoms contained in another atom (ears)
        let mut i = 0;
        while i < atoms.len() {
            let swallowed = atoms.iter().enumerate().any(|(j, other)| {
                j != i && atoms[i].is_subset(other) && (atoms[i] != *other || i > j)
            });
            if swallowed {
                atoms.swap_remove(i);
                changed = true;
            } else {
                i += 1;
            }
        }
        if !changed {
            return !atoms.is_empty();
        }
    }
}

/// The AGM bound `Π |Rᵢ|^{xᵢ}` under the minimum fractional edge cover of
/// the join variables. The fractional edge cover LP is half-integral, so
/// for up to [`AGM_EXACT_MAX_ATOMS`] atoms the exact optimum is found by
/// enumerating `x ∈ {0, ½, 1}` per atom; beyond that a safe uniform cover
/// (½ everywhere, 1 where an atom owns a variable privately) is used.
///
/// `atoms[i] = (estimated size, join-variable ids)`. Variables not listed
/// in any atom are ignored; an empty/zero-size atom bounds the output at 0.
pub fn agm_bound(atoms: &[(f64, Vec<usize>)]) -> f64 {
    if atoms.is_empty() {
        return 0.0;
    }
    if atoms.iter().any(|(s, _)| *s <= 0.0) {
        return 0.0;
    }
    let vars: Vec<usize> = {
        let mut v: Vec<usize> = atoms
            .iter()
            .flat_map(|(_, vs)| vs.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    if vars.is_empty() {
        // pure cross product: the only cover is everything at weight 1
        return atoms.iter().map(|(s, _)| s).product();
    }
    let logs: Vec<f64> = atoms.iter().map(|(s, _)| s.max(1.0).ln()).collect();
    let covers: Vec<Vec<bool>> = atoms
        .iter()
        .map(|(_, vs)| vars.iter().map(|v| vs.contains(v)).collect())
        .collect();
    let m = atoms.len();
    if m <= AGM_EXACT_MAX_ATOMS {
        // exact half-integral search
        let mut best = f64::INFINITY;
        let mut x = vec![0u8; m]; // 0, 1, 2 halves
        loop {
            let mut covered = vec![0u8; vars.len()];
            let mut obj = 0.0;
            for (i, &xi) in x.iter().enumerate() {
                if xi > 0 {
                    obj += logs[i] * f64::from(xi) / 2.0;
                    for (k, &c) in covers[i].iter().enumerate() {
                        if c {
                            covered[k] = covered[k].saturating_add(xi);
                        }
                    }
                }
            }
            if covered.iter().all(|&c| c >= 2) && obj < best {
                best = obj;
            }
            // next assignment in base 3
            let mut i = 0;
            loop {
                if i == m {
                    return best.exp();
                }
                if x[i] == 2 {
                    x[i] = 0;
                    i += 1;
                } else {
                    x[i] += 1;
                    break;
                }
            }
        }
    }
    // uniform fallback: ½ everywhere, 1 where an atom holds a variable no
    // other atom has — always a valid cover when every variable occurs
    let mut obj = 0.0;
    for (i, (_, vs)) in atoms.iter().enumerate() {
        let private = vs.iter().any(|v| {
            atoms
                .iter()
                .enumerate()
                .filter(|(j, (_, other))| *j != i && other.contains(v))
                .count()
                == 0
        });
        obj += logs[i] * if private { 1.0 } else { 0.5 };
    }
    obj.exp()
}

/// Exhaustive half-integral cover search is 3^m; cap it.
pub const AGM_EXACT_MAX_ATOMS: usize = 12;

/// A deterministic variable elimination order: start from the variable in
/// the most atoms, then greedily extend by connectivity (most atoms shared
/// with already-ordered variables), breaking ties by degree then id.
/// Returns `order[k]` = variable id at elimination position `k`.
pub fn choose_order(n_vars: usize, atom_vars: &[Vec<usize>]) -> Vec<usize> {
    let degree = |v: usize| atom_vars.iter().filter(|a| a.contains(&v)).count();
    let mut order: Vec<usize> = Vec::with_capacity(n_vars);
    let mut placed = vec![false; n_vars];
    while order.len() < n_vars {
        let mut best: Option<(usize, usize, std::cmp::Reverse<usize>)> = None;
        let mut best_v = usize::MAX;
        for v in 0..n_vars {
            if placed[v] {
                continue;
            }
            let conn = atom_vars
                .iter()
                .filter(|a| a.contains(&v) && a.iter().any(|w| placed[*w]))
                .count();
            let key = (conn, degree(v), std::cmp::Reverse(v));
            if best.is_none_or(|b| key > b) {
                best = Some(key);
                best_v = v;
            }
        }
        placed[best_v] = true;
        order.push(best_v);
    }
    order
}

/// Render the elimination order for EXPLAIN: `vars=[a, b, c]`.
pub(crate) fn render_vars(var_names: &[String]) -> String {
    format!("[{}]", var_names.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::execute;
    use crate::profile::oracle_like;
    use aio_storage::{edge_schema, row};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut e = Relation::new(edge_schema());
        // one triangle 1→2→3→1 plus a dangling edge and a duplicate row
        e.extend([
            row![1, 2, 1.0],
            row![2, 3, 1.0],
            row![3, 1, 1.0],
            row![1, 3, 1.0],
            row![1, 2, 2.0],
        ])
        .unwrap();
        c.create_table("E", e).unwrap();
        c
    }

    /// E1(a,b) ⋈ E2(b,c) ⋈ E3(c,a): the triangle pattern.
    fn triangle() -> Plan {
        Plan::MultiwayJoin {
            children: vec![
                Plan::scan_as("E", "E1"),
                Plan::scan_as("E", "E2"),
                Plan::scan_as("E", "E3"),
            ],
            vars: vec![
                vec![Some(0), Some(1), None],
                vec![Some(1), Some(2), None],
                vec![Some(2), Some(0), None],
            ],
            var_names: vec!["a".into(), "b".into(), "c".into()],
            agm_est: 11, // 5^1.5
        }
    }

    fn binary_triangle() -> Plan {
        use crate::ops::join::JoinType;
        Plan::Join {
            left: Box::new(Plan::Join {
                left: Box::new(Plan::scan_as("E", "E1")),
                right: Box::new(Plan::scan_as("E", "E2")),
                on: vec![("E1.T".into(), "E2.F".into())],
                residual: None,
                kind: JoinType::Inner,
            }),
            right: Box::new(Plan::scan_as("E", "E3")),
            on: vec![
                ("E2.T".into(), "E3.F".into()),
                ("E1.F".into(), "E3.T".into()),
            ],
            residual: None,
            kind: JoinType::Inner,
        }
    }

    fn sorted_rows(r: &Relation) -> Vec<aio_storage::Row> {
        let mut v: Vec<_> = r.rows().to_vec();
        v.sort();
        v
    }

    #[test]
    fn triangle_matches_binary_join_as_multiset() {
        let c = catalog();
        let (wcoj, s) = execute(&triangle(), &c, &oracle_like()).unwrap();
        let (bin, _) = execute(&binary_triangle(), &c, &oracle_like()).unwrap();
        // duplicate (1,2) edge ⇒ the 1→2→3→1 triangle appears twice per
        // rotation aligned with E1; bag semantics must be preserved
        assert!(!wcoj.is_empty());
        assert_eq!(wcoj.schema().arity(), 9);
        assert_eq!(sorted_rows(&wcoj), sorted_rows(&bin));
        assert_eq!(s.joins, 1);
    }

    #[test]
    fn scans_use_the_catalog_trie_cache() {
        let c = catalog();
        let (_, _) = execute(&triangle(), &c, &oracle_like()).unwrap();
        let ph = last_wcoj_phases();
        assert_eq!(ph.tries_built + ph.tries_cached, 3);
        assert!(
            c.trie_on("E", &[0, 1]).is_some(),
            "E1's trie cached on the catalog"
        );
        let (_, _) = execute(&triangle(), &c, &oracle_like()).unwrap();
        assert_eq!(
            last_wcoj_phases().tries_cached,
            3,
            "second run is all cache hits"
        );
    }

    #[test]
    fn nulls_never_match() {
        let mut c = Catalog::new();
        let mut e = Relation::new(edge_schema());
        e.extend([row![1, 2, 1.0], row![Value::Null, 2, 1.0]])
            .unwrap();
        // E1(a,b) ⋈ E2(a,c): NULL 'a' must join nothing even though both
        // sides hold a NULL at the same level
        let mut e2 = Relation::new(edge_schema());
        e2.extend([row![1, 5, 1.0], row![Value::Null, 6, 1.0]])
            .unwrap();
        c.create_table("E", e).unwrap();
        c.create_table("D", e2).unwrap();
        let plan = Plan::MultiwayJoin {
            children: vec![Plan::scan_as("E", "E1"), Plan::scan_as("D", "E2")],
            vars: vec![vec![Some(0), None, None], vec![Some(0), None, None]],
            var_names: vec!["a".into()],
            agm_est: 2,
        };
        let (out, _) = execute(&plan, &c, &oracle_like()).unwrap();
        assert_eq!(out.len(), 1, "only a=1 joins; NULLs are skipped");
    }

    /// The one seek primitive against a naive scan, on both key types:
    /// `gallop` finds the least position in `[from, hi)` whose key is
    /// `>= target`, never moves backwards, and stops at `hi` — not at the
    /// end of the level, which belongs to the next parent's children.
    #[test]
    fn seek_is_least_upper_bound_and_monotone() {
        fn check<K: Ord + std::fmt::Debug>(level: &[K], targets: &[K]) {
            for hi in 0..=level.len() {
                for from in 0..=hi {
                    for t in targets {
                        let mut steps = 0;
                        let got = gallop(level, from, hi, |k| k < t, &mut steps);
                        let naive = (from..hi).find(|&i| level[i] >= *t).unwrap_or(hi);
                        assert_eq!(got, naive, "seek({t:?}) in {level:?}[{from}..{hi}]");
                    }
                }
            }
        }
        let ints: Vec<i64> = vec![-3, 0, 1, 2, 5, 8, 13, 21, 34, 55, 89];
        let int_targets: Vec<i64> = (-5..=90).collect();
        check(&ints, &int_targets);
        let (i, f, t) = (Value::Int, Value::Float, Value::text);
        let (null, inf, nan) = (Value::Null, f64::INFINITY, f64::NAN);
        #[rustfmt::skip]
        let values = vec![
            null, f(-inf), i(0), f(0.0), f(0.5), i(1), f(1.0), i(2), f(nan), t("a"), t("b"),
        ];
        assert!(values.windows(2).all(|w| w[0] < w[1]), "a trie level");
        let mut value_targets = values.clone();
        value_targets.extend([f(-0.0), f(-nan), i(-1), i(3), f(1.5), t("")]);
        check(&values, &value_targets);
    }

    #[test]
    fn gyo_detector() {
        // chain a-b, b-c: acyclic
        assert!(!is_cyclic(&[vec![0, 1], vec![1, 2]]));
        // star: acyclic
        assert!(!is_cyclic(&[vec![0, 1], vec![0, 2], vec![0, 3]]));
        // triangle: cyclic
        assert!(is_cyclic(&[vec![0, 1], vec![1, 2], vec![2, 0]]));
        // 4-cycle (diamond without the chord): cyclic
        assert!(is_cyclic(&[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 0]]));
        // triangle + pendant edge: still cyclic
        assert!(is_cyclic(&[vec![0, 1], vec![1, 2], vec![2, 0], vec![2, 3]]));
        // two atoms joined on a composite key: parallel edges, NOT cyclic
        assert!(!is_cyclic(&[vec![0, 1], vec![0, 1]]));
    }

    #[test]
    fn agm_bound_triangle_and_matching() {
        let tri = [
            (100.0, vec![0, 1]),
            (100.0, vec![1, 2]),
            (100.0, vec![2, 0]),
        ];
        assert!((agm_bound(&tri) - 1000.0).abs() < 1e-6, "|E|^(3/2)");
        // K4: the optimal cover is a perfect matching (x=1 on 2 disjoint
        // edges), beating uniform ½ (which would give |E|^3)
        let k4 = [
            (100.0, vec![0, 1]),
            (100.0, vec![0, 2]),
            (100.0, vec![0, 3]),
            (100.0, vec![1, 2]),
            (100.0, vec![1, 3]),
            (100.0, vec![2, 3]),
        ];
        assert!(
            (agm_bound(&k4) - 10_000.0).abs() < 1e-3,
            "got {}",
            agm_bound(&k4)
        );
        // empty atom: output is empty
        assert_eq!(agm_bound(&[(0.0, vec![0, 1]), (5.0, vec![1, 0])]), 0.0);
    }

    #[test]
    fn order_is_deterministic_and_complete() {
        let atoms = [vec![0, 1], vec![1, 2], vec![2, 0]];
        let o = choose_order(3, &atoms);
        let mut sorted = o.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        assert_eq!(o, choose_order(3, &atoms));
    }
}
