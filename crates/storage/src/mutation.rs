//! The one unit of change to the catalog's tables.
//!
//! Every write — a table created, dropped, renamed or truncated, rows
//! inserted, replaced, deleted or overwritten — is a [`Mutation`] that
//! [`Catalog::apply`](crate::Catalog::apply) validates, encodes once,
//! charges to the cost model, appends to the durable log and applies, in
//! that order. The durable log's records decode back into mutations, and
//! recovery replays them through the same `apply` with logging off, after
//! the same `Mutation::check` has accepted the whole transaction.

use crate::column::Batch;
use crate::error::{Result, StorageError};
use crate::relation::{Relation, Row};

/// One catalog change. The variants are the durable record kinds, plus
/// [`Mutation::Patch`] and [`Mutation::PatchLanes`], which exist only live
/// and are logged as an [`Mutation::EdgeDelta`].
#[derive(Clone, Debug)]
pub enum Mutation {
    /// Create `name` holding `rel` (its schema, primary key and rows). A
    /// `replace` create overwrites a table of that name; `temp` tables
    /// start without optimizer statistics.
    Create {
        name: String,
        rel: Relation,
        temp: bool,
        replace: bool,
    },
    Drop {
        table: String,
    },
    Rename {
        old: String,
        new: String,
    },
    Truncate {
        table: String,
    },
    Insert {
        table: String,
        rows: Vec<Row>,
    },
    /// The table's rows become `rel`'s, moved in as they are; the table
    /// keeps its own schema and primary key. Logged as a full image.
    ReplaceRows {
        table: String,
        rel: Relation,
    },
    /// Append `adds`, then remove `dels` by full-row match (multiset,
    /// first match; rows the table lacks are ignored). O(|delta|) in the
    /// log, which is the point of incremental view maintenance.
    EdgeDelta {
        table: String,
        adds: Vec<Row>,
        dels: Vec<Row>,
    },
    /// Overwrite rows in place (`set`: distinct positions and their new
    /// rows), then append `append`. Logged as an `EdgeDelta` whose `dels`
    /// are the overwritten rows and whose `adds` are the rows written, so
    /// replay yields the same multiset with the rewritten rows moved to
    /// the end (DESIGN §19).
    Patch {
        table: String,
        set: Vec<(usize, Row)>,
        append: Vec<Row>,
    },
    /// A [`Mutation::Patch`] whose overwrites are lanes of `cols`: `set`
    /// pairs a position with the lane it takes, written into that row
    /// value by value, so no row is boxed for it. Logged like a patch.
    PatchLanes {
        table: String,
        cols: Batch,
        set: Vec<(usize, u32)>,
        append: Vec<Row>,
    },
}

impl Mutation {
    /// Validate against the tables that exist, `arity` mapping a table
    /// name to its arity: names must exist (or not, for a create or a
    /// rename's target), every row must have its table's arity and a
    /// primary key must name columns of its table. The one check the live
    /// catalog and recovery share; it leaves a patch's positions to the
    /// live catalog, the only place that knows row counts.
    pub(crate) fn check(&self, arity: impl Fn(&str) -> Option<usize>) -> Result<()> {
        let table = |t: &str| arity(t).ok_or_else(|| StorageError::NoSuchTable(t.to_string()));
        match self {
            Mutation::Create {
                name, rel, replace, ..
            } => {
                if !replace && arity(name).is_some() {
                    return Err(StorageError::TableExists(name.clone()));
                }
                let a = rel.schema().arity();
                match rel.pk().into_iter().flatten().find(|&&c| c >= a) {
                    Some(c) => Err(StorageError::Invalid(format!(
                        "create {name}: primary-key column {c} out of range for arity {a}"
                    ))),
                    None => Ok(()),
                }
            }
            Mutation::Drop { table: t } | Mutation::Truncate { table: t } => table(t).map(|_| ()),
            Mutation::Rename { old, new } => {
                if arity(new).is_some() {
                    return Err(StorageError::TableExists(new.clone()));
                }
                table(old).map(|_| ())
            }
            Mutation::Insert { table: t, rows } => rows_of(table(t)?, rows.iter()),
            Mutation::ReplaceRows { table: t, rel } => {
                let (expected, got) = (table(t)?, rel.schema().arity());
                if got != expected {
                    return Err(StorageError::ArityMismatch { expected, got });
                }
                Ok(())
            }
            Mutation::EdgeDelta {
                table: t,
                adds,
                dels,
            } => rows_of(table(t)?, adds.iter().chain(dels)),
            Mutation::Patch {
                table: t,
                set,
                append,
            } => rows_of(table(t)?, set.iter().map(|(_, r)| r).chain(append)),
            Mutation::PatchLanes {
                table: t,
                cols,
                set,
                append,
            } => {
                let (expected, got) = (table(t)?, cols.schema().arity());
                if got != expected {
                    return Err(StorageError::ArityMismatch { expected, got });
                }
                if let Some((_, lane)) = set.iter().find(|(_, l)| *l as usize >= cols.len()) {
                    return Err(StorageError::Invalid(format!(
                        "patch of {t}: lane {lane} out of range for {} lanes",
                        cols.len()
                    )));
                }
                rows_of(expected, append.iter())
            }
        }
    }
}

/// `Ok` when every row has arity `expected`, else the first that does not.
fn rows_of<'a>(expected: usize, mut rows: impl Iterator<Item = &'a Row>) -> Result<()> {
    match rows.find(|r| r.len() != expected) {
        Some(r) => Err(StorageError::ArityMismatch {
            expected,
            got: r.len(),
        }),
        None => Ok(()),
    }
}
