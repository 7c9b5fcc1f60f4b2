//! Snapshot checkpointing: the catalog serialized to a versioned binary
//! file, paired with a fresh WAL generation.
//!
//! ## File format
//!
//! ```text
//! file    := magic "AIOSNAP1" body crc:u32le     (crc = CRC32/IEEE of body)
//! body    := version:u32 seq:u64 ntables:u32 table*
//! table   := name temp:u8 schema pk columns      (codec from `wal`)
//! columns := nrows:u32 column{schema arity}      (version 2, column-major)
//! column  := tag:u8 payload                      (0 mixed, 1 int, 2 float,
//!                                                 3 dictionary string)
//! ```
//!
//! Version 2 serializes each table column-major through the typed
//! [`ColumnVec`] layout: ints as zigzag varints, floats as raw LE bits,
//! strings dictionary-encoded (each distinct string written once), with a
//! null bitmask per column and null slots omitted from the payload.
//! Version 1 (row-major `put_rows`) files are still decoded — recovery
//! accepts both. The WAL record codec itself stays row-major: its tags are
//! format-frozen and individual log records are small.
//!
//! The trailing CRC covers the whole body, so a single flipped bit anywhere
//! invalidates the snapshot and recovery falls back to the previous
//! generation (checkpointing only deletes generation `n` after generation
//! `n+1` is durably in place — see [`crate::Catalog::checkpoint`]).
//!
//! Temp tables are included: a crash can land while a with+ run's working
//! tables exist, and resuming from the last committed iteration needs them.
//! Optimizer statistics are *not* serialized — recovery recomputes them
//! (`Catalog::analyze`) so the cost optimizer never plans against sketches
//! that predate the replayed WAL tail.

use crate::column::{Batch, ColumnVec, NullMask, StringTable};
use crate::error::{Result, StorageError};
use crate::relation::{Relation, Row};
use crate::schema::Schema;
use crate::wal::{codec, crc32};
use crate::Catalog;

/// Magic prefix of every snapshot file (name + format version).
pub const SNAP_MAGIC: &[u8; 8] = b"AIOSNAP1";

/// Bumped when the body layout changes; decode refuses newer versions but
/// still reads every older one (v1 = row-major tables).
pub const SNAP_VERSION: u32 = 2;

/// Path of snapshot generation `seq` under `dir`.
pub fn snapshot_file(dir: &str, seq: u64) -> String {
    format!("{dir}/snapshot.{seq}")
}

/// Parse `snapshot.<seq>` back into a sequence number (rejects `.tmp` and
/// anything else).
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot.")?.parse().ok()
}

/// Parse `wal.<seq>` back into a sequence number.
pub fn parse_wal_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal.")?.parse().ok()
}

/// One table as stored in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct TableImage {
    pub name: String,
    pub temp: bool,
    pub schema: Schema,
    pub pk: Option<Vec<usize>>,
    pub rows: Vec<Row>,
}

impl TableImage {
    /// Rebuild the relation (arity-checked).
    pub fn into_relation(self) -> Result<(String, bool, Relation)> {
        let mut rel = Relation::new(self.schema);
        rel.set_pk(self.pk);
        rel.extend(self.rows)?;
        Ok((self.name, self.temp, rel))
    }
}

/// Serialize the whole catalog as snapshot generation `seq` (version 2:
/// tables column-major through the typed [`ColumnVec`] layout).
pub fn encode_snapshot(seq: u64, catalog: &Catalog) -> Vec<u8> {
    let mut body = Vec::new();
    codec::put_u32(&mut body, SNAP_VERSION);
    codec::put_u64(&mut body, seq);
    let names = catalog.names();
    codec::put_u32(&mut body, names.len() as u32);
    for name in &names {
        let e = catalog.entry(name).expect("names() returned a live table");
        codec::put_str(&mut body, name);
        body.push(e.temp as u8);
        codec::put_schema(&mut body, e.rel.schema());
        codec::put_pk(&mut body, e.rel.pk());
        let batch = Batch::from_relation(&e.rel);
        codec::put_u32(&mut body, batch.len() as u32);
        for col in batch.columns() {
            put_column(&mut body, col);
        }
    }
    let mut file = SNAP_MAGIC.to_vec();
    file.extend_from_slice(&body);
    file.extend_from_slice(&crc32(&body).to_le_bytes());
    file
}

/// Column tags in v2 table payloads (distinct from the `Value` tags of
/// `put_value`, which v1 rows and `Mixed` cells use).
const COL_MIXED: u8 = 0;
const COL_INT: u8 = 1;
const COL_FLOAT: u8 = 2;
const COL_STR: u8 = 3;

fn put_null_mask(buf: &mut Vec<u8>, nulls: &NullMask) {
    let words = nulls.words();
    codec::put_varu(buf, words.len() as u64);
    for &w in words {
        codec::put_u64(buf, w);
    }
}

/// One v2 column: null slots are flagged in the mask and *omitted* from
/// the value payload.
fn put_column(buf: &mut Vec<u8>, col: &ColumnVec) {
    match col {
        ColumnVec::Int { vals, nulls } => {
            buf.push(COL_INT);
            put_null_mask(buf, nulls);
            for (i, &v) in vals.iter().enumerate() {
                if !nulls.get(i) {
                    codec::put_varu(buf, codec::zigzag(v));
                }
            }
        }
        ColumnVec::Float { vals, nulls } => {
            buf.push(COL_FLOAT);
            put_null_mask(buf, nulls);
            for (i, &v) in vals.iter().enumerate() {
                if !nulls.get(i) {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        ColumnVec::Str { ids, nulls, dict } => {
            buf.push(COL_STR);
            put_null_mask(buf, nulls);
            codec::put_u32(buf, dict.len() as u32);
            for s in dict.strings() {
                codec::put_str(buf, s);
            }
            for (i, &id) in ids.iter().enumerate() {
                if !nulls.get(i) {
                    codec::put_varu(buf, id as u64);
                }
            }
        }
        ColumnVec::Mixed(vals) => {
            buf.push(COL_MIXED);
            for v in vals {
                codec::put_value(buf, v);
            }
        }
    }
}

fn read_null_mask(d: &mut codec::Dec<'_>) -> std::result::Result<NullMask, String> {
    let nwords = d.varu()? as usize;
    if nwords > d.remaining() / 8 + 1 {
        return Err(format!(
            "null mask of {nwords} words exceeds remaining bytes"
        ));
    }
    let mut words = Vec::with_capacity(nwords);
    for _ in 0..nwords {
        words.push(d.u64()?);
    }
    Ok(NullMask::from_words(words))
}

fn read_column(d: &mut codec::Dec<'_>, nrows: usize) -> std::result::Result<ColumnVec, String> {
    let tag = d.u8()?;
    if tag != COL_MIXED && nrows > d.remaining() * 8 {
        // even an all-null typed column costs ≥ nrows/64 mask words
        return Err(format!("column of {nrows} rows exceeds remaining bytes"));
    }
    match tag {
        COL_MIXED => {
            let mut vals = Vec::with_capacity(nrows.min(d.remaining()));
            for _ in 0..nrows {
                vals.push(d.value()?);
            }
            Ok(ColumnVec::Mixed(vals))
        }
        COL_INT => {
            let nulls = read_null_mask(d)?;
            let mut vals = Vec::with_capacity(nrows);
            for i in 0..nrows {
                vals.push(if nulls.get(i) {
                    0
                } else {
                    codec::unzigzag(d.varu()?)
                });
            }
            Ok(ColumnVec::Int { vals, nulls })
        }
        COL_FLOAT => {
            let nulls = read_null_mask(d)?;
            let mut vals = Vec::with_capacity(nrows);
            for i in 0..nrows {
                vals.push(if nulls.get(i) {
                    0.0
                } else {
                    f64::from_le_bytes(d.take(8)?.try_into().unwrap())
                });
            }
            Ok(ColumnVec::Float { vals, nulls })
        }
        COL_STR => {
            let nulls = read_null_mask(d)?;
            let ndict = d.u32()? as usize;
            if ndict > d.remaining() {
                return Err(format!(
                    "dictionary of {ndict} strings exceeds remaining bytes"
                ));
            }
            let mut dict = StringTable::new();
            for _ in 0..ndict {
                let s: std::sync::Arc<str> = d.str()?.into();
                dict.intern(&s);
            }
            let mut ids = Vec::with_capacity(nrows);
            for i in 0..nrows {
                if nulls.get(i) {
                    ids.push(0);
                } else {
                    let id = d.varu()?;
                    if id >= dict.len() as u64 {
                        return Err(format!(
                            "string id {id} out of dictionary range {}",
                            dict.len()
                        ));
                    }
                    ids.push(id as u32);
                }
            }
            Ok(ColumnVec::Str { ids, nulls, dict })
        }
        t => Err(format!("unknown column tag {t}")),
    }
}

/// Decode a v2 column-major table payload back to rows.
fn read_column_rows(d: &mut codec::Dec<'_>, arity: usize) -> std::result::Result<Vec<Row>, String> {
    let nrows = d.u32()? as usize;
    if arity > 0 && nrows > d.remaining() * 64 {
        return Err(format!("row count {nrows} exceeds remaining bytes"));
    }
    let mut cols = Vec::with_capacity(arity);
    for _ in 0..arity {
        cols.push(read_column(d, nrows)?);
    }
    let mut rows = Vec::with_capacity(nrows);
    for i in 0..nrows {
        rows.push(cols.iter().map(|c| c.value(i)).collect::<Row>());
    }
    Ok(rows)
}

/// Decode and fully validate a snapshot file. Any structural problem is a
/// [`StorageError::Corrupt`] — never a panic.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(u64, Vec<TableImage>)> {
    let corrupt = |m: String| StorageError::Corrupt(format!("snapshot: {m}"));
    let magic_len = SNAP_MAGIC.len();
    if bytes.len() < magic_len + 4 || &bytes[..magic_len] != SNAP_MAGIC {
        return Err(corrupt("bad or missing magic".to_string()));
    }
    let body = &bytes[magic_len..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if crc32(body) != stored {
        return Err(corrupt("crc mismatch".to_string()));
    }
    let mut d = codec::Dec::new(body);
    let version = d.u32().map_err(&corrupt)?;
    if version == 0 || version > SNAP_VERSION {
        return Err(corrupt(format!("unsupported version {version}")));
    }
    let seq = d.u64().map_err(&corrupt)?;
    let ntables = d.u32().map_err(&corrupt)? as usize;
    let mut tables = Vec::with_capacity(ntables.min(4096));
    for _ in 0..ntables {
        let name = d.str().map_err(&corrupt)?;
        let temp = d.u8().map_err(&corrupt)? != 0;
        let schema = d.schema().map_err(&corrupt)?;
        let pk = d.pk().map_err(&corrupt)?;
        let rows = if version == 1 {
            d.rows().map_err(&corrupt)?
        } else {
            read_column_rows(&mut d, schema.arity()).map_err(&corrupt)?
        };
        tables.push(TableImage {
            name,
            temp,
            schema,
            pk,
            rows,
        });
    }
    if !d.done() {
        return Err(corrupt("trailing garbage after table list".to_string()));
    }
    Ok((seq, tables))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{edge_schema, node_schema};
    use crate::row;
    use crate::value::Value;

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut e = Relation::new(edge_schema());
        e.set_pk(Some(vec![0, 1]));
        e.extend(vec![row![1, 2, 1.0], row![2, 3, 0.5]]).unwrap();
        c.create_table("E", e).unwrap();
        c.create_temp("tmp", Relation::new(node_schema())).unwrap();
        c
    }

    #[test]
    fn snapshot_roundtrip() {
        let c = sample_catalog();
        let bytes = encode_snapshot(4, &c);
        let (seq, tables) = decode_snapshot(&bytes).unwrap();
        assert_eq!(seq, 4);
        assert_eq!(tables.len(), 2);
        let (name, temp, rel) = tables[0].clone().into_relation().unwrap();
        assert_eq!((name.as_str(), temp), ("e", false));
        assert_eq!(rel.pk(), Some(&[0usize, 1][..]));
        assert_eq!(rel.rows(), c.relation("E").unwrap().rows());
        assert!(tables[1].temp);
    }

    #[test]
    fn any_bit_flip_invalidates() {
        let bytes = encode_snapshot(1, &sample_catalog());
        for pos in [0, 9, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(
                decode_snapshot(&bad).is_err(),
                "flip at {pos} must invalidate"
            );
        }
        for cut in [0, 7, bytes.len() - 1] {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "truncation to {cut}"
            );
        }
    }

    /// v1 (row-major) snapshot files written by older builds still decode.
    #[test]
    fn v1_snapshots_still_decode() {
        let c = sample_catalog();
        let mut body = Vec::new();
        codec::put_u32(&mut body, 1);
        codec::put_u64(&mut body, 9);
        let names = c.names();
        codec::put_u32(&mut body, names.len() as u32);
        for name in &names {
            let e = c.entry(name).unwrap();
            codec::put_str(&mut body, name);
            body.push(e.temp as u8);
            codec::put_schema(&mut body, e.rel.schema());
            codec::put_pk(&mut body, e.rel.pk());
            codec::put_rows(&mut body, e.rel.rows());
        }
        let mut file = SNAP_MAGIC.to_vec();
        file.extend_from_slice(&body);
        file.extend_from_slice(&crc32(&body).to_le_bytes());
        let (seq, tables) = decode_snapshot(&file).unwrap();
        assert_eq!(seq, 9);
        let (name, _, rel) = tables[0].clone().into_relation().unwrap();
        assert_eq!(name, "e");
        assert_eq!(rel.rows(), c.relation("E").unwrap().rows());
    }

    /// Text columns roundtrip through the v2 dictionary encoding, and the
    /// dictionary actually dedups: each distinct string is written once.
    #[test]
    fn v2_dictionary_roundtrip_and_dedup() {
        use crate::schema::DataType;
        let mut c = Catalog::new();
        let mut t = Relation::new(Schema::of(&[("id", DataType::Int), ("s", DataType::Text)]));
        let long = "x".repeat(64);
        for i in 0..50i64 {
            t.push(vec![Value::Int(i), Value::Text(long.as_str().into())].into_boxed_slice())
                .unwrap();
        }
        t.push(vec![Value::Null, Value::Null].into_boxed_slice())
            .unwrap();
        c.create_table("S", t).unwrap();
        let bytes = encode_snapshot(2, &c);
        // 50 copies of a 64-byte string stored once: far below row-major size
        assert!(
            bytes.len() < 50 * 64,
            "dictionary did not dedup: {} bytes",
            bytes.len()
        );
        let (_, tables) = decode_snapshot(&bytes).unwrap();
        let (_, _, rel) = tables[0].clone().into_relation().unwrap();
        assert_eq!(rel.rows(), c.relation("S").unwrap().rows());
    }

    #[test]
    fn file_names_parse() {
        assert_eq!(parse_snapshot_name("snapshot.12"), Some(12));
        assert_eq!(parse_snapshot_name("snapshot.12.tmp"), None);
        assert_eq!(parse_snapshot_name("wal.3"), None);
        assert_eq!(parse_wal_name("wal.3"), Some(3));
        assert_eq!(parse_wal_name("wal.x"), None);
    }
}
