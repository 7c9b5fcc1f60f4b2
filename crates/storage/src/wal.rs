//! Write-ahead logging: the simulated cost model *and* the durable log.
//!
//! Both read one encoding, the record a [`Mutation`] becomes
//! (`Catalog::apply` encodes it once):
//!
//! 1. [`Wal`] — the paper's *cost model*. Section 7 observes that "even
//!    though RDBMSs can bypass the redo-log for temporary tables, it still
//!    needs to log", and attributes part of the inter-system performance gap
//!    to logging/IO. We model logging as *honest work*: a mutation logged
//!    under a profile's [`WalPolicy`] is encoded into the same varint
//!    record the durable log appends, and the cost model counts its bytes.
//!    There are no sleeps or fudge factors — the cost is the encode itself.
//!
//! 2. The *durable* WAL ([`WalRecord`], [`Durability`]) — an actual
//!    length+CRC32-framed redo log written through the [`Vfs`] trait, giving
//!    the catalog crash recovery. Records are grouped into transactions by
//!    [`WalRecord::Commit`] markers; the PSM fixpoint loop emits a
//!    `Commit(Iter)` at every iteration boundary so an interrupted with+
//!    run can resume from the last completed iteration (see
//!    `crates/storage/src/recover.rs`).
//!
//! ## Durable frame format
//!
//! ```text
//! file      := magic "AIOWAL01" frame*
//! frame     := len:u32le crc:u32le payload[len]      (crc = CRC32/IEEE of payload)
//! payload   := tag:u8 record-specific fields (see `codec`)
//! ```
//!
//! Replay stops at the first frame whose length is insane, whose bytes run
//! past EOF (torn append) or whose CRC mismatches (bit rot); everything
//! after it — and any record group not terminated by a `Commit` — is
//! discarded, which is exactly the write-ahead contract: a transaction is
//! durable iff its commit frame is fully on disk.

use crate::error::{Result, StorageError};
use crate::mutation::Mutation;
use crate::relation::{Relation, Row};
use crate::schema::{Column, DataType, Schema};
use crate::value::Value;
use crate::vfs::Vfs;
use std::sync::Arc;

/// How much logging an operation incurs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalPolicy {
    /// No logging at all (direct-path insert).
    None,
    /// Log the mutation's record (temp tables).
    Light,
    /// Log the full before/after images (in-place updates of base tables).
    Full,
}

/// The logging cost model: bytes charged per policy.
#[derive(Debug, Default)]
pub struct Wal {
    bytes_written: u64,
}

impl Wal {
    pub fn new() -> Self {
        Wal::default()
    }

    /// Charge one mutation whose encoded record is `record` bytes: `None`
    /// charges nothing, `Light` the record, `Full` the record and its undo
    /// (`undo()` bytes: the before-images the record does not already
    /// carry; called only under `Full`).
    pub(crate) fn charge(
        &mut self,
        policy: WalPolicy,
        record: usize,
        undo: impl FnOnce() -> usize,
    ) {
        self.bytes_written += match policy {
            WalPolicy::None => 0,
            WalPolicy::Light => record as u64,
            WalPolicy::Full => (record + undo()) as u64,
        };
    }

    /// Total bytes charged so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

// ---------------------------------------------------------------------------
// Durable WAL
// ---------------------------------------------------------------------------

/// Magic prefix of every durable WAL file (name + format version).
pub const WAL_MAGIC: &[u8; 8] = b"AIOWAL01";

/// Path of WAL generation `seq` under `dir`.
pub fn wal_file(dir: &str, seq: u64) -> String {
    format!("{dir}/wal.{seq}")
}

/// CRC32 (IEEE, as used by zip/png), slicing-by-8: table `s` advances a
/// byte through `s` more zero bytes, so eight lookups fold eight input
/// bytes at once; the tail goes a byte at a time through table 0.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        let mut i = 0;
        while i < 256 {
            let mut s = 1;
            while s < 8 {
                let prev = t[s - 1][i];
                t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
                s += 1;
            }
            i += 1;
        }
        t
    };
    let byte = |crc: u32, s: usize| TABLES[s][(crc & 0xFF) as usize];
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = byte(lo, 7)
            ^ byte(lo >> 8, 6)
            ^ byte(lo >> 16, 5)
            ^ byte(lo >> 24, 4)
            ^ byte(hi, 3)
            ^ byte(hi >> 8, 2)
            ^ byte(hi >> 16, 1)
            ^ byte(hi >> 24, 0);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ byte(crc ^ b as u32, 0);
    }
    !crc
}

/// Why a transaction committed — `Auto` for standalone catalog mutations,
/// `Iter` at each PSM fixpoint iteration boundary, `RunEnd` when a with+
/// statement finishes (successfully or not).
#[derive(Clone, Debug, PartialEq)]
pub enum CommitKind {
    Auto,
    Iter { rec: String, iters_done: u64 },
    RunEnd { rec: String },
}

/// One durable redo record: a catalog mutation, or a marker of the
/// transaction and run structure around them.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// Every kind but [`Mutation::Patch`] and [`Mutation::PatchLanes`],
    /// which are logged as an `EdgeDelta`.
    Mutation(Mutation),
    /// A with+ statement started: enough context (SQL text + parameter
    /// bindings) to re-compile and resume it after a crash.
    RunBegin {
        rec: String,
        sql: String,
        params: Vec<(String, Value)>,
    },
    Commit(CommitKind),
}

/// Byte codec shared by WAL frames and snapshots.
pub(crate) mod codec {
    use super::*;

    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// LEB128 varint: integers dominate graph workloads (edge endpoints),
    /// and small ids cost 1–3 bytes instead of a fixed 8. Used for row
    /// arity and (zigzag-mapped) `Value::Int` payloads.
    pub(super) fn put_varu(buf: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
    }

    /// Zigzag map so small negative ints stay small: 0,-1,1,-2 → 0,1,2,3.
    pub(super) fn zigzag(i: i64) -> u64 {
        ((i << 1) ^ (i >> 63)) as u64
    }

    pub(super) fn unzigzag(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    pub(super) fn put_str(buf: &mut Vec<u8>, s: &str) {
        put_u32(buf, s.len() as u32);
        buf.extend_from_slice(s.as_bytes());
    }

    pub(super) fn put_value(buf: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Null => buf.push(0),
            Value::Int(i) => {
                buf.push(1);
                put_varu(buf, zigzag(*i));
            }
            Value::Float(f) => {
                buf.push(2);
                buf.extend_from_slice(&f.to_le_bytes());
            }
            Value::Text(s) => {
                buf.push(3);
                put_str(buf, s);
            }
        }
    }

    pub(super) fn put_rows<'a>(buf: &mut Vec<u8>, rows: impl RowList<'a>) {
        let rows = rows.into_iter();
        put_u32(buf, rows.len() as u32);
        for r in rows {
            put_varu(buf, r.len() as u64);
            for v in r.iter() {
                put_value(buf, v);
            }
        }
    }

    pub(super) fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
        let cols = schema.columns();
        put_u32(buf, cols.len() as u32);
        for c in cols {
            match &c.qualifier {
                Some(q) => {
                    buf.push(1);
                    put_str(buf, q);
                }
                None => buf.push(0),
            }
            put_str(buf, &c.name);
            buf.push(match c.ty {
                DataType::Int => 0,
                DataType::Float => 1,
                DataType::Text => 2,
                DataType::Any => 3,
            });
        }
    }

    pub(super) fn put_pk(buf: &mut Vec<u8>, pk: Option<&[usize]>) {
        match pk {
            None => buf.push(0),
            Some(cols) => {
                buf.push(1);
                put_u32(buf, cols.len() as u32);
                for &c in cols {
                    put_u32(buf, c as u32);
                }
            }
        }
    }

    /// Bounds-checked little-endian reader; every failure is a reason
    /// string so corruption reports say *what* was wrong.
    pub struct Dec<'a> {
        b: &'a [u8],
        pos: usize,
    }

    impl<'a> Dec<'a> {
        pub fn new(b: &'a [u8]) -> Self {
            Dec { b, pos: 0 }
        }

        pub fn done(&self) -> bool {
            self.pos == self.b.len()
        }

        pub fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], String> {
            if self.b.len() - self.pos < n {
                return Err(format!(
                    "truncated: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.b.len() - self.pos
                ));
            }
            let s = &self.b[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        pub fn u8(&mut self) -> std::result::Result<u8, String> {
            Ok(self.take(1)?[0])
        }

        pub fn u32(&mut self) -> std::result::Result<u32, String> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
        }

        pub fn u64(&mut self) -> std::result::Result<u64, String> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
        }

        pub(super) fn varu(&mut self) -> std::result::Result<u64, String> {
            let mut v = 0u64;
            let mut shift = 0u32;
            loop {
                let b = self.u8()?;
                if shift > 63 {
                    return Err("varint longer than 64 bits".to_string());
                }
                v |= ((b & 0x7F) as u64) << shift;
                if b & 0x80 == 0 {
                    return Ok(v);
                }
                shift += 7;
            }
        }

        pub fn str(&mut self) -> std::result::Result<String, String> {
            let n = self.u32()? as usize;
            let bytes = self.take(n)?;
            String::from_utf8(bytes.to_vec()).map_err(|_| "invalid utf-8 in string".to_string())
        }

        pub fn value(&mut self) -> std::result::Result<Value, String> {
            match self.u8()? {
                0 => Ok(Value::Null),
                1 => Ok(Value::Int(unzigzag(self.varu()?))),
                2 => Ok(Value::Float(f64::from_le_bytes(
                    self.take(8)?.try_into().unwrap(),
                ))),
                3 => Ok(Value::Text(self.str()?.into())),
                t => Err(format!("unknown value tag {t}")),
            }
        }

        pub fn rows(&mut self) -> std::result::Result<Vec<Row>, String> {
            let n = self.u32()? as usize;
            // A row is ≥ 5 bytes (arity + one tag); reject insane counts
            // before allocating.
            if n > self.b.len() - self.pos {
                return Err(format!("row count {n} exceeds remaining bytes"));
            }
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let arity = self.varu()? as usize;
                if arity > self.b.len() - self.pos {
                    return Err(format!("row arity {arity} exceeds remaining bytes"));
                }
                let mut vals = Vec::with_capacity(arity);
                for _ in 0..arity {
                    vals.push(self.value()?);
                }
                rows.push(vals.into_boxed_slice());
            }
            Ok(rows)
        }

        pub fn schema(&mut self) -> std::result::Result<Schema, String> {
            let n = self.u32()? as usize;
            if n > self.b.len() - self.pos {
                return Err(format!("column count {n} exceeds remaining bytes"));
            }
            let mut cols = Vec::with_capacity(n);
            for _ in 0..n {
                let qualifier = match self.u8()? {
                    0 => None,
                    1 => Some(self.str()?),
                    t => return Err(format!("bad qualifier flag {t}")),
                };
                let name = self.str()?;
                let ty = match self.u8()? {
                    0 => DataType::Int,
                    1 => DataType::Float,
                    2 => DataType::Text,
                    3 => DataType::Any,
                    t => return Err(format!("unknown data type tag {t}")),
                };
                cols.push(Column {
                    qualifier,
                    name,
                    ty,
                });
            }
            Ok(Schema::new(cols))
        }

        pub fn pk(&mut self) -> std::result::Result<Option<Vec<usize>>, String> {
            match self.u8()? {
                0 => Ok(None),
                1 => {
                    let n = self.u32()? as usize;
                    if n > self.b.len() - self.pos {
                        return Err(format!("pk column count {n} exceeds remaining bytes"));
                    }
                    let mut cols = Vec::with_capacity(n);
                    for _ in 0..n {
                        cols.push(self.u32()? as usize);
                    }
                    Ok(Some(cols))
                }
                t => Err(format!("bad pk flag {t}")),
            }
        }
    }
}

// Record tags. New tags may be appended; existing ones are format-frozen.
const TAG_CREATE: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_TRUNCATE: u8 = 3;
const TAG_DROP: u8 = 4;
const TAG_RENAME: u8 = 5;
const TAG_REPLACE: u8 = 6;
const TAG_RUN_BEGIN: u8 = 7;
const TAG_COMMIT: u8 = 8;
const TAG_EDGE_DELTA: u8 = 9;

/// Rows an encoder writes, borrowed: a slice, a `Vec` or a relation's
/// `Rows`, so logging never clones row data.
pub trait RowList<'a>: IntoIterator<Item = &'a Row, IntoIter: ExactSizeIterator> {}
impl<'a, T: IntoIterator<Item = &'a Row, IntoIter: ExactSizeIterator>> RowList<'a> for T {}

pub fn enc_create_table<'a>(
    name: &str,
    temp: bool,
    replace: bool,
    schema: &Schema,
    pk: Option<&[usize]>,
    rows: impl RowList<'a>,
) -> Vec<u8> {
    let mut b = Vec::new();
    b.push(TAG_CREATE);
    codec::put_str(&mut b, name);
    b.push(temp as u8);
    b.push(replace as u8);
    codec::put_schema(&mut b, schema);
    codec::put_pk(&mut b, pk);
    codec::put_rows(&mut b, rows);
    b
}

pub fn enc_insert<'a>(table: &str, rows: impl RowList<'a>) -> Vec<u8> {
    let mut b = Vec::new();
    b.push(TAG_INSERT);
    codec::put_str(&mut b, table);
    codec::put_rows(&mut b, rows);
    b
}

pub fn enc_truncate(table: &str) -> Vec<u8> {
    let mut b = vec![TAG_TRUNCATE];
    codec::put_str(&mut b, table);
    b
}

pub fn enc_drop(table: &str) -> Vec<u8> {
    let mut b = vec![TAG_DROP];
    codec::put_str(&mut b, table);
    b
}

pub fn enc_rename(old: &str, new: &str) -> Vec<u8> {
    let mut b = vec![TAG_RENAME];
    codec::put_str(&mut b, old);
    codec::put_str(&mut b, new);
    b
}

pub fn enc_replace_rows<'a>(table: &str, rows: impl RowList<'a>) -> Vec<u8> {
    let mut b = vec![TAG_REPLACE];
    codec::put_str(&mut b, table);
    codec::put_rows(&mut b, rows);
    b
}

pub fn enc_run_begin(rec: &str, sql: &str, params: &[(String, Value)]) -> Vec<u8> {
    let mut b = vec![TAG_RUN_BEGIN];
    codec::put_str(&mut b, rec);
    codec::put_str(&mut b, sql);
    codec::put_u32(&mut b, params.len() as u32);
    for (k, v) in params {
        codec::put_str(&mut b, k);
        codec::put_value(&mut b, v);
    }
    b
}

pub fn enc_edge_delta<'a, 'b>(
    table: &str,
    adds: impl RowList<'a>,
    dels: impl RowList<'b>,
) -> Vec<u8> {
    let mut b = vec![TAG_EDGE_DELTA];
    codec::put_str(&mut b, table);
    codec::put_rows(&mut b, adds);
    codec::put_rows(&mut b, dels);
    b
}

pub fn enc_commit(kind: &CommitKind) -> Vec<u8> {
    let mut b = vec![TAG_COMMIT];
    match kind {
        CommitKind::Auto => b.push(0),
        CommitKind::Iter { rec, iters_done } => {
            b.push(1);
            codec::put_str(&mut b, rec);
            codec::put_u64(&mut b, *iters_done);
        }
        CommitKind::RunEnd { rec } => {
            b.push(2);
            codec::put_str(&mut b, rec);
        }
    }
    b
}

/// Decode one frame payload back into a [`WalRecord`].
pub fn decode_record(payload: &[u8]) -> std::result::Result<WalRecord, String> {
    let mut d = codec::Dec::new(payload);
    let rel = |schema, rows| Relation::from_rows(schema, rows).map_err(|e| e.to_string());
    let m = match d.u8()? {
        TAG_CREATE => {
            let name = d.str()?;
            let temp = d.u8()? != 0;
            let replace = d.u8()? != 0;
            let schema = d.schema()?;
            let pk = d.pk()?;
            let mut rel = rel(schema, d.rows()?)?;
            rel.set_pk(pk);
            Mutation::Create {
                name,
                rel,
                temp,
                replace,
            }
        }
        TAG_INSERT => Mutation::Insert {
            table: d.str()?,
            rows: d.rows()?,
        },
        TAG_TRUNCATE => Mutation::Truncate { table: d.str()? },
        TAG_DROP => Mutation::Drop { table: d.str()? },
        TAG_RENAME => Mutation::Rename {
            old: d.str()?,
            new: d.str()?,
        },
        TAG_REPLACE => {
            let table = d.str()?;
            // The record does not name the columns: the rows get an
            // anonymous schema of their own arity, and `apply` the table's.
            // Without rows there is no arity to give: replacing by nothing
            // is a truncate.
            let rows = d.rows()?;
            match rows.first().map(|r| r.len()) {
                None => Mutation::Truncate { table },
                Some(arity) => Mutation::ReplaceRows {
                    table,
                    rel: rel(
                        Schema::new(vec![Column::new("", DataType::Any); arity]),
                        rows,
                    )?,
                },
            }
        }
        TAG_EDGE_DELTA => Mutation::EdgeDelta {
            table: d.str()?,
            adds: d.rows()?,
            dels: d.rows()?,
        },
        TAG_RUN_BEGIN => {
            let rec = d.str()?;
            let sql = d.str()?;
            let n = d.u32()? as usize;
            let mut params = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                params.push((d.str()?, d.value()?));
            }
            return done(d, WalRecord::RunBegin { rec, sql, params });
        }
        TAG_COMMIT => {
            let kind = match d.u8()? {
                0 => CommitKind::Auto,
                1 => CommitKind::Iter {
                    rec: d.str()?,
                    iters_done: d.u64()?,
                },
                2 => CommitKind::RunEnd { rec: d.str()? },
                t => return Err(format!("unknown commit kind {t}")),
            };
            return done(d, WalRecord::Commit(kind));
        }
        t => return Err(format!("unknown record tag {t}")),
    };
    done(d, WalRecord::Mutation(m))
}

/// `rec`, if the decoder consumed its whole payload.
fn done(d: codec::Dec<'_>, rec: WalRecord) -> std::result::Result<WalRecord, String> {
    if !d.done() {
        return Err("trailing garbage after record".to_string());
    }
    Ok(rec)
}

/// Wrap `payload` in a `len + crc` frame and append it to `buf`.
fn append_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Largest frame payload replay will accept; anything bigger is treated as
/// a corrupt length field.
pub const MAX_FRAME: usize = 1 << 30;

/// Result of scanning a WAL file: every decodable frame up to the first
/// invalid one, each tagged with the file offset *after* its frame.
#[derive(Debug)]
pub struct WalScan {
    pub records: Vec<(usize, WalRecord)>,
    /// Why the scan stopped early, if it did.
    pub torn: Option<String>,
}

/// Scan a whole WAL file (including magic). Never panics: any structural
/// problem terminates the scan with a reason instead.
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return WalScan {
            records: Vec::new(),
            torn: Some("bad or missing WAL magic".to_string()),
        };
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            return WalScan {
                records,
                torn: Some(format!("torn frame header at offset {pos}")),
            };
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_FRAME || bytes.len() - pos - 8 < len {
            return WalScan {
                records,
                torn: Some(format!("torn frame body at offset {pos} (len {len})")),
            };
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            return WalScan {
                records,
                torn: Some(format!("crc mismatch at offset {pos}")),
            };
        }
        match decode_record(payload) {
            Ok(rec) => {
                pos += 8 + len;
                records.push((pos, rec));
            }
            Err(e) => {
                return WalScan {
                    records,
                    torn: Some(format!("undecodable record at offset {pos}: {e}")),
                };
            }
        }
    }
    WalScan {
        records,
        torn: None,
    }
}

/// Create (or reset) WAL generation `seq` as an empty, synced, magic-only
/// file.
pub fn init_wal(vfs: &Arc<dyn Vfs>, dir: &str, seq: u64) -> Result<()> {
    let path = wal_file(dir, seq);
    vfs.write(&path, WAL_MAGIC)
        .map_err(|e| StorageError::Io(format!("write {path}: {e}")))?;
    vfs.sync(&path)
        .map_err(|e| StorageError::Io(format!("sync {path}: {e}")))
}

/// The durable half of the catalog: an open WAL generation plus the
/// bookkeeping that turns catalog mutations into committed redo records.
/// Owned by [`crate::Catalog`] when the database was opened via
/// `recover::open_catalog` (in-memory catalogs simply have none).
#[derive(Debug)]
pub struct Durability {
    vfs: Arc<dyn Vfs>,
    dir: String,
    seq: u64,
    records_appended: u64,
    bytes_appended: u64,
    syncs: u64,
}

impl Durability {
    pub fn new(vfs: Arc<dyn Vfs>, dir: impl Into<String>, seq: u64) -> Self {
        Durability {
            vfs,
            dir: dir.into(),
            seq,
            records_appended: 0,
            bytes_appended: 0,
            syncs: 0,
        }
    }

    pub fn dir(&self) -> &str {
        &self.dir
    }

    pub fn seq(&self) -> u64 {
        self.seq
    }

    pub(crate) fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    pub fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.vfs)
    }

    pub fn wal_path(&self) -> String {
        wal_file(&self.dir, self.seq)
    }

    /// Records appended through this handle since open (commits included).
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    pub(crate) fn append_record(&mut self, payload: &[u8]) -> Result<()> {
        let mut frame = Vec::with_capacity(payload.len() + 8);
        append_frame(&mut frame, payload);
        let path = self.wal_path();
        self.vfs
            .append(&path, &frame)
            .map_err(|e| StorageError::Io(format!("append {path}: {e}")))?;
        self.records_appended += 1;
        self.bytes_appended += frame.len() as u64;
        aio_metrics::hooks::wal_append(frame.len() as u64);
        Ok(())
    }

    pub(crate) fn sync_wal(&mut self) -> Result<()> {
        let path = self.wal_path();
        self.vfs
            .sync(&path)
            .map_err(|e| StorageError::Io(format!("sync {path}: {e}")))?;
        self.syncs += 1;
        aio_metrics::hooks::wal_sync();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn policies_charge_nothing_the_record_or_record_and_undo() {
        let mut w = Wal::new();
        w.charge(WalPolicy::None, 10, || unreachable!());
        assert_eq!(w.bytes_written(), 0);
        w.charge(WalPolicy::Light, 10, || unreachable!());
        assert_eq!(w.bytes_written(), 10);
        w.charge(WalPolicy::Full, 10, || 4);
        assert_eq!(w.bytes_written(), 24);
    }

    // -- durable WAL --

    use crate::relation::edge_schema;

    #[test]
    fn crc32_known_vector() {
        // The canonical CRC32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time definition of CRC32/IEEE.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Slicing-by-8 is byte-for-byte the reference over random lengths
    /// 0..4096 starting at every offset modulo 8 (unaligned words).
    #[test]
    fn crc32_slicing_matches_the_reference() {
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let buf: Vec<u8> = (0..4096 + 8).map(|_| rng.next_u64() as u8).collect();
        let lens: Vec<usize> = (0..200).map(|_| rng.random_range(0..4096usize)).collect();
        for len in (0..64).chain(lens) {
            for off in 0..8 {
                let data = &buf[off..off + len];
                assert_eq!(crc32(data), crc32_reference(data), "len {len} at {off}");
            }
        }
    }

    /// Decoding `payload` gives `want` (compared by `Debug`: a relation
    /// has no `PartialEq`).
    fn roundtrip(payload: Vec<u8>, want: WalRecord) {
        let got = decode_record(&payload).expect("decode");
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    fn rel(schema: Schema, rows: &[Row]) -> Relation {
        Relation::from_rows(schema, rows.to_vec()).unwrap()
    }

    #[test]
    fn records_roundtrip() {
        let rows = vec![row![1, 2, 0.5], row![3, 4, 1.5]];
        let mut e = rel(edge_schema(), &rows);
        e.set_pk(Some(vec![0, 1]));
        let enc = enc_create_table("e", false, true, &edge_schema(), Some(&[0, 1]), &rows);
        let create = Mutation::Create {
            name: "e".into(),
            rel: e,
            temp: false,
            replace: true,
        };
        roundtrip(enc, WalRecord::Mutation(create));
        let table = || "t".to_string();
        let m = |m| WalRecord::Mutation(m);
        roundtrip(
            enc_insert("t", &[row![Value::Null, "x"]]),
            m(Mutation::Insert {
                table: table(),
                rows: vec![row![Value::Null, "x"]],
            }),
        );
        roundtrip(enc_truncate("t"), m(Mutation::Truncate { table: table() }));
        roundtrip(enc_drop("t"), m(Mutation::Drop { table: table() }));
        let (old, new) = ("a".to_string(), "b".to_string());
        roundtrip(enc_rename("a", "b"), m(Mutation::Rename { old, new }));
        let anon = Schema::new(vec![Column::new("", DataType::Any)]);
        roundtrip(
            enc_replace_rows("t", &[row![7]]),
            m(Mutation::ReplaceRows {
                table: table(),
                rel: rel(anon, &[row![7]]),
            }),
        );
        roundtrip(
            enc_replace_rows("t", &[]),
            m(Mutation::Truncate { table: table() }),
        );
        let params = vec![("c".to_string(), Value::Float(0.85))];
        roundtrip(
            enc_run_begin("pr", "with+ ...", &params),
            WalRecord::RunBegin {
                rec: "pr".into(),
                sql: "with+ ...".into(),
                params,
            },
        );
        for kind in [
            CommitKind::Auto,
            CommitKind::Iter {
                rec: "pr".into(),
                iters_done: 3,
            },
            CommitKind::RunEnd { rec: "pr".into() },
        ] {
            roundtrip(enc_commit(&kind), WalRecord::Commit(kind));
        }
        let (adds, dels) = (
            vec![row![1, 2, 1.0]],
            vec![row![3, 4, 0.5], row![5, 6, 2.0]],
        );
        roundtrip(
            enc_edge_delta("t", &adds, &dels),
            m(Mutation::EdgeDelta {
                table: table(),
                adds,
                dels,
            }),
        );
    }

    #[test]
    fn a_create_whose_rows_misfit_its_schema_is_undecodable() {
        let enc = enc_create_table("e", false, false, &edge_schema(), None, &[row![1]]);
        assert!(decode_record(&enc).is_err());
    }

    #[test]
    fn scan_stops_at_torn_and_corrupt_frames() {
        let mut file = WAL_MAGIC.to_vec();
        append_frame(&mut file, &enc_truncate("a"));
        append_frame(&mut file, &enc_truncate("b"));
        let clean = scan_wal(&file);
        assert_eq!(clean.records.len(), 2);
        assert!(clean.torn.is_none());
        assert_eq!(clean.records.last().unwrap().0, file.len());

        // Torn suffix: drop the last byte.
        let torn = scan_wal(&file[..file.len() - 1]);
        assert_eq!(torn.records.len(), 1);
        assert!(torn.torn.is_some());

        // Bit flip in the second payload.
        let mut flipped = file.clone();
        let n = flipped.len();
        flipped[n - 2] ^= 0x40;
        let bad = scan_wal(&flipped);
        assert_eq!(bad.records.len(), 1);
        assert!(bad.torn.unwrap().contains("crc mismatch"));

        // Bad magic.
        let scan = scan_wal(b"NOTAWAL!");
        assert!(scan.records.is_empty() && scan.torn.is_some());
        // Empty file.
        let scan = scan_wal(b"");
        assert!(scan.records.is_empty() && scan.torn.is_some());
    }

    #[test]
    fn decode_rejects_trailing_garbage_and_bad_tags() {
        let mut p = enc_drop("t");
        p.push(9);
        assert!(decode_record(&p).is_err());
        assert!(decode_record(&[99]).is_err());
        assert!(decode_record(&[]).is_err());
    }
}
