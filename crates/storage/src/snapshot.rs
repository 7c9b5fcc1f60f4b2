//! Snapshot checkpointing: the catalog written as the log's own records,
//! paired with a fresh WAL generation.
//!
//! ## File format
//!
//! ```text
//! file   := magic "AIOSNAP1" body crc:u32le     (crc = CRC32/IEEE of body)
//! body   := version:u32le seq:u64le ntables:u32le table{ntables}
//! table  := len:u32le record                    (`wal::enc_create_table`)
//! ```
//!
//! Each table is one `CreateTable` record, the bytes the WAL logs when the
//! table is created, so recovery loads a snapshot through the same decoder,
//! validation and `apply` as the WAL tail (`recover::open_catalog`). Unlike
//! a WAL frame a record carries no CRC of its own: the file is written and
//! checked whole, and the one CRC over the body already covers every bit.
//!
//! The envelope — magic, body, trailing CRC of the body, with the version as
//! the body's first word — is the same for every format version. That is
//! what lets a build tell an intact file of another version (its CRC holds:
//! [`StorageError::UnsupportedVersion`], the open fails) from a damaged one
//! (a CRC, length or count check fails: [`StorageError::Corrupt`], recovery
//! falls back to the previous generation). A build decodes exactly one
//! version, [`SNAP_VERSION`]. Any flipped bit or truncation invalidates the
//! file; checkpointing only deletes generation `n` after generation `n+1`
//! is durably in place — see [`crate::Catalog::checkpoint`].
//!
//! Temp tables are included: a crash can land while a with+ run's working
//! tables exist, and resuming from the last committed iteration needs them.
//! Optimizer statistics are *not* serialized — recovery recomputes them
//! (`Catalog::analyze`) so the cost optimizer never plans against sketches
//! that predate the replayed WAL tail.

use crate::error::{Result, StorageError};
use crate::mutation::Mutation;
use crate::wal::{self, codec, crc32, WalRecord};
use crate::Catalog;

/// Magic prefix of every snapshot file, of every format version.
pub const SNAP_MAGIC: &[u8; 8] = b"AIOSNAP1";

/// The one body layout this build writes and reads (1 and 2 were the
/// row-major and column-major layouts of older builds).
pub const SNAP_VERSION: u32 = 3;

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

/// Serialize the whole catalog as snapshot generation `seq`: one
/// length-prefixed `CreateTable` record per table.
pub fn encode_snapshot(seq: u64, catalog: &Catalog) -> Vec<u8> {
    let mut file = SNAP_MAGIC.to_vec();
    codec::put_u32(&mut file, SNAP_VERSION);
    codec::put_u64(&mut file, seq);
    // system relations are derived data, re-materialized on demand
    let entry = |name: &str| catalog.entry(name).expect("names() returned a live table");
    let names: Vec<String> = catalog
        .names()
        .into_iter()
        .filter(|n| !entry(n).system)
        .collect();
    codec::put_u32(&mut file, names.len() as u32);
    for name in &names {
        let e = entry(name);
        let rec = wal::enc_create_table(
            name,
            e.temp,
            false,
            e.rel.schema(),
            e.rel.pk(),
            e.rel.rows(),
        );
        codec::put_u32(&mut file, rec.len() as u32);
        file.extend_from_slice(&rec);
    }
    let crc = crc32(&file[SNAP_MAGIC.len()..]);
    file.extend_from_slice(&crc.to_le_bytes());
    file
}

/// Decode a snapshot file into its generation number and its tables, each
/// a [`Mutation::Create`]. Damage of any kind is [`StorageError::Corrupt`]; an intact file
/// of another format version is [`StorageError::UnsupportedVersion`].
/// Never panics.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(u64, Vec<Mutation>)> {
    let corrupt = |m: String| StorageError::Corrupt(format!("snapshot: {m}"));
    let magic_len = SNAP_MAGIC.len();
    if bytes.len() < magic_len + 4 + 4 || &bytes[..magic_len] != SNAP_MAGIC {
        return Err(corrupt("bad or missing magic".to_string()));
    }
    let (body, crc) = bytes[magic_len..].split_at(bytes.len() - magic_len - 4);
    if crc32(body) != u32::from_le_bytes(crc.try_into().expect("a 4-byte tail")) {
        return Err(corrupt("crc mismatch".to_string()));
    }
    let mut d = codec::Dec::new(body);
    let version = d.u32().map_err(&corrupt)?;
    if version != SNAP_VERSION {
        return Err(StorageError::UnsupportedVersion {
            found: version,
            supported: SNAP_VERSION,
        });
    }
    let seq = d.u64().map_err(&corrupt)?;
    let ntables = d.u32().map_err(&corrupt)?;
    let mut tables = Vec::new();
    for i in 0..ntables {
        let len = d.u32().map_err(&corrupt)? as usize;
        match d.take(len).and_then(wal::decode_record).map_err(&corrupt)? {
            WalRecord::Mutation(m @ Mutation::Create { .. }) => tables.push(m),
            _ => return Err(corrupt(format!("record {i} is not a table"))),
        }
    }
    if !d.done() {
        return Err(corrupt("trailing bytes after the last table".to_string()));
    }
    Ok((seq, tables))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{edge_schema, node_schema, Relation};
    use crate::row;

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
        let Mutation::Create {
            name, temp, rel, ..
        } = &tables[0]
        else {
            panic!("not a table record: {:?}", tables[0]);
        };
        assert_eq!((name.as_str(), *temp), ("e", false));
        assert_eq!(rel.pk(), Some(&[0usize, 1][..]));
        assert_eq!(rel.rows(), c.relation("E").unwrap().rows());
        assert!(matches!(tables[1], Mutation::Create { temp: true, .. }));
    }

    #[test]
    fn any_bit_flip_invalidates() {
        let bytes = encode_snapshot(1, &sample_catalog());
        for pos in [0, 9, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(
                matches!(decode_snapshot(&bad), Err(StorageError::Corrupt(_))),
                "flip at {pos} must invalidate"
            );
        }
        for cut in [0, 7, 20, bytes.len() - 1] {
            assert!(
                matches!(
                    decode_snapshot(&bytes[..cut]),
                    Err(StorageError::Corrupt(_))
                ),
                "truncation to {cut}"
            );
        }
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
