//! Error type shared across the storage layer.

use std::fmt;

/// Errors raised by the storage layer (and re-used upward by the algebra and
/// with+ layers, which wrap it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A table was referenced that the catalog does not contain.
    NoSuchTable(String),
    /// A table was created under a name already in use.
    TableExists(String),
    /// A column reference did not resolve against a schema.
    NoSuchColumn { column: String, schema: String },
    /// A column reference resolved against several columns.
    AmbiguousColumn { column: String, schema: String },
    /// A row's arity did not match the schema it was inserted into.
    ArityMismatch { expected: usize, got: usize },
    /// A primary-key constraint was violated.
    DuplicateKey(String),
    /// A durable-storage syscall failed (message carries the op + path).
    /// Stored as a string so the error stays `Clone + PartialEq`.
    Io(String),
    /// On-disk state failed validation (bad magic, CRC mismatch, torn
    /// frame, undecodable record).
    Corrupt(String),
    /// An intact snapshot file (its checksum holds) written in a format
    /// version this build does not read.
    UnsupportedVersion { found: u32, supported: u32 },
    /// Catch-all for invariant violations with a message.
    Invalid(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            StorageError::TableExists(t) => write!(f, "table already exists: {t}"),
            StorageError::NoSuchColumn { column, schema } => {
                write!(f, "no such column {column} in schema ({schema})")
            }
            StorageError::AmbiguousColumn { column, schema } => {
                write!(f, "ambiguous column {column} in schema ({schema})")
            }
            StorageError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "arity mismatch: schema has {expected} columns, row has {got}"
                )
            }
            StorageError::DuplicateKey(k) => write!(f, "duplicate primary key: {k}"),
            StorageError::Io(m) => write!(f, "io error: {m}"),
            StorageError::Corrupt(m) => write!(f, "corrupt storage: {m}"),
            StorageError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not readable by this build \
                 (it reads version {supported})"
            ),
            StorageError::Invalid(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Result alias for the storage layer.
pub type Result<T> = std::result::Result<T, StorageError>;
