//! Errors raised by the with+ engine.

use aio_algebra::AlgebraError;
use aio_storage::StorageError;
use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum WithPlusError {
    /// Lexing / parsing failure, with position info.
    Parse {
        message: String,
        near: String,
    },
    /// A Section 6 restriction was violated (e.g. union-by-update mixed
    /// with union all, cyclic computed-by).
    Restriction(String),
    /// The query failed the Theorem 5.1 XY-stratification test.
    NotXyStratified(String),
    /// The SQL'99 baseline engine rejected a feature per Table 1.
    FeatureNotSupported {
        feature: String,
        system: String,
    },
    Algebra(AlgebraError),
    Storage(StorageError),
}

impl fmt::Display for WithPlusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WithPlusError::Parse { message, near } => {
                write!(f, "parse error: {message} (near `{near}`)")
            }
            WithPlusError::Restriction(m) => write!(f, "with+ restriction violated: {m}"),
            WithPlusError::NotXyStratified(m) => {
                write!(f, "recursive query is not XY-stratified: {m}")
            }
            WithPlusError::FeatureNotSupported { feature, system } => {
                write!(f, "{system} does not support {feature} in the with clause")
            }
            WithPlusError::Algebra(e) => write!(f, "{e}"),
            WithPlusError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WithPlusError {}

impl From<AlgebraError> for WithPlusError {
    fn from(e: AlgebraError) -> Self {
        WithPlusError::Algebra(e)
    }
}

impl From<StorageError> for WithPlusError {
    fn from(e: StorageError) -> Self {
        WithPlusError::Storage(e)
    }
}

pub type Result<T> = std::result::Result<T, WithPlusError>;
