//! Typed snapshot errors.
//!
//! Every decode path is total: malformed input — truncated files, flipped
//! bytes, bogus section lengths, out-of-range indices, fingerprint
//! mismatches — surfaces as a [`StoreError`], never as a panic. The disk
//! cache tier in `hyper-core` relies on this to treat a damaged artifact
//! file as a cache miss and rebuild instead of crashing the process.

use std::fmt;

/// Errors produced while encoding or decoding snapshots.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem-level failure (open/read/write/rename).
    Io(std::io::Error),
    /// The bytes are not a snapshot, are truncated, fail a checksum, or
    /// decode to structurally invalid data (out-of-range index, ragged
    /// columns, …). The payload cannot be trusted.
    Corrupt(String),
    /// The file is a recognizable snapshot but written by an incompatible
    /// format version.
    VersionMismatch {
        /// Version found in the header.
        found: u16,
        /// Version this build reads and writes.
        expected: u16,
    },
    /// The snapshot decoded cleanly but its recorded content fingerprint
    /// does not match the fingerprint recomputed from the decoded data —
    /// or does not match the content the caller required.
    FingerprintMismatch {
        /// Fingerprint recorded in (or required of) the snapshot.
        expected: u64,
        /// Fingerprint actually observed.
        found: u64,
        /// What was being validated (table name, "database", …).
        what: String,
    },
    /// A relational operation over paged data failed (bad predicate,
    /// schema drift between chunks, …) — see [`crate::paging`].
    Query(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            StoreError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} is not supported (expected {expected})"
            ),
            StoreError::FingerprintMismatch {
                expected,
                found,
                what,
            } => write!(
                f,
                "fingerprint mismatch for {what}: expected {expected:#018x}, found {found:#018x}"
            ),
            StoreError::Query(msg) => write!(f, "query over paged data failed: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Store result type.
pub type Result<T> = std::result::Result<T, StoreError>;
