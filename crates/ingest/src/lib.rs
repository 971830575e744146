//! Incremental write path for the HypeR reproduction.
//!
//! A [`DeltaBatch`] is a set of typed per-relation mutations — appended
//! rows built through the columnar [`hyper_storage::TableBuilder`] path
//! plus row deletes — applied **transactionally**: [`DeltaBatch::apply`]
//! produces a complete new [`Database`](hyper_storage::Database) (the caller swaps its
//! `Arc<Database>` on success) and never mutates the input, so a failed
//! delta leaves every reader untouched.
//!
//! Invalidation is *causal*, not global. HypeR's Prop.-1 block
//! decomposition partitions the ground graph into causally independent
//! blocks; a delta can only change answers whose blocks it touches.
//! [`BlockFingerprints`] gives each block an order-insensitive content
//! digest (XOR of per-row digests, [`hyper_storage::Table::row_fingerprints`]),
//! so the refresh path in `hyper-core` can prove that an old block
//! survived a delta verbatim — its fingerprint still occurs in the new
//! decomposition — and keep serving every artifact scoped to it with
//! zero retraining.
//!
//! The crate also defines the wire codec for delta batches
//! ([`DeltaBatch::to_bytes`] / [`DeltaBatch::from_bytes`]), used by the
//! `HYPD1` append log in `hyper-store` and the `POST /ingest` endpoint
//! in `hyper-serve`.

#![warn(missing_docs)]

mod blockfp;
mod codec;
mod delta;
mod error;

pub use blockfp::{blocks_touching, BlockFingerprints};
pub use delta::{DeltaBatch, TableDelta};
pub use error::{IngestError, Result};
