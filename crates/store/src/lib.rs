//! # hyper-store
//!
//! Durable binary snapshots for the HypeR engine: the hand-rolled,
//! versioned **`HYPR1`** format (no serde — the build environment is
//! offline) that serializes typed columnar [`Table`]s and whole
//! [`Database`]s, [`CausalGraph`]s, Prop.-1 block decompositions, and
//! fitted models ([`RandomForest`], [`TableEncoder`]),
//! plus the per-artifact file format backing `hyper-core`'s disk cache
//! tier.
//!
//! [`Table`]: hyper_storage::Table
//! [`Database`]: hyper_storage::Database
//! [`CausalGraph`]: hyper_causal::CausalGraph
//! [`RandomForest`]: hyper_ml::RandomForest
//! [`TableEncoder`]: hyper_ml::TableEncoder
//!
//! ## The `HYPR1` container
//!
//! Every file is a magic-tagged, versioned sequence of length-prefixed
//! sections, each with an FNV-1a checksum, closed by a whole-file
//! checksum ([`container`]). Payload encodings are fixed-width
//! little-endian with length-prefixed strings ([`codec`]) — trivially
//! auditable, exact for `f64` bit patterns, and bulk-copyable for typed
//! column buffers. String dictionaries shared across columns and tables
//! (the normal state after `gather`/`project`) are written **once** and
//! referenced by index.
//!
//! Three guarantees hold for every decode path:
//!
//! 1. **Totality** — truncated files, flipped bytes, bogus lengths, and
//!    out-of-range indices produce a typed [`StoreError`], never a panic
//!    (and never an unterminating prediction walk: tree arenas are
//!    re-validated on load).
//! 2. **Fidelity** — `decode(encode(x))` is content-identical: tables
//!    round-trip fingerprint-identical and reloaded forests predict
//!    bit-identically.
//! 3. **Fingerprint discipline** — tables, databases, and graphs carry
//!    their content fingerprint and are re-hashed on load
//!    ([`StoreError::FingerprintMismatch`] on disagreement), so a loaded
//!    value can be trusted to key the process-wide shared artifact
//!    store.
//!
//! ## What sits on top
//!
//! * [`Snapshot`] — a whole scenario (database + causal graph) in one
//!   file; `hyper-snapshot save/load/inspect` is a thin CLI over it.
//! * [`SnapshotRegistry`] — a directory of `<tenant>.hypr` snapshot
//!   files mapping tenant ids to scenarios; `hyper-serve` loads tenants
//!   from one lazily (single-flight) on first request.
//! * [`artifact`] — single-artifact files (relevant view / fitted
//!   estimator / block decomposition) with kind + full cache key +
//!   shard fingerprints in the header; `hyper-core` files these under a
//!   `SessionBuilder::persist_dir` to give restarted processes
//!   warm-cache first queries (see `examples/warm_start.rs`).
//! * [`deltalog`] — the `HYPD1` append log: a `<tenant>.hypd` sidecar of
//!   checksummed, torn-tail-tolerant delta records beside the snapshot,
//!   so ingest appends durably without rewriting the `HYPR1` file and
//!   loaders replay to the latest version.

#![warn(missing_docs)]

pub mod artifact;
pub mod causalcodec;
pub mod codec;
pub mod container;
pub mod deltalog;
pub mod error;
pub mod mlcodec;
pub mod registry;
pub mod snapshot;
pub mod tablecodec;

pub use artifact::{read_artifact, write_artifact, ArtifactKind, ArtifactMeta};
pub use causalcodec::{decode_blocks, decode_graph, encode_blocks, encode_graph};
pub use codec::{fnv1a, ByteReader, ByteWriter};
pub use container::{Container, ContainerWriter, FORMAT_VERSION, MAGIC};
pub use deltalog::{AppendLog, DELTA_LOG_EXT};
pub use error::{Result, StoreError};
pub use mlcodec::{
    decode_encoder, decode_forest, decode_tree, encode_encoder, encode_forest, encode_tree,
};
pub use registry::SnapshotRegistry;
pub use snapshot::{Snapshot, SnapshotInfo};
pub use tablecodec::{
    decode_database, decode_schema, decode_table, encode_database, encode_schema, encode_table,
};
