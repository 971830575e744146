//! # hyper-ml
//!
//! The ML substrate of the HypeR reproduction: the conditional-probability
//! estimators of paper §3.3 and §A.4. HypeR "uses the input database D to
//! learn a single regression function … to estimate the conditional
//! probability distribution"; the authors used sklearn's
//! `RandomForestRegressor`. Everything here is implemented from scratch:
//!
//! * [`matrix`] — dense feature matrices;
//! * [`encode`] — table → feature-vector encoding (one-hot categoricals);
//! * [`hist`] — histogram binning of feature matrices (bin once per
//!   forest, search splits per node over bins instead of sorts);
//! * [`tree`] / [`forest`] — CART regression trees and bagged forests
//!   (trees train in parallel over the
//!   [`hyper_runtime::HyperRuntime`] worker pool, deterministically for a
//!   fixed seed whatever the worker count);
//! * [`stream`] — the cell layout every forest trains through, built in
//!   two passes over a chunked source of encoded rows;
//! * [`discretize`] — equi-width/equi-frequency bucketization (§4.3, Fig 9);
//! * [`metrics`] — MSE/MAE/R².
//!
//! ## The training pipeline
//!
//! Every forest trains through one layout, [`StreamedLayout`], read from
//! a [`TrainChunkSource`] in two passes: pass one merges each feature's
//! exact distinct-value set to fix the histogram bin splits, pass two
//! bins rows against those splits and numbers the joint cells (rows
//! sharing one bin vector). Trees then fit over per-cell statistics,
//! fanned out over the [`hyper_runtime::HyperRuntime`] worker pool.
//!
//! * **Resident**: [`RandomForest::fit_on`] reads an encoded
//!   [`Matrix`] as a source with one chunk.
//! * **Out of core**: `hyper-store`'s `PagedTrainSource` streams a paged
//!   table morsel by morsel, so peak resident bytes are
//!   O(bins × features + cells) + O(rows) for cell ids and targets, never
//!   O(rows × width).
//! * **Support cells**: [`RandomForest::fit_on_cells`] reads one encoded
//!   representative per cell of identical rows plus each row's cell id
//!   (`hyper-core` passes its view's §3.3 support index), so only the
//!   representatives are encoded and binned.
//!
//! The layout depends only on the rows, not on the chunking or the cell
//! form, so all three are **bit-identical** (`f64::to_bits`) for any
//! worker count and chunk size: splits derive from the same distinct
//! sets, cell ids from the same first-occurrence order, and each tree's
//! RNG from the same `(seed, tree_index)` scramble. When the joint cells
//! exceed the cap — continuous features — [`RandomForest::fit_on`] falls
//! back to row-wise trees over per-row bins ([`BinnedMatrix`]) derived
//! from pass one's splits ([`RandomForest::fit_on_cells`] gives each row
//! its representative's bins). A streamed build instead returns `None` (also when a feature
//! exceeds [`STREAM_DISTINCT_CAP`] distinct values), and the caller
//! materializes the matrix.

#![warn(missing_docs)]

pub mod discretize;
pub mod encode;
pub mod error;
pub mod forest;
pub mod hist;
pub mod matrix;
pub mod metrics;
pub mod stream;
pub mod tree;

pub use discretize::{BinStrategy, Discretizer};
pub use encode::{ColumnEncoding, EncoderFitState, TableEncoder};
pub use error::{MlError, Result};
pub use forest::{ForestParams, RandomForest};
pub use hist::{BinnedMatrix, MAX_BINS};
pub use matrix::Matrix;
pub use stream::{StreamedLayout, TrainChunkSource, TrainStreamStats, STREAM_DISTINCT_CAP};
pub use tree::{RegressionTree, TreeNode, TreeParams};
