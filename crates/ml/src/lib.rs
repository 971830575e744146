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
//! * [`discretize`] — equi-width/equi-frequency bucketization (§4.3, Fig 9);
//! * [`metrics`] — MSE/MAE/R².
//!
//! ## The training pipeline
//!
//! Every forest trains through one cell layout, built in two passes over
//! encoded rows: pass one sorts and deduplicates each feature column to
//! fix the histogram bin splits, pass two bins rows against those splits
//! and numbers the joint cells (rows sharing one bin vector). Trees then
//! fit over per-cell statistics, fanned out over the
//! [`hyper_runtime::HyperRuntime`] worker pool.
//!
//! * **Matrix**: [`RandomForest::fit_on`] reads an encoded [`Matrix`].
//! * **Support cells**: [`RandomForest::fit_on_cells`] reads one encoded
//!   representative per cell of identical rows plus each row's cell id
//!   (`hyper-core` passes its view's §3.3 support index), so only the
//!   representatives are encoded and binned.
//!
//! The layout depends only on the rows, not on their form, so both are
//! **bit-identical** (`f64::to_bits`) for any worker count: splits derive
//! from the same distinct sets, cell ids from the same first-occurrence
//! order, and each tree's RNG from the same `(seed, tree_index)`
//! scramble. When the joint cells exceed the cap — continuous features —
//! trees fit row-wise over per-row bins ([`BinnedMatrix`]) derived from
//! pass one's splits ([`RandomForest::fit_on_cells`] gives each row its
//! representative's bins).

#![warn(missing_docs)]

pub mod discretize;
pub mod encode;
pub mod error;
pub mod forest;
pub mod hist;
mod layout;
pub mod matrix;
pub mod metrics;
pub mod tree;

pub use discretize::{BinStrategy, Discretizer};
pub use encode::{ColumnEncoding, TableEncoder};
pub use error::{MlError, Result};
pub use forest::{ForestParams, RandomForest};
pub use hist::{BinnedMatrix, MAX_BINS};
pub use matrix::Matrix;
pub use tree::{RegressionTree, TreeNode, TreeParams};
