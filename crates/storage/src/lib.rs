//! # hyper-storage
//!
//! The relational substrate of the HypeR reproduction: an in-memory,
//! **typed-columnar**, multi-relation database with the query operators the
//! paper's `Use` clause requires (selection, hash equi-join, group-by
//! aggregation, projection), per-column domain statistics, and the
//! multi-attribute *support index* that makes backdoor-adjustment
//! estimation linear in the data (paper §3.3).
//!
//! ## Storage layout
//!
//! Each [`Table`] column is a typed [`Column`]: `Int` is `Vec<i64>`,
//! `Float` is `Vec<f64>`, `Bool` is `Vec<bool>`, and `Str` is
//! dictionary-encoded (`Vec<u32>` codes into an `Arc`-shared [`StrDict`]);
//! every column carries a [`NullBitmap`] (a set bit marks a NULL row; the
//! payload slot holds an unobserved default). Execution is vectorized on
//! top of this layout: predicates compile once ([`Expr::bind`]) and
//! evaluate column-at-a-time ([`BoundExpr::eval_column`] /
//! [`BoundExpr::eval_selection`]) into selection vectors, `gather` and
//! projection are typed buffer copies that share string dictionaries, and
//! joins/aggregations key on `(tag, bits)` parts read straight off the
//! buffers. Ingest is columnar too: [`TableBuilder`] validates rows (or
//! whole typed columns) into `Column` buffers, and a cell reads back as a
//! [`Value`] through `table.column(c).value(i)`. `tests/prop_parity.rs`
//! pins the vectorized operators to row-at-a-time references built on
//! that accessor.
//!
//! Tables and databases carry content [`Fingerprint`]s
//! ([`Table::fingerprint`] / [`Database::fingerprint`]): stable 64-bit
//! hashes of schema + cells, independent of construction history, which
//! key the engine's process-wide shared artifact store.
//!
//! ## Execution model: morsel-driven parallelism
//!
//! Above ~8k rows the hot operators go **morsel-parallel** (see
//! [`morsel`]): the input is split into fixed row ranges of
//! [`morsel::DEFAULT_MORSEL_ROWS`] rows, each morsel is an independent
//! task on the shared `HyperRuntime` worker pool, and per-morsel results
//! are merged **in morsel order**. Morsel boundaries depend only on the
//! row count and morsel size — never on the worker count — and every
//! order-sensitive fold (float aggregate sums, group first-occurrence
//! order, join match order) runs over the merged stream in global row
//! order, so the parallel paths are **bit-identical** (`f64::to_bits`)
//! to the sequential ones for any worker count. Concretely:
//! [`ops::filter()`] concatenates per-morsel selection vectors;
//! [`ops::hash_join`] extracts key parts and probes per morsel and
//! partitions the build side by key hash; [`ops::aggregate()`] encodes
//! group keys and evaluates agg inputs per morsel but folds accumulators
//! sequentially in row order; [`BoundExpr::eval_column`] evaluates
//! ranges via [`Column::slice`] leaves and re-concatenates (widening
//! Int→Float when any morsel's arithmetic overflowed, matching the
//! sequential whole-column promotion).
//!
//! ## Quick example
//!
//! ```
//! use hyper_storage::{
//!     col, lit, AggExpr, AggFunc, Database, Field, LogicalPlan, Schema, TableBuilder, DataType,
//! };
//!
//! let mut db = Database::new();
//! let t = TableBuilder::with_key(
//!     "product",
//!     Schema::new(vec![
//!         Field::new("pid", DataType::Int),
//!         Field::new("price", DataType::Float),
//!     ]).unwrap(),
//!     &["pid"],
//! ).unwrap()
//! .rows([
//!     vec![1.into(), 999.0.into()],
//!     vec![2.into(), 529.0.into()],
//! ]).unwrap()
//! .build();
//! db.add_table(t).unwrap();
//!
//! let plan = LogicalPlan::scan("product")
//!     .filter(col("price").lt(lit(700.0)))
//!     .aggregate(&[], vec![AggExpr::new(AggFunc::Count, None, "n")]);
//! let out = plan.execute(&db).unwrap();
//! assert_eq!(out.column(0).value(0).as_i64(), Some(1));
//! ```

#![warn(missing_docs)]

pub mod column;
pub mod csv;
pub mod database;
pub mod error;
pub mod expr;
pub mod fingerprint;
pub mod index;
pub mod morsel;
pub mod ops;
pub mod plan;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use column::{Column, NullBitmap, StrDict};
pub use database::{Database, ForeignKey};
pub use error::{Result, StorageError};
pub use expr::{col, eval_in_list, lit, BinOp, BoundExpr, Expr, Operand, UnaryOp};
pub use fingerprint::Fingerprint;
pub use index::SupportIndex;
pub use morsel::{Morsel, MorselScan, DEFAULT_MORSEL_ROWS, PARALLEL_ROW_THRESHOLD};
pub use ops::{AggExpr, AggFunc};
pub use plan::LogicalPlan;
pub use schema::{Field, Schema};
pub use stats::ColumnStats;
pub use table::{Table, TableBuilder};
pub use value::{DataType, Row, Value};
