//! # hyper-datasets
//!
//! Workload generators for the HypeR reproduction (paper §5.1). Real
//! datasets (UCI Adult, UCI German credit, the Amazon product crawl) are
//! not redistributable/downloadable offline, so each is *simulated*: a
//! seeded structural causal model reproduces the schema, attribute domains
//! and the causal graphs the paper cites (Chiappa's graphs for Adult and
//! German \[11\]; Figure 2 for Amazon), with effect directions matching the
//! paper's qualitative findings (§5.3). Synthetic datasets (German-Syn,
//! Student-Syn) are generated exactly as the paper describes.
//!
//! Every generator returns a [`Dataset`]: the database, the causal graph,
//! and — when the data is single-relation (or has a flat per-unit view) —
//! the generating [`Scm`] for interventional ground truth.

#![warn(missing_docs)]

pub mod adult;
pub mod amazon;
pub mod german;
pub mod student;

use hyper_causal::{CausalGraph, Scm};
use hyper_storage::Database;

pub use adult::adult;
pub use amazon::amazon;
pub use german::{german, german_syn, german_syn_continuous, german_syn_extended};
pub use student::student_syn;

/// A generated workload: data + causal model (+ generating SCM when flat).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Short identifier (e.g. `"german-syn"`).
    pub name: &'static str,
    /// The relational data.
    pub db: Database,
    /// Schema-level causal graph.
    pub graph: CausalGraph,
    /// The generating structural model, for ground-truth interventions
    /// (single-relation datasets only).
    pub scm: Option<Scm>,
}

impl Dataset {
    /// Total tuples across relations.
    pub fn total_rows(&self) -> usize {
        self.db.total_rows()
    }
}
