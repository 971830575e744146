//! # hyper-causal
//!
//! The causal substrate of the HypeR reproduction (paper §2.2, §3.3, §A):
//!
//! * [`graph`] — schema-level causal DAGs with intra-tuple, foreign-key and
//!   same-value (cross-tuple) edge kinds, plus the §A.3.2 aggregate
//!   augmentation;
//! * [`ground`] — materialized ground causal graphs (`A[t]` variables);
//! * [`blocks`] — block-independent decomposition via union-find, never
//!   materializing cross-tuple edges;
//! * [`dsep`] / [`backdoor`] — d-separation and (minimal) backdoor sets;
//! * [`scm`] — structural causal models for synthetic data generation,
//!   paired pre/post interventional sampling, and exact enumeration for the
//!   possible-world oracle.

#![warn(missing_docs)]

pub mod backdoor;
pub mod blocks;
pub mod dsep;
pub mod error;
pub mod graph;
pub mod ground;
pub mod scm;
pub mod topo;
pub mod unionfind;

pub use backdoor::{canonical_backdoor_set, is_valid_backdoor_set, minimal_backdoor_set};
pub use blocks::BlockDecomposition;
pub use error::{CausalError, Result};
pub use graph::{amazon_example_graph, AttrNode, CausalEdge, CausalGraph, EdgeKind, NodeId};
pub use ground::{GroundGraph, GroundVar, TupleRef};
pub use scm::{Intervention, InterventionOp, Mechanism, Noise, Scm};
pub use unionfind::UnionFind;
