//! Schema-level causal graphs (the paper's Figure 2).
//!
//! Nodes are `(relation, attribute)` pairs; edges carry a *kind* describing
//! how they ground to tuple-level dependencies:
//!
//! * [`EdgeKind::Intra`] — within one tuple (solid edges in Fig. 2),
//! * [`EdgeKind::ForeignKey`] — across relations along a declared FK (a
//!   product's `Price` affecting its reviews' `Rating`),
//! * [`EdgeKind::SameValue`] — across tuples of the same relation sharing a
//!   grouping attribute's value (dashed edges in Fig. 2: an Asus laptop's
//!   `Price` affecting a Vaio laptop's `Rating` because both are laptops).

use std::collections::HashMap;
use std::fmt;

use crate::error::{CausalError, Result};
use crate::topo;

/// Identifier of a node in a [`CausalGraph`].
pub type NodeId = usize;

/// A `(relation, attribute)` node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttrNode {
    /// Relation name.
    pub relation: String,
    /// Attribute name.
    pub attribute: String,
}

impl AttrNode {
    /// Construct a node reference.
    pub fn new(relation: impl Into<String>, attribute: impl Into<String>) -> Self {
        AttrNode {
            relation: relation.into(),
            attribute: attribute.into(),
        }
    }
}

impl fmt::Display for AttrNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.relation, self.attribute)
    }
}

/// How a schema-level edge grounds to tuple-level dependencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeKind {
    /// Dependency between two attributes of the *same tuple*.
    Intra,
    /// Dependency across relations along a foreign key: the `from` attribute
    /// of the referenced (parent) tuple affects the `to` attribute of every
    /// referencing (child) tuple, or vice versa.
    ForeignKey,
    /// Dependency across tuples that share the value of `group_by` (in the
    /// `from` node's relation).
    SameValue {
        /// The grouping attribute whose shared value links tuples.
        group_by: String,
    },
}

/// A directed causal edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalEdge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Grounding semantics.
    pub kind: EdgeKind,
}

/// A schema-level causal DAG.
#[derive(Debug, Clone, Default)]
pub struct CausalGraph {
    nodes: Vec<AttrNode>,
    by_name: HashMap<(String, String), NodeId>,
    edges: Vec<CausalEdge>,
    children: Vec<Vec<NodeId>>,
    parents: Vec<Vec<NodeId>>,
}

impl CausalGraph {
    /// An empty graph.
    pub fn new() -> Self {
        CausalGraph::default()
    }

    /// Add a node; returns its id. Duplicate nodes are rejected.
    pub fn add_node(&mut self, node: AttrNode) -> Result<NodeId> {
        let key = (node.relation.clone(), node.attribute.clone());
        if self.by_name.contains_key(&key) {
            return Err(CausalError::DuplicateNode(node.to_string()));
        }
        let id = self.nodes.len();
        self.by_name.insert(key, id);
        self.nodes.push(node);
        self.children.push(Vec::new());
        self.parents.push(Vec::new());
        Ok(id)
    }

    /// Convenience: add (or look up) a node by names.
    pub fn node(&mut self, relation: &str, attribute: &str) -> NodeId {
        let key = (relation.to_string(), attribute.to_string());
        if let Some(&id) = self.by_name.get(&key) {
            return id;
        }
        self.add_node(AttrNode::new(relation, attribute))
            .expect("checked for existence above")
    }

    /// Resolve a node id by names.
    pub fn node_id(&self, relation: &str, attribute: &str) -> Result<NodeId> {
        self.by_name
            .get(&(relation.to_string(), attribute.to_string()))
            .copied()
            .ok_or_else(|| CausalError::UnknownNode(format!("{relation}.{attribute}")))
    }

    /// Node payload.
    pub fn node_info(&self, id: NodeId) -> &AttrNode {
        &self.nodes[id]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[AttrNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[CausalEdge] {
        &self.edges
    }

    /// Content fingerprint: a stable 64-bit hash of nodes (in id order)
    /// and edges (in insertion order, with grounding kinds). Together with
    /// [`hyper_storage::Database::fingerprint`] this keys the process-wide
    /// shared artifact store — sessions over equal `(data, model)` pairs
    /// share block decompositions and fitted estimators.
    pub fn fingerprint(&self) -> u64 {
        let mut h = hyper_storage::Fingerprint::new();
        h.write_u64(self.nodes.len() as u64);
        for n in &self.nodes {
            h.write_str(&n.relation);
            h.write_str(&n.attribute);
        }
        h.write_u64(self.edges.len() as u64);
        for e in &self.edges {
            h.write_u64(e.from as u64);
            h.write_u64(e.to as u64);
            match &e.kind {
                EdgeKind::Intra => h.write_u8(b'i'),
                EdgeKind::ForeignKey => h.write_u8(b'k'),
                EdgeKind::SameValue { group_by } => {
                    h.write_u8(b'g');
                    h.write_str(group_by);
                }
            }
        }
        h.finish()
    }

    /// Add a directed edge, rejecting cycles and malformed kinds.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) -> Result<()> {
        if from >= self.nodes.len() || to >= self.nodes.len() {
            return Err(CausalError::UnknownNode(format!("edge {from}→{to}")));
        }
        if from == to {
            return Err(CausalError::InvalidEdge("self-loop".into()));
        }
        if kind == EdgeKind::Intra && self.nodes[from].relation != self.nodes[to].relation {
            return Err(CausalError::InvalidEdge(format!(
                "intra-tuple edge {} → {} spans relations",
                self.nodes[from], self.nodes[to]
            )));
        }
        // Tentatively add, then verify acyclicity at the attribute level.
        self.children[from].push(to);
        self.parents[to].push(from);
        if topo::topological_order(&self.children).is_none() {
            self.children[from].pop();
            self.parents[to].pop();
            return Err(CausalError::CycleDetected(format!(
                "{} → {}",
                self.nodes[from], self.nodes[to]
            )));
        }
        self.edges.push(CausalEdge { from, to, kind });
        Ok(())
    }

    /// Convenience: add an intra-tuple edge by attribute names.
    pub fn add_intra_edge(&mut self, relation: &str, from_attr: &str, to_attr: &str) -> Result<()> {
        let f = self.node(relation, from_attr);
        let t = self.node(relation, to_attr);
        self.add_edge(f, t, EdgeKind::Intra)
    }

    /// Children (direct effects) of a node.
    pub fn children_of(&self, id: NodeId) -> &[NodeId] {
        &self.children[id]
    }

    /// Parents (direct causes) of a node.
    pub fn parents_of(&self, id: NodeId) -> &[NodeId] {
        &self.parents[id]
    }

    /// Edges out of `id` with their kinds.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &CausalEdge> {
        self.edges.iter().filter(move |e| e.from == id)
    }

    /// A topological order of the nodes (always exists: edges are checked).
    pub fn topological_order(&self) -> Vec<NodeId> {
        topo::topological_order(&self.children).expect("graph is maintained acyclic")
    }

    /// All descendants of `id` (excluding itself).
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        topo::reachable(&self.children, &[id])
            .into_iter()
            .filter(|&n| n != id)
            .collect()
    }

    /// All ancestors of `id` (excluding itself).
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        topo::reachable(&self.parents, &[id])
            .into_iter()
            .filter(|&n| n != id)
            .collect()
    }

    /// True iff a directed path `from ⇝ to` exists.
    pub fn has_path(&self, from: NodeId, to: NodeId) -> bool {
        from == to || topo::reachable(&self.children, &[from]).contains(&to)
    }

    /// True iff the two nodes are connected ignoring edge direction — the
    /// paper's pre-condition for multi-attribute updates is the *absence* of
    /// such paths between updated attributes.
    pub fn has_undirected_path(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        let mut undirected: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            undirected[e.from].push(e.to);
            undirected[e.to].push(e.from);
        }
        topo::reachable(&undirected, &[a]).contains(&b)
    }

    /// Child adjacency lists (for algorithms that work on raw adjacency).
    pub fn adjacency(&self) -> &[Vec<NodeId>] {
        &self.children
    }

    /// Build the *augmented* graph of §A.3.2: add a node `agg_alias`
    /// representing `Agg(source)` aggregated into `into_relation`. The new
    /// node becomes a child of `source` and the parent of all of `source`'s
    /// children, whose direct edges from `source` are removed.
    pub fn augment_with_aggregate(
        &self,
        source: NodeId,
        into_relation: &str,
        agg_alias: &str,
    ) -> Result<(CausalGraph, NodeId)> {
        let mut g = CausalGraph::new();
        for n in &self.nodes {
            g.add_node(n.clone())?;
        }
        let agg_id = g.add_node(AttrNode::new(into_relation, agg_alias))?;
        for e in &self.edges {
            if e.from == source {
                // Redirect source → child edges to agg → child. The kind is
                // recomputed because the aggregate may live in a different
                // relation than the original source.
                let kind = if g.node_info(agg_id).relation == g.node_info(e.to).relation {
                    EdgeKind::Intra
                } else {
                    EdgeKind::ForeignKey
                };
                g.add_edge(agg_id, e.to, kind)?;
            } else {
                g.add_edge(e.from, e.to, e.kind.clone())?;
            }
        }
        let source_kind = if g.node_info(source).relation == g.node_info(agg_id).relation {
            EdgeKind::Intra
        } else {
            EdgeKind::ForeignKey
        };
        g.add_edge(source, agg_id, source_kind)?;
        Ok((g, agg_id))
    }
}

impl fmt::Display for CausalGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CausalGraph[{} nodes]", self.nodes.len())?;
        for e in &self.edges {
            writeln!(
                f,
                "  {} → {} ({:?})",
                self.nodes[e.from], self.nodes[e.to], e.kind
            )?;
        }
        Ok(())
    }
}

/// Build the paper's Figure-2 Amazon graph (used by examples and tests).
pub fn amazon_example_graph() -> CausalGraph {
    let mut g = CausalGraph::new();
    let category = g.node("product", "category");
    let brand = g.node("product", "brand");
    let quality = g.node("product", "quality");
    let color = g.node("product", "color");
    let price = g.node("product", "price");
    let rating = g.node("review", "rating");
    let sentiment = g.node("review", "sentiment");

    g.add_edge(category, quality, EdgeKind::Intra).unwrap();
    g.add_edge(brand, quality, EdgeKind::Intra).unwrap();
    g.add_edge(category, price, EdgeKind::Intra).unwrap();
    g.add_edge(brand, price, EdgeKind::Intra).unwrap();
    g.add_edge(quality, price, EdgeKind::Intra).unwrap();
    g.add_edge(color, price, EdgeKind::Intra).unwrap();
    // Product attributes affect this product's reviews via the FK.
    g.add_edge(price, rating, EdgeKind::ForeignKey).unwrap();
    g.add_edge(quality, rating, EdgeKind::ForeignKey).unwrap();
    g.add_edge(quality, sentiment, EdgeKind::ForeignKey)
        .unwrap();
    g.add_edge(sentiment, rating, EdgeKind::Intra).unwrap();
    // Competitor price affects ratings of same-category products (dashed).
    g.add_edge(
        price,
        rating,
        EdgeKind::SameValue {
            group_by: "category".into(),
        },
    )
    .unwrap();
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_and_edges() {
        let g = amazon_example_graph();
        assert_eq!(g.num_nodes(), 7);
        let price = g.node_id("product", "price").unwrap();
        let rating = g.node_id("review", "rating").unwrap();
        assert!(g.has_path(price, rating));
        assert!(!g.has_path(rating, price));
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut g = CausalGraph::new();
        g.add_node(AttrNode::new("t", "a")).unwrap();
        assert!(g.add_node(AttrNode::new("t", "a")).is_err());
    }

    #[test]
    fn cycle_rejected_and_rolled_back() {
        let mut g = CausalGraph::new();
        let a = g.node("t", "a");
        let b = g.node("t", "b");
        g.add_edge(a, b, EdgeKind::Intra).unwrap();
        let err = g.add_edge(b, a, EdgeKind::Intra).unwrap_err();
        assert!(matches!(err, CausalError::CycleDetected(_)));
        // Rollback leaves the graph usable.
        assert_eq!(g.edges().len(), 1);
        assert_eq!(g.children_of(b), &[] as &[NodeId]);
    }

    #[test]
    fn intra_edge_across_relations_rejected() {
        let mut g = CausalGraph::new();
        let a = g.node("t1", "a");
        let b = g.node("t2", "b");
        assert!(g.add_edge(a, b, EdgeKind::Intra).is_err());
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = CausalGraph::new();
        let a = g.node("t", "a");
        assert!(g.add_edge(a, a, EdgeKind::Intra).is_err());
    }

    #[test]
    fn descendants_and_ancestors() {
        let g = amazon_example_graph();
        let quality = g.node_id("product", "quality").unwrap();
        let rating = g.node_id("review", "rating").unwrap();
        let desc = g.descendants(quality);
        assert!(desc.contains(&g.node_id("product", "price").unwrap()));
        assert!(desc.contains(&rating));
        let anc = g.ancestors(rating);
        assert!(anc.contains(&g.node_id("product", "category").unwrap()));
        assert!(!anc.contains(&rating));
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = amazon_example_graph();
        let order = g.topological_order();
        let pos: HashMap<NodeId, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for e in g.edges() {
            assert!(pos[&e.from] < pos[&e.to], "edge {e:?} violates order");
        }
    }

    #[test]
    fn undirected_path_detection() {
        let g = amazon_example_graph();
        let color = g.node_id("product", "color").unwrap();
        let sentiment = g.node_id("review", "sentiment").unwrap();
        // color → price → rating ← sentiment: connected undirected.
        assert!(g.has_undirected_path(color, sentiment));
        assert!(!g.has_path(color, sentiment));
    }

    #[test]
    fn augmentation_reroutes_children() {
        let g = amazon_example_graph();
        let rating = g.node_id("review", "rating").unwrap();
        let sentiment = g.node_id("review", "sentiment").unwrap();
        let (aug, agg) = g
            .augment_with_aggregate(sentiment, "product", "avg_senti")
            .unwrap();
        // sentiment's old child (rating) now hangs off the aggregate.
        assert!(aug.children_of(agg).contains(&rating));
        assert!(aug.children_of(sentiment).contains(&agg));
        assert!(!aug.children_of(sentiment).contains(&rating));
    }
}
