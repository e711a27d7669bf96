//! The model computation graph and its structural analyses.
//!
//! [`ModelGraph`] is a DAG of [`Layer`]s. The analysis Apparate needs from it
//! (§3.1) is the set of *feasible ramp sites*: positions where the operator is
//! a **cut vertex**, i.e. no data-flow edge starts before the position and
//! re-enters the computation after it. Placing a ramp at such a position
//! guarantees the ramp sees *all* information the original model has produced
//! up to that point (Figure 7: between ResNet blocks / BERT encoders, at every
//! layer of VGG, never inside a residual block).

use crate::layer::{Layer, LayerId, LayerKind, Stage};
use std::collections::VecDeque;

/// Errors raised when constructing or validating a model graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a layer id that does not exist.
    DanglingEdge {
        /// The offending edge.
        edge: (LayerId, LayerId),
    },
    /// The graph contains a cycle and therefore is not a valid model.
    Cyclic,
    /// The graph is empty.
    Empty,
    /// Duplicate layer id.
    DuplicateLayer(LayerId),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::DanglingEdge { edge } => {
                write!(
                    f,
                    "edge {} -> {} references a missing layer",
                    edge.0, edge.1
                )
            }
            GraphError::Cyclic => write!(f, "model graph contains a cycle"),
            GraphError::Empty => write!(f, "model graph has no layers"),
            GraphError::DuplicateLayer(id) => write!(f, "duplicate layer id {id}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A validated DAG of model layers.
#[derive(Debug, Clone)]
pub struct ModelGraph {
    layers: Vec<Layer>,
    edges: Vec<(LayerId, LayerId)>,
    /// Topological order: `topo[i]` is the layer id at topological position `i`.
    topo: Vec<LayerId>,
    /// Inverse of `topo`: `position[layer.0]` is the topological position.
    position: Vec<usize>,
}

impl ModelGraph {
    /// Build and validate a graph from layers and directed edges.
    pub fn new(
        layers: Vec<Layer>,
        edges: Vec<(LayerId, LayerId)>,
    ) -> Result<ModelGraph, GraphError> {
        if layers.is_empty() {
            return Err(GraphError::Empty);
        }
        let n = layers.len();
        // Layer ids must be unique and dense in [0, n).
        let mut seen = vec![false; n];
        for layer in &layers {
            let idx = layer.id.0;
            if idx >= n || seen[idx] {
                return Err(GraphError::DuplicateLayer(layer.id));
            }
            seen[idx] = true;
        }
        for &(a, b) in &edges {
            if a.0 >= n || b.0 >= n {
                return Err(GraphError::DanglingEdge { edge: (a, b) });
            }
        }
        // Kahn's algorithm for topological order (and cycle detection).
        let mut indegree = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adj[a.0].push(b.0);
            indegree[b.0] += 1;
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            topo.push(LayerId(u));
            for &v in &adj[u] {
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        if topo.len() != n {
            return Err(GraphError::Cyclic);
        }
        let mut position = vec![0usize; n];
        for (pos, id) in topo.iter().enumerate() {
            position[id.0] = pos;
        }
        // Sort layers by id so that indexing by id is O(1).
        let mut layers = layers;
        layers.sort_by_key(|l| l.id.0);
        Ok(ModelGraph {
            layers,
            edges,
            topo,
            position,
        })
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the graph has no layers (never true for a validated graph).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// All layers, indexed by id.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Look up a layer by id.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.0]
    }

    /// All edges.
    pub fn edges(&self) -> &[(LayerId, LayerId)] {
        &self.edges
    }

    /// Layer ids in topological order.
    pub fn topo_order(&self) -> &[LayerId] {
        &self.topo
    }

    /// Topological position of a layer.
    pub fn topo_position(&self, id: LayerId) -> usize {
        self.position[id.0]
    }

    /// The layer at a given topological position.
    pub fn layer_at_position(&self, pos: usize) -> &Layer {
        self.layer(self.topo[pos])
    }

    /// Total parameter count of the model.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(|l| l.params).sum()
    }

    /// The final layer in topological order (the model's output head).
    pub fn output_layer(&self) -> &Layer {
        self.layer(*self.topo.last().expect("validated graph is non-empty"))
    }

    /// Cut-vertex analysis: returns, for every topological position `i`,
    /// whether the layer at position `i` is a cut vertex — i.e. whether **no**
    /// edge `(a, b)` satisfies `pos(a) < i < pos(b)`.
    ///
    /// A ramp attached to the output of a cut vertex consumes every data flow
    /// the model has produced so far, which is the paper's feasibility rule.
    pub fn cut_vertex_mask(&self) -> Vec<bool> {
        let n = self.layers.len();
        // For each position i, find the furthest position reachable by an edge
        // that starts at or before i. Position i is a cut vertex iff no edge
        // starting strictly before i ends strictly after i.
        let mut max_end_from_before = vec![0usize; n + 1];
        // max_end_from_before[i] = max over edges (a,b) with pos(a) < i of pos(b).
        let mut per_start: Vec<usize> = vec![0; n];
        for &(a, b) in &self.edges {
            let pa = self.position[a.0];
            let pb = self.position[b.0];
            per_start[pa] = per_start[pa].max(pb);
        }
        let mut running = 0usize;
        for i in 0..n {
            max_end_from_before[i + 1] = running.max(per_start[i]);
            running = max_end_from_before[i + 1];
        }
        (0..n).map(|i| max_end_from_before[i] <= i).collect()
    }

    /// Layer ids (in topological order) that are cut vertices.
    pub fn cut_vertices(&self) -> Vec<LayerId> {
        self.cut_vertex_mask()
            .iter()
            .enumerate()
            .filter(|&(_pos, &is_cut)| is_cut)
            .map(|(pos, &_is_cut)| self.topo[pos])
            .collect()
    }

    /// Feasible ramp sites: cut vertices, excluding the output head itself
    /// (a ramp there would be the model's own exit) and optionally restricted
    /// to a pipeline stage (decoder-only for generative models).
    pub fn feasible_ramp_sites(&self, stage: Option<Stage>) -> Vec<LayerId> {
        let last_pos = self.layers.len() - 1;
        self.cut_vertex_mask()
            .iter()
            .enumerate()
            .filter_map(|(pos, &is_cut)| {
                if !is_cut || pos == last_pos {
                    return None;
                }
                let id = self.topo[pos];
                let layer = self.layer(id);
                if let Some(required) = stage {
                    if layer.stage != required {
                        return None;
                    }
                }
                // Never place a ramp at position 0 (before any computation).
                (pos > 0).then_some(id)
            })
            .collect()
    }

    /// Fraction of layers that are feasible ramp sites, as reported in §3.1
    /// ("9.2–68.4 % of layers having ramps for the models in our corpus").
    pub fn ramp_coverage(&self) -> f64 {
        self.feasible_ramp_sites(None).len() as f64 / self.layers.len() as f64
    }

    /// Ids of layers whose kind matches `kind`.
    pub fn layers_of_kind(&self, kind: LayerKind) -> Vec<LayerId> {
        self.layers
            .iter()
            .filter(|l| l.kind == kind)
            .map(|l| l.id)
            .collect()
    }

    /// Number of distinct architectural blocks.
    pub fn num_blocks(&self) -> u32 {
        self.layers
            .iter()
            .map(|l| l.block)
            .max()
            .map_or(0, |b| b + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    fn chain(n: usize) -> ModelGraph {
        let layers = (0..n)
            .map(|i| Layer::new(i, format!("l{i}"), LayerKind::Conv, 10, 16, i as u32))
            .collect();
        let edges = (0..n - 1).map(|i| (LayerId(i), LayerId(i + 1))).collect();
        ModelGraph::new(layers, edges).expect("valid chain")
    }

    /// A graph with a residual skip: 0 -> 1 -> 2 -> 3, plus 0 -> 2 and 2 -> 4 -> 5, 3 -> 5? Keep it
    /// simple: 0->1->2, 0->2 (skip), 2->3.
    fn residual() -> ModelGraph {
        let layers = (0..4)
            .map(|i| Layer::new(i, format!("l{i}"), LayerKind::Conv, 10, 16, 0))
            .collect();
        let edges = vec![
            (LayerId(0), LayerId(1)),
            (LayerId(1), LayerId(2)),
            (LayerId(0), LayerId(2)),
            (LayerId(2), LayerId(3)),
        ];
        ModelGraph::new(layers, edges).expect("valid residual graph")
    }

    #[test]
    fn chain_has_all_cut_vertices() {
        let g = chain(5);
        assert_eq!(g.cut_vertices().len(), 5);
        // Feasible ramp sites exclude position 0 and the output layer.
        assert_eq!(g.feasible_ramp_sites(None).len(), 3);
    }

    #[test]
    fn residual_skip_blocks_internal_ramp() {
        let g = residual();
        let mask = g.cut_vertex_mask();
        // Layer 1 sits "inside" the skip 0 -> 2, so it is not a cut vertex.
        assert!(mask[g.topo_position(LayerId(0))]);
        assert!(!mask[g.topo_position(LayerId(1))]);
        assert!(mask[g.topo_position(LayerId(2))]);
        assert!(mask[g.topo_position(LayerId(3))]);
    }

    #[test]
    fn cycle_is_rejected() {
        let layers = (0..2)
            .map(|i| Layer::new(i, format!("l{i}"), LayerKind::Conv, 1, 4, 0))
            .collect();
        let edges = vec![(LayerId(0), LayerId(1)), (LayerId(1), LayerId(0))];
        assert_eq!(
            ModelGraph::new(layers, edges).unwrap_err(),
            GraphError::Cyclic
        );
    }

    #[test]
    fn dangling_edge_is_rejected() {
        let layers = vec![Layer::new(0, "l0", LayerKind::Conv, 1, 4, 0)];
        let edges = vec![(LayerId(0), LayerId(3))];
        assert!(matches!(
            ModelGraph::new(layers, edges).unwrap_err(),
            GraphError::DanglingEdge { .. }
        ));
    }

    #[test]
    fn empty_graph_is_rejected() {
        assert_eq!(
            ModelGraph::new(Vec::new(), Vec::new()).unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn duplicate_layer_rejected() {
        let layers = vec![
            Layer::new(0, "a", LayerKind::Conv, 1, 4, 0),
            Layer::new(0, "b", LayerKind::Conv, 1, 4, 0),
        ];
        assert!(matches!(
            ModelGraph::new(layers, vec![]).unwrap_err(),
            GraphError::DuplicateLayer(_)
        ));
    }

    #[test]
    fn topo_positions_are_consistent() {
        let g = residual();
        for pos in 0..g.len() {
            let id = g.topo_order()[pos];
            assert_eq!(g.topo_position(id), pos);
            assert_eq!(g.layer_at_position(pos).id, id);
        }
    }

    #[test]
    fn totals_and_blocks() {
        let g = chain(4);
        assert_eq!(g.total_params(), 40);
        assert_eq!(g.num_blocks(), 4);
        assert_eq!(g.output_layer().id, LayerId(3));
        assert_eq!(g.layers_of_kind(LayerKind::Conv).len(), 4);
        assert!(g.ramp_coverage() > 0.0);
    }
}
