//! Weakly connected components.
//!
//! The engines match connected queries only (a disconnected one is
//! refused with `EngineError::DisconnectedQuery`); the labelling here
//! checks the generated query sets and data graphs for connectivity.

use crate::graph::{Graph, VertexId};

/// Component labelling of a graph.
#[derive(Debug, Clone)]
pub struct Components {
    /// Component id per vertex.
    pub label: Vec<u32>,
    /// Number of components.
    count: u32,
}

impl Components {
    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.count as usize
    }
}

/// Labels weakly connected components (directions ignored) via BFS.
pub fn weakly_connected_components(g: &Graph) -> Components {
    let n = g.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = Vec::new();
    for start in 0..n {
        if label[start] != u32::MAX {
            continue;
        }
        label[start] = count;
        queue.push(start as VertexId);
        while let Some(v) = queue.pop() {
            for &w in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
                if label[w as usize] == u32::MAX {
                    label[w as usize] = count;
                    queue.push(w);
                }
            }
        }
        count += 1;
    }
    Components { label, count }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_component() {
        let g = Graph::undirected(4, &[(0, 1), (1, 2), (2, 3)]);
        let c = weakly_connected_components(&g);
        assert_eq!(c.num_components(), 1);
    }

    #[test]
    fn two_components_and_isolated() {
        let g = Graph::undirected(5, &[(0, 1), (2, 3)]);
        let c = weakly_connected_components(&g);
        assert_eq!(c.num_components(), 3);
        assert_eq!(c.label[0], c.label[1]);
        assert_eq!(c.label[2], c.label[3]);
        assert_ne!(c.label[0], c.label[2]);
        assert_ne!(c.label[4], c.label[0]);
        assert_ne!(c.label[4], c.label[2]);
    }

    #[test]
    fn weak_connectivity_ignores_direction() {
        let g = Graph::directed(3, &[(0, 1), (2, 1)]);
        let c = weakly_connected_components(&g);
        assert_eq!(c.num_components(), 1);
    }
}
