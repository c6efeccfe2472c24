//! Weighted undirected graph with adjacency lists.

use std::collections::HashMap;

/// A weighted undirected graph over nodes `0..n`.
///
/// * Parallel edges are merged: adding an existing edge accumulates weight.
/// * Self-loops are allowed and stored once; they contribute twice to a
///   node's [`strength`](Graph::strength) (the usual convention in community
///   detection).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adj: Vec<Vec<(usize, f64)>>,
    num_edges: usize,
    total_weight: f64,
}

impl Graph {
    /// Create a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self { adj: vec![Vec::new(); n], num_edges: 0, total_weight: 0.0 }
    }

    /// Build a graph from an edge list (`n` nodes).
    pub fn from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut g = Self::new(n);
        for &(u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        g
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of distinct undirected edges (self-loops count once).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sum of all edge weights, each undirected edge counted once.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Append an isolated node, returning its index.
    pub fn add_node(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Add (or reinforce) the undirected edge `{u, v}` with weight `w`.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of bounds or `w` is not finite.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f64) {
        assert!(u < self.adj.len() && v < self.adj.len(), "edge ({u},{v}) out of bounds");
        assert!(w.is_finite(), "edge weight must be finite");
        if let Some(slot) = self.adj[u].iter_mut().find(|(nbr, _)| *nbr == v) {
            slot.1 += w;
            if u != v {
                let back = self.adj[v]
                    .iter_mut()
                    .find(|(nbr, _)| *nbr == u)
                    .expect("undirected edge must be symmetric");
                back.1 += w;
            }
            self.total_weight += w;
            return;
        }
        self.adj[u].push((v, w));
        if u != v {
            self.adj[v].push((u, w));
        }
        self.num_edges += 1;
        self.total_weight += w;
    }

    /// Weight of edge `{u, v}` if present.
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<f64> {
        self.adj.get(u)?.iter().find(|(nbr, _)| *nbr == v).map(|(_, w)| *w)
    }

    /// Neighbors of `u` with edge weights (self-loop included if present).
    pub fn neighbors(&self, u: usize) -> &[(usize, f64)] {
        &self.adj[u]
    }

    /// Unweighted degree (number of incident edges; self-loop counts once).
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Weighted degree: sum of incident edge weights with self-loops counted
    /// twice (community-detection convention, so that Σ strength = 2m).
    pub fn strength(&self, u: usize) -> f64 {
        self.adj[u]
            .iter()
            .map(|&(nbr, w)| if nbr == u { 2.0 * w } else { w })
            .sum()
    }

    /// Iterate over every undirected edge once as `(u, v, w)` with `u <= v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            nbrs.iter()
                .filter(move |&&(v, _)| u <= v)
                .map(move |&(v, w)| (u, v, w))
        })
    }

    /// Induced subgraph on `nodes`; returns the subgraph and the mapping from
    /// new indices to the original node ids.
    ///
    /// Costs O(k log k + the members' degrees) for `k` nodes, not a pass
    /// over the whole graph, so calling it once per component stays linear.
    /// Edges are added in [`edges`](Graph::edges) order.
    pub fn induced_subgraph(&self, nodes: &[usize]) -> (Graph, Vec<usize>) {
        let remap: HashMap<usize, usize> =
            nodes.iter().enumerate().map(|(new, &old)| (old, new)).collect();
        let mut members: Vec<usize> = nodes.to_vec();
        members.sort_unstable();
        members.dedup();
        let mut sub = Graph::new(nodes.len());
        for &u in &members {
            for &(v, w) in &self.adj[u] {
                if u <= v {
                    if let Some(&nv) = remap.get(&v) {
                        sub.add_edge(remap[&u], nv, w);
                    }
                }
            }
        }
        (sub, nodes.to_vec())
    }

    /// Copy of the graph with one edge removed (used by Girvan-Newman).
    pub fn without_edge(&self, u: usize, v: usize) -> Graph {
        let mut g = Graph::new(self.num_nodes());
        for (a, b, w) in self.edges() {
            if !((a == u && b == v) || (a == v && b == u)) {
                g.add_edge(a, b, w);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_and_query() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 2, 3.0);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
        assert_eq!(g.edge_weight(1, 0), Some(2.0));
        assert_eq!(g.edge_weight(0, 2), None);
        assert!((g.total_weight() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 0, 0.5);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(1.5));
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn self_loop_counts_twice_in_strength() {
        let mut g = Graph::new(2);
        g.add_edge(0, 0, 1.5);
        g.add_edge(0, 1, 1.0);
        assert!((g.strength(0) - 4.0).abs() < 1e-12);
        assert!((g.strength(1) - 1.0).abs() < 1e-12);
        // Σ strength = 2m
        let two_m: f64 = (0..2).map(|u| g.strength(u)).sum();
        assert!((two_m - 2.0 * g.total_weight()).abs() < 1e-12);
    }

    #[test]
    fn edges_iterates_once_per_edge() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 3, 0.5)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        let w: f64 = edges.iter().map(|e| e.2).sum();
        assert!((w - 3.5).abs() < 1e-12);
    }

    #[test]
    fn induced_subgraph_remaps() {
        let g = Graph::from_edges(5, &[(0, 1, 1.0), (1, 2, 2.0), (3, 4, 3.0)]);
        let (sub, map) = g.induced_subgraph(&[1, 2, 4]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 1); // only (1,2) survives
        assert_eq!(sub.edge_weight(0, 1), Some(2.0));
        assert_eq!(map, vec![1, 2, 4]);
    }

    #[test]
    fn induced_subgraph_equals_a_full_edge_scan() {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 60;
        let mut g = Graph::new(n);
        for _ in 0..200 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            g.add_edge(u, v, rng.gen_range(0.1f64..2.0));
        }
        for _ in 0..20 {
            let mut nodes: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
            nodes.shuffle(&mut rng);
            // reference: keep every edge of the whole graph with both ends inside
            let mut remap = vec![usize::MAX; n];
            for (new, &old) in nodes.iter().enumerate() {
                remap[old] = new;
            }
            let mut reference = Graph::new(nodes.len());
            for (u, v, w) in g.edges() {
                if remap[u] != usize::MAX && remap[v] != usize::MAX {
                    reference.add_edge(remap[u], remap[v], w);
                }
            }
            let (sub, map) = g.induced_subgraph(&nodes);
            assert_eq!(map, nodes);
            assert_eq!(sub.num_edges(), reference.num_edges());
            assert_eq!(sub.total_weight().to_bits(), reference.total_weight().to_bits());
            for u in 0..nodes.len() {
                assert_eq!(sub.neighbors(u), reference.neighbors(u));
            }
        }
    }

    #[test]
    fn without_edge_removes_exactly_one() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let g2 = g.without_edge(1, 0);
        assert_eq!(g2.num_edges(), 1);
        assert_eq!(g2.edge_weight(0, 1), None);
        assert_eq!(g2.edge_weight(1, 2), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_edge_out_of_bounds_panics() {
        let mut g = Graph::new(1);
        g.add_edge(0, 1, 1.0);
    }
}
