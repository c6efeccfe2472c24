//! Stoer-Wagner global minimum cut.
//!
//! Almser flags record pairs as potential false positives when they sit on a
//! *weak minimum cut* of their connected component in the match graph: a
//! component that can be split by removing little edge weight probably glues
//! two distinct entities together.

use crate::graph::Graph;

/// Result of a global minimum-cut computation.
#[derive(Debug, Clone, PartialEq)]
pub struct MinCut {
    /// Total weight of the cut edges.
    pub weight: f64,
    /// Nodes on one side of the cut (the smaller side is not guaranteed).
    pub partition: Vec<usize>,
}

/// Compute the global minimum cut of a connected weighted graph using the
/// Stoer-Wagner algorithm (O(n³) with adjacency matrices — the match-graph
/// components this is applied to are small).
///
/// Returns `None` for graphs with fewer than two nodes. For disconnected
/// graphs the cut weight is 0 with one component on each side.
pub fn stoer_wagner(g: &Graph) -> Option<MinCut> {
    let n = g.num_nodes();
    if n < 2 {
        return None;
    }
    // dense weight matrix (self-loops are irrelevant to cuts)
    let mut w = vec![vec![0.0f64; n]; n];
    for (u, v, wt) in g.edges() {
        if u != v {
            w[u][v] += wt;
            w[v][u] += wt;
        }
    }
    // merged[i] lists the original nodes contracted into supernode i
    let mut merged: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let mut active: Vec<usize> = (0..n).collect();
    let mut best: Option<MinCut> = None;

    while active.len() > 1 {
        // maximum adjacency search from the first active node
        let mut weights_to_a: Vec<f64> = active.iter().map(|_| 0.0).collect();
        let mut in_a = vec![false; active.len()];
        let mut order: Vec<usize> = Vec::with_capacity(active.len());
        for _ in 0..active.len() {
            let mut pick = usize::MAX;
            let mut pick_w = f64::NEG_INFINITY;
            for (idx, &node) in active.iter().enumerate() {
                let _ = node;
                if !in_a[idx] && weights_to_a[idx] > pick_w {
                    pick = idx;
                    pick_w = weights_to_a[idx];
                }
            }
            in_a[pick] = true;
            order.push(pick);
            for (idx, &node) in active.iter().enumerate() {
                if !in_a[idx] {
                    weights_to_a[idx] += w[active[pick]][node];
                }
            }
        }
        let t_idx = *order.last().expect("non-empty order");
        let s_idx = order[order.len() - 2];
        let t = active[t_idx];
        let s = active[s_idx];
        // cut-of-the-phase: t alone vs rest
        let cut_weight: f64 = active
            .iter()
            .filter(|&&u| u != t)
            .map(|&u| w[t][u])
            .sum();
        let candidate = MinCut { weight: cut_weight, partition: merged[t].clone() };
        if best.as_ref().is_none_or(|b| candidate.weight < b.weight) {
            best = Some(candidate);
        }
        // contract t into s
        let t_members = std::mem::take(&mut merged[t]);
        merged[s].extend(t_members);
        // indexed: row s and column s are both written, so `w` stays symmetric
        #[allow(clippy::needless_range_loop)]
        for u in 0..n {
            if u != s && u != t {
                w[s][u] += w[t][u];
                w[u][s] = w[s][u];
            }
        }
        active.retain(|&u| u != t);
    }
    best
}

/// Convenience: the min-cut weight, or 0.0 when undefined.
pub fn min_cut_weight(g: &Graph) -> f64 {
    stoer_wagner(g).map_or(0.0, |c| c.weight)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_nodes_single_edge() {
        let g = Graph::from_edges(2, &[(0, 1, 3.5)]);
        let cut = stoer_wagner(&g).unwrap();
        assert!((cut.weight - 3.5).abs() < 1e-12);
        assert_eq!(cut.partition.len(), 1);
    }

    #[test]
    fn barbell_weak_bridge() {
        // two triangles connected by a 0.2 bridge: min cut = bridge
        let mut g = Graph::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(u, v, 1.0);
        }
        g.add_edge(2, 3, 0.2);
        let cut = stoer_wagner(&g).unwrap();
        assert!((cut.weight - 0.2).abs() < 1e-9);
        let mut side = cut.partition.clone();
        side.sort_unstable();
        assert!(side == vec![0, 1, 2] || side == vec![3, 4, 5]);
    }

    #[test]
    fn classic_stoer_wagner_example() {
        // The 8-node example from the Stoer-Wagner paper; min cut = 4.
        let edges = [
            (0, 1, 2.0), (0, 4, 3.0), (1, 2, 3.0), (1, 4, 2.0), (1, 5, 2.0),
            (2, 3, 4.0), (2, 6, 2.0), (3, 6, 2.0), (3, 7, 2.0), (4, 5, 3.0),
            (5, 6, 1.0), (6, 7, 3.0),
        ];
        let g = Graph::from_edges(8, &edges);
        let cut = stoer_wagner(&g).unwrap();
        assert!((cut.weight - 4.0).abs() < 1e-9, "got {}", cut.weight);
    }

    #[test]
    fn disconnected_graph_has_zero_cut() {
        let g = Graph::from_edges(4, &[(0, 1, 5.0), (2, 3, 5.0)]);
        let cut = stoer_wagner(&g).unwrap();
        assert_eq!(cut.weight, 0.0);
    }

    #[test]
    fn single_node_returns_none() {
        let g = Graph::new(1);
        assert!(stoer_wagner(&g).is_none());
        assert_eq!(min_cut_weight(&g), 0.0);
    }

    #[test]
    fn star_graph_cuts_weakest_leaf() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (0, 2, 2.0), (0, 3, 0.5)]);
        let cut = stoer_wagner(&g).unwrap();
        assert!((cut.weight - 0.5).abs() < 1e-12);
        assert_eq!(cut.partition, vec![3]);
    }
}
