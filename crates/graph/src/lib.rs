//! # morer-graph — graph substrate for MoRER
//!
//! Weighted undirected graphs plus the algorithms the MoRER pipeline and the
//! Almser active-learning baseline need:
//!
//! * [`Graph`]: adjacency-list weighted undirected graph (self-loops allowed,
//!   parallel edges merged by weight accumulation);
//! * [`components`]: union-find and connected components (the transitive
//!   closure of a match graph);
//! * [`mincut`]: Stoer-Wagner global minimum cut (Almser's false-positive
//!   signal);
//! * [`betweenness`]: Brandes edge betweenness (for Girvan-Newman);
//! * [`community`]: Leiden (the paper's clustering algorithm for the ER
//!   problem graph, §4.3), Louvain, label propagation and Girvan-Newman, all
//!   seeded and deterministic.
//!
//! ```
//! use morer_graph::{Graph, community::{leiden, LeidenConfig}};
//!
//! // two triangles joined by one weak edge
//! let mut g = Graph::new(6);
//! for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
//!     g.add_edge(u, v, 1.0);
//! }
//! g.add_edge(2, 3, 0.1);
//! let clustering = leiden(&g, &LeidenConfig::default());
//! assert_eq!(clustering.num_clusters(), 2);
//! assert_eq!(clustering.cluster_of(0), clustering.cluster_of(1));
//! assert_ne!(clustering.cluster_of(0), clustering.cluster_of(5));
//! ```

pub mod betweenness;
pub mod community;
pub mod components;
pub mod graph;
pub mod mincut;

pub use community::Clustering;
pub use components::UnionFind;
pub use graph::Graph;
