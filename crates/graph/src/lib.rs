//! Graph substrate for the MIMD mapping-strategy reproduction.
//!
//! The 1991 paper ("A Mapping Strategy for MIMD Computers", Yang, Bic &
//! Nicolau) represents every structure — problem graphs, clustered problem
//! graphs, abstract graphs, ideal graphs and system graphs — as dense
//! matrices (`prob_edge[np][np]`, `sys_edge[ns][ns]`, `shortest[ns][ns]`,
//! ...). This crate provides those representations plus the classic
//! graph algorithms the mapping pipeline needs:
//!
//! * [`SquareMatrix`] — the dense row-major matrix underlying every
//!   paper data structure.
//! * [`WeightedDigraph`] — directed graphs with positive integer edge
//!   weights (problem graphs, clustered problem graphs, ideal graphs).
//! * [`UnGraph`] — undirected unweighted graphs (system graphs, abstract
//!   adjacency).
//! * [`dag`] — topological ordering, levels, longest paths, reachability.
//! * [`apsp`] — all-pairs shortest paths (unweighted BFS and
//!   Floyd–Warshall), producing the paper's `shortest[ns][ns]` matrix.
//! * [`matching`] — deterministic greedy / heavy-edge matchings, the
//!   contraction primitive of multilevel coarsening.
//! * [`generators`] — seeded random undirected connected graphs for the
//!   "randomly produced topologies" experiments (Table 3 / Fig 27).
//! * [`dot`] — Graphviz export for debugging and documentation.
//!
//! All algorithms are deterministic; stochastic constructions take an
//! explicit [`rand::Rng`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apsp;
pub mod bitset;
pub mod dag;
pub mod digraph;
pub mod dot;
pub mod error;
pub mod generators;
pub mod matching;
pub mod matrix;
pub mod properties;
pub mod ungraph;

pub use apsp::DistanceMatrix;
pub use bitset::BitSet;
pub use digraph::WeightedDigraph;
pub use error::GraphError;
pub use matrix::SquareMatrix;
pub use ungraph::UnGraph;

/// Node identifier. The paper indexes tasks from 1 and processors from 0;
/// internally everything is 0-based.
pub type NodeId = usize;

/// Discrete time unit used for task execution times, communication times,
/// start/end times and makespans. The paper measures everything in integer
/// "time units"; we follow suit so all schedules are exact.
pub type Time = u64;

/// Edge/communication weight, in the same time units as [`Time`].
pub type Weight = u64;
