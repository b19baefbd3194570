//! `mimd-multilevel` — coarsen–map–refine V-cycles that scale the
//! paper's mapping strategy to thousand-node machines.
//!
//! The paper's pipeline assumes `na = ns` and spends `O(ns)` full
//! schedule evaluations on refinement plus `O(ns²)` critical-edge
//! bookkeeping — fine at 1991 machine sizes, impractical at thousands
//! of processors. The standard cure (VieM, Schulz & Träff; Glantz et
//! al.) is multilevel: coarsen both graphs, map cheaply at the top,
//! prolong the solution down with local refinement. This crate is that
//! scheme with the paper's strategy as its kernel:
//!
//! * [`hierarchy`] — [`SystemHierarchy::build`] contracts the system
//!   graph along maximal matchings into connected processor groups
//!   (topology-only, so the batch engine caches it per machine);
//!   [`Hierarchy`] pairs a prefix of that chain with per-job heavy-edge
//!   cluster merges on a sparse cluster graph (built once, contracted
//!   per level), keeping `na = ns` at every level and conserving
//!   task/cut weight.
//! * The **top level** (`ns ≤ direct_threshold`) is solved by the
//!   unmodified `mimd_core::Mapper` — ideal schedule, critical edges,
//!   greedy placement, randomized refinement.
//! * [`refine`] — during uncoarsening, [`refine_within_groups`] runs
//!   the paper's §4.3.3 randomized re-placement restricted to each
//!   processor group, a bounded number of rounds per level, stopping at
//!   the level's ideal-graph lower bound.
//! * [`mapper`] — [`MultilevelMapper`] ties the V-cycle together behind
//!   the same `map(graph, system, rng)` shape as the flat pipeline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hierarchy;
pub mod mapper;
pub mod refine;

pub use hierarchy::{Coarsening, Hierarchy, Level, SystemCoarsening, SystemHierarchy};
pub use mapper::{MultilevelConfig, MultilevelMapper, MultilevelResult};
pub use refine::{
    refine_batched, refine_batched_with, refine_within_groups, refine_within_groups_with,
    LocalRefineConfig, LocalRefineOutcome,
};
