//! City-scale scenarios: spatial indexing, interference pruning, and
//! cluster-parallel slot solves.
//!
//! The paper's evaluation runs 22 nodes; this module grows the same
//! pipeline to 10⁵ users without changing a single decision it makes:
//!
//! * [`Scenario::city`](crate::Scenario::city) — a deterministic
//!   city-scale scenario generator: Poisson-disk base-station placement,
//!   clustered user hotspots, per-cell diurnal traffic, and the provably
//!   lossless interference pruning floor of
//!   `PhyConfig::prune_gain_floor` already applied.
//! * [`ClusterSet`] — connected components of the pruned interference
//!   graph, found with the `GridIndex` spatial hash in `Θ(n)` expected
//!   time. Pruning is *exact-zero only*: a gain is zeroed iff it is
//!   already below the receiver's thermal noise floor, so the components
//!   are interference-closed and independent per-slot subproblems.
//! * [`ShardedController`] — builds one sub-network and queue banks per
//!   cluster and hands them to the one slot driver,
//!   [`SlotDriver`](greencell_core::pipeline::SlotDriver), as its
//!   partitions: S1–S3 run cluster-parallel, S4 globally (the grid cost
//!   couples every base station through `f(P)`), with the same fault
//!   masks, dynamic network state and degradation ladder as the dense
//!   [`Controller`](greencell_core::Controller) — which is the same driver
//!   with one partition. With pruning disabled there is exactly one
//!   cluster and every slot report is bit-identical to the dense pipeline,
//!   under every fault archetype.
//! * [`CitySim`] — drives a [`ShardedController`] with observations drawn
//!   by the exact stream discipline of the dense
//!   [`Simulator`](crate::Simulator), so the two are interchangeable
//!   wherever both can run.
//!
//! What the city path deliberately does **not** support (it returns
//! [`SimError::UnsupportedAtScale`](crate::SimError) instead): log-normal
//! shadowing (it breaks the geometric closure argument), and — in
//! [`CitySim`] only, which draws neither — fault plans and Markov grid
//! chains. The controller takes fault masks from any observation. Routing
//! is restricted to within-cluster links — a *principled* divergence, not
//! an approximation: a pruned (exact-zero) gain can never satisfy the SINR
//! threshold, so a cross-cluster link can never be scheduled and any flow
//! routed onto it would queue forever.

mod city;
mod cluster;
mod shard;

pub use cluster::ClusterSet;
pub use shard::{CitySim, ShardedController};
