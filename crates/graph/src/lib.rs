#![warn(missing_docs)]

//! Data-graph substrate for PSgL.
//!
//! The PSgL paper (Shao et al., SIGMOD 2014) evaluates on large unlabeled
//! undirected graphs stored in distributed memory. This crate provides the
//! equivalent single-machine substrate:
//!
//! - [`DataGraph`] — an immutable CSR (compressed sparse row) undirected
//!   graph with `u32` vertex ids and sorted adjacency lists,
//! - [`GraphBuilder`] — applies the paper's preprocessing (add reciprocal
//!   edges, drop self-loops, drop isolated vertices),
//! - [`order`] — the *ordered graph* of Section 3: a total rank by
//!   `(degree, id)` plus the `nb`/`ns` split of each neighborhood
//!   (Property 1),
//! - [`generators`] — Erdős–Rényi, Chung–Lu power-law, and
//!   Barabási–Albert generators standing in for the paper's SNAP/KONECT
//!   datasets (see `DESIGN.md` §3),
//! - [`io`] — SNAP-style edge-list loading/saving,
//! - [`partition`] — the random (hash) vertex partitioner PSgL uses to
//!   spread the data graph over workers,
//! - [`stats`] — degree statistics, including the power-law exponent
//!   estimate used to characterize skew,
//! - [`hash`] — a fast FxHash-style hasher for integer-keyed maps.

pub mod algo;
pub mod binary;
pub mod builder;
pub mod csr;
pub mod error;
pub mod fixtures;
pub mod generators;
pub mod hash;
pub mod io;
pub mod order;
mod par;
pub mod partition;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::{DataGraph, VertexId};
pub use error::GraphError;
pub use order::OrderedGraph;
pub use partition::HashPartitioner;
pub use stats::DegreeStats;
