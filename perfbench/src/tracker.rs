//! Exact pattern counts of a mutating graph, kept up to date edge by edge.
//!
//! This is the oracle of `serve-mix` after epoch 0. It needs no listing
//! engine: the instances an edge `uv` closes are counted from plain
//! neighbour sets of the graph without `uv`. Triangles: common neighbours.
//! 4-cliques: adjacent pairs of common neighbours. Squares (4-cycles): paths
//! `u a b v` with `a ∈ N(u)`, `b ∈ N(a) ∩ N(v)`.

use crate::stats::Rng;
use psgl_graph::{DataGraph, VertexId};
use std::collections::{HashMap, HashSet};

/// The patterns tracked, in the order of [`Tracker::counts`].
pub const PATTERNS: [&str; 3] = ["triangle", "4-clique", "square"];

/// A graph plus the exact counts of [`PATTERNS`] in it.
pub struct Tracker {
    adj: Vec<HashSet<VertexId>>,
    edges: Vec<(VertexId, VertexId)>,
    position: HashMap<(VertexId, VertexId), usize>,
    counts: [u64; 3],
}

fn key(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    (u.min(v), u.max(v))
}

impl Tracker {
    /// Tracks `g`, whose counts of [`PATTERNS`] are `counts`.
    pub fn new(g: &DataGraph, counts: [u64; 3]) -> Tracker {
        let mut t = Tracker {
            adj: vec![HashSet::new(); g.num_vertices()],
            edges: Vec::new(),
            position: HashMap::new(),
            counts,
        };
        for (u, v) in g.edges() {
            t.link(u, v);
        }
        t
    }

    /// Current counts of [`PATTERNS`].
    pub fn counts(&self) -> [u64; 3] {
        self.counts
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether `uv` is an edge.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.position.contains_key(&key(u, v))
    }

    /// A uniformly random edge (the graph must have one).
    pub fn random_edge(&self, rng: &mut Rng) -> (VertexId, VertexId) {
        self.edges[rng.below(self.edges.len() as u64) as usize]
    }

    fn link(&mut self, u: VertexId, v: VertexId) {
        self.adj[u as usize].insert(v);
        self.adj[v as usize].insert(u);
        self.position.insert(key(u, v), self.edges.len());
        self.edges.push(key(u, v));
    }

    fn unlink(&mut self, u: VertexId, v: VertexId) {
        self.adj[u as usize].remove(&v);
        self.adj[v as usize].remove(&u);
        let i = self.position.remove(&key(u, v)).expect("unlink an existing edge");
        self.edges.swap_remove(i);
        if let Some(&moved) = self.edges.get(i) {
            self.position.insert(moved, i);
        }
    }

    /// Instances of each pattern that contain `uv`, in the graph without it.
    fn closed_by(&self, u: VertexId, v: VertexId) -> [u64; 3] {
        let (nu, nv) = (&self.adj[u as usize], &self.adj[v as usize]);
        let (small, large) = if nu.len() <= nv.len() { (nu, nv) } else { (nv, nu) };
        let common: Vec<VertexId> = small.iter().copied().filter(|w| large.contains(w)).collect();
        let mut cliques = 0;
        for (i, &a) in common.iter().enumerate() {
            let na = &self.adj[a as usize];
            cliques += common[i + 1..].iter().filter(|b| na.contains(b)).count() as u64;
        }
        let mut squares = 0;
        for &a in nu {
            let na = &self.adj[a as usize];
            let (small, large) = if na.len() <= nv.len() { (na, nv) } else { (nv, na) };
            squares += small.iter().filter(|b| large.contains(b)).count() as u64;
        }
        [common.len() as u64, cliques, squares]
    }

    /// Inserts the new edge `uv` (`u != v`).
    pub fn insert(&mut self, u: VertexId, v: VertexId) {
        let closed = self.closed_by(u, v);
        for (c, d) in self.counts.iter_mut().zip(closed) {
            *c += d;
        }
        self.link(u, v);
    }

    /// Deletes the existing edge `uv`.
    pub fn delete(&mut self, u: VertexId, v: VertexId) {
        self.unlink(u, v);
        let closed = self.closed_by(u, v);
        for (c, d) in self.counts.iter_mut().zip(closed) {
            *c -= d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgl_baselines::centralized;

    fn oracle(g: &DataGraph) -> [u64; 3] {
        PATTERNS.map(|p| centralized::count(g, &psgl_service::parse_pattern_spec(p).unwrap()))
    }

    #[test]
    fn counts_follow_inserts_and_deletes_exactly() {
        let g = psgl_graph::generators::chung_lu(150, 8.0, 2.2, 11).unwrap();
        let mut t = Tracker::new(&g, oracle(&g));
        let mut rng = Rng::new(5, 0);
        let n = g.num_vertices() as u64;
        for step in 0..120 {
            if step % 2 == 0 {
                let (u, v) = t.random_edge(&mut rng);
                t.delete(u, v);
            } else {
                let (u, v) = loop {
                    let (u, v) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
                    if u != v && !t.has_edge(u, v) {
                        break (u, v);
                    }
                };
                t.insert(u, v);
            }
            if step % 20 == 19 {
                let edges: Vec<_> = t.edges.clone();
                let now = DataGraph::from_edges(g.num_vertices(), &edges).unwrap();
                assert_eq!(t.counts(), oracle(&now), "after step {step}");
                assert_eq!(t.num_edges() as u64, now.num_edges());
            }
        }
    }
}
