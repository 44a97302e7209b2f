//! The *ordered graph* of Section 3.
//!
//! PSgL assigns the data graph a total order: `u < v` iff
//! `(deg(u), id(u)) < (deg(v), id(v))` lexicographically. For each vertex,
//! `nb` counts neighbors of smaller rank and `ns` neighbors of larger rank.
//! Property 1: the `nb` distribution is more skewed than the original degree
//! distribution while `ns` is more balanced — the fact Theorem 5's
//! initial-vertex rule exploits.

use crate::csr::{DataGraph, VertexId};
use crate::par::{halves, map_parallel, split_in_two, split_lengths};

/// Total vertex order derived from `(degree, id)`, with per-vertex `nb`/`ns`
/// counts precomputed and the adjacency split into its *oriented* halves:
/// `forward(v)` holds the neighbors of larger rank, `backward(v)` those of
/// smaller rank, both id-sorted. A rank window that is one-sided against a
/// known endpoint can walk the matching half instead of the full list and
/// skip the per-element rank comparison — on a skewed graph that is half
/// the intersection volume of every windowed join.
#[derive(Clone, Debug)]
pub struct OrderedGraph {
    /// `rank[v]` = position of `v` in ascending `(degree, id)` order;
    /// ranks are a permutation of `0..n`.
    rank: Vec<u32>,
    /// Number of neighbors with smaller rank ("neighbors before").
    nb: Vec<u32>,
    /// Number of neighbors with larger rank ("neighbors after").
    ns: Vec<u32>,
    /// CSR offsets into `fwd`; `fwd_off[v]..fwd_off[v + 1]` is `forward(v)`.
    fwd_off: Vec<u64>,
    /// Higher-rank neighbors, id-sorted per vertex (`ns[v]` entries each).
    fwd: Vec<VertexId>,
    /// CSR offsets into `bwd`; `bwd_off[v]..bwd_off[v + 1]` is `backward(v)`.
    bwd_off: Vec<u64>,
    /// Smaller-rank neighbors, id-sorted per vertex (`nb[v]` entries each).
    bwd: Vec<VertexId>,
}

impl OrderedGraph {
    /// Computes ranks, the `nb`/`ns` split and the oriented adjacency
    /// halves for `g` in `O(n + m)`.
    pub fn new(g: &DataGraph) -> Self {
        // Counting sort by degree: visiting ids in ascending order within
        // each degree bucket breaks ties by id, which is the `(degree, id)`
        // order.
        let mut next = vec![0u32; g.max_degree() as usize + 2];
        for v in g.vertices() {
            next[g.degree(v) as usize + 1] += 1;
        }
        for d in 1..next.len() {
            next[d] += next[d - 1];
        }
        let rank = g
            .vertices()
            .map(|v| {
                let slot = &mut next[g.degree(v) as usize];
                *slot += 1;
                *slot - 1
            })
            .collect();
        Self::from_rank(rank, g)
    }

    /// Rebuilds the `nb`/`ns` split and the oriented halves against `g`
    /// while keeping this graph's rank permutation verbatim.
    ///
    /// Dynamic-graph epochs pin the total order at base construction
    /// (re-deriving it from mutated degrees would move canonical instance
    /// representatives and break incremental parity), but the oriented
    /// halves are *adjacency*, not order — they must always reflect the
    /// graph actually being listed. `g` must have the same vertex count
    /// the ranks were derived for.
    pub fn reorient(&self, g: &DataGraph) -> Self {
        assert_eq!(
            self.rank.len(),
            g.num_vertices(),
            "reorient requires the vertex set the ranks were built for"
        );
        Self::from_rank(self.rank.clone(), g)
    }

    /// Derives `nb`/`ns` and the oriented CSR halves of `g` under a fixed
    /// rank permutation in `O(n + m)`, on two threads over the two halves
    /// of the adjacency when [`split_in_two`] says so.
    fn from_rank(rank: Vec<u32>, g: &DataGraph) -> Self {
        Self::from_rank_split(rank, g, split_in_two(g.degree_sum() as usize))
    }

    /// [`Self::from_rank`] with the thread choice made: the second thread
    /// takes the vertices from the one where half the adjacency is behind.
    fn from_rank_split(rank: Vec<u32>, g: &DataGraph, parallel: bool) -> Self {
        let n = g.num_vertices();
        let mid = g.offsets().partition_point(|&o| o < g.degree_sum() / 2).min(n);
        let halves = halves(n, mid, parallel);
        let mut nb = vec![0u32; n];
        let mut ns = vec![0u32; n];
        let lengths = || halves.iter().map(ExactSizeIterator::len);
        let parts =
            split_lengths(&mut nb, lengths()).into_iter().zip(split_lengths(&mut ns, lengths()));
        map_parallel(halves.iter().cloned().zip(parts).collect(), |(range, (nb, ns))| {
            for ((v, nb), ns) in range.zip(nb).zip(ns) {
                let v = v as VertexId;
                let rv = rank[v as usize];
                let below =
                    g.neighbors(v).iter().filter(|&&u| rank[u as usize] < rv).count() as u32;
                *nb = below;
                *ns = g.degree(v) - below;
            }
        });
        let mut fwd_off = vec![0u64; n + 1];
        let mut bwd_off = vec![0u64; n + 1];
        for v in 0..n {
            fwd_off[v + 1] = fwd_off[v] + u64::from(ns[v]);
            bwd_off[v + 1] = bwd_off[v] + u64::from(nb[v]);
        }
        let mut fwd = vec![0 as VertexId; fwd_off[n] as usize];
        let mut bwd = vec![0 as VertexId; bwd_off[n] as usize];
        let entries = |off: &[u64]| -> Vec<usize> {
            halves.iter().map(|r| (off[r.end] - off[r.start]) as usize).collect()
        };
        let parts = split_lengths(&mut fwd, entries(&fwd_off))
            .into_iter()
            .zip(split_lengths(&mut bwd, entries(&bwd_off)));
        // Each half writes its vertices' oriented halves packed in vertex
        // order. `neighbors(v)` is id-sorted, so each filtered half stays
        // id-sorted without any extra sort.
        map_parallel(halves.iter().cloned().zip(parts).collect(), |(range, (fwd, bwd))| {
            let (mut f, mut b) = (0, 0);
            for v in range {
                let rv = rank[v];
                for &u in g.neighbors(v as VertexId) {
                    if rank[u as usize] < rv {
                        bwd[b] = u;
                        b += 1;
                    } else {
                        fwd[f] = u;
                        f += 1;
                    }
                }
            }
        });
        OrderedGraph { rank, nb, ns, fwd_off, fwd, bwd_off, bwd }
    }

    /// Neighbors of `v` with larger rank, id-sorted.
    #[inline]
    pub fn forward(&self, v: VertexId) -> &[VertexId] {
        &self.fwd[self.fwd_off[v as usize] as usize..self.fwd_off[v as usize + 1] as usize]
    }

    /// Neighbors of `v` with smaller rank, id-sorted.
    #[inline]
    pub fn backward(&self, v: VertexId) -> &[VertexId] {
        &self.bwd[self.bwd_off[v as usize] as usize..self.bwd_off[v as usize + 1] as usize]
    }

    /// Rank of `v` (0 = smallest degree).
    #[inline]
    pub fn rank(&self, v: VertexId) -> u32 {
        self.rank[v as usize]
    }

    /// Whether `u < v` in the total order.
    #[inline]
    pub fn less(&self, u: VertexId, v: VertexId) -> bool {
        self.rank[u as usize] < self.rank[v as usize]
    }

    /// Number of neighbors of `v` with smaller rank.
    #[inline]
    pub fn nb(&self, v: VertexId) -> u32 {
        self.nb[v as usize]
    }

    /// Number of neighbors of `v` with larger rank.
    #[inline]
    pub fn ns(&self, v: VertexId) -> u32 {
        self.ns[v as usize]
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// True for the empty graph.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// Vertices in ascending rank order.
    pub fn vertices_by_rank(&self) -> Vec<VertexId> {
        let mut by_rank = vec![0 as VertexId; self.rank.len()];
        for (v, &r) in self.rank.iter().enumerate() {
            by_rank[r as usize] = v as VertexId;
        }
        by_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Star: center 0 with leaves 1..=4.
    fn star() -> DataGraph {
        DataGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap()
    }

    #[test]
    fn rank_orders_by_degree_then_id() {
        let g = star();
        let o = OrderedGraph::new(&g);
        // Leaves (deg 1) rank below the center (deg 4); ties break by id.
        assert_eq!(o.rank(1), 0);
        assert_eq!(o.rank(2), 1);
        assert_eq!(o.rank(3), 2);
        assert_eq!(o.rank(4), 3);
        assert_eq!(o.rank(0), 4);
        assert!(o.less(1, 0));
        assert!(!o.less(0, 1));
    }

    #[test]
    fn nb_ns_split_sums_to_degree() {
        let g = star();
        let o = OrderedGraph::new(&g);
        for v in g.vertices() {
            assert_eq!(o.nb(v) + o.ns(v), g.degree(v));
        }
        // The center sees all leaves below it; leaves see the center above.
        assert_eq!(o.nb(0), 4);
        assert_eq!(o.ns(0), 0);
        assert_eq!(o.nb(1), 0);
        assert_eq!(o.ns(1), 1);
    }

    #[test]
    fn sum_nb_equals_sum_ns_equals_edge_count() {
        // Each edge contributes exactly one `nb` (at its larger end) and one
        // `ns` (at its smaller end): Σnb = Σns = |E|, used in Theorem 5.
        let g = DataGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2)])
            .unwrap();
        let o = OrderedGraph::new(&g);
        let sum_nb: u64 = g.vertices().map(|v| u64::from(o.nb(v))).sum();
        let sum_ns: u64 = g.vertices().map(|v| u64::from(o.ns(v))).sum();
        assert_eq!(sum_nb, g.num_edges());
        assert_eq!(sum_ns, g.num_edges());
    }

    #[test]
    fn vertices_by_rank_is_inverse_permutation() {
        let g = star();
        let o = OrderedGraph::new(&g);
        let by_rank = o.vertices_by_rank();
        assert_eq!(by_rank, vec![1, 2, 3, 4, 0]);
        for (r, &v) in by_rank.iter().enumerate() {
            assert_eq!(o.rank(v) as usize, r);
        }
    }

    /// The rank of `(degree, id)` by a comparison sort, as it was computed
    /// before the counting sort.
    fn sorted_rank(g: &DataGraph) -> Vec<u32> {
        let mut by_rank: Vec<VertexId> = g.vertices().collect();
        by_rank.sort_unstable_by_key(|&v| (g.degree(v), v));
        let mut rank = vec![0u32; g.num_vertices()];
        for (r, &v) in by_rank.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        rank
    }

    fn assert_same(a: &OrderedGraph, b: &OrderedGraph) {
        assert_eq!(a.rank, b.rank);
        assert_eq!((&a.nb, &a.ns), (&b.nb, &b.ns));
        assert_eq!((&a.fwd_off, &a.fwd), (&b.fwd_off, &b.fwd));
        assert_eq!((&a.bwd_off, &a.bwd), (&b.bwd_off, &b.bwd));
    }

    #[test]
    fn counting_sort_rank_equals_comparison_sort() {
        let cycle: Vec<_> = (0..50u32).map(|v| (v, (v + 1) % 50)).collect();
        let clique: Vec<_> = (0..9u32).flat_map(|u| (u + 1..9).map(move |v| (u, v))).collect();
        let graphs = [
            DataGraph::from_edges(0, &[]).unwrap(),
            DataGraph::from_edges(4, &[]).unwrap(),
            DataGraph::from_edges(50, &cycle).unwrap(),
            DataGraph::from_edges(9, &clique).unwrap(),
            star(),
            crate::generators::chung_lu(2000, 6.0, 2.1, 3).unwrap(),
        ];
        for g in &graphs {
            assert_eq!(OrderedGraph::new(g).rank, sorted_rank(g));
        }
    }

    #[test]
    fn parallel_split_equals_serial_below_and_above_the_floor() {
        let small = crate::generators::chung_lu(500, 4.0, 2.3, 1).unwrap();
        let large = crate::generators::chung_lu(20_000, 8.0, 2.5, 2).unwrap();
        assert!((small.degree_sum() as usize) < crate::par::PARALLEL_FLOOR);
        assert!((large.degree_sum() as usize) >= crate::par::PARALLEL_FLOOR);
        for g in [&small, &large, &star(), &DataGraph::from_edges(0, &[]).unwrap()] {
            let rank = sorted_rank(g);
            let serial = OrderedGraph::from_rank_split(rank.clone(), g, false);
            assert_same(&OrderedGraph::from_rank_split(rank, g, true), &serial);
            assert_same(&OrderedGraph::new(g), &serial);
            assert_same(&serial.reorient(g), &serial);
        }
    }

    #[test]
    fn empty_graph_ordering() {
        let g = DataGraph::from_edges(0, &[]).unwrap();
        let o = OrderedGraph::new(&g);
        assert!(o.is_empty());
        assert_eq!(o.len(), 0);
        assert!(o.vertices_by_rank().is_empty());
    }
}
