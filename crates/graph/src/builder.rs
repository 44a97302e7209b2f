//! Graph construction with the paper's preprocessing.
//!
//! Section 7.1: *"All the real-world graphs are undirected ones created from
//! the original release by adding reciprocal edge and eliminating loops and
//! isolated nodes."* [`GraphBuilder`] implements exactly that pipeline:
//! edges are collected in arbitrary order (possibly directed, with
//! duplicates and self-loops), then symmetrized, deduplicated, stripped of
//! loops, and — when [`GraphBuilder::build`] is used — compacted so that
//! isolated vertices disappear and ids are dense.

use crate::csr::{DataGraph, VertexId};
use crate::error::GraphError;
use crate::par::{halves, map_parallel, split_in_two, split_lengths};
use std::ops::Range;

/// Accumulates raw (possibly directed / duplicated) edges and produces a
/// clean [`DataGraph`].
#[derive(Default, Clone, Debug)]
pub struct GraphBuilder {
    /// Raw directed half-edges as given; symmetrization happens at build.
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity for `edges` raw edges.
    pub fn with_capacity(edges: usize) -> Self {
        GraphBuilder { edges: Vec::with_capacity(edges) }
    }

    /// Adds one raw edge. Self-loops and duplicates are accepted here and
    /// removed at build time.
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges.push((u, v));
    }

    /// Number of raw edges added so far.
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Read-only view of the accumulated raw edges (pre-symmetrization).
    pub fn raw_edges(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Builds the graph keeping the original id space `0..n` (isolated
    /// vertices are retained). Fails if any endpoint is `>= n`.
    pub fn build_with_num_vertices(self, n: usize) -> Result<DataGraph, GraphError> {
        if n > u32::MAX as usize {
            return Err(GraphError::InvalidParameter(format!(
                "vertex count {n} exceeds u32 range"
            )));
        }
        for &(u, v) in &self.edges {
            let bad = if u as usize >= n {
                Some(u)
            } else if v as usize >= n {
                Some(v)
            } else {
                None
            };
            if let Some(x) = bad {
                return Err(GraphError::VertexOutOfRange { vertex: u64::from(x), bound: n as u64 });
            }
        }
        Ok(build_csr(n, self.edges))
    }

    /// Builds the graph with the full preprocessing of the paper: loops and
    /// duplicates removed, edges symmetrized, and isolated vertices
    /// eliminated by remapping the touched vertices onto a dense `0..n'`
    /// id space (ids keep their relative order).
    pub fn build(self) -> Result<DataGraph, GraphError> {
        let mut edges = self.edges;
        edges.retain(|(u, v)| u != v);
        let n = compact_ids(&mut edges);
        Ok(build_csr(n, edges))
    }

    /// A builder owning `edges` as its raw edges, without copying them.
    pub(crate) fn from_raw_edges(edges: Vec<(VertexId, VertexId)>) -> Self {
        GraphBuilder { edges }
    }
}

/// Renumbers the endpoints of `edges` in place onto `0..n` keeping their
/// relative order, and returns `n`, the number of distinct endpoints.
///
/// Ids are usually dense (at most the endpoint count), and then a lookup
/// table indexed by id does it in linear time; the table has at most one
/// slot per endpoint, so it is never larger than the edge list. Sparse ids,
/// e.g. hashes near `u32::MAX`, take a sort of the endpoints and a binary
/// search per endpoint instead.
fn compact_ids(edges: &mut [(VertexId, VertexId)]) -> usize {
    let Some(max) = edges.iter().map(|&(u, v)| u.max(v)).max() else { return 0 };
    if (max as usize) < 2 * edges.len() {
        compact_by_table(edges, max)
    } else {
        compact_by_sort(edges)
    }
}

/// [`compact_ids`] through a table over `0..=max`, the largest endpoint.
fn compact_by_table(edges: &mut [(VertexId, VertexId)], max: VertexId) -> usize {
    let mut table = vec![0 as VertexId; max as usize + 1];
    for &(u, v) in edges.iter() {
        table[u as usize] = 1;
        table[v as usize] = 1;
    }
    let mut n: VertexId = 0;
    for slot in &mut table {
        let touched = *slot;
        *slot = n;
        n += touched;
    }
    // Every id in 0..=max touched: the renumbering is the identity.
    if n as usize != table.len() {
        for (u, v) in edges.iter_mut() {
            *u = table[*u as usize];
            *v = table[*v as usize];
        }
    }
    n as usize
}

/// [`compact_ids`] through the sorted distinct endpoints.
fn compact_by_sort(edges: &mut [(VertexId, VertexId)]) -> usize {
    let mut touched: Vec<VertexId> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
    touched.sort_unstable();
    touched.dedup();
    let remap =
        |x: VertexId| touched.binary_search(&x).expect("every endpoint is touched") as VertexId;
    for (u, v) in edges.iter_mut() {
        *u = remap(*u);
        *v = remap(*v);
    }
    touched.len()
}

/// Symmetrizes, sorts, dedups and packs `edges` into CSR, dropping
/// self-loops; endpoints must be `< n`.
///
/// When [`split_in_two`] says so, two threads share the work by vertex:
/// each scans every edge but counts, scatters and sorts only the endpoints
/// of its own half of the vertices, so they write disjoint memory. One
/// offsets array serves as degree counter, scatter cursor and final
/// offsets.
fn build_csr(n: usize, edges: Vec<(VertexId, VertexId)>) -> DataGraph {
    let parallel = split_in_two(2 * edges.len());
    build_csr_split(n, edges, parallel)
}

/// [`build_csr`] with the thread choice made.
fn build_csr_split(n: usize, edges: Vec<(VertexId, VertexId)>, parallel: bool) -> DataGraph {
    let lengths =
        |halves: &[Range<usize>]| halves.iter().map(ExactSizeIterator::len).collect::<Vec<_>>();
    // offsets[v + 1] = degree of v, both directions.
    let mut offsets = vec![0u64; n + 1];
    let count = halves(n, n / 2, parallel);
    let degrees = split_lengths(&mut offsets[1..], lengths(&count));
    map_parallel(count.into_iter().zip(degrees).collect(), |(range, degree)| {
        for &(u, v) in edges.iter().filter(|(u, v)| u != v) {
            for x in [u, v] {
                if let Some(d) = degree.get_mut((x as usize).wrapping_sub(range.start)) {
                    *d += 1;
                }
            }
        }
    });
    // offsets[v + 1] becomes the start of v's run; the scatter advances it
    // to the run's end.
    let mut total = 0u64;
    for slot in &mut offsets[1..] {
        let degree = *slot;
        *slot = total;
        total += degree;
    }
    let start = |offsets: &[u64], v: usize| if v < n { offsets[v + 1] } else { total };
    let halves = halves(n, offsets[1..].partition_point(|&s| s < total / 2), parallel);
    let bases: Vec<u64> = halves.iter().map(|r| start(&offsets, r.start)).collect();
    let regions: Vec<usize> = halves
        .iter()
        .map(|r| (start(&offsets, r.end) - start(&offsets, r.start)) as usize)
        .collect();
    let mut adjacency = vec![0 as VertexId; total as usize];
    let cursors = split_lengths(&mut offsets[1..], lengths(&halves));
    let parts = split_lengths(&mut adjacency, regions);
    let items = halves.iter().zip(&bases).zip(cursors.into_iter().zip(parts)).collect();
    let compacted = map_parallel(items, |((range, &base), (cursor, adj))| {
        for &(u, v) in edges.iter().filter(|(u, v)| u != v) {
            for (x, y) in [(u, v), (v, u)] {
                if let Some(c) = cursor.get_mut((x as usize).wrapping_sub(range.start)) {
                    adj[(*c - base) as usize] = y;
                    *c += 1;
                }
            }
        }
        // Sort each run and dedup it, compacting toward the front of the
        // half's region; a cursor is read as its run's end before it is
        // rewritten as the compacted end, relative to the region.
        let (mut write, mut read_start) = (0, 0);
        for end in cursor.iter_mut() {
            let read_end = (*end - base) as usize;
            let run = &mut adj[read_start..read_end];
            // An edge list given in order scatters into sorted runs.
            if !run.is_sorted() {
                run.sort_unstable();
            }
            let mut prev = None;
            for i in read_start..read_end {
                let x = adj[i];
                if prev != Some(x) {
                    adj[write] = x;
                    write += 1;
                    prev = Some(x);
                }
            }
            *end = write as u64;
            read_start = read_end;
        }
        write
    });
    drop(edges);
    // Close the gap between the two halves' compacted regions.
    if let [low, high] = compacted[..] {
        let from = bases[1] as usize;
        adjacency.copy_within(from..from + high, low);
        for end in &mut offsets[halves[1].start + 1..] {
            *end += low as u64;
        }
    }
    adjacency.truncate(compacted.iter().sum());
    adjacency.shrink_to_fit();
    DataGraph::from_csr(offsets, adjacency).expect("builder produced invalid CSR")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_removes_loops_duplicates_and_isolated() {
        let mut b = GraphBuilder::new();
        // Vertices 10, 20, 30 touched; 20-20 loop ignored; (10,20) repeated
        // in both directions.
        b.add_edge(10, 20);
        b.add_edge(20, 10);
        b.add_edge(20, 20);
        b.add_edge(20, 30);
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 3); // dense remap 10->0, 20->1, 30->2
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn build_of_only_loops_gives_empty_graph() {
        let mut b = GraphBuilder::new();
        b.add_edge(5, 5);
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn build_with_num_vertices_keeps_isolated() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 2);
        let g = b.build_with_num_vertices(5).unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn build_with_num_vertices_rejects_out_of_range() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 7);
        assert!(matches!(
            b.build_with_num_vertices(5),
            Err(GraphError::VertexOutOfRange { vertex: 7, bound: 5 })
        ));
    }

    #[test]
    fn heavy_duplication_is_fully_deduped() {
        let mut b = GraphBuilder::with_capacity(300);
        for _ in 0..100 {
            b.add_edge(0, 1);
            b.add_edge(1, 2);
            b.add_edge(2, 0);
        }
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert!(g.is_symmetric());
    }

    /// The builder this module replaced: endpoints sorted and
    /// binary-searched, a cursor array beside the offsets. The tests keep
    /// it as the reference the linear-time build must match exactly.
    fn reference_build(edges: &[(VertexId, VertexId)]) -> (Vec<u64>, Vec<VertexId>) {
        let mut touched: Vec<VertexId> =
            edges.iter().filter(|(u, v)| u != v).flat_map(|&(u, v)| [u, v]).collect();
        touched.sort_unstable();
        touched.dedup();
        let n = touched.len();
        let remap = |x: VertexId| touched.binary_search(&x).unwrap() as VertexId;
        let edges: Vec<_> =
            edges.iter().filter(|(u, v)| u != v).map(|&(u, v)| (remap(u), remap(v))).collect();
        let mut offsets = vec![0u64; n + 1];
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut adjacency = vec![0; offsets[n] as usize];
        let mut cursor = offsets.clone();
        for &(u, v) in &edges {
            adjacency[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        let mut final_offsets = vec![0u64; n + 1];
        let mut out = Vec::new();
        for v in 0..n {
            let mut run = adjacency[offsets[v] as usize..offsets[v + 1] as usize].to_vec();
            run.sort_unstable();
            run.dedup();
            out.extend(run);
            final_offsets[v + 1] = out.len() as u64;
        }
        (final_offsets, out)
    }

    fn csr(g: &DataGraph) -> (Vec<u64>, Vec<VertexId>) {
        (g.offsets().to_vec(), g.vertices().flat_map(|v| g.neighbors(v).to_vec()).collect())
    }

    /// Builds `edges` through the table and the sort remap in turn.
    fn both_remaps(edges: &[(VertexId, VertexId)]) -> [(Vec<u64>, Vec<VertexId>); 2] {
        let mut edges = edges.to_vec();
        edges.retain(|(u, v)| u != v);
        let max = edges.iter().map(|&(u, v)| u.max(v)).max().unwrap_or(0);
        let mut by_table = edges.clone();
        let n_table = if edges.is_empty() { 0 } else { compact_by_table(&mut by_table, max) };
        let n_sort = compact_by_sort(&mut edges);
        [csr(&build_csr(n_table, by_table)), csr(&build_csr(n_sort, edges))]
    }

    #[test]
    fn table_and_sort_remaps_agree_on_dense_and_sparse_ids() {
        let dense = [(3, 1), (1, 2), (2, 3), (5, 5), (0, 5), (3, 1)];
        let sparse = [(900_000, 7), (7, 1_000_000), (1_000_000, 900_000), (9, 9), (8, 900_000)];
        for edges in [&dense[..], &sparse[..], &[]] {
            let [table, sort] = both_remaps(edges);
            assert_eq!(table, sort);
            assert_eq!(table, reference_build(edges));
        }
        // Ids near u32::MAX, far too sparse for a table.
        let huge = [(4_000_000_000, 7), (7, u32::MAX), (u32::MAX, 4_000_000_000), (9, 9)];
        let mut b = GraphBuilder::new();
        for &(u, v) in &huge {
            b.add_edge(u, v);
        }
        assert_eq!(csr(&b.build().unwrap()), reference_build(&huge));
    }

    proptest::proptest! {
        #[test]
        fn build_matches_the_reference_builder(
            raw in proptest::collection::vec((0u32..60, 0u32..60), 0..80),
            stretch in 1u32..20_000,
        ) {
            // `stretch` spreads the ids from dense to sparse.
            let edges: Vec<_> = raw.iter().map(|&(u, v)| (u * stretch, v * stretch)).collect();
            let [table, sort] = both_remaps(&edges);
            let expected = reference_build(&edges);
            proptest::prop_assert_eq!(&table, &expected);
            proptest::prop_assert_eq!(&sort, &expected);
            let mut b = GraphBuilder::new();
            for &(u, v) in &edges {
                b.add_edge(u, v);
            }
            proptest::prop_assert_eq!(csr(&b.build().unwrap()), expected);
        }
    }

    #[test]
    fn two_thread_csr_build_equals_one_thread() {
        // Unordered, duplicated edges with loops, below and above the floor.
        let mut state = 7u64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % bound) as VertexId
        };
        for (n, m) in [(0, 0), (1, 3), (40, 200), (3000, 50_000)] {
            let edges: Vec<_> = (0..m).map(|_| (next(n.max(1)), next(n.max(1)))).collect();
            let n = n as usize;
            let serial = csr(&build_csr_split(n, edges.clone(), false));
            assert_eq!(csr(&build_csr_split(n, edges.clone(), true)), serial, "n {n}");
            let mut b = GraphBuilder::new();
            edges.iter().for_each(|&(u, v)| b.add_edge(u, v));
            assert_eq!(csr(&b.build_with_num_vertices(n).unwrap()), serial);
        }
    }

    #[test]
    fn raw_edge_count_reflects_adds() {
        let mut b = GraphBuilder::new();
        assert_eq!(b.raw_edge_count(), 0);
        b.add_edge(1, 2);
        b.add_edge(2, 2);
        assert_eq!(b.raw_edge_count(), 2);
    }
}
