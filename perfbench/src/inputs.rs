//! Seeded inputs and the oracle.
//!
//! Each workload's graph is a fixed Chung–Lu graph (the canonical graph)
//! whose vertices are renumbered by a permutation drawn from `--seed`, then
//! written as a text edge list. Renumbering changes vertex order ties, hash
//! partitioning and file layout, so every seed is a different input, but
//! it leaves every pattern count unchanged. The oracle count therefore
//! depends only on the canonical graph, and is computed once per canonical
//! content hash and pattern: `perfbench/oracle.tsv` ships the counts for
//! the canonical graphs below, and counts for any other content (after a
//! generator change) are computed by the centralized baseline and cached
//! under the output directory.

use crate::stats::Rng;
use psgl_graph::{generators, io, DataGraph, VertexId};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Parameters of a canonical Chung–Lu graph.
#[derive(Clone, Copy, Debug)]
pub struct ChungLu {
    pub vertices: usize,
    pub avg_degree: f64,
    pub gamma: f64,
    pub seed: u64,
}

/// A generated input graph.
pub struct GraphInput {
    /// The canonical graph (before renumbering).
    pub canonical: DataGraph,
    /// The renumbered graph, as written to `path`.
    pub graph: DataGraph,
    /// The edge-list file the program reads.
    pub path: PathBuf,
}

/// Generates `params`, renumbers it by a permutation drawn from `seed`,
/// and writes it to `dir/<name>.txt`, replacing the previous run's file.
pub fn chung_lu_input(
    dir: &Path,
    name: &str,
    params: ChungLu,
    seed: u64,
) -> Result<GraphInput, String> {
    let canonical =
        generators::chung_lu(params.vertices, params.avg_degree, params.gamma, params.seed)
            .map_err(|e| format!("generate {name}: {e}"))?;
    // New ids cover exactly the vertices with edges, as the edge-list
    // loader numbers them, so the program's ids are the file's.
    let mut ids: Vec<VertexId> =
        (0..canonical.num_vertices() as VertexId).filter(|&v| canonical.degree(v) > 0).collect();
    Rng::new(seed, 1).shuffle(&mut ids);
    let mut perm = vec![VertexId::MAX; canonical.num_vertices()];
    for (new, &old) in ids.iter().enumerate() {
        perm[old as usize] = new as VertexId;
    }
    let edges: Vec<(VertexId, VertexId)> =
        canonical.edges().map(|(u, v)| (perm[u as usize], perm[v as usize])).collect();
    let graph =
        DataGraph::from_edges(ids.len(), &edges).map_err(|e| format!("renumber {name}: {e}"))?;
    let path = dir.join(format!("{name}.txt"));
    io::save_edge_list(&graph, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(GraphInput { canonical, graph, path })
}

/// Shipped oracle counts: `<content hash>\t<pattern>\t<count>` per line.
const SHIPPED: &str = include_str!("../oracle.tsv");

/// The instance count of `pattern` in `canonical`, from the shipped table,
/// the cache under `dir`, or the centralized baseline (then cached).
pub fn oracle_count(dir: &Path, canonical: &DataGraph, pattern: &str) -> Result<u64, String> {
    let key = format!("{:016x}\t{pattern}", canonical.content_hash());
    let cache = dir.join("oracle-cache.tsv");
    let cached = std::fs::read_to_string(&cache).unwrap_or_default();
    for line in SHIPPED.lines().chain(cached.lines()) {
        if let Some(count) = line.strip_prefix(key.as_str()).and_then(|r| r.strip_prefix('\t')) {
            return count.trim().parse().map_err(|e| format!("oracle line {line:?}: {e}"));
        }
    }
    let p = psgl_service::parse_pattern_spec(pattern)?;
    eprintln!("computing the {pattern} oracle for graph {key:.16} (cached afterwards)");
    let count = psgl_baselines::centralized::count(canonical, &p);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&cache)
        .map_err(|e| format!("open {}: {e}", cache.display()))?;
    writeln!(f, "{key}\t{count}").map_err(|e| format!("write {}: {e}", cache.display()))?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renumbering_keeps_counts_and_seeds_repeat() {
        let dir = std::env::temp_dir().join(format!("perfbench-inputs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let params = ChungLu { vertices: 300, avg_degree: 6.0, gamma: 2.3, seed: 5 };
        let a = chung_lu_input(&dir, "g", params, 1).unwrap();
        let b = chung_lu_input(&dir, "g", params, 2).unwrap();
        let a_again = chung_lu_input(&dir, "g", params, 1).unwrap();
        assert_eq!(a.graph.content_hash(), a_again.graph.content_hash());
        assert_ne!(a.graph.content_hash(), b.graph.content_hash());
        let loaded = io::load_edge_list(&a.path).unwrap();
        assert_eq!(loaded.content_hash(), a.graph.content_hash(), "file ids are program ids");
        for spec in ["triangle", "square", "cycle:5"] {
            let p = psgl_service::parse_pattern_spec(spec).unwrap();
            let expected = psgl_baselines::centralized::count(&a.canonical, &p);
            assert_eq!(psgl_baselines::centralized::count(&b.graph, &p), expected);
            assert_eq!(oracle_count(&dir, &a.canonical, spec).unwrap(), expected);
            // Second lookup comes from the cache file.
            assert_eq!(oracle_count(&dir, &b.canonical, spec).unwrap(), expected);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
