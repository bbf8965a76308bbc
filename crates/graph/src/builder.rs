//! Mutable edge accumulation that normalizes into a [`Graph`].

use crate::csr::Graph;
use crate::error::GraphError;
use crate::NodeId;

/// Accumulates edges, then normalizes (sort, dedup, drop self-loops) into a
/// CSR [`Graph`].
///
/// The builder is deliberately forgiving: duplicate edges and self-loops are
/// legal inputs and are removed at `build` time, because real edge-list
/// files (SNAP, KONECT) routinely contain both.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph over nodes `0..num_nodes`.
    pub fn new(num_nodes: usize) -> Self {
        Self { num_nodes, edges: Vec::new() }
    }

    /// Pre-allocates space for `n` edges.
    pub fn with_edge_capacity(num_nodes: usize, n: usize) -> Self {
        Self { num_nodes, edges: Vec::with_capacity(n) }
    }

    /// Number of nodes the builder was declared with.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges accumulated so far (before dedup).
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge. Self-loops are accepted and dropped at
    /// build time. Errors if an endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        for &x in &[u, v] {
            if x as usize >= self.num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node: x as u64,
                    num_nodes: self.num_nodes,
                });
            }
        }
        self.edges.push(if u <= v { (u, v) } else { (v, u) });
        Ok(())
    }

    /// Adds an edge without bounds checking (debug-asserted). For hot
    /// generator loops where endpoints are in range by construction.
    pub fn add_edge_unchecked(&mut self, u: NodeId, v: NodeId) {
        debug_assert!((u as usize) < self.num_nodes && (v as usize) < self.num_nodes);
        self.edges.push(if u <= v { (u, v) } else { (v, u) });
    }

    /// Normalizes and freezes into a [`Graph`].
    pub fn build(mut self) -> Graph {
        // Sort + dedup the canonical (min, max) pairs, then expand to both
        // directions with counting sort by source.
        self.edges.sort_unstable();
        self.edges.dedup();
        self.edges.retain(|&(u, v)| u != v);

        let n = self.num_nodes;
        let mut degree = vec![0usize; n];
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
        // Advise hugepage backing *before* the fill loops below fault the
        // pages in: walkers hit these two arrays at random, and for
        // DRAM-sized graphs 4 KiB paging costs a TLB walk per step (and
        // drops the batched engine's prefetch hints). See `advise_hugepages`.
        crate::csr::advise_hugepages(offsets.as_ptr() as *const u8, (n + 1) * size_of::<u64>());
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc as u64);
        }
        let mut cursor: Vec<usize> = offsets[..n].iter().map(|&o| o as usize).collect();
        let mut adjacency = Vec::with_capacity(acc);
        crate::csr::advise_hugepages(adjacency.as_ptr() as *const u8, acc * size_of::<NodeId>());
        adjacency.resize(acc, 0 as NodeId);
        for &(u, v) in &self.edges {
            adjacency[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Canonical pairs were sorted by (u, v); per-source slices for `u`
        // are therefore already sorted for the forward direction, but the
        // reverse direction interleaves, so sort each list.
        for v in 0..n {
            adjacency[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        Graph::from_csr_parts(offsets, adjacency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_adjacency_lists() {
        let mut b = GraphBuilder::new(5);
        for (u, v) in [(4, 0), (2, 0), (3, 0), (1, 0)] {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn capacity_constructor_and_counters() {
        let mut b = GraphBuilder::with_edge_capacity(3, 10);
        assert_eq!(b.num_nodes(), 3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap();
        assert_eq!(b.raw_edge_count(), 2);
        assert_eq!(b.build().num_edges(), 1);
    }

    #[test]
    fn unchecked_path_matches_checked() {
        let mut a = GraphBuilder::new(4);
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (2, 3), (1, 2)] {
            a.add_edge(u, v).unwrap();
            b.add_edge_unchecked(u, v);
        }
        assert_eq!(a.build(), b.build());
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn isolated_nodes_have_empty_lists() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.neighbors(3), &[] as &[NodeId]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// CSR invariants hold for arbitrary edge soup: sorted lists, no
        /// loops, no duplicates, symmetric adjacency.
        #[test]
        fn csr_invariants(edges in proptest::collection::vec((0u32..50, 0u32..50), 0..300)) {
            let mut b = GraphBuilder::new(50);
            for (u, v) in edges {
                b.add_edge(u, v).unwrap();
            }
            let g = b.build();
            for v in 0..50u32 {
                let ns = g.neighbors(v);
                prop_assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
                prop_assert!(!ns.contains(&v), "no self loop");
                for &w in ns {
                    prop_assert!(g.neighbors(w).contains(&v), "symmetric");
                }
            }
            prop_assert_eq!(g.degree_sum(), 2 * g.num_edges());
        }
    }
}
