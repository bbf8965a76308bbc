//! The GXSN reader: [`Graph::open`] serves a raw-CSR snapshot as a
//! plain [`Graph`] whose two arrays are windows into the mapping.
//!
//! `neighbors(v)` is then a subslice of the page cache, never a copy, so
//! N walker threads — and N *processes* — share one physical copy of a
//! billion-edge CSR, and every accessor is the in-RAM graph's own code.
//! On x86-64 Linux the mapping is a raw `mmap` syscall (the workspace
//! takes no libc-style dependency; same precedent as the `madvise` call
//! in `csr.rs`); everywhere else, and via [`Graph::open_in_ram`], the
//! file is read into an owned aligned buffer behind the identical API.

use super::{
    as_u32s, as_u64s, ck_add, ck_mul, page_align, to_usize, Backing, SnapshotError, SnapshotHeader,
    SnapshotKind, HEADER_LEN, PAGE,
};
use crate::access::graph_fingerprint;
use crate::csr::{HubIndex, Section, MADV_HUGEPAGE, MADV_WILLNEED};
use crate::{Graph, NodeId};
use std::path::Path;
use std::sync::Arc;

/// A graph opened from a GXSN snapshot: [`Graph`] itself, under the
/// name the repository benchmark still calls.
pub type MmapGraph = Graph;

impl Graph {
    /// Opens a GXSN snapshot zero-copy (mapped where supported, RAM
    /// fallback elsewhere).
    ///
    /// Opening validates the header checksum, the exact file length, and
    /// the offset array (starts at 0, monotone, ends at the adjacency
    /// length) before any accessor can run, then builds the hub index
    /// the builder would — which range-checks every hub's list. Other
    /// neighbor *values* are trusted from the (checksummed) writer; a
    /// paranoid consumer can call [`Graph::validate_deep`] for the full
    /// O(edges) scan.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        Self::from_backing(Backing::map(path.as_ref())?)
    }

    /// Opens a GXSN snapshot by reading it fully into RAM — the
    /// portable path, and the bench's page-cache A/B baseline.
    pub fn open_in_ram<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        Self::from_backing(Backing::read_owned(path.as_ref())?)
    }

    fn from_backing(mut backing: Backing) -> Result<Self, SnapshotError> {
        let len = backing.bytes().len();
        if len < HEADER_LEN {
            return Err(SnapshotError::Truncated {
                expected: HEADER_LEN as u64,
                found: len as u64,
            });
        }
        let header = SnapshotHeader::parse(&backing.bytes()[..HEADER_LEN])?;
        if header.kind != SnapshotKind::Gxsn {
            return Err(SnapshotError::BadMagic);
        }
        if header.aux_a != 0 || header.aux_b != 0 {
            return Err(SnapshotError::Malformed { what: "GXSN reserves aux header words" });
        }
        let n = to_usize(header.num_nodes, "node count")?;
        let entries = to_usize(header.num_edges.saturating_mul(2), "adjacency entries")?;
        let off_len = ck_mul(ck_add(n, 1, "offsets entries")?, 8, "offsets bytes")?;
        let adj_len = ck_mul(entries, 4, "adjacency bytes")?;
        let adj_start = page_align(ck_add(PAGE, off_len, "layout")?, "layout")?;
        let mut total = page_align(ck_add(adj_start, adj_len, "layout")?, "layout")?;
        let ids = if header.has_id_map() {
            let ids_len = ck_mul(n, 8, "id map bytes")?;
            let ids = (total, ids_len);
            total = page_align(ck_add(total, ids_len, "layout")?, "layout")?;
            Some(ids)
        } else {
            None
        };
        if len < total {
            return Err(SnapshotError::Truncated { expected: total as u64, found: len as u64 });
        }
        if len > total {
            return Err(SnapshotError::Malformed { what: "trailing bytes after last section" });
        }
        backing.normalize_u64s(PAGE, off_len);
        backing.normalize_u32s(adj_start, adj_len);
        if let Some((start, len)) = ids {
            backing.normalize_u64s(start, len);
        }
        let backing = Arc::new(backing);
        let offsets = Section::window(&backing, as_u64s, PAGE, off_len);
        let adjacency = Section::window(&backing, as_u32s, adj_start, adj_len);
        let ids = ids.map(|(start, len)| Section::window(&backing, as_u64s, start, len));
        // Offsets must be a valid CSR index: start at 0, never decrease,
        // and end exactly at the adjacency entry count. With that, every
        // accessor's slice arithmetic is in-bounds by construction.
        if offsets.first() != Some(&0) {
            return Err(SnapshotError::Malformed { what: "offsets[0] != 0" });
        }
        if offsets.last() != Some(&(entries as u64)) {
            return Err(SnapshotError::Malformed { what: "offsets[n] != 2 * num_edges" });
        }
        if offsets.windows(2).any(|w| w[1] < w[0]) {
            return Err(SnapshotError::Malformed { what: "offsets not monotone" });
        }
        // Pure hints, in walk-priority order: fault the index arrays in
        // soon, and back them with hugepages so random neighbor probes
        // stay within TLB reach (see `csr::advise_hugepages`).
        backing.advise(0, total, MADV_WILLNEED);
        backing.advise(PAGE, adj_start + adj_len - PAGE, MADV_HUGEPAGE);
        let hubs = HubIndex::build(&offsets, &adjacency)
            .ok_or(SnapshotError::Malformed { what: "neighbor id out of range in a hub list" })?;
        Ok(Graph { offsets, adjacency, hubs, header_fingerprint: Some(header.fingerprint), ids })
    }

    /// The graph's [`graph_fingerprint`]: the value embedded (and
    /// checksummed) in the snapshot header for a graph opened from a
    /// GXSN file — O(1), what trusted-resume and the service's snapshot
    /// cache key on — else one O(edges) scan.
    pub fn fingerprint(&self) -> u64 {
        self.header_fingerprint.unwrap_or_else(|| graph_fingerprint(self))
    }

    /// Original dataset ids (`compact id → source id`), when the graph
    /// was opened from a snapshot that stores them.
    pub fn original_ids(&self) -> Option<&[u64]> {
        self.ids.as_deref()
    }

    /// True when the CSR arrays are served zero-copy from a snapshot
    /// mapping (false for graphs built in RAM and on the read-into-RAM
    /// path).
    pub fn is_mapped(&self) -> bool {
        self.adjacency.backing().is_some_and(|b| b.is_mapped())
    }

    /// Full O(edges) integrity scan: every neighbor id in range, every
    /// list strictly ascending (sorted, deduplicated, self-loop-free is
    /// implied together with symmetry of the writer), and the
    /// recomputed [`graph_fingerprint`] equal to [`Graph::fingerprint`].
    /// [`Graph::open`] skips this deliberately — the header checksum
    /// already guards against torn writes — but a consumer adopting a
    /// snapshot from an untrusted producer can insist.
    pub fn validate_deep(&self) -> Result<(), SnapshotError> {
        let n = self.num_nodes() as u64;
        for v in 0..self.num_nodes() {
            let mut prev: Option<NodeId> = None;
            for &w in self.neighbors(v as NodeId) {
                if u64::from(w) >= n {
                    return Err(SnapshotError::Malformed { what: "neighbor id out of range" });
                }
                if prev.is_some_and(|p| p >= w) {
                    return Err(SnapshotError::Malformed {
                        what: "adjacency list not strictly ascending",
                    });
                }
                prev = Some(w);
            }
        }
        if graph_fingerprint(self) != self.fingerprint() {
            return Err(SnapshotError::Malformed { what: "fingerprint mismatch" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{read_header, write_gxsn, SnapshotKind};
    use super::*;
    use crate::generators::classic;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gx_mmap_test_{}_{name}", std::process::id()));
        p
    }

    fn sample() -> Graph {
        // Star-heavy graph so a hub exists (center degree ≥ 32).
        let mut edges: Vec<(NodeId, NodeId)> = (1..40).map(|v| (0, v)).collect();
        edges.extend([(1, 2), (2, 3), (3, 4), (5, 6)]);
        Graph::from_edges_auto(&edges)
    }

    #[test]
    fn gxsn_roundtrips_structure_and_fingerprint() {
        let g = sample();
        let path = tmp("roundtrip.gxsn");
        let info = write_gxsn(&g, None, &path).expect("write");
        assert_eq!(info.kind, SnapshotKind::Gxsn);
        assert_eq!(info.num_nodes, g.num_nodes() as u64);
        assert_eq!(info.num_edges, g.num_edges() as u64);
        assert_eq!(read_header(&path).expect("header").fingerprint, info.fingerprint);

        for m in [Graph::open(&path).expect("open"), Graph::open_in_ram(&path).expect("ram")] {
            assert_eq!(m.num_nodes(), g.num_nodes());
            assert_eq!(m.num_edges(), g.num_edges());
            assert_eq!(m.fingerprint(), graph_fingerprint(&g));
            assert_eq!(m.original_ids(), None);
            for v in 0..g.num_nodes() as NodeId {
                assert_eq!(m.neighbors(v), g.neighbors(v), "node {v}");
                assert_eq!(m.degree(v), g.degree(v));
            }
            m.validate_deep().expect("deep validation");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn id_map_section_roundtrips() {
        let g = classic::path(5);
        let ids: Vec<u64> = vec![100, 205, 307, 409, 511];
        let path = tmp("ids.gxsn");
        write_gxsn(&g, Some(&ids), &path).expect("write");
        let m = Graph::open(&path).expect("open");
        assert_eq!(m.original_ids(), Some(&ids[..]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn id_map_length_mismatch_is_refused() {
        let g = classic::path(5);
        let err = write_gxsn(&g, Some(&[1, 2]), tmp("badids.gxsn")).unwrap_err();
        assert_eq!(err, SnapshotError::Malformed { what: "id map length != num_nodes" });
    }

    #[test]
    fn hub_index_matches_binary_search_fallback() {
        // The integration suite's reference graph: a degree-40 hub (star
        // center 0), a clique on its first leaves, and a long tail.
        let mut edges: Vec<(NodeId, NodeId)> = (1..=40).map(|v| (0, v)).collect();
        edges.extend((1..=8).flat_map(|u| (u + 1..=8).map(move |v| (u, v))));
        edges.extend((40..60).map(|v| (v, v + 1)));
        let g = Graph::from_edges_auto(&edges);
        let path = tmp("hubs.gxsn");
        write_gxsn(&g, None, &path).expect("write");
        for m in [Graph::open(&path).expect("open"), Graph::open_in_ram(&path).expect("ram")] {
            assert!(m.hubs.row(0).is_some(), "the degree-40 center is a hub");
            assert!(m.hubs == g.hubs, "open builds the builder's hub rows");
            for u in 0..g.num_nodes() as NodeId {
                for v in 0..g.num_nodes() as NodeId {
                    let fallback = u != v && m.neighbors(u).binary_search(&v).is_ok();
                    assert_eq!(m.has_edge(u, v), fallback, "({u},{v})");
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn out_of_range_id_in_a_hub_list_is_refused_at_open() {
        let g = sample();
        let path = tmp("badhub.gxsn");
        write_gxsn(&g, None, &path).expect("write");
        let mut bytes = std::fs::read(&path).expect("read");
        // The adjacency section starts on the page after the offsets;
        // node 0 (the hub) owns its first entries.
        let adj = PAGE + page_align((g.num_nodes() + 1) * 8, "layout").expect("small");
        bytes[adj..adj + 4].copy_from_slice(&(g.num_nodes() as u32).to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");
        for res in [Graph::open(&path), Graph::open_in_ram(&path)] {
            assert_eq!(
                res.unwrap_err(),
                SnapshotError::Malformed { what: "neighbor id out of range in a hub list" }
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_and_isolated_graphs_roundtrip() {
        for g in [Graph::from_edges(0, []).expect("empty"), Graph::from_edges(3, []).expect("iso")]
        {
            let path = tmp("empty.gxsn");
            write_gxsn(&g, None, &path).expect("write");
            let m = Graph::open(&path).expect("open");
            assert_eq!(m.num_nodes(), g.num_nodes());
            assert_eq!(m.num_edges(), 0);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn gxsc_file_is_refused_by_gxsn_reader() {
        let g = classic::path(4);
        let path = tmp("wrongkind.gxsc");
        super::super::write_gxsc(&g, None, &path).expect("write");
        assert_eq!(Graph::open(&path).unwrap_err(), SnapshotError::BadMagic);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_not_found() {
        let err = Graph::open(tmp("nonexistent.gxsn")).unwrap_err();
        assert_eq!(err, SnapshotError::Io(std::io::ErrorKind::NotFound));
    }
}
