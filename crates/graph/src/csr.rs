//! Immutable CSR (compressed sparse row) graph storage.
//!
//! The representation is the workhorse of the whole workspace: adjacency
//! lists are stored back-to-back in one `Vec<NodeId>`, per-node slices are
//! delimited by an offsets array, and every adjacency list is sorted so
//! `has_edge` is a binary search. This matches the access pattern of the
//! paper's walks: O(1) uniform neighbor selection and O(log d) adjacency
//! probes (the "k − 1 binary searches" of Section 5).

use crate::builder::GraphBuilder;
use crate::disk::Backing;
use crate::error::GraphError;
use crate::NodeId;
use std::sync::Arc;

/// Issues a read prefetch for the cache line holding `p` (T0 hint —
/// all cache levels). On non-x86-64 targets this is a no-op, so callers
/// can hint unconditionally.
///
/// `PREFETCHT0` never faults, regardless of the address, so hinting a
/// pointer that is never dereferenced is sound — which is exactly how
/// the batched walk engine uses it: the *next* step's line is requested
/// while the current step's scoring work is still in flight. A real
/// (discarded) demand load was tried here instead — it would also walk
/// the page table on a TLB miss, which `PREFETCHT0` silently drops —
/// but measured strictly slower on DRAM-sized graphs: demand misses
/// occupy the ROB until in-order retirement catches up, stalling the
/// very lanes the hint was meant to unblock.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a pure cache hint; it performs no memory
    // access that can fault and has no architectural side effects.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Best-effort `madvise(MADV_HUGEPAGE)` on the buffer behind `ptr..+bytes`.
///
/// CSR arrays for DRAM-sized graphs span hundreds of megabytes; under 4 KiB
/// pages that is far beyond TLB reach, so every random neighbor-slice access
/// pays a page walk on top of the cache miss — and `PREFETCHT0` (see
/// [`prefetch_read`]) is silently dropped on TLB misses, which blunts the
/// batched engine's one-tick-ahead hints exactly where they matter most.
/// Backing the arrays with 2 MiB transparent hugepages keeps the whole CSR
/// within TLB reach (a ~1 GiB adjacency array needs ~512 entries).
///
/// Callers advise *before* populating the buffer: with THP in `madvise`
/// mode the kernel then faults the region in as hugepages synchronously,
/// instead of waiting for `khugepaged` to collapse already-faulted 4 KiB
/// pages minutes later. The advice is a pure hint — the kernel may ignore
/// it (THP disabled, memory pressure) and the return value is deliberately
/// discarded; correctness never depends on it.
///
/// Implemented as a raw `madvise` syscall on x86-64 Linux (`std` exposes no
/// allocator hints and the workspace takes no libc-style dependency); a
/// no-op everywhere else.
pub(crate) fn advise_hugepages(ptr: *const u8, bytes: usize) {
    madvise_raw(ptr, bytes, MADV_HUGEPAGE);
}

/// `madvise` advice values used by the workspace (Linux ABI).
pub(crate) const MADV_WILLNEED: usize = 3;
pub(crate) const MADV_HUGEPAGE: usize = 14;

/// Best-effort raw `madvise(advice)` over the pages fully inside
/// `ptr..ptr+bytes` — the shared syscall plumbing behind
/// [`advise_hugepages`] and the mapped-snapshot reader's
/// `MADV_WILLNEED`/`MADV_HUGEPAGE` hints. Pure hint: the return value is
/// discarded and correctness never depends on the kernel honoring it.
/// No-op off x86-64 Linux.
pub(crate) fn madvise_raw(ptr: *const u8, bytes: usize, advice: usize) {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SYS_MADVISE: usize = 28;
        const PAGE: usize = 4096;
        // `madvise` demands a page-aligned start; round the range inward so
        // a mid-page Vec allocation advises only the pages it fully owns.
        let start = (ptr as usize).next_multiple_of(PAGE);
        let end = (ptr as usize).saturating_add(bytes) & !(PAGE - 1);
        if end <= start {
            return;
        }
        let mut _ret: isize;
        // SAFETY: the syscall only attaches advice to VMAs in our own
        // address space; it reads/writes no user memory through the pointer
        // and EINVAL/ENOMEM outcomes are ignored by design. The asm block
        // declares every register the `syscall` instruction clobbers
        // (rax, rcx, r11).
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MADVISE as isize => _ret,
                in("rdi") start,
                in("rsi") end - start,
                in("rdx") advice,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        let _ = (ptr, bytes, advice);
    }
}

/// An immutable, undirected, simple graph in CSR form.
///
/// Invariants (enforced by [`GraphBuilder`], and checked at open for
/// GXSN snapshots — see [`Graph::open`]):
/// * no self-loops, no duplicate edges;
/// * each adjacency list is sorted ascending;
/// * edge `(u, v)` appears in both `neighbors(u)` and `neighbors(v)`.
///
/// The two CSR arrays are either owned `Vec`s (graphs from the builder,
/// the loaders and the generators) or windows into a shared read-only
/// GXSN snapshot mapping ([`Graph::open`]). Accessors read plain slices
/// either way, so every walk runs the same code on both.
///
/// Equality is structural: two graphs are equal when their CSR arrays
/// are, whatever their storage.
#[derive(Clone)]
pub struct Graph {
    pub(crate) offsets: Section<u64>,
    pub(crate) adjacency: Section<NodeId>,
    pub(crate) hubs: HubIndex,
    /// The fingerprint embedded in the header of the GXSN snapshot this
    /// graph was opened from; `None` for graphs built in memory.
    pub(crate) header_fingerprint: Option<u64>,
    /// The snapshot's original-id section, when it has one.
    pub(crate) ids: Option<Section<u64>>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets[..] == other.offsets[..] && self.adjacency[..] == other.adjacency[..]
    }
}

impl Eq for Graph {}

/// One read-only CSR array: an owned `Vec`, or a window into a shared
/// snapshot [`Backing`]. It derefs to a plain slice through a pointer
/// fixed at construction, so reads never branch on where the array
/// lives.
pub(crate) struct Section<T> {
    ptr: *const T,
    len: usize,
    owner: Owner<T>,
}

/// What keeps a [`Section`]'s memory alive.
enum Owner<T> {
    Vec(Vec<T>),
    Snapshot(Arc<Backing>),
}

// SAFETY: `ptr` and `len` only address memory `owner` keeps alive and
// nothing mutates, so sharing a `Section` shares a `&[T]` (needs
// `T: Sync`). `owner` is a `Vec<T>` or an `Arc` of the `Send + Sync`
// backing, so sending a `Section` may drop `T`s on the other thread
// (needs `T: Send`) and shares them with clones left behind.
unsafe impl<T: Sync> Sync for Section<T> {}
// SAFETY: as above.
unsafe impl<T: Send + Sync> Send for Section<T> {}

impl<T> From<Vec<T>> for Section<T> {
    fn from(v: Vec<T>) -> Self {
        Self { ptr: v.as_ptr(), len: v.len(), owner: Owner::Vec(v) }
    }
}

impl<T> Section<T> {
    /// The `len` bytes at byte `start` of `backing`, viewed as `[T]` by
    /// `view` (`disk::as_u64s` / `disk::as_u32s`). The caller checks the
    /// range against the backing's length first.
    pub(crate) fn window(
        backing: &Arc<Backing>,
        view: fn(&[u8]) -> &[T],
        start: usize,
        len: usize,
    ) -> Self {
        let s = view(&backing.bytes()[start..start + len]);
        Self { ptr: s.as_ptr(), len: s.len(), owner: Owner::Snapshot(Arc::clone(backing)) }
    }

    /// The snapshot backing this array is a window into, if any.
    pub(crate) fn backing(&self) -> Option<&Backing> {
        match &self.owner {
            Owner::Vec(_) => None,
            Owner::Snapshot(b) => Some(b),
        }
    }
}

impl<T> std::ops::Deref for Section<T> {
    type Target = [T];

    #[inline(always)]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr..ptr + len` is initialized memory that `owner`
        // keeps alive and nothing mutates: a `Vec`'s heap buffer does not
        // move with the `Vec` and is never written after construction,
        // and a snapshot window lies inside the bytes the `Arc<Backing>`
        // pins (mapped or owned, they never move either).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Clone> Clone for Section<T> {
    fn clone(&self) -> Self {
        match &self.owner {
            Owner::Vec(v) => Self::from(v.clone()),
            Owner::Snapshot(b) => {
                Self { ptr: self.ptr, len: self.len, owner: Owner::Snapshot(Arc::clone(b)) }
            }
        }
    }
}

/// Dense bitset adjacency for *hub* nodes (degree ≥ `hub_threshold`),
/// making `has_edge` O(1) when either endpoint is a hub — the common
/// case on power-law graphs, where walks spend most steps around hubs
/// and the binary-search probe is deepest exactly there.
///
/// Memory is bounded: a node qualifies only when its degree is at least
/// `n / 64`, so a hub's bitset row (n bits) costs at most 64 bits per
/// adjacency entry it replaces, and all rows together cost O(|E|).
#[derive(Clone, PartialEq, Eq, Default)]
pub(crate) struct HubIndex {
    /// `row_of[v]` = bitset row of hub `v`, or `u32::MAX` for non-hubs.
    /// Empty when the graph has no hubs.
    row_of: Vec<u32>,
    /// Words per row: `ceil(n / 64)`.
    words: usize,
    /// Concatenated rows.
    bits: Vec<u64>,
}

/// Degree at or above which a node gets a dense adjacency bitset.
///
/// The floor of 32 (rather than 64) roughly doubles hub coverage on
/// small and mid-size graphs for the remaining `has_edge` consumers —
/// the d ≥ 3 subset-connectivity checks of `GdWalk`/`gd_state_degree`
/// (O(d²) probes per state, degree-biased toward hubs), the baseline
/// samplers, and induced-mask classification. (The sliding window's
/// per-step probes no longer route through `has_edge`: they
/// binary-search the entering node's own list, see
/// `NodeWindow::acquire`.) The memory bound is unchanged in the regime
/// where it matters: for large graphs `n / 64` dominates the floor,
/// keeping total row storage O(|E|).
#[inline]
pub(crate) fn hub_threshold(num_nodes: usize) -> usize {
    (num_nodes / 64).max(32)
}

impl HubIndex {
    /// Scans the CSR arrays and builds rows for every hub. `None` when a
    /// hub's list holds an id `>= n`, which only a corrupt snapshot body
    /// can contain: the builder, the loaders and the generators emit
    /// in-range ids by construction.
    pub(crate) fn build(offsets: &[u64], adjacency: &[NodeId]) -> Option<Self> {
        let n = offsets.len() - 1;
        let threshold = hub_threshold(n) as u64;
        let hubs: Vec<usize> =
            (0..n).filter(|&v| offsets[v + 1] - offsets[v] >= threshold).collect();
        if hubs.is_empty() {
            return Some(Self::default());
        }
        let words = n.div_ceil(64);
        let mut row_of = vec![u32::MAX; n];
        let mut bits = vec![0u64; hubs.len() * words];
        for (row, &v) in hubs.iter().enumerate() {
            row_of[v] = row as u32;
            let base = row * words;
            for &w in &adjacency[offsets[v] as usize..offsets[v + 1] as usize] {
                if w as usize >= n {
                    return None;
                }
                bits[base + w as usize / 64] |= 1 << (w % 64);
            }
        }
        Some(Self { row_of, words, bits })
    }

    /// True when the graph has no hubs (fast-path bypass).
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Bitset row of `v`, if `v` is a hub.
    #[inline]
    pub(crate) fn row(&self, v: NodeId) -> Option<usize> {
        match self.row_of[v as usize] {
            u32::MAX => None,
            r => Some(r as usize),
        }
    }

    /// Whether hub row `row` contains `v`.
    #[inline]
    pub(crate) fn test(&self, row: usize, v: NodeId) -> bool {
        self.bits[row * self.words + v as usize / 64] & (1 << (v % 64)) != 0
    }
}

impl Graph {
    /// Builds a graph from an edge list over nodes `0..num_nodes`.
    ///
    /// Self-loops and duplicate edges are silently dropped (the paper works
    /// on simple graphs). Returns an error if an endpoint is out of range.
    pub fn from_edges(
        num_nodes: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(num_nodes);
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Builds a graph from an edge list, inferring the node count as
    /// `max endpoint + 1`.
    ///
    /// Infallible: every endpoint is in range by construction of the
    /// inferred node count, so no error path exists (unlike
    /// [`Graph::from_edges`], whose caller-supplied count can be
    /// exceeded). The builder is fed directly rather than routed through
    /// the fallible constructor to keep that guarantee structural.
    pub fn from_edges_auto(edges: &[(NodeId, NodeId)]) -> Self {
        let n = edges.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0);
        let mut b = GraphBuilder::with_edge_capacity(n, edges.len());
        for &(u, v) in edges {
            b.add_edge_unchecked(u, v);
        }
        b.build()
    }

    /// Assembles a graph directly from already-built CSR arrays, building
    /// only the hub index; the `Vec`s are kept, not copied. The caller
    /// must guarantee the [`Graph`] invariants (sorted, deduplicated,
    /// symmetric, self-loop-free adjacency; `offsets.len() == num_nodes +
    /// 1` with `offsets[0] == 0` and `offsets[n] == adjacency.len()`).
    /// Used by the builder and the streaming edge-list loader.
    pub(crate) fn from_csr_parts(offsets: Vec<u64>, adjacency: Vec<NodeId>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap_or(&0), adjacency.len() as u64);
        // In-range ids make `build` succeed; an empty index would still be
        // correct, only slower (`has_edge` falls back to binary search).
        let hubs = HubIndex::build(&offsets, &adjacency).unwrap_or_default();
        Self {
            offsets: offsets.into(),
            adjacency: adjacency.into(),
            hubs,
            header_fingerprint: None,
            ids: None,
        }
    }

    /// Number of nodes (including isolated ones).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.adjacency[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Whether the undirected edge `(u, v)` exists. O(1) bitset probe
    /// when either endpoint is a hub (degree ≥ `hub_threshold`), binary
    /// search on the smaller adjacency list otherwise.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        if !self.hubs.is_empty() {
            if let Some(row) = self.hubs.row(u) {
                return self.hubs.test(row, v);
            }
            if let Some(row) = self.hubs.row(v) {
                return self.hubs.test(row, u);
            }
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// The `i`-th neighbor of `v` (`i < degree(v)`), with a single
    /// offset load.
    #[inline]
    pub fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId {
        debug_assert!(i < self.degree(v), "neighbor_at({v}, {i}) out of range");
        self.adjacency[self.offsets[v as usize] as usize + i]
    }

    /// Hints the CPU to pull `v`'s CSR offset pair into cache ahead of a
    /// [`Graph::degree`] or [`Graph::neighbors`] call. Purely a
    /// performance hint: never faults, never changes observable state,
    /// and compiles to nothing off x86-64. Out-of-range `v` is a silent
    /// no-op (the address is computed without loading through it).
    // gx-lint: no_alloc
    #[inline(always)]
    pub fn prefetch_degree(&self, v: NodeId) {
        let v = v as usize;
        if v + 1 < self.offsets.len() {
            // `offsets[v]` and `offsets[v + 1]` are 8 bytes apart, so a
            // single line fetch covers both loads `degree` will issue.
            prefetch_read(self.offsets.as_ptr().wrapping_add(v));
        }
    }

    /// Hints the CPU to pull the probe lines of `v`'s adjacency slice
    /// into cache ahead of a [`Graph::neighbors`] walk or binary search
    /// — the slice head, and for longer lists the midpoint (a binary
    /// search's first probe, whose next level stays within a line of
    /// the head or midpoint for all but the heaviest hubs; quartile
    /// pulls were tried and measured flat — extra hints past the first
    /// search level just crowd the line-fill buffers, which silently
    /// drop prefetches when full). Costs one offset load
    /// (cheap when [`Graph::prefetch_degree`] ran earlier, or when the
    /// caller just read the degree); same no-fault, no-op-off-x86-64
    /// contract as [`Graph::prefetch_degree`].
    // gx-lint: no_alloc
    #[inline(always)]
    pub fn prefetch_neighbors(&self, v: NodeId) {
        let v = v as usize;
        if v + 1 < self.offsets.len() {
            let start = self.offsets[v] as usize;
            let len = (self.offsets[v + 1] - self.offsets[v]) as usize;
            let base = self.adjacency.as_ptr();
            prefetch_read(base.wrapping_add(start));
            if len > 16 {
                prefetch_read(base.wrapping_add(start + len / 2));
            }
        }
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Sum of degrees, i.e. `2|E|`.
    #[inline]
    pub fn degree_sum(&self) -> usize {
        self.adjacency.len()
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes()).map(|v| self.degree(v as NodeId)).max().unwrap_or(0)
    }

    /// Extracts the induced subgraph on `keep` (nodes renumbered to
    /// `0..keep.len()` in the given order). `keep` must not contain
    /// duplicates. Returns the subgraph together with the mapping from new
    /// id to original id (a copy of `keep`).
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut remap = vec![NodeId::MAX; self.num_nodes()];
        for (new, &old) in keep.iter().enumerate() {
            debug_assert!(remap[old as usize] == NodeId::MAX, "duplicate node in keep");
            remap[old as usize] = new as NodeId;
        }
        let mut b = GraphBuilder::new(keep.len());
        for &old in keep {
            let new_u = remap[old as usize];
            for &w in self.neighbors(old) {
                let new_w = remap[w as usize];
                if new_w != NodeId::MAX && new_u < new_w {
                    b.add_edge(new_u, new_w).expect("remapped ids in range");
                }
            }
        }
        (b.build(), keep.to_vec())
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("num_nodes", &self.num_nodes())
            .field("num_edges", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 4-node example graph of the paper's Figure 1:
    /// edges {1-2, 1-3, 1-4, 2-3, 3-4} with nodes relabeled to 0..4.
    pub(crate) fn figure1_graph() -> Graph {
        Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = figure1_graph();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 2);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.degree_sum(), 10);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn has_edge_is_symmetric_and_rejects_loops() {
        let g = figure1_graph();
        for u in 0..4u32 {
            assert!(!g.has_edge(u, u));
            for v in 0..4u32 {
                assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
            }
        }
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = figure1_graph();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn duplicate_and_loop_edges_are_dropped() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn out_of_range_edge_is_an_error() {
        let err = Graph::from_edges(2, [(0, 5)]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, num_nodes: 2 }));
    }

    #[test]
    fn from_edges_auto_infers_size() {
        let g = Graph::from_edges_auto(&[(0, 7), (3, 4)]);
        assert_eq!(g.num_nodes(), 8);
        assert_eq!(g.num_edges(), 2);
        let empty = Graph::from_edges_auto(&[]);
        assert_eq!(empty.num_nodes(), 0);
        assert_eq!(empty.num_edges(), 0);
    }

    #[test]
    fn hub_fast_path_agrees_with_binary_search() {
        // Star with 200 leaves: the hub's degree (200) crosses the
        // threshold max(64, 201/64) = 64, the leaves stay below it.
        let hub = 0u32;
        let edges: Vec<(NodeId, NodeId)> = (1..=200).map(|v| (hub, v)).collect();
        let g = Graph::from_edges(201, edges.iter().copied()).unwrap();
        assert!(!g.hubs.is_empty(), "star center must be indexed as a hub");
        assert!(g.hubs.row(hub).is_some());
        assert!(g.hubs.row(1).is_none());
        for v in 1..=200u32 {
            assert!(g.has_edge(hub, v));
            assert!(g.has_edge(v, hub));
        }
        assert!(!g.has_edge(1, 2));
        assert!(!g.has_edge(hub, hub));
    }

    #[test]
    fn small_graphs_have_no_hub_index() {
        let g = figure1_graph();
        assert!(g.hubs.is_empty(), "degrees below 64 never qualify");
    }

    #[test]
    fn hub_threshold_scales_with_graph_size() {
        assert_eq!(super::hub_threshold(10), 32);
        assert_eq!(super::hub_threshold(32 * 64), 32);
        assert_eq!(super::hub_threshold(6400 * 64), 6400);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = figure1_graph();
        // keep nodes {0, 1, 2}: triangle
        let (sub, map) = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(map, vec![0, 1, 2]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 3);
        // keep nodes {1, 3}: no edge between them
        let (sub, _) = g.induced_subgraph(&[1, 3]);
        assert_eq!(sub.num_edges(), 0);
    }

    #[test]
    fn induced_subgraph_respects_order() {
        let g = figure1_graph();
        let (sub, map) = g.induced_subgraph(&[3, 0]);
        assert_eq!(map, vec![3, 0]);
        // original edge (0,3) becomes (1,0)
        assert!(sub.has_edge(0, 1));
    }

    #[test]
    fn debug_format_is_compact() {
        let g = figure1_graph();
        let s = format!("{g:?}");
        assert!(s.contains("num_nodes"));
        assert!(s.contains("num_edges"));
    }
}
