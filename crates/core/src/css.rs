//! Corresponding state sampling (paper §4.1, Algorithm 3).
//!
//! The basic estimator de-biases a sample by `α^k_i · π_e(X^{(l)})`, which
//! only uses the degrees of the states the walk *actually* visited. CSS
//! instead divides by the full sampling probability
//! `p(X^{(l)}) = Σ_{X' ∈ C(s)} π_e(X')` — the probability that the
//! subgraph `s` is generated in *any* visiting order — which uses the
//! degree information of every node in the subgraph (the paper's Table 4
//! examples) and provably never increases the estimator's variance
//! (Lemma 5).
//!
//! # Dense-table layout
//!
//! The covering sequences of a sampled subgraph depend only on its edge
//! mask, so the per-(k, d) structure is precomputed *once per process*
//! into a dense, direct-indexed table (`DenseCss`, shared via
//! `OnceLock` across estimators and walker threads) instead of a lazily
//! filled `HashMap<(k, mask), _>`:
//!
//! * `entries[mask]` — one fixed-width record per edge mask (`2^C(k,2)`
//!   entries; masks fit `u32` for k ≤ 6), holding offsets into two flat
//!   arenas. Disconnected masks keep the all-zero record and are never
//!   queried (a valid window always induces a connected subgraph).
//! * `subset_bits` / `subset_pos` — the connected d-subsets of every
//!   mask, concatenated; `subset_pos` pre-extracts each subset's two
//!   lowest node positions so the d ≤ 2 degree formulas are pure array
//!   loads at sample time.
//! * `interiors` — the interior subset-indices of every covering
//!   sequence, flattened with constant stride `l − 2` (see
//!   [`gx_graphlets::alpha::CoveringSequences::flat_interiors`]).
//!
//! # Why the hot loop is allocation- and hash-free
//!
//! Per sample, [`CssWeights::sampling_probability_windowed`] performs: one
//! array index into `entries` (no hashing), one pass over the mask's
//! subsets computing `1/d_eff` into a fixed stack array (`recip`), and one
//! streaming pass over the mask's `interiors` slice accumulating the sum
//! of products. Subset degrees come from the [`NodeWindow`]'s cached slot
//! degrees (d ≤ 2) or the window's own recorded state degrees (d ≥ 3,
//! falling back to scratch-reusing neighbor enumeration only for subsets
//! the walk did not visit) — the graph is not touched at all for d ≤ 2.
//! Nothing is heap-allocated and nothing is recomputed that the walk
//! already paid for, which is exactly the paper's Lemma-5 pitch: CSS
//! reuses observed degree information, it does not buy new information.
//!
//! Summation order is identical to the seed `HashMap` implementation
//! (same subset enumeration, same covering-sequence order, same fold
//! direction), so results are bit-for-bit identical — enforced by the
//! exhaustive oracle test at the bottom of this file.

use crate::window::NodeWindow;
use gx_graph::{GraphAccess, NodeId};
use gx_graphlets::alpha::covering_sequences;
use gx_graphlets::mask::num_pairs;
use gx_graphlets::SmallGraph;
use gx_walks::{effective_degree, effective_degree_recip, gd_state_degree_with, GdDegreeScratch};
use std::sync::OnceLock;

/// Entries in the shared reciprocal table (covers effective degrees up to
/// 4095; larger degrees fall back to one division).
const RECIP_TABLE: usize = 4096;

/// `recip_table()[d] = 1.0 / d as f64` — IEEE division is deterministic,
/// so the lookup is bit-identical to dividing on the spot, and it turns
/// the per-subset division (the dominant cost of a CSS sample: ~6 `divsd`
/// at 13+ cycles each) into one L1/L2 load. Index 0 holds `inf`, which no
/// caller reads: effective degrees are ≥ 1 by construction for any state
/// the walk can occupy.
fn recip_table() -> &'static [f64; RECIP_TABLE] {
    static TABLE: OnceLock<Box<[f64; RECIP_TABLE]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Box::new([0.0f64; RECIP_TABLE]);
        for (d, slot) in t.iter_mut().enumerate() {
            *slot = 1.0 / d as f64;
        }
        t
    })
}

/// Maximum connected d-subsets of a k ≤ 6 graphlet (C(6,3) = 20).
const MAX_SUBSETS: usize = 32;

/// One mask's slice descriptors into the [`DenseCss`] arenas. All-zero
/// (the `Default`) for disconnected masks.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// Offset of the mask's subsets in `subset_bits` / `subset_pos`.
    subs_off: u32,
    /// Offset of the mask's flattened interiors in `interiors`.
    seq_off: u32,
    /// Number of covering sequences (α of the mask).
    seq_cnt: u32,
    /// Bit `i` set iff subset `i` appears as some sequence's interior —
    /// only those subsets need a degree/reciprocal at sample time.
    used: u32,
    /// Number of connected d-subsets.
    subs_len: u8,
}

/// The precomputed CSS structure for one (k, d): a direct-indexed entry
/// per edge mask plus flat subset/interior arenas (see the module doc).
#[derive(Debug)]
struct DenseCss {
    entries: Vec<Entry>,
    subset_bits: Vec<u8>,
    /// The two lowest node positions of each subset (`pos[1]` is 0 and
    /// unused for d = 1); positions index the sample's slot labeling.
    subset_pos: Vec<[u8; 2]>,
    interiors: Vec<u8>,
}

impl DenseCss {
    fn build(k: usize, d: usize) -> Self {
        let l = k - d + 1;
        let n_masks = 1usize << num_pairs(k);
        let mut t = DenseCss {
            entries: vec![Entry::default(); n_masks],
            subset_bits: Vec::new(),
            subset_pos: Vec::new(),
            interiors: Vec::new(),
        };
        for mask in 0..n_masks {
            let small = SmallGraph::from_mask(k, mask as u32);
            if !small.is_connected() {
                continue;
            }
            let cover = covering_sequences(&small, d);
            assert!(cover.subsets.len() <= MAX_SUBSETS, "subset scratch overflow");
            let flat = cover.flat_interiors(l);
            t.entries[mask] = Entry {
                subs_off: t.subset_bits.len() as u32,
                seq_off: t.interiors.len() as u32,
                seq_cnt: cover.sequences.len() as u32,
                used: interior_used_bits(&flat),
                subs_len: cover.subsets.len() as u8,
            };
            for &bits in &cover.subsets {
                t.subset_bits.push(bits);
                t.subset_pos.push(lowest_two_positions(bits));
            }
            t.interiors.extend_from_slice(&flat);
        }
        t
    }
}

/// Bitmask over subset indices of the subsets referenced by any interior.
fn interior_used_bits(flat_interiors: &[u8]) -> u32 {
    flat_interiors.iter().fold(0u32, |acc, &i| acc | (1 << i))
}

/// The two lowest set-bit positions of a subset bitmask (second is 0 for
/// singletons) — the order in which the seed implementation gathered
/// subset nodes, so the d ≤ 2 degree formulas read the same slots.
#[inline]
fn lowest_two_positions(bits: u8) -> [u8; 2] {
    let p0 = bits.trailing_zeros() as u8;
    let rest = bits & bits.wrapping_sub(1);
    let p1 = if rest != 0 { rest.trailing_zeros() as u8 } else { 0 };
    [p0, p1]
}

/// The process-wide dense table for `(k, d)`, built on first use and
/// shared by every estimator and walker thread (k ≤ 5; the k = 6 tables
/// are 32768 entries and stay per-instance + lazy, see [`Table::Lazy`]).
fn dense_css(k: usize, d: usize) -> &'static DenseCss {
    static TABLES: OnceLock<[[OnceLock<DenseCss>; 7]; 7]> = OnceLock::new();
    debug_assert!((3..=5).contains(&k) && (1..=k).contains(&d));
    let tables = TABLES.get_or_init(Default::default);
    tables[k][d].get_or_init(|| DenseCss::build(k, d))
}

/// One lazily built k = 6 entry, in the same flat shape as the dense
/// arenas so both paths share the scoring code.
#[derive(Debug)]
struct LazyEntry {
    subset_bits: Vec<u8>,
    subset_pos: Vec<[u8; 2]>,
    interiors: Vec<u8>,
    seq_cnt: u32,
    used: u32,
}

/// Where a [`CssWeights`] instance looks masks up.
#[derive(Debug)]
enum Table {
    /// k ≤ 5: shared, fully precomputed — the hot loop has no lazy-init
    /// branch at all.
    Dense(&'static DenseCss),
    /// k = 6: per-instance dense `Vec` filled on first visit of each mask
    /// (still direct-indexed, still hash-free; eager precomputation of
    /// all 26k+ connected 6-node masks is not worth the startup cost for
    /// a configuration the paper never runs).
    Lazy(Vec<Option<Box<LazyEntry>>>),
}

/// Borrowed view of one mask's CSS structure, uniform over both tables.
#[derive(Clone, Copy)]
struct EntryView<'a> {
    subset_bits: &'a [u8],
    subset_pos: &'a [[u8; 2]],
    interiors: &'a [u8],
    seq_cnt: u32,
    /// See [`Entry::used`].
    used: u32,
}

/// The mask's entry view. A free function over the table field (not a
/// `&self` method) so callers can keep the view alive while mutating the
/// disjoint scratch fields of [`CssWeights`]. The entry must exist —
/// guaranteed after [`CssWeights::ensure_entry`] for connected masks.
#[inline]
fn view_entry(table: &Table, stride: usize, mask: u32) -> EntryView<'_> {
    match table {
        Table::Dense(t) => {
            let e = t.entries[mask as usize];
            let (s0, s1) = (e.subs_off as usize, e.subs_off as usize + e.subs_len as usize);
            let (i0, i1) = (e.seq_off as usize, e.seq_off as usize + e.seq_cnt as usize * stride);
            EntryView {
                subset_bits: &t.subset_bits[s0..s1],
                subset_pos: &t.subset_pos[s0..s1],
                interiors: &t.interiors[i0..i1],
                seq_cnt: e.seq_cnt,
                used: e.used,
            }
        }
        Table::Lazy(entries) => {
            let e = entries[mask as usize].as_deref().expect("entry built by ensure_entry");
            EntryView {
                subset_bits: &e.subset_bits,
                subset_pos: &e.subset_pos,
                interiors: &e.interiors,
                seq_cnt: e.seq_cnt,
                used: e.used,
            }
        }
    }
}

/// Computes CSS sampling probabilities for one estimator run.
///
/// Constructed with the estimator's `(k, d)` so every per-(k, mask)
/// structure is resolved before the first step — the steady-state query
/// paths perform zero heap allocation and zero hashing.
pub struct CssWeights {
    k: usize,
    d: usize,
    l: usize,
    /// Interiors per covering sequence, `l − 2` (0 for l ≤ 2).
    stride: usize,
    table: Table,
    /// Scratch: `1/d_eff` per subset for the current sample (stack array,
    /// never reallocated).
    recip: [f64; MAX_SUBSETS],
    /// Scratch: concrete nodes of a subset (d ≥ 3 fallback).
    subset_nodes: [NodeId; 8],
    /// Scratch for d ≥ 3 `G(d)`-degree enumeration.
    deg_scratch: GdDegreeScratch,
    /// Shared `1/d` lookup (see [`recip_table`]).
    recip_of: &'static [f64; RECIP_TABLE],
}

impl CssWeights {
    /// CSS helper for estimating k-node graphlets with a walk on `G(d)`.
    ///
    /// Taking `k` here (every call site knows it at construction) lets the
    /// whole dense table be ready before the first sample, removing the
    /// per-step lazy-init/hash path of the seed implementation.
    pub fn new(k: usize, d: usize) -> Self {
        assert!((3..=6).contains(&k), "CssWeights: k={k} unsupported (3..=6)");
        assert!((1..=k).contains(&d), "CssWeights: d={d} must be in 1..=k={k}");
        let l = k - d + 1;
        let table = if k <= 5 {
            Table::Dense(dense_css(k, d))
        } else {
            Table::Lazy((0..1usize << num_pairs(k)).map(|_| None).collect())
        };
        Self {
            k,
            d,
            l,
            stride: l.saturating_sub(2),
            table,
            recip: [0.0; MAX_SUBSETS],
            subset_nodes: [0; 8],
            deg_scratch: GdDegreeScratch::default(),
            recip_of: recip_table(),
        }
    }

    /// Builds the k = 6 entry for `mask` if it is not present yet. No-op
    /// for the precomputed k ≤ 5 tables.
    fn ensure_entry(&mut self, mask: u32) {
        let Table::Lazy(entries) = &mut self.table else { return };
        if entries[mask as usize].is_some() {
            return;
        }
        let small = SmallGraph::from_mask(self.k, mask);
        let cover = covering_sequences(&small, self.d);
        assert!(cover.subsets.len() <= MAX_SUBSETS, "subset scratch overflow");
        let flat = cover.flat_interiors(self.l);
        entries[mask as usize] = Some(Box::new(LazyEntry {
            used: interior_used_bits(&flat),
            interiors: flat,
            subset_pos: cover.subsets.iter().map(|&b| lowest_two_positions(b)).collect(),
            seq_cnt: cover.sequences.len() as u32,
            subset_bits: cover.subsets,
        }));
    }

    /// `p̃(X^{(l)}) = 2|R(d)| · p(X^{(l)})` for the sample with induced
    /// edge `mask` over `nodes` (slot labeling), with degrees derived from
    /// `g` — the test oracle. The estimator's hot loop uses
    /// [`CssWeights::sampling_probability_windowed`], which reads the same
    /// degrees from the window instead of the graph.
    #[cfg(test)]
    pub fn sampling_probability<G: GraphAccess>(
        &mut self,
        g: &G,
        mask: u32,
        nodes: &[NodeId],
        non_backtracking: bool,
    ) -> f64 {
        assert_eq!(nodes.len(), self.k, "sample size must match the configured k");
        self.ensure_entry(mask);
        let view = view_entry(&self.table, self.stride, mask);
        match self.l {
            1 => {
                // p̃ = the single full-subgraph state's own degree.
                debug_assert_eq!(view.subset_bits.len(), 1);
                debug_assert_eq!(view.subset_bits[0].count_ones() as usize, self.k);
                let deg = gd_state_degree_with(g, nodes, &mut self.deg_scratch);
                effective_degree(deg, non_backtracking) as f64
            }
            2 => l2_probability(view.seq_cnt),
            _ => {
                let mut used = view.used;
                while used != 0 {
                    let si = used.trailing_zeros() as usize;
                    used &= used - 1;
                    let (bits, [p0, p1]) = (view.subset_bits[si], view.subset_pos[si]);
                    let deg = match self.d {
                        1 => g.degree(nodes[p0 as usize]),
                        2 => g.degree(nodes[p0 as usize]) + g.degree(nodes[p1 as usize]) - 2,
                        _ => {
                            let n = gather_subset_nodes(bits, nodes, &mut self.subset_nodes);
                            gd_state_degree_with(g, n, &mut self.deg_scratch)
                        }
                    };
                    self.recip[si] = lookup_recip(self.recip_of, deg, non_backtracking);
                }
                accumulate(view.interiors, self.stride, &self.recip)
            }
        }
    }

    /// The estimator's hot path: `p̃(X^{(l)})` for the sample with
    /// induced edge `mask` over the window's slots — bit-for-bit the
    /// value the graph-reading test oracle `sampling_probability`
    /// computes (see the tests), but every
    /// degree comes from bookkeeping the walk already paid for — the
    /// window's cached slot degrees for d ≤ 2, the window's recorded
    /// state degrees for the d ≥ 3 subsets the walk itself visited.
    pub fn sampling_probability_windowed<G: GraphAccess>(
        &mut self,
        g: &G,
        mask: u32,
        window: &NodeWindow,
        non_backtracking: bool,
    ) -> f64 {
        debug_assert_eq!(window.distinct_count(), self.k);
        self.ensure_entry(mask);
        let view = view_entry(&self.table, self.stride, mask);
        let slot_deg = window.slot_degrees();
        match self.l {
            1 => {
                // The full-subgraph state is the walk's current (and
                // only) state — its degree was recorded at push time.
                debug_assert_eq!(view.subset_bits.len(), 1);
                let deg = window.states().next().expect("l = 1 window").degree as usize;
                effective_degree(deg, non_backtracking) as f64
            }
            2 => l2_probability(view.seq_cnt),
            _ => {
                if self.d <= 2 {
                    // Only the subsets some sequence actually uses as an
                    // interior need a reciprocal; the rest of `recip`
                    // stays stale and unread.
                    let mut used = view.used;
                    while used != 0 {
                        let si = used.trailing_zeros() as usize;
                        used &= used - 1;
                        let [p0, p1] = view.subset_pos[si];
                        let deg = if self.d == 1 {
                            slot_deg[p0 as usize] as usize
                        } else {
                            slot_deg[p0 as usize] as usize + slot_deg[p1 as usize] as usize - 2
                        };
                        self.recip[si] = lookup_recip(self.recip_of, deg, non_backtracking);
                    }
                } else {
                    // d ≥ 3: reuse the degrees of the l states the walk
                    // visited (matched by slot bitmask); enumerate G(d)
                    // neighbors only for the remaining subsets.
                    //
                    // Audited for the duplicate-node / revisit case: the
                    // bitmask match cannot alias. This path only runs for
                    // a *valid* sample (`distinct_count == k`, asserted
                    // above), where the l states' union has exactly
                    // k = d + l − 1 nodes — each transition must have
                    // introduced a union-new node, so the l states are
                    // pairwise-distinct node sets. A node re-entering the
                    // window shares its original slot (`acquire` keys
                    // slots by node, bumping a refcount, never minting a
                    // second slot), so distinct node sets always have
                    // distinct slot bitmasks, every state mask has
                    // popcount d, and a bitmask equal to a subset's mask
                    // identifies exactly that subset's node set — whose
                    // recorded degree is `gd_state_degree` of those
                    // nodes, the same value the fallback would compute.
                    // Revisit-heavy walks (windows with refcount > 1
                    // slots) are pinned bitwise against the graph-derived
                    // path by `windowed_matches_general_on_revisit_heavy_walks`.
                    let mut state_bits = [0u8; 8];
                    let mut state_degs = [0u32; 8];
                    let mut n_states = 0usize;
                    for (bits, deg) in window.state_slot_masks() {
                        state_bits[n_states] = bits;
                        state_degs[n_states] = deg;
                        n_states += 1;
                    }
                    let nodes = window.distinct_nodes();
                    let mut used = view.used;
                    while used != 0 {
                        let si = used.trailing_zeros() as usize;
                        used &= used - 1;
                        let bits = view.subset_bits[si];
                        let visited = state_bits[..n_states]
                            .iter()
                            .position(|&b| b == bits)
                            .map(|i| state_degs[i] as usize);
                        let deg = visited.unwrap_or_else(|| {
                            let n = gather_subset_nodes(bits, nodes, &mut self.subset_nodes);
                            gd_state_degree_with(g, n, &mut self.deg_scratch)
                        });
                        self.recip[si] = lookup_recip(self.recip_of, deg, non_backtracking);
                    }
                }
                accumulate(view.interiors, self.stride, &self.recip)
            }
        }
    }
}

/// `1/d_eff` via the shared table (one load), falling back to the
/// division it is bit-identical to for out-of-table degrees.
#[inline]
fn lookup_recip(table: &[f64; RECIP_TABLE], degree: usize, non_backtracking: bool) -> f64 {
    let eff = effective_degree(degree, non_backtracking);
    if eff < RECIP_TABLE {
        table[eff]
    } else {
        effective_degree_recip(degree, non_backtracking)
    }
}

/// The l = 2 (PSRW) probability: every covering sequence contributes an
/// empty interior product of 1.0, so p̃ is just the sequence count — with
/// the seed's `-0.0` for the empty sum, preserving bit-identity.
#[inline]
fn l2_probability(seq_cnt: u32) -> f64 {
    if seq_cnt == 0 {
        -0.0
    } else {
        seq_cnt as f64
    }
}

/// Gathers the concrete nodes of a subset bitmask (ascending position
/// order, matching the seed implementation) into `out`.
#[inline]
fn gather_subset_nodes<'a>(bits: u8, nodes: &[NodeId], out: &'a mut [NodeId; 8]) -> &'a [NodeId] {
    let mut n = 0usize;
    for (pos, &node) in nodes.iter().enumerate() {
        if bits & (1 << pos) != 0 {
            out[n] = node;
            n += 1;
        }
    }
    &out[..n]
}

/// `Σ over covering sequences of Π over interiors of 1/d_eff`, streaming
/// the flat interior arena in the same order and fold direction as the
/// seed implementation (bit-for-bit identical results; the sum starts at
/// `-0.0` and the product at `1.0` exactly like `Iterator::sum` /
/// `Iterator::product` for `f64`, so even the α = 0 empty sum keeps the
/// seed's sign bit).
#[inline]
fn accumulate(interiors: &[u8], stride: usize, recip: &[f64; MAX_SUBSETS]) -> f64 {
    debug_assert!(stride >= 1);
    let mut sum = -0.0f64;
    if stride == 1 {
        // l = 3, the recommended SRW2CSS shape for k = 4: one interior
        // per sequence, so the product collapses to a gather-sum
        // (1.0 * x = x exactly; same bits as the general fold).
        for &i in interiors {
            sum += recip[i as usize];
        }
        return sum;
    }
    for chunk in interiors.chunks_exact(stride) {
        let mut prod = 1.0f64;
        for &i in chunk {
            prod *= recip[i as usize];
        }
        sum += prod;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_graph::generators::classic;
    use gx_graph::Graph;
    use gx_graphlets::induced_mask;

    /// Table 4, row g3_2 (triangle, SRW1): 2|R|·p/2 = 1/d₁ + 1/d₂ + 1/d₃.
    #[test]
    fn table4_triangle_srw1() {
        let g = classic::paper_figure1();
        // triangle {0, 1, 2}: degrees 3, 2, 3.
        let nodes = [0u32, 1, 2];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(3, 1);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        let want = 2.0 * (1.0 / 3.0 + 1.0 / 2.0 + 1.0 / 3.0);
        assert!((p - want).abs() < 1e-12, "{p} vs {want}");
    }

    /// Table 4, row g3_1 (wedge, SRW1): 2|R|·p/2 = 1/d₂ (center only) —
    /// CSS is a no-op relative to α·π̃_e for the wedge? No: the wedge has
    /// exactly two corresponding states (both traversal directions share
    /// the same center), so p̃ = 2/d_center.
    #[test]
    fn table4_wedge_srw1() {
        let g = classic::paper_figure1();
        // wedge 1-2-3 (0-based: 0-1-2 is a triangle; use {3,0,1}: path
        // 3-0-1 with center 0, non-edge (1,3)).
        let nodes = [3u32, 0, 1];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(3, 1);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        let want = 2.0 / 3.0; // center 0 has degree 3
        assert!((p - want).abs() < 1e-12, "{p} vs {want}");
    }

    /// Table 4, row g4_6 (4-clique, SRW2): 2|R|·p/2 = 4·Σ_{j=1..6} 1/d_ej.
    #[test]
    fn table4_clique_srw2() {
        // K5: every edge has degree 4+4-2 = 6 in G(2); the 4-clique on
        // nodes {0,1,2,3} has 6 inner edges: p̃ = 2·4·6·(1/6) = 8.
        let g = classic::complete(5);
        let nodes = [0u32, 1, 2, 3];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(4, 2);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        assert!((p - 8.0).abs() < 1e-12, "{p}");
    }

    /// Table 4, row g4_4 (tailed-triangle, SRW2):
    /// 2|R|·p/2 = 2/d_e2 + 2/d_e3 + 1/d_e4 with the paper's Figure-2 edge
    /// labels (e1 = tail, e2, e3 = triangle edges at the tail vertex,
    /// e4 = opposite triangle edge).
    #[test]
    fn table4_tailed_triangle_srw2() {
        // Build an isolated tailed triangle: triangle {0,1,2}, tail 2-3.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let nodes = [0u32, 1, 2, 3];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(4, 2);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        // Edge degrees in G(2): (0,1): 2+2-2=2... degrees: d0=2, d1=2,
        // d2=3, d3=1. e(0,1)=2, e(1,2)=3, e(0,2)=3, e(2,3)=2.
        // Walk sequences of 3 distinct edges covering all 4 nodes with
        // consecutive sharing: computed by hand in the alpha worked
        // example: {(0,1),(1,2),(2,3)} path orders ×2, {(0,1),(0,2),(2,3)}
        // ×2, {(1,2),(0,2),(2,3)} all-pairs-adjacent ×6. Interior states:
        // (1,2):3, (0,2):3, and for the 6 orderings of the triple, each of
        // the three edges is interior twice: p̃ = 2·(1/3) + 2·(1/3) +
        // 2·(1/3 + 1/3 + 1/2).
        let want = 2.0 / 3.0 + 2.0 / 3.0 + 2.0 * (1.0 / 3.0 + 1.0 / 3.0 + 1.0 / 2.0);
        assert!((p - want).abs() < 1e-12, "{p} vs {want}");
    }

    /// For l = 2 (PSRW), CSS must reduce to 1/α-weighting: p̃ = α·π̃ = α.
    #[test]
    fn l2_css_equals_alpha() {
        let g = classic::paper_figure1();
        let nodes = [0u32, 1, 2];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(3, 2);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        // triangle under SRW2: α = 6.
        assert!((p - 6.0).abs() < 1e-12);
    }

    /// l = 1 (d = k): p̃ is the state's own degree in G(k).
    #[test]
    fn l1_css_is_state_degree() {
        let g = classic::paper_figure1();
        let nodes = [0u32, 1, 2];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(3, 3);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        use gx_walks::gd::gd_state_degree;
        let want = gd_state_degree(&g, &[0, 1, 2]) as f64;
        assert!((p - want).abs() < 1e-12, "{p} vs {want}");
    }

    /// Lemma 4's underlying identity: E[1/(α π_e)] = E[1/p] holds because
    /// p(s) = Σ_{X ∈ C(s)} π_e(X). Check the sum directly for a triangle
    /// under SRW1: Σ over the 6 orderings of 1/d_center equals p̃.
    #[test]
    fn p_is_sum_over_corresponding_states() {
        let g = classic::paper_figure1();
        let nodes = [0u32, 2, 3]; // triangle with degrees 3, 3, 2
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(3, 1);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        // each node is the interior of exactly 2 of the 6 orderings
        let manual: f64 = [3.0, 3.0, 2.0].iter().map(|d| 2.0 / d).sum();
        assert!((p - manual).abs() < 1e-12);
    }

    /// Non-backtracking CSS uses nominal degrees.
    #[test]
    fn nb_uses_nominal_degrees() {
        let g = classic::paper_figure1();
        let nodes = [0u32, 1, 2];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(3, 1);
        let plain = css.sampling_probability(&g, mask, &nodes, false);
        let nb = css.sampling_probability(&g, mask, &nodes, true);
        // degrees 3,2,3 → nominal 2,1,2: p̃ grows.
        let want_nb = 2.0 * (1.0 / 2.0 + 1.0 / 1.0 + 1.0 / 2.0);
        assert!((nb - want_nb).abs() < 1e-12);
        assert!(nb > plain);
    }

    /// Table reuse must not change results.
    #[test]
    fn table_is_transparent() {
        let g = classic::complete(5);
        let nodes = [0u32, 1, 2, 3];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(4, 2);
        let p1 = css.sampling_probability(&g, mask, &nodes, false);
        let p2 = css.sampling_probability(&g, mask, &nodes, false);
        assert_eq!(p1, p2);
        // same mask, different concrete nodes
        let nodes2 = [1u32, 2, 3, 4];
        let p3 = css.sampling_probability(&g, mask, &nodes2, false);
        assert!((p1 - p3).abs() < 1e-12, "K5 symmetry");
    }

    /// The k = 6 lazy-dense path agrees with a hand-computable case: the
    /// 6-path under SRW2 (l = 5).
    #[test]
    fn k6_lazy_path_works() {
        let g = classic::path(6);
        let nodes = [0u32, 1, 2, 3, 4, 5];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(6, 2);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        // 5 path edges; the only covering sequences are the two
        // end-to-end traversals; interiors are the 3 middle edges with
        // G(2)-degrees 2, 2, 2: p̃ = 2 · (1/2)³.
        assert!((p - 0.25).abs() < 1e-12, "{p}");
    }

    /// The windowed hot path must be bit-identical to the general path
    /// (which the oracle test below ties to the seed implementation).
    #[test]
    fn windowed_path_matches_general_path() {
        use crate::window::NodeWindow;
        use gx_walks::{rng_from_seed, G2Walk, GdWalk, SrwWalk, StateWalk};
        let g = classic::petersen();

        // d = 1, k = 4
        {
            let mut rng = rng_from_seed(3);
            let mut walk = SrwWalk::new(&g, 0, false);
            let mut w = NodeWindow::new(4, 1);
            let mut css = CssWeights::new(4, 1);
            for _ in 0..2000 {
                let deg = walk.state_degree();
                w.push(&g, walk.state(), deg);
                if w.is_valid_sample() {
                    let (mask, nodes) = w.sample();
                    let a = css.sampling_probability_windowed(&g, mask, &w, false);
                    let b = css.sampling_probability(&g, mask, nodes, false);
                    assert_eq!(a.to_bits(), b.to_bits(), "d=1 mask {mask:#x}");
                }
                walk.step(&mut rng);
            }
        }
        // d = 2, k = 5 (incl. non-backtracking weighting)
        {
            let mut rng = rng_from_seed(5);
            let mut walk = G2Walk::new(&g, 0, 4, false);
            let mut w = NodeWindow::new(4, 2);
            let mut css = CssWeights::new(5, 2);
            for _ in 0..2000 {
                let deg = walk.state_degree();
                w.push(&g, walk.state(), deg);
                if w.is_valid_sample() {
                    let (mask, nodes) = w.sample();
                    for nb in [false, true] {
                        let a = css.sampling_probability_windowed(&g, mask, &w, nb);
                        let b = css.sampling_probability(&g, mask, nodes, nb);
                        assert_eq!(a.to_bits(), b.to_bits(), "d=2 mask {mask:#x} nb={nb}");
                    }
                }
                walk.step(&mut rng);
            }
        }
        // d = 3, k = 5 (state-degree reuse + enumeration fallback)
        {
            let mut rng = rng_from_seed(7);
            let mut walk = GdWalk::new(&g, &[0, 1, 2], false);
            let mut w = NodeWindow::new(3, 3);
            let mut css = CssWeights::new(5, 3);
            for _ in 0..300 {
                let deg = walk.state_degree();
                w.push(&g, walk.state(), deg);
                if w.is_valid_sample() {
                    let (mask, nodes) = w.sample();
                    let a = css.sampling_probability_windowed(&g, mask, &w, false);
                    let b = css.sampling_probability(&g, mask, nodes, false);
                    assert_eq!(a.to_bits(), b.to_bits(), "d=3 mask {mask:#x}");
                }
                walk.step(&mut rng);
            }
        }
    }

    /// Regression for the d ≥ 3 slot-bitmask degree-reuse audit (see the
    /// comment in `sampling_probability_windowed`): on a revisit-heavy
    /// graph — a lollipop's pendant path traps the walk into sliding the
    /// same nodes in and out of the window — the windowed path must stay
    /// bit-identical to the graph-derived path for every scored window,
    /// plain and non-backtracking. A bitmask aliasing bug between two
    /// states sharing nodes would surface here as a wrong reused degree.
    #[test]
    fn windowed_matches_general_on_revisit_heavy_walks() {
        use crate::window::NodeWindow;
        use gx_walks::{rng_from_seed, GdWalk, StateWalk};
        // Small clique head + pendant path: states at the joint revisit
        // clique nodes constantly, and the path forces backtracking.
        let g = classic::lollipop(5, 4);
        for nb in [false, true] {
            let mut rng = rng_from_seed(29);
            let mut walk = GdWalk::new(&g, &[0, 1, 2], nb);
            let mut w = NodeWindow::new(3, 3); // k = 5, d = 3, l = 3
            let mut css = CssWeights::new(5, 3);
            let mut scored = 0usize;
            for _ in 0..4_000 {
                let deg = walk.state_degree();
                w.push(&g, walk.state(), deg);
                if w.is_valid_sample() {
                    let (mask, nodes) = w.sample();
                    let a = css.sampling_probability_windowed(&g, mask, &w, nb);
                    let b = css.sampling_probability(&g, mask, nodes, nb);
                    assert_eq!(a.to_bits(), b.to_bits(), "nb={nb} mask {mask:#x}");
                    scored += 1;
                    // The invariants the degree-reuse match rests on:
                    // every state's slot bitmask has popcount d, and the
                    // l states' bitmasks are pairwise distinct — even
                    // though here 3 states × 3 nodes share only 5 slots,
                    // so every window has refcount-shared slots.
                    let masks: Vec<u8> = w.state_slot_masks().map(|(b, _)| b).collect();
                    for (i, &bi) in masks.iter().enumerate() {
                        assert_eq!(bi.count_ones(), 3, "state mask popcount");
                        for &bj in &masks[i + 1..] {
                            assert_ne!(bi, bj, "valid-sample states must have distinct masks");
                        }
                    }
                }
                walk.step(&mut rng);
            }
            assert!(scored > 50, "walk must score enough windows to exercise reuse ({scored})");
        }
    }
}

/// The seed `HashMap` implementation, kept verbatim as the bit-for-bit
/// oracle for the dense-table rewrite (satellite: "keep the old path
/// behind `#[cfg(test)]`").
#[cfg(test)]
mod seed_oracle {
    use gx_graph::{GraphAccess, NodeId};
    use gx_graphlets::alpha::covering_sequences;
    use gx_graphlets::SmallGraph;
    use gx_walks::effective_degree;
    use gx_walks::gd::gd_state_degree;
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    struct CssEntry {
        subsets: Vec<u8>,
        interiors: Vec<Vec<u8>>,
        l_is_one: bool,
    }

    pub struct SeedCssWeights {
        d: usize,
        cache: HashMap<(usize, u32), CssEntry>,
        degrees: Vec<f64>,
        subset_nodes: Vec<NodeId>,
    }

    impl SeedCssWeights {
        pub fn new(d: usize) -> Self {
            Self { d, cache: HashMap::new(), degrees: Vec::new(), subset_nodes: Vec::new() }
        }

        pub fn sampling_probability<G: GraphAccess>(
            &mut self,
            g: &G,
            mask: u32,
            nodes: &[NodeId],
            non_backtracking: bool,
        ) -> f64 {
            let k = nodes.len();
            let d = self.d;
            let entry = self.cache.entry((k, mask)).or_insert_with(|| {
                let small = SmallGraph::from_mask(k, mask);
                let cover = covering_sequences(&small, d);
                let l = k - d + 1;
                CssEntry {
                    subsets: cover.subsets,
                    interiors: cover
                        .sequences
                        .iter()
                        .map(|seq| {
                            if seq.len() <= 2 {
                                Vec::new()
                            } else {
                                seq[1..seq.len() - 1].to_vec()
                            }
                        })
                        .collect(),
                    l_is_one: l == 1,
                }
            });
            self.degrees.clear();
            for &bits in &entry.subsets {
                self.subset_nodes.clear();
                for (pos, &node) in nodes.iter().enumerate() {
                    if bits & (1 << pos) != 0 {
                        self.subset_nodes.push(node);
                    }
                }
                let deg = match d {
                    1 => g.degree(self.subset_nodes[0]),
                    2 => g.degree(self.subset_nodes[0]) + g.degree(self.subset_nodes[1]) - 2,
                    _ => gd_state_degree(g, &self.subset_nodes),
                };
                self.degrees.push(effective_degree(deg, non_backtracking) as f64);
            }
            if entry.l_is_one {
                debug_assert_eq!(entry.interiors.len(), 1);
                let full_idx = entry
                    .subsets
                    .iter()
                    .position(|&b| b.count_ones() as usize == k)
                    .expect("l = 1 sequence is the full subgraph");
                return self.degrees[full_idx];
            }
            entry
                .interiors
                .iter()
                .map(|interior| {
                    interior.iter().map(|&i| 1.0 / self.degrees[i as usize]).product::<f64>()
                })
                .sum()
        }
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::seed_oracle::SeedCssWeights;
    use super::*;
    use gx_graph::Graph;
    use gx_graphlets::mask::num_pairs;

    /// A host graph realizing `mask` on nodes `0..k` exactly (no other
    /// edges among them), with pendant leaves attached to diversify node
    /// degrees so degree-formula mistakes cannot cancel out.
    fn realize(k: usize, mask: u32) -> Graph {
        let small = SmallGraph::from_mask(k, mask);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for i in 0..k {
            for j in (i + 1)..k {
                if small.has_edge(i, j) {
                    edges.push((i as u32, j as u32));
                }
            }
        }
        // node i gets i + 1 pendant leaves: degrees become distinct-ish
        let mut next = k as u32;
        for i in 0..k {
            for _ in 0..=i {
                edges.push((i as u32, next));
                next += 1;
            }
        }
        Graph::from_edges(next as usize, edges).unwrap()
    }

    /// Satellite: for every connected mask at k ∈ {3, 4, 5} and every
    /// walk dimension d (including the l = 1 and l = 2 degenerate
    /// shapes), the dense-table `sampling_probability` equals the seed
    /// `HashMap` implementation bit-for-bit, plain and non-backtracking.
    #[test]
    fn dense_table_matches_seed_oracle_exhaustively() {
        for k in 3..=5usize {
            let nodes: Vec<u32> = (0..k as u32).collect();
            for mask in 0u32..(1 << num_pairs(k)) {
                if !SmallGraph::from_mask(k, mask).is_connected() {
                    continue;
                }
                let g = realize(k, mask);
                for d in 1..=k {
                    let mut dense = CssWeights::new(k, d);
                    let mut seed = SeedCssWeights::new(d);
                    for nb in [false, true] {
                        let a = dense.sampling_probability(&g, mask, &nodes, nb);
                        let b = seed.sampling_probability(&g, mask, &nodes, nb);
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "k={k} d={d} nb={nb} mask={mask:#x}: dense {a} vs seed {b}"
                        );
                    }
                }
            }
        }
    }

    /// Same oracle comparison on a scale-free host graph with realistic
    /// degree skew, driven by the masks an actual walk produces.
    #[test]
    fn dense_table_matches_seed_oracle_on_walk_samples() {
        use crate::window::NodeWindow;
        use gx_walks::{rng_from_seed, G2Walk, StateWalk};
        let g = gx_graph::generators::holme_kim(60, 4, 0.4, &mut rng_from_seed(2));
        let mut rng = rng_from_seed(17);
        let mut walk = G2Walk::new(&g, 0, g.neighbors(0)[0], false);
        let mut w = NodeWindow::new(4, 2);
        let mut dense = CssWeights::new(5, 2);
        let mut seed = SeedCssWeights::new(2);
        let mut seen = 0usize;
        for _ in 0..4000 {
            let deg = walk.state_degree();
            w.push(&g, walk.state(), deg);
            if w.is_valid_sample() {
                let (mask, nodes) = w.sample();
                let a = dense.sampling_probability_windowed(&g, mask, &w, false);
                let b = seed.sampling_probability(&g, mask, nodes, false);
                assert_eq!(a.to_bits(), b.to_bits(), "mask {mask:#x} nodes {nodes:?}");
                seen += 1;
            }
            walk.step(&mut rng);
        }
        assert!(seen > 500, "walk produced too few valid samples ({seen})");
    }
}
