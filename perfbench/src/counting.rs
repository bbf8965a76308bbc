//! A `GraphAccess` adapter that counts every call into the graph layer,
//! attributes each call to the layer that made it, and times every
//! 2^k-th call of each kind.
//!
//! It wraps any backend (RAM CSR, GXSN mmap, GXSC compressed) and
//! forwards every trait method explicitly, so a backend's own
//! implementation of a method is what gets counted and timed, never the
//! trait default.

use crate::trace::{ns_per_tick, ticks, Tracer};
use gx_graph::{GraphAccess, NodeId};
use std::cell::Cell;

/// The graph-layer calls the adapter tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Degree,
    Neighbors,
    NeighborAt,
    HasEdge,
    Visit,
    Extend,
    Prefetch,
}

pub const CALLS: [Call; 7] = [
    Call::Degree,
    Call::Neighbors,
    Call::NeighborAt,
    Call::HasEdge,
    Call::Visit,
    Call::Extend,
    Call::Prefetch,
];

impl Call {
    pub fn name(self) -> &'static str {
        match self {
            Call::Degree => "degree",
            Call::Neighbors => "neighbors",
            Call::NeighborAt => "neighbor_at",
            Call::HasEdge => "has_edge",
            Call::Visit => "visit",
            Call::Extend => "extend",
            Call::Prefetch => "prefetch",
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Call::Degree => "graph.degree",
            Call::Neighbors => "graph.neighbors",
            Call::NeighborAt => "graph.neighbor_at",
            Call::HasEdge => "graph.has_edge",
            Call::Visit => "graph.visit",
            Call::Extend => "graph.extend",
            Call::Prefetch => "graph.prefetch",
        }
    }
}

/// The layer on whose behalf a graph call is made.
pub const CALLERS: [&str; 6] = ["runner", "walks", "window", "graphlets", "css", "accuracy"];
pub const KINDS: usize = CALLS.len();
const SLOTS: usize = CALLERS.len() * KINDS;

/// Counting, attributing, sampling wrapper around a graph backend.
pub struct CountingGraph<'t, G> {
    inner: G,
    /// Calls per `(caller, kind)`, row-major by caller.
    calls: [Cell<u64>; SLOTS],
    /// Calls per kind, all callers (drives the sampling cadence).
    total: [Cell<u64>; KINDS],
    /// Timed calls and their summed [`ticks`], per kind.
    timed: [Cell<(u64, u64)>; KINDS],
    caller: Cell<usize>,
    /// Time a call when its per-kind ordinal has these bits clear;
    /// `None` disables timing.
    sample_mask: Option<u64>,
    tracer: Option<&'t Tracer>,
}

impl<'t, G: GraphAccess> CountingGraph<'t, G> {
    /// Counts only; nothing is timed.
    pub fn new(inner: G) -> Self {
        Self::build(inner, None, None)
    }

    /// Counts, and times every `2^log2_every`-th call of each kind,
    /// recording each timed call as a span on `tracer`.
    pub fn sampled(inner: G, log2_every: u32, tracer: &'t Tracer) -> Self {
        Self::build(inner, Some((1u64 << log2_every) - 1), Some(tracer))
    }

    fn build(inner: G, sample_mask: Option<u64>, tracer: Option<&'t Tracer>) -> Self {
        Self {
            inner,
            calls: std::array::from_fn(|_| Cell::new(0)),
            total: std::array::from_fn(|_| Cell::new(0)),
            timed: std::array::from_fn(|_| Cell::new((0, 0))),
            caller: Cell::new(0),
            sample_mask,
            tracer,
        }
    }

    /// Attributes the calls that follow to `CALLERS[caller]`.
    #[inline]
    pub fn set_caller(&self, caller: usize) {
        self.caller.set(caller);
    }

    /// Calls of `kind` made so far by every caller.
    pub fn count(&self, kind: Call) -> u64 {
        self.total[kind as usize].get()
    }

    /// Calls of `kind` made so far on behalf of `CALLERS[caller]`.
    pub fn count_by(&self, caller: usize, kind: Call) -> u64 {
        self.calls[caller * KINDS + kind as usize].get()
    }

    /// Mean wall nanoseconds of the timed calls of `kind` (including
    /// one clock read), or `NaN` if none was timed.
    pub fn mean_ns(&self, kind: Call) -> f64 {
        let (n, t) = self.timed[kind as usize].get();
        if n == 0 {
            f64::NAN
        } else {
            t as f64 * ns_per_tick() / n as f64
        }
    }

    #[inline(always)]
    fn hit<'s, R>(&'s self, kind: Call, f: impl FnOnce(&'s G) -> R) -> R {
        let k = kind as usize;
        let slot = &self.calls[self.caller.get() * KINDS + k];
        slot.set(slot.get() + 1);
        let ordinal = self.total[k].get();
        self.total[k].set(ordinal + 1);
        match self.sample_mask {
            Some(mask) if ordinal & mask == 0 => {
                let t0 = ticks();
                let r = f(&self.inner);
                let t1 = ticks();
                if let Some(t) = self.tracer {
                    t.leaf(kind.span_name(), t0, t1);
                }
                let (n, sum) = self.timed[k].get();
                self.timed[k].set((n + 1, sum + (t1 - t0)));
                r
            }
            _ => f(&self.inner),
        }
    }
}

impl<G: GraphAccess> GraphAccess for CountingGraph<'_, G> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        self.hit(Call::Degree, |g| g.degree(v))
    }
    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        self.hit(Call::Neighbors, |g| g.neighbors(v))
    }
    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.hit(Call::HasEdge, |g| g.has_edge(u, v))
    }
    #[inline]
    fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId {
        self.hit(Call::NeighborAt, |g| g.neighbor_at(v, i))
    }
    #[inline]
    fn visit_neighbors(&self, v: NodeId, f: &mut dyn FnMut(&[NodeId])) {
        self.hit(Call::Visit, |g| g.visit_neighbors(v, f))
    }
    #[inline]
    fn extend_neighbors(&self, v: NodeId, out: &mut Vec<NodeId>) {
        self.hit(Call::Extend, |g| g.extend_neighbors(v, out))
    }
    #[inline]
    fn prefetch_degree(&self, v: NodeId) {
        self.hit(Call::Prefetch, |g| g.prefetch_degree(v))
    }
    #[inline]
    fn prefetch_neighbors(&self, v: NodeId) {
        self.hit(Call::Prefetch, |g| g.prefetch_neighbors(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use gx_core::{EstimatorConfig, Runner};

    fn counts<G: GraphAccess>(g: &CountingGraph<'_, G>) -> Vec<u64> {
        CALLS.iter().map(|&c| g.count(c)).collect()
    }

    /// The same seed gives the same graph, the same walk and therefore
    /// exactly the same call counts.
    #[test]
    fn call_counts_repeat_exactly_for_a_seed() {
        let run = |seed: u64| {
            let g = inputs::ba(3_000, 4, seed);
            let cg = CountingGraph::new(&g);
            let cfg = EstimatorConfig::recommended(4);
            let est = Runner::new(cfg).steps(20_000).seed(seed).run_local(&cg).expect("valid run");
            (counts(&cg), est.raw_scores.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        let (a, bits_a) = run(7);
        let (b, bits_b) = run(7);
        assert_eq!(a, b);
        assert_eq!(bits_a, bits_b);
        assert!(a[Call::Degree as usize] > 0 && a[Call::Visit as usize] > 0, "{a:?}");
        let (c, _) = run(8);
        assert_ne!(a, c, "a different seed walks a different graph");
    }

    /// Timing is observation only: a sampled adapter counts the same
    /// calls and yields the same estimate bits as a counting-only one.
    #[test]
    fn sampling_changes_no_count_and_no_estimate() {
        let g = gx_datasets::dataset("epinion-sim").graph();
        let cfg = EstimatorConfig::recommended(4);
        let runner = Runner::new(cfg).steps(10_000).seed(3);
        let plain = CountingGraph::new(g);
        let a = runner.run_local(&plain).expect("valid run");
        let tracer = Tracer::new();
        let timed = CountingGraph::sampled(g, 4, &tracer);
        let b = runner.run_local(&timed).expect("valid run");
        assert_eq!(counts(&plain), counts(&timed));
        assert_eq!(a.raw_scores, b.raw_scores);
        assert!(timed.mean_ns(Call::Degree).is_finite());
        assert!(!tracer.spans().is_empty());
        let direct = runner.run_local(g).expect("valid run");
        assert_eq!(direct.raw_scores, a.raw_scores, "the adapter is transparent");
    }
}
