//! Spans, and the traced replay of the estimator's per-step pipeline.
//!
//! The replay drives each walker's chain through the same public calls
//! the engine makes, in the same order — walk step, window push, window
//! sample, classify, CSS weight, batch-statistics tick — so its raw
//! scores are bit-identical to a `Runner` run of the same seed. In the
//! traced form every 2^k-th call of each layer is wrapped in a span
//! (spans stay in memory and are written out once, at the end of the
//! run); in the staged form the pipeline runs untimed with only its
//! first few layers, so stage differences give each layer's share of
//! the time per step.

use crate::counting::{CountingGraph, CALLS};
use gx_core::accuracy::{default_batch_len, ScoreAccumulator};
use gx_core::css::CssWeights;
use gx_core::parallel::{walker_seed, walker_steps};
use gx_core::{EstimatorConfig, NodeWindow};
use gx_graph::GraphAccess;
use gx_graphlets::{classify_mask, num_graphlets};
use gx_walks::{
    random_start_edge, random_start_node, rng_from_seed, G2Walk, SrwWalk, StateWalk, WalkRng,
};
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A cheap, non-serializing timestamp: the time-stamp counter on
/// x86-64, nanoseconds since first use elsewhere. Spans are read with
/// it so a timed call keeps overlapping with its neighbours the way it
/// does untimed; [`ns_per_tick`] converts.
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC has no preconditions; it only reads the
        // processor's time-stamp counter.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Nanoseconds per [`ticks`] unit, calibrated once against the
/// monotonic clock over 20 ms.
pub fn ns_per_tick() -> f64 {
    static NS: OnceLock<f64> = OnceLock::new();
    *NS.get_or_init(|| {
        let (t0, c0) = (Instant::now(), ticks());
        while t0.elapsed() < Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        let (ns, c) = (t0.elapsed().as_nanos() as f64, ticks() - c0);
        ns / c.max(1) as f64
    })
}

/// One recorded span, in [`ticks`]. `parent` indexes the enclosing
/// recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

/// In-memory span recorder. Spans past `cap` are counted, not kept.
///
/// Spans are recorded *after* the call they time, from two timestamps
/// taken tightly around it, so no bookkeeping falls inside a timed
/// interval. Nesting is two levels under an op's root span: a layer
/// span, and the graph calls made inside it, which are re-parented to
/// the layer span when it is recorded.
pub struct Tracer {
    epoch: u64,
    spans: RefCell<Vec<Span>>,
    /// The open op's root span and id.
    root: Cell<Option<u32>>,
    op: Cell<u32>,
    /// Whether a layer span is being timed (its children wait for its id).
    in_layer: Cell<bool>,
    cap: usize,
    dropped: Cell<u64>,
}

/// Parent marker of a graph span whose layer span is not recorded yet.
const PENDING: u32 = u32::MAX;

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self::with_cap(200_000)
    }

    pub fn with_cap(cap: usize) -> Self {
        Self {
            epoch: ticks(),
            spans: RefCell::new(Vec::new()),
            root: Cell::new(None),
            op: Cell::new(0),
            in_layer: Cell::new(false),
            cap,
            dropped: Cell::new(0),
        }
    }

    fn push(&self, span: Span) -> Option<u32> {
        let mut spans = self.spans.borrow_mut();
        if spans.len() >= self.cap {
            self.dropped.set(self.dropped.get() + 1);
            return None;
        }
        spans.push(span);
        Some(spans.len() as u32 - 1)
    }

    /// Opens the root span of op `op`; spans until [`Tracer::end_op`]
    /// carry its id.
    pub fn begin_op(&self, op: u32, name: &'static str) {
        self.op.set(op);
        let now = ticks();
        let root = self.push(Span { name, start: now, end: now, parent: None, op });
        self.root.set(root);
    }

    pub fn end_op(&self) {
        if let Some(id) = self.root.take() {
            self.spans.borrow_mut()[id as usize].end = ticks();
        }
    }

    /// Marks the start of a layer call; returns the mark to pass to
    /// [`Tracer::layer`].
    pub fn begin_layer(&self) -> usize {
        self.in_layer.set(true);
        self.spans.borrow().len()
    }

    /// Records a layer span timed from `start` to `end`; graph spans
    /// recorded since `mark` become its children.
    pub fn layer(&self, name: &'static str, start: u64, end: u64, mark: usize) {
        self.in_layer.set(false);
        let id = self.push(Span { name, start, end, parent: self.root.get(), op: self.op.get() });
        let mut spans = self.spans.borrow_mut();
        let len = spans.len();
        for s in &mut spans[mark.min(len)..] {
            if s.parent == Some(PENDING) {
                s.parent = id;
            }
        }
    }

    /// Records a graph-call span timed from `start` to `end`.
    pub fn leaf(&self, name: &'static str, start: u64, end: u64) {
        let parent = if self.in_layer.get() { Some(PENDING) } else { self.root.get() };
        self.push(Span { name, start, end, parent, op: self.op.get() });
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Writes every kept span as a tab-separated line:
    /// `id name start_ns end_ns parent op` (`-` for no parent), times
    /// in nanoseconds since the tracer was made.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let ns = |t: u64| (t.saturating_sub(self.epoch) as f64 * ns_per_tick()) as u64;
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, ns(s.start), ns(s.end), s.op)?;
        }
        out.flush()
    }
}

/// The pipeline layers the replay times, with the caller index each
/// one's graph calls are attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `StateWalk::step` + `state_degree`.
    Walk,
    /// `NodeWindow::push`.
    Push,
    /// `NodeWindow::is_valid_sample` + `sample`.
    Sample,
    /// `classify_mask`.
    Classify,
    /// `CssWeights::sampling_probability_windowed`.
    Css,
    /// `ScoreAccumulator::tick`.
    Tick,
}

pub const LAYERS: [Layer; 6] =
    [Layer::Walk, Layer::Push, Layer::Sample, Layer::Classify, Layer::Css, Layer::Tick];

impl Layer {
    pub fn span_name(self) -> &'static str {
        match self {
            Layer::Walk => "walks.step",
            Layer::Push => "window.push",
            Layer::Sample => "window.sample",
            Layer::Classify => "graphlets.classify",
            Layer::Css => "css.weight",
            Layer::Tick => "accuracy.tick",
        }
    }

    /// The index of this layer in [`crate::counting::CALLERS`].
    pub fn caller(self) -> usize {
        match self {
            Layer::Walk => 1,
            Layer::Push | Layer::Sample => 2,
            Layer::Classify => 3,
            Layer::Css => 4,
            Layer::Tick => 5,
        }
    }
}

/// Calls, timed calls and timed [`ticks`] of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    pub calls: u64,
    pub timed: u64,
    pub timed_ticks: u64,
}

impl LayerStat {
    /// Mean nanoseconds per call, net of `clock_ns` per timed call.
    pub fn mean_ns(&self, clock_ns: f64) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        (self.timed_ticks as f64 * ns_per_tick() / self.timed as f64 - clock_ns).max(0.0)
    }
}

/// What a replay measured.
#[derive(Debug, Clone)]
pub struct ReplayStats {
    pub layers: [LayerStat; 6],
    pub scored: u64,
    pub valid: u64,
    pub probes: u64,
    pub wall_s: f64,
    /// Raw scores pooled over walkers in walker order — the engine's
    /// own merge, so equal bits mean a faithful replay.
    pub raw: Vec<f64>,
}

impl ReplayStats {
    fn new(types: usize) -> Self {
        Self {
            layers: [LayerStat::default(); 6],
            scored: 0,
            valid: 0,
            probes: 0,
            wall_s: 0.0,
            raw: vec![0.0; types],
        }
    }

    /// Adds another replay's counts and times to this one's.
    pub fn absorb(&mut self, other: &ReplayStats) {
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.calls += b.calls;
            a.timed += b.timed;
            a.timed_ticks += b.timed_ticks;
        }
        self.scored += other.scored;
        self.valid += other.valid;
        self.probes += other.probes;
        self.wall_s += other.wall_s;
    }

    pub fn stat(&self, layer: Layer) -> &LayerStat {
        &self.layers[layer as usize]
    }

    /// Layer nanoseconds per scored window: mean call time times calls
    /// per window.
    pub fn ns_per_step(&self, layer: Layer, clock_ns: f64) -> f64 {
        let s = self.stat(layer);
        s.mean_ns(clock_ns) * s.calls as f64 / self.scored as f64
    }
}

/// Replays a fixed-budget run of `cfg` (`steps` windows over
/// `walkers` chains, chain `i` seeded as the engine seeds it) through
/// the public per-step calls, timing every `2^log2_every`-th call of
/// each layer as a span. Supports the d = 1 and d = 2 walks.
#[allow(clippy::too_many_arguments)]
pub fn replay<G: GraphAccess>(
    g: &CountingGraph<'_, G>,
    tracer: &Tracer,
    log2_every: u32,
    cfg: &EstimatorConfig,
    steps: usize,
    walkers: usize,
    seed: u64,
    op: u32,
) -> ReplayStats {
    let timing = Timing { tracer, mask: (1u64 << log2_every) - 1 };
    tracer.begin_op(op, "op.replay");
    let stats =
        chains::<_, _, { LAYERS.len() }, true>(g, g, Some(&timing), cfg, steps, walkers, seed);
    tracer.end_op();
    stats
}

/// Untimed replay of the pipeline's first `stage` + 1 layers (in
/// [`LAYERS`] order) over the bare graph: nanoseconds per scored
/// window. Successive stages differ by one layer, so their differences
/// are each layer's contribution to throughput.
pub fn stage_ns_per_step<G: GraphAccess>(
    g: &G,
    cfg: &EstimatorConfig,
    steps: usize,
    walkers: usize,
    seed: u64,
    stage: usize,
) -> f64 {
    let run = match stage {
        0 => chains::<G, (), 1, false>,
        1 => chains::<G, (), 2, false>,
        2 => chains::<G, (), 3, false>,
        3 => chains::<G, (), 4, false>,
        4 => chains::<G, (), 5, false>,
        _ => chains::<G, (), 6, false>,
    };
    let stats = run(g, &(), None, cfg, steps, walkers, seed);
    stats.wall_s * 1e9 / stats.scored as f64
}

/// Where a timed replay records its spans.
struct Timing<'t> {
    tracer: &'t Tracer,
    mask: u64,
}

/// Attributes graph calls to the layer making them (a no-op for `()`).
trait Attribute {
    fn set_caller(&self, caller: usize);
}

impl Attribute for () {
    #[inline(always)]
    fn set_caller(&self, _: usize) {}
}

impl<G: GraphAccess> Attribute for CountingGraph<'_, G> {
    #[inline(always)]
    fn set_caller(&self, caller: usize) {
        CountingGraph::set_caller(self, caller);
    }
}

/// Every walker's chain of a fixed-budget run, with the first `LAYERS`
/// pipeline layers, timed when `TIMED`.
fn chains<G: GraphAccess, A: Attribute, const N: usize, const TIMED: bool>(
    g: &G,
    attr: &A,
    timing: Option<&Timing<'_>>,
    cfg: &EstimatorConfig,
    steps: usize,
    walkers: usize,
    seed: u64,
) -> ReplayStats {
    let mut stats = ReplayStats::new(num_graphlets(cfg.k));
    let batch_len = default_batch_len(steps);
    let t0 = Instant::now();
    for w in 0..walkers {
        let n = walker_steps(steps, walkers, w);
        if n == 0 {
            continue;
        }
        let mut rng = rng_from_seed(walker_seed(seed, w));
        attr.set_caller(1);
        let raw = match cfg.d {
            1 => {
                let start = random_start_node(g, &mut rng);
                let walk = SrwWalk::new(g, start, cfg.non_backtracking);
                chain::<G, A, SrwWalk<'_, G>, N, TIMED>(
                    g, attr, timing, cfg, walk, rng, n, batch_len, &mut stats,
                )
            }
            2 => {
                let (u, v) = random_start_edge(g, &mut rng);
                let walk = G2Walk::new(g, u, v, cfg.non_backtracking);
                chain::<G, A, G2Walk<'_, G>, N, TIMED>(
                    g, attr, timing, cfg, walk, rng, n, batch_len, &mut stats,
                )
            }
            d => panic!("replay supports d = 1, 2 (got {d})"),
        };
        for (acc, x) in stats.raw.iter_mut().zip(&raw) {
            *acc += x;
        }
    }
    stats.wall_s = t0.elapsed().as_secs_f64();
    attr.set_caller(0);
    stats
}

/// Runs `f` as layer `layer`: attributes its graph calls, and when
/// `TIMED` and its call ordinal is due, records it as a span.
#[inline(always)]
fn call<A: Attribute, R, const TIMED: bool>(
    attr: &A,
    timing: Option<&Timing<'_>>,
    stats: &mut ReplayStats,
    layer: Layer,
    f: impl FnOnce() -> R,
) -> R {
    if !TIMED {
        return f();
    }
    attr.set_caller(layer.caller());
    let s = &mut stats.layers[layer as usize];
    let ordinal = s.calls;
    s.calls += 1;
    let Some(t) = timing.filter(|t| ordinal & t.mask == 0) else { return f() };
    let mark = t.tracer.begin_layer();
    let t0 = ticks();
    let r = f();
    let t1 = ticks();
    t.tracer.layer(layer.span_name(), t0, t1, mark);
    s.timed += 1;
    s.timed_ticks += t1 - t0;
    r
}

/// One chain of Algorithm 1, call for call as the engine's session runs
/// it: prime the window over the first `l` states, then score `n`
/// windows, stepping between them but not after the last. Only the
/// first `N` layers run; `N == LAYERS.len()` is the whole pipeline.
/// (The walk's `state_degree` is read right after its step rather than
/// after scoring: scoring never touches the walk, so the order is
/// unobservable and keeps the walk layer one span.)
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn chain<G: GraphAccess, A: Attribute, W: StateWalk, const N: usize, const TIMED: bool>(
    g: &G,
    attr: &A,
    timing: Option<&Timing<'_>>,
    cfg: &EstimatorConfig,
    mut walk: W,
    mut rng: WalkRng,
    n: usize,
    batch_len: usize,
    stats: &mut ReplayStats,
) -> Vec<f64> {
    let types = num_graphlets(cfg.k);
    let (k, l, nb) = (cfg.k, cfg.l(), cfg.non_backtracking);
    assert!(cfg.css && l >= 2, "the replay covers the CSS estimators (l >= 2)");
    let mut css = CssWeights::new(cfg.k, cfg.d);
    let mut acc = ScoreAccumulator::new(types, batch_len);
    let mut raw = vec![0.0f64; types];
    for _ in 0..cfg.burn_in {
        walk.step(&mut rng);
    }
    let mut window = NodeWindow::new(l, cfg.d);
    for i in 0..l {
        if i > 0 {
            walk.step(&mut rng);
        }
        let deg = walk.state_degree();
        window.push(g, walk.state(), deg);
    }
    let probes0 = window.probes();
    let on = |layer: Layer| (layer as usize) < N;
    for i in 0..n {
        let advance = i + 1 < n;
        let mut deg = 0;
        if advance {
            deg = call::<A, _, TIMED>(attr, timing, stats, Layer::Walk, || {
                walk.step(&mut rng);
                walk.state_degree()
            });
        }
        if on(Layer::Sample) {
            let sample = call::<A, _, TIMED>(attr, timing, stats, Layer::Sample, || {
                window.is_valid_sample().then(|| window.sample().0)
            });
            if let Some(mask) = sample {
                stats.valid += 1;
                if on(Layer::Classify) {
                    let id = call::<A, _, TIMED>(attr, timing, stats, Layer::Classify, || {
                        classify_mask(k, mask)
                    })
                    .expect("a window covering k distinct nodes induces a connected subgraph");
                    if on(Layer::Css) {
                        let p = call::<A, _, TIMED>(attr, timing, stats, Layer::Css, || {
                            css.sampling_probability_windowed(g, mask, &window, nb)
                        });
                        raw[id.index as usize] += 1.0 / p;
                    } else {
                        std::hint::black_box(id);
                    }
                } else {
                    std::hint::black_box(mask);
                }
            }
        }
        if on(Layer::Tick) {
            call::<A, _, TIMED>(attr, timing, stats, Layer::Tick, || acc.tick(&raw));
        }
        if advance && on(Layer::Push) {
            let state = walk.state();
            call::<A, _, TIMED>(attr, timing, stats, Layer::Push, || window.push(g, state, deg));
        } else if advance {
            std::hint::black_box(deg);
        }
    }
    stats.scored += n as u64;
    stats.probes += window.probes() - probes0;
    raw
}

/// Mean nanoseconds a [`ticks`] pair reads around nothing —
/// subtracted from every sampled duration.
pub fn clock_overhead_ns() -> f64 {
    let reps = 20_000;
    let mut total = 0u64;
    for _ in 0..reps {
        let t0 = ticks();
        total += std::hint::black_box(ticks()) - t0;
    }
    total as f64 * ns_per_tick() / reps as f64
}

/// Graph-call nanoseconds per scored window made on behalf of
/// `CALLERS[caller]`, from the adapter's counts and sampled means.
pub fn graph_ns_per_step<G: GraphAccess>(
    g: &CountingGraph<'_, G>,
    caller: usize,
    scored: u64,
    clock_ns: f64,
) -> f64 {
    CALLS
        .iter()
        .map(|&c| {
            let mean = g.mean_ns(c);
            let mean = if mean.is_finite() { (mean - clock_ns).max(0.0) } else { 0.0 };
            g.count_by(caller, c) as f64 * mean
        })
        .sum::<f64>()
        / scored as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use gx_core::Runner;

    #[test]
    fn replay_is_bit_identical_to_the_engine() {
        let g = gx_datasets::dataset("epinion-sim").graph();
        for (cfg, walkers) in
            [(EstimatorConfig::recommended(4), 1), (EstimatorConfig::recommended(4), 3)]
        {
            let tracer = Tracer::new();
            let cg = CountingGraph::sampled(&g, 3, &tracer);
            let r = replay(&cg, &tracer, 3, &cfg, 9_001, walkers, 77, 0);
            let est =
                Runner::new(cfg).steps(9_001).walkers(walkers).seed(77).run_local(&g).expect("run");
            assert_eq!(r.scored, 9_001);
            assert_eq!(r.valid as usize, est.valid_samples);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&r.raw), bits(&est.raw_scores));
            assert!(r.stat(Layer::Push).timed > 0);
        }
        let g3 = inputs::ba(5_000, 5, 5);
        let cfg = EstimatorConfig::recommended(3);
        let tracer = Tracer::new();
        let cg = CountingGraph::new(&g3);
        let r = replay(&cg, &tracer, 6, &cfg, 5_000, 2, 9, 0);
        let est = Runner::new(cfg).steps(5_000).walkers(2).seed(9).run_local(&g3).expect("run");
        assert_eq!(r.raw, est.raw_scores);
    }

    #[test]
    fn spans_nest_under_their_op() {
        let tracer = Tracer::with_cap(4);
        tracer.begin_op(4, "op");
        tracer.leaf("g0", 1, 2);
        let mark = tracer.begin_layer();
        tracer.leaf("g1", 3, 4);
        tracer.layer("l", 2, 5, mark);
        tracer.leaf("g2", 6, 7);
        tracer.end_op();
        let spans = tracer.spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(3), Some(0)]);
        assert!(spans.iter().all(|s| s.op == 4 && s.end >= s.start));
        assert_eq!(tracer.dropped(), 1);
    }
}
