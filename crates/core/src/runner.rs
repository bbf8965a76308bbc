//! The estimation front door: one composable entry point for
//! fixed/adaptive × sequential/parallel runs.
//!
//! The paper's framework is a single estimator over `(k, d, css, nb)`,
//! and [`Runner`] is its single entry point. The builder composes the
//! orthogonal axes explicitly:
//!
//! * **config** — the [`EstimatorConfig`] passed to [`Runner::new`];
//! * **budget** — [`Runner::steps`] (fixed) or [`Runner::until`]
//!   (adaptive, with a [`StoppingRule`]);
//! * **execution** — [`Runner::walkers`] / [`Runner::parallel`]
//!   (independent chains cooperating on the budget) and
//!   [`Runner::seed`];
//! * **observability** — [`Runner::on_progress`] callbacks and the
//!   resumable [`RunHandle`] from [`Runner::start`];
//! * **resilience** — [`RunHandle::checkpoint`] snapshots a live run
//!   into any writer (atomically onto disk via
//!   [`RunHandle::checkpoint_to_file`]), [`Runner::resume`] rebuilds it
//!   in a fresh process with golden-bit fidelity, and [`FaultPlan`] /
//!   [`FailingWriter`] / [`Corruption`] inject deterministic faults for
//!   robustness testing (see the [`crate::checkpoint`] module docs for
//!   the corruption model).
//!
//! Every runner path is **panic-free on bad input**: an invalid config,
//! rule, fan-out or budget is a typed [`GxError`], never a panic.
//!
//! There is one run driver. Every entry point — [`Runner::run`],
//! [`Runner::run_local`], and [`Runner::run_with_walk`] over a
//! caller-supplied walk — builds a [`RunHandle`] and advances it on the
//! same fixed/adaptive schedule until it finishes.
//!
//! ```
//! use gx_core::{EstimatorConfig, runner::Runner};
//! let g = gx_graph::generators::classic::paper_figure1();
//! let est = Runner::new(EstimatorConfig::recommended(3))
//!     .steps(20_000)
//!     .seed(7)
//!     .run(&g)
//!     .expect("valid configuration");
//! assert_eq!(est.steps, 20_000);
//! ```
//!
//! # Determinism contract
//!
//! A runner's output is a pure function of
//! `(graph, config, budget, seed, walkers)`: the same chains, scored
//! windows, and walker-order merges, bit for bit — regardless of thread
//! count ([`Runner::run`] vs [`Runner::run_local`]) and regardless of
//! how a [`RunHandle`] is advanced (the persistent [`crate::estimator`]
//! chains only ever step *between* scored windows, so splitting a budget
//! over [`RunHandle::advance`] calls cannot move a sample).

use crate::accuracy::{
    default_batch_len, studentized_critical, AdaptiveTracker, BatchStats, StoppingRule,
    WalkerStatus,
};
use crate::checkpoint::{
    graph_fingerprint, put_f64, put_u64, put_u8, put_usize, read_envelope, write_atomic,
    write_envelope, Reader,
};
use crate::config::EstimatorConfig;
use crate::error::{CheckpointError, GxError};
use crate::estimator::{prewarm, AnySession, SessionWalk};
use crate::parallel::{available_cores, walker_seed, walker_steps, ParallelConfig};
use crate::result::Estimate;
use gx_graph::hash::{splitmix64, SPLITMIX_GAMMA};
use gx_graph::GraphAccess;
use gx_graphlets::num_graphlets;
use gx_walks::WalkRng;
use std::io::{Read, Write};
use std::path::Path;
use std::rc::Rc;

/// The run's step budget: a fixed window count, or adaptive stopping.
#[derive(Debug, Clone)]
enum Budget {
    /// No budget chosen yet — running is a [`GxError::NoBudget`].
    Unset,
    /// Score exactly `n` windows (split near-equally over walkers).
    Fixed(usize),
    /// Walk until the rule's confidence target is met (or its cap).
    Until(StoppingRule),
}

/// A progress snapshot, delivered to [`Runner::on_progress`] callbacks
/// after every increment and returned by [`RunHandle::advance`] /
/// [`RunHandle::progress`].
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// Scored windows so far, pooled over walkers.
    pub steps: usize,
    /// Walkers cooperating on the budget.
    pub walkers: usize,
    /// Increments (adaptive: convergence checks) completed so far.
    pub rounds: usize,
    /// Pooled completed error-bar batches.
    pub batches: u64,
    /// Current widest relative CI half-width over qualifying types,
    /// studentized (the adaptive rule's `z`/floor, or 95%/1% for fixed
    /// budgets). `NaN` until two batches complete.
    pub width: f64,
    /// Whether an adaptive run has met its stopping rule (always `false`
    /// for fixed budgets).
    pub converged: bool,
    /// Whether the run is over: converged, or every walker's budget
    /// share is exhausted.
    pub finished: bool,
}

type ProgressFn = Rc<dyn Fn(&Progress)>;

/// A deterministic fault-injection plan for robustness testing —
/// attached with [`Runner::faults`], carried by the [`RunHandle`], and
/// *never* serialized into a checkpoint (a resumed run starts fault-free
/// unless the test re-attaches a plan).
///
/// Three fault families cover the crash-resilience surface:
///
/// * **checkpoint-write failures** — [`FaultPlan::fail_write_after`]
///   makes [`RunHandle::checkpoint`] return a typed I/O error after a
///   budgeted number of successful snapshots (byte-granular write
///   failures are [`FailingWriter`]'s job);
/// * **restore corruption** — [`Corruption`] damages a serialized
///   snapshot before it is offered to [`Runner::resume`];
/// * **walker-chain poisoning** — [`FaultPlan::poison`] kills a walker's
///   chain at a chosen round, exercising the quarantine path: the
///   poisoned walker is frozen, its completed batches stay pooled, and
///   the run finishes degraded on the remaining walkers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Number of [`RunHandle::checkpoint`] calls allowed to succeed;
    /// every later call fails with [`GxError::Io`] *before writing a
    /// byte*, leaving the run unperturbed. `None` never fails.
    pub fail_write_after: Option<usize>,
    /// `(walker, round)` pairs: quarantine `walker` at the start of the
    /// run's `round`-th advance (1-based), before it contributes that
    /// round's share. Entries for already-quarantined or out-of-range
    /// walkers are ignored.
    pub poison: Vec<(usize, usize)>,
}

impl FaultPlan {
    /// The empty plan: no faults (what [`Runner::new`] carries).
    pub fn none() -> Self {
        Self::default()
    }

    /// A deterministic pseudo-random plan derived from `seed` (SplitMix64):
    /// poisons one walker in `0..walkers` at a round in `1..=max_round`.
    /// Same seed, same plan — the property-test form of hand-picking a
    /// poisoning.
    pub fn from_seed(seed: u64, walkers: usize, max_round: usize) -> Self {
        assert!(walkers >= 1, "a poison plan needs at least one walker");
        assert!(max_round >= 1, "a poison plan needs at least one round");
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(SPLITMIX_GAMMA);
            splitmix64(x)
        };
        let walker = (next() % walkers as u64) as usize;
        let round = 1 + (next() % max_round as u64) as usize;
        Self { fail_write_after: None, poison: vec![(walker, round)] }
    }
}

/// One deterministic way to damage a serialized snapshot before handing
/// it to [`Runner::resume`] — the restore half of [`FaultPlan`]'s fault
/// model. Every corrupted image must surface as a typed
/// [`CheckpointError`], never a panic or a silently-wrong resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Keep only the first `len` bytes of the image.
    Truncate {
        /// Bytes retained (clamped to the image length).
        len: usize,
    },
    /// Flip the single bit at global bit index `bit` (byte `bit / 8`,
    /// mask `1 << (bit % 8)`).
    FlipBit {
        /// Global bit index; must be inside the image.
        bit: usize,
    },
}

impl Corruption {
    /// Applies the corruption to a snapshot image, returning the damaged
    /// copy (the original is untouched).
    pub fn apply(self, snapshot: &[u8]) -> Vec<u8> {
        match self {
            Self::Truncate { len } => snapshot[..len.min(snapshot.len())].to_vec(),
            Self::FlipBit { bit } => {
                assert!(bit / 8 < snapshot.len(), "bit index outside the snapshot");
                let mut out = snapshot.to_vec();
                out[bit / 8] ^= 1 << (bit % 8);
                out
            }
        }
    }
}

/// An [`std::io::Write`] adapter that forwards up to `byte_budget` bytes
/// and then fails every further write with
/// [`std::io::ErrorKind::WriteZero`] — the byte-granular
/// checkpoint-write fault of the robustness test suite. A failed
/// [`RunHandle::checkpoint`] through this writer must leave the handle
/// able to finish bit-identically.
#[derive(Debug)]
pub struct FailingWriter<W> {
    inner: W,
    remaining: usize,
}

impl<W> FailingWriter<W> {
    /// Wraps `inner`, allowing `byte_budget` bytes through before
    /// injecting failures.
    pub fn new(inner: W, byte_budget: usize) -> Self {
        Self { inner, remaining: byte_budget }
    }

    /// Unwraps the adapter, returning whatever was successfully written.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FailingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.remaining == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "injected checkpoint write fault",
            ));
        }
        let n = buf.len().min(self.remaining);
        let written = self.inner.write(&buf[..n])?;
        self.remaining -= written;
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Builder-style front door to the whole estimation framework: config ×
/// budget × execution × observability, composed with method chaining and
/// executed with [`Runner::run`] (or driven incrementally via
/// [`Runner::start`]). See the [module docs](crate::runner) for the axes
/// and the determinism contract.
#[derive(Clone)]
pub struct Runner {
    cfg: EstimatorConfig,
    budget: Budget,
    walkers: usize,
    batch_width: usize,
    seed: u64,
    progress: Option<ProgressFn>,
    plan: FaultPlan,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("cfg", &self.cfg)
            .field("budget", &self.budget)
            .field("walkers", &self.walkers)
            .field("batch_width", &self.batch_width)
            .field("seed", &self.seed)
            .field("progress", &self.progress.as_ref().map(|_| "Fn(&Progress)"))
            .field("plan", &self.plan)
            .finish()
    }
}

impl Runner {
    /// A runner for `cfg` with no budget yet, one walker, seed 0, and no
    /// fault plan. Nothing is validated until a run entry point is
    /// called — builders never panic.
    pub fn new(cfg: EstimatorConfig) -> Self {
        Self {
            cfg,
            budget: Budget::Unset,
            walkers: 1,
            batch_width: 1,
            seed: 0,
            progress: None,
            plan: FaultPlan::none(),
        }
    }

    /// Attaches a deterministic [`FaultPlan`] (robustness testing only):
    /// injected checkpoint-write failures and walker-chain poisonings.
    /// The default is [`FaultPlan::none`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Fixed budget: score exactly `steps` windows (Algorithm 1's sample
    /// budget n, split near-equally over walkers). Replaces any budget
    /// chosen earlier.
    pub fn steps(mut self, steps: usize) -> Self {
        self.budget = Budget::Fixed(steps);
        self
    }

    /// Adaptive budget: walk until `rule` declares convergence or its
    /// `max_steps` cap is exhausted. Replaces any budget chosen earlier.
    pub fn until(mut self, rule: StoppingRule) -> Self {
        self.budget = Budget::Until(rule);
        self
    }

    /// Fan the budget over `walkers` independent chains (walker `i` uses
    /// the RNG stream of [`crate::parallel::walker_seed`]). `0` is
    /// reported as [`GxError::NoWalkers`] at run time.
    pub fn walkers(mut self, walkers: usize) -> Self {
        self.walkers = walkers;
        self
    }

    /// [`Runner::walkers`] from a [`ParallelConfig`] (e.g.
    /// `ParallelConfig::auto()` for one walker per core).
    pub fn parallel(self, par: ParallelConfig) -> Self {
        self.walkers(par.walkers)
    }

    /// Advances walkers through the lock-step batched engine, `b` lanes
    /// per group (clamped to the walker count at start). Width 1 — the
    /// default — is the scalar engine; wider groups interleave one walk
    /// step per lane per iteration, with each lane's next CSR lines
    /// software-prefetched while the other lanes compute, which is pure
    /// memory-level parallelism: every walker's sample stream is
    /// **bit-identical** to the scalar engine's for every width. `0` is
    /// reported as [`GxError::ZeroBatchWidth`] at run time.
    pub fn batch_width(mut self, b: usize) -> Self {
        self.batch_width = b;
        self
    }

    /// Seed of the run (walker 0 replays the sequential estimator's
    /// chain for this seed). Defaults to 0.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Registers a progress callback, invoked after every increment of
    /// the run (each adaptive convergence check; ~16 ticks over a fixed
    /// budget; every [`RunHandle::advance`] call). Observability only:
    /// the callback cannot alter the run, and output is bit-identical
    /// with or without it.
    pub fn on_progress(mut self, f: impl Fn(&Progress) + 'static) -> Self {
        self.progress = Some(Rc::new(f));
        self
    }

    /// Validates everything the run needs up front and resolves the
    /// budget into `(rule, batch_len, max_steps)`: the adaptive rule
    /// (`None` for a fixed budget), the error-bar batch length, and the
    /// total step cap.
    fn check(&self) -> Result<(Option<StoppingRule>, usize, usize), GxError> {
        self.cfg.try_validate()?;
        if self.walkers == 0 {
            return Err(GxError::NoWalkers);
        }
        if self.batch_width == 0 {
            return Err(GxError::ZeroBatchWidth);
        }
        match &self.budget {
            Budget::Unset => Err(GxError::NoBudget),
            Budget::Fixed(steps) => Ok((None, default_batch_len(*steps), *steps)),
            Budget::Until(rule) => {
                rule.try_validate()?;
                if rule.max_series_batches != 0 && self.walkers > 1 {
                    // Independent per-walker R-batching collapses would
                    // desynchronize the pooled batch lengths.
                    return Err(GxError::BoundedMemoryParallel { walkers: self.walkers });
                }
                Ok((Some(rule.clone()), rule.batch_len, rule.max_steps))
            }
        }
    }

    /// Runs to completion, fanning walkers over the machine's cores when
    /// `walkers > 1` (requires `G: Sync`; the metered
    /// `ApiGraph` is deliberately not `Sync` — use [`Runner::run_local`]
    /// for crawling simulations). Output is bit-identical to
    /// [`Runner::run_local`] for every fan-out: walker order, not thread
    /// schedule, fixes every merge.
    pub fn run<G: GraphAccess + Sync>(&self, g: &G) -> Result<Estimate, GxError> {
        let handle = self.start(g)?;
        if self.walkers > 1 {
            // Build the shared tables once, up front: walker threads
            // must not serialize behind one cold `OnceLock` build.
            prewarm(&self.cfg);
            Ok(self.drive(handle, RunHandle::advance_par))
        } else {
            Ok(self.drive(handle, RunHandle::advance))
        }
    }

    /// [`Runner::run`] confined to the calling thread: walkers advance
    /// one after another in walker order instead of across cores.
    /// Bit-identical output; this is the path for graphs that are not
    /// `Sync` (restricted-access crawling).
    pub fn run_local<G: GraphAccess>(&self, g: &G) -> Result<Estimate, GxError> {
        Ok(self.drive(self.start(g)?, RunHandle::advance))
    }

    /// The one drive loop behind every run entry point — only the
    /// advance flavor differs, so the entry points cannot drift apart.
    fn drive<'g, G: GraphAccess>(
        &self,
        mut handle: RunHandle<'g, G>,
        mut advance: impl FnMut(&mut RunHandle<'g, G>, usize) -> Progress,
    ) -> Estimate {
        let windows = self.increment(&handle);
        while !handle.is_finished() {
            advance(&mut handle, windows);
        }
        handle.finish()
    }

    /// The per-walker advance size [`Runner::run`] drives the handle
    /// with: the rule's check cadence for adaptive budgets; the whole
    /// share for fixed budgets (split into ~16 increments when a
    /// progress callback wants ticks — the chains' resumability makes
    /// the split invisible in the output).
    fn increment<G: GraphAccess>(&self, handle: &RunHandle<'_, G>) -> usize {
        match &self.budget {
            Budget::Until(rule) => rule.check_every,
            Budget::Fixed(_) if self.progress.is_some() => {
                (handle.caps.iter().copied().max().unwrap_or(0) / 16).max(1)
            }
            _ => usize::MAX,
        }
    }

    /// Starts a resumable run: primes nothing yet (each walker's chain
    /// is created lazily on its first advance), returns the
    /// [`RunHandle`] that owns the persistent chains. Requires only
    /// `GraphAccess`; the handle advances walkers on the calling thread
    /// unless [`RunHandle::advance_par`] is used.
    pub fn start<'g, G: GraphAccess>(&self, g: &'g G) -> Result<RunHandle<'g, G>, GxError> {
        let (rule, batch_len, max_steps) = self.check()?;
        let max_series_batches = rule.as_ref().map_or(0, |r| r.max_series_batches);
        let types = num_graphlets(self.cfg.k);
        let mut sessions = Vec::new();
        sessions.resize_with(self.walkers, || None);
        Ok(RunHandle {
            g,
            cfg: self.cfg.clone(),
            rule,
            batch_len,
            max_series_batches,
            // Clamped here so a width wider than the fan-out (harmless —
            // a group can never exceed the walker count) normalizes to
            // the value checkpoints carry and `resume` validates.
            batch_width: self.batch_width.min(self.walkers),
            seed: self.seed,
            caps: (0..self.walkers).map(|i| walker_steps(max_steps, self.walkers, i)).collect(),
            sessions,
            done: vec![0; self.walkers],
            status: vec![WalkerStatus::Healthy; self.walkers],
            pooled: BatchStats::new(types, batch_len),
            pooled_batches: vec![0; self.walkers],
            tracker: AdaptiveTracker::new(types),
            rounds: 0,
            met: false,
            progress: self.progress.clone(),
            plan: self.plan.clone(),
            fingerprint: None,
            checkpoints: 0,
        })
    }

    /// Rebuilds a live [`RunHandle`] from a checkpoint stream written by
    /// [`RunHandle::checkpoint`], resuming the run against `g`.
    ///
    /// The envelope (magic, version, length, checksum) is verified
    /// before a single payload field is parsed, and the snapshot's graph
    /// fingerprint must match `g`
    /// ([`CheckpointError::GraphMismatch`] otherwise) — resuming against
    /// a different graph would silently estimate statistics of the wrong
    /// graph. Any truncated, bit-flipped, or internally inconsistent
    /// snapshot is a typed [`GxError::Checkpoint`]; no corrupt input
    /// panics.
    ///
    /// **Golden-bit contract:** checkpoint → drop the handle (or the
    /// process) → `resume` → drive to completion produces bit-identical
    /// output to the uninterrupted run — fixed and adaptive budgets, any
    /// walker count, any checkpoint cadence. Progress callbacks and
    /// fault plans do not travel in snapshots; re-attach them with
    /// [`RunHandle::on_progress`] if wanted.
    pub fn resume<'g, G: GraphAccess, R: Read>(
        g: &'g G,
        r: &mut R,
    ) -> Result<RunHandle<'g, G>, GxError> {
        let (version, payload) = read_envelope(r)?;
        let mut rd = Reader::new(&payload);
        let handle = RunHandle::decode_from(&mut rd, g, None, version)?;
        rd.finish()?;
        Ok(handle)
    }

    /// [`Runner::resume`] with a caller-supplied fingerprint of `g`,
    /// skipping the O(edges) [`graph_fingerprint`] rescan — the
    /// re-adoption path for serving layers that hold many jobs against
    /// one cached snapshot and re-resume them every scheduler round.
    ///
    /// `fingerprint` **must** be the value `graph_fingerprint(g)` would
    /// return (computed once when the snapshot was cached); passing a
    /// stale or foreign fingerprint forfeits the wrong-graph protection
    /// [`CheckpointError::GraphMismatch`] exists to provide. Debug
    /// builds verify the claim against the graph.
    pub fn resume_trusted<'g, G: GraphAccess, R: Read>(
        g: &'g G,
        fingerprint: u64,
        r: &mut R,
    ) -> Result<RunHandle<'g, G>, GxError> {
        debug_assert_eq!(
            fingerprint,
            graph_fingerprint(g),
            "resume_trusted fingerprint must match the offered graph"
        );
        let (version, payload) = read_envelope(r)?;
        let mut rd = Reader::new(&payload);
        let handle = RunHandle::decode_from(&mut rd, g, Some(fingerprint), version)?;
        rd.finish()?;
        Ok(handle)
    }

    /// [`Runner::resume`] from a checkpoint file (the counterpart of
    /// [`RunHandle::checkpoint_to_file`]).
    pub fn resume_from_file<'g, G: GraphAccess, P: AsRef<Path>>(
        g: &'g G,
        path: P,
    ) -> Result<RunHandle<'g, G>, GxError> {
        let bytes = std::fs::read(path)?;
        Self::resume(g, &mut bytes.as_slice())
    }

    /// Runs the configured budget over a caller-supplied walk: one of
    /// [`gx_walks::SrwWalk`] (d = 1), [`gx_walks::G2Walk`] (d = 2) or
    /// [`gx_walks::GdWalk`] (d ≥ 3), with the RNG that drives it. The
    /// walk is primed and seated as walker 0 of a one-walker
    /// [`RunHandle`], which then runs on the same schedule as
    /// [`Runner::run_local`]. A supplied walk is one concrete chain, so
    /// the fan-out must be 1 ([`GxError::ParallelCustomWalk`] otherwise)
    /// and the walk's dimension must match the configuration's `d`
    /// ([`GxError::WalkDimensionMismatch`]).
    ///
    /// [`Runner::seed`] has no effect here — the caller supplies both
    /// the walk's start state and the RNG, which together *are* the
    /// seed. [`Runner::on_progress`] works as on seeded runs: ticks at
    /// every convergence check (adaptive) or ~16 increments (fixed).
    pub fn run_with_walk<'g, G: GraphAccess, W: SessionWalk<'g, G>>(
        &self,
        g: &'g G,
        walk: W,
        rng: WalkRng,
    ) -> Result<Estimate, GxError> {
        let mut handle = self.start(g)?;
        if self.walkers > 1 {
            return Err(GxError::ParallelCustomWalk { walkers: self.walkers });
        }
        if walk.d() != self.cfg.d {
            return Err(GxError::WalkDimensionMismatch { walk_d: walk.d(), cfg_d: self.cfg.d });
        }
        let seated = walk.seat(g, &self.cfg, rng, handle.batch_len, handle.max_series_batches);
        handle.sessions[0] = Some(seated.0);
        Ok(self.drive(handle, RunHandle::advance))
    }
}

/// A live, resumable estimation run: the persistent per-walker chains
/// ([`crate::estimator`]'s `WalkSession`/`AnySession`), advanced in
/// increments with [`RunHandle::advance`], observable between increments
/// ([`RunHandle::estimate`] / [`RunHandle::progress`]), and finished
/// with [`RunHandle::finish`].
///
/// **Determinism:** chains only ever step between scored windows, so
/// *any* sequence of `advance` calls covering the budget yields the same
/// scored-window stream; a finished handle is bit-identical to the
/// corresponding one-shot [`Runner::run`] — including walker fan-out —
/// when advanced on the run's natural schedule (any increments for fixed
/// budgets; the rule's `check_every` for adaptive ones, since the check
/// schedule decides where an adaptive run stops).
///
/// Adaptive pooling is **incremental**: each advance folds only the new
/// batch means of each walker's series into the pooled statistics
/// (chronological, walker-order — [`BatchStats::fold_series_suffix`]),
/// instead of re-pooling every walker from scratch each round. With one
/// walker the pool replays the walker's own accumulator bit for bit.
///
/// **Crash resilience:** [`RunHandle::checkpoint`] serializes the whole
/// live state between advances, and [`Runner::resume`] rebuilds it with
/// golden-bit fidelity. **Degradation:** a poisoned walker (see
/// [`FaultPlan`]) is quarantined — frozen in place, its completed
/// batches kept pooled — and the run finishes on the remaining walkers,
/// reported via [`RunHandle::walker_status`] and
/// [`crate::AdaptiveReport::degraded`].
pub struct RunHandle<'g, G: GraphAccess> {
    g: &'g G,
    cfg: EstimatorConfig,
    /// `None` for fixed budgets.
    rule: Option<StoppingRule>,
    batch_len: usize,
    /// The adaptive rule's bounded-memory cap (0 = unbounded), threaded
    /// into every walker accumulator.
    max_series_batches: usize,
    /// Lock-step engine group width (1 = scalar engine), clamped to the
    /// walker count. Travels in checkpoints (format v2) so a resumed run
    /// keeps its engine mode — though either engine resumes the other's
    /// snapshots bit-identically.
    batch_width: usize,
    seed: u64,
    /// Per-walker step budget (near-equal split of the total).
    caps: Vec<usize>,
    /// Lazily-created persistent chains, index = walker.
    sessions: Vec<Option<AnySession<'g, G>>>,
    /// Per-walker scored windows so far.
    done: Vec<usize>,
    /// Per-walker health: quarantined walkers are out of the rotation.
    status: Vec<WalkerStatus>,
    /// Pooled batch-means statistics (chronological incremental fold).
    pooled: BatchStats,
    /// Per-walker batches already folded into `pooled`.
    pooled_batches: Vec<u64>,
    tracker: AdaptiveTracker,
    rounds: usize,
    met: bool,
    progress: Option<ProgressFn>,
    /// Fault-injection plan (empty outside robustness tests).
    plan: FaultPlan,
    /// Cached [`graph_fingerprint`] — computed on the first checkpoint,
    /// so fault-free runs never pay the O(edges) scan.
    fingerprint: Option<u64>,
    /// Checkpoints successfully taken (drives
    /// [`FaultPlan::fail_write_after`]).
    checkpoints: usize,
}

impl<G: GraphAccess> std::fmt::Debug for RunHandle<'_, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHandle")
            .field("cfg", &self.cfg)
            .field("rule", &self.rule)
            .field("walkers", &self.caps.len())
            .field("seed", &self.seed)
            .field("steps", &self.steps())
            .field("rounds", &self.rounds)
            .field("finished", &self.is_finished())
            .finish_non_exhaustive()
    }
}

impl<'g, G: GraphAccess> RunHandle<'g, G> {
    /// Per-walker share of an advance by `windows` scored windows:
    /// remaining budget capped, zero for quarantined walkers, zero for
    /// everyone once the run has converged. Precomputed before any chain
    /// moves, so [`RunHandle::advance`] and [`RunHandle::advance_par`]
    /// distribute identically — quarantines included.
    fn shares(&self, windows: usize) -> Vec<usize> {
        if self.met {
            return vec![0; self.caps.len()];
        }
        self.caps
            .iter()
            .zip(&self.done)
            .zip(&self.status)
            .map(|((&c, &d), s)| match s {
                WalkerStatus::Healthy => windows.min(c - d),
                WalkerStatus::Quarantined { .. } => 0,
            })
            .collect()
    }

    /// Fires any [`FaultPlan::poison`] entries due at the upcoming round
    /// (1-based), quarantining their walkers before shares are computed.
    /// Already-quarantined and out-of-range walkers are ignored.
    fn apply_poison(&mut self) {
        let next_round = self.rounds + 1;
        for &(w, at) in &self.plan.poison {
            if at <= next_round && w < self.status.len() {
                if let s @ WalkerStatus::Healthy = &mut self.status[w] {
                    *s = WalkerStatus::Quarantined { round: next_round };
                }
            }
        }
    }

    /// Advances every still-budgeted walker by up to `windows` more
    /// scored windows on the calling thread (walker order), then pools
    /// the new batches, evaluates the stopping rule (adaptive budgets),
    /// and fires the progress callback.
    ///
    /// `advance(0)` is a **documented no-op**: no chain moves, no round
    /// is counted, no callback fires — it just returns the current
    /// [`Progress`] (the same snapshot [`RunHandle::progress`] reads),
    /// which makes it a safe poll. A finished run behaves the same for
    /// any `windows`.
    pub fn advance(&mut self, windows: usize) -> Progress {
        if windows == 0 {
            return self.snapshot();
        }
        self.apply_poison();
        let shares = self.shares(windows);
        if shares.iter().all(|&s| s == 0) {
            return self.snapshot();
        }
        let (g, cfg, seed, batch_len, cap) =
            (self.g, &self.cfg, self.seed, self.batch_len, self.max_series_batches);
        if self.batch_width <= 1 {
            for (i, &share) in shares.iter().enumerate() {
                if share == 0 {
                    continue;
                }
                self.sessions[i]
                    .get_or_insert_with(|| {
                        AnySession::new(g, cfg, walker_seed(seed, i), batch_len, cap)
                    })
                    .run(share);
            }
        } else {
            // Lock-step engine: walkers advance in groups of
            // `batch_width` lanes. Grouping is pure scheduling — each
            // lane's stream is bit-identical to its scalar run — so the
            // group boundaries need no relation to thread chunks or
            // checkpoint cadence.
            let mut base = 0usize;
            for chunk in self.sessions.chunks_mut(self.batch_width) {
                let mut group = Vec::with_capacity(chunk.len());
                for (off, slot) in chunk.iter_mut().enumerate() {
                    let i = base + off;
                    if shares[i] == 0 {
                        continue;
                    }
                    let s = slot.get_or_insert_with(|| {
                        AnySession::new(g, cfg, walker_seed(seed, i), batch_len, cap)
                    });
                    group.push((s, shares[i]));
                }
                AnySession::run_batch(&mut group);
                base += chunk.len();
            }
        }
        self.after_round(&shares)
    }

    /// Bookkeeping shared by the sequential and threaded advances.
    fn after_round(&mut self, shares: &[usize]) -> Progress {
        for (d, &s) in self.done.iter_mut().zip(shares) {
            *d += s;
        }
        self.rounds += 1;
        // Incremental pooled-merge, adaptive budgets only: fold each
        // walker's new batches (walker order) into the chronological
        // pooled stream. Fixed budgets never consult the pool — their
        // final (and progress) statistics are the walker-order
        // Chan merge of the sessions' own streams, so maintaining a
        // second copy here would be pure waste.
        if let Some(rule) = &self.rule {
            if rule.max_series_batches != 0 {
                // Bounded memory (single walker by construction): the
                // R-batching collapse rewrites the walker's series in
                // place, so suffix counters cannot describe it — the
                // pool mirrors the walker's own (possibly collapsed)
                // statistics wholesale. Below the cap this clone equals
                // the suffix fold bit for bit (one walker's fold is a
                // replay), so bit-identity with the unbounded rule holds
                // until the first collapse.
                if let Some(session) = self.sessions[0].as_ref() {
                    self.pooled = session.stats().clone();
                    self.pooled_batches[0] = self.pooled.batches();
                }
            } else {
                for (session, folded) in self.sessions.iter().zip(&mut self.pooled_batches) {
                    if let Some(session) = session.as_ref() {
                        let stats = session.stats();
                        if stats.batches() > *folded {
                            self.pooled.fold_series_suffix(stats, *folded);
                            *folded = stats.batches();
                        }
                    }
                }
            }
            self.met = self.tracker.observe(rule, &self.pooled, self.steps());
        }
        let p = self.snapshot();
        if let Some(cb) = &self.progress {
            cb(&p);
        }
        p
    }

    /// Scored windows so far, pooled over walkers.
    pub fn steps(&self) -> usize {
        self.done.iter().sum()
    }

    /// Whether the run is over: adaptive target met, or every walker
    /// either exhausted its budget share or sits in quarantine (a
    /// quarantined walker's remaining share is forfeit — the run
    /// *completes*, degraded, instead of spinning on a dead chain).
    pub fn is_finished(&self) -> bool {
        self.met
            || self
                .done
                .iter()
                .zip(&self.caps)
                .zip(&self.status)
                .all(|((d, c), s)| d >= c || !matches!(s, WalkerStatus::Healthy))
    }

    /// Per-walker health, index = walker. All [`WalkerStatus::Healthy`]
    /// unless a [`FaultPlan`] poisoned a chain.
    pub fn walker_status(&self) -> &[WalkerStatus] {
        &self.status
    }

    /// Whether any walker has been quarantined — the handle-level twin
    /// of [`crate::AdaptiveReport::degraded`] (which fixed-budget runs
    /// do not carry).
    pub fn degraded(&self) -> bool {
        self.status.iter().any(|s| !matches!(s, WalkerStatus::Healthy))
    }

    /// (Re-)attaches a progress callback — e.g. after [`Runner::resume`],
    /// since callbacks cannot travel in a snapshot.
    pub fn on_progress(&mut self, f: impl Fn(&Progress) + 'static) {
        self.progress = Some(Rc::new(f));
    }

    /// (Re-)attaches a [`FaultPlan`] — the fault-injection half of
    /// re-adoption. Plans never travel in snapshots (a resumed run
    /// starts fault-free), so a robustness harness that resumes a job
    /// re-arms its remaining faults here. Entries for already-quarantined
    /// walkers are ignored, making it safe to re-attach a plan whose
    /// earlier poisonings the snapshot already absorbed.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// The engine's lock-step group width (1 = scalar engine).
    pub fn batch_width(&self) -> usize {
        self.batch_width
    }

    /// Switches the engine mode for subsequent advances, clamped to
    /// `1..=walkers`. Safe at any point — including on a handle resumed
    /// from a snapshot taken under the other engine — because every
    /// width's sample streams are bit-identical; checkpoints taken after
    /// the switch carry the new width.
    pub fn set_batch_width(&mut self, b: usize) {
        self.batch_width = b.clamp(1, self.caps.len());
    }

    /// Pre-seeds the handle's cached [`graph_fingerprint`] so the first
    /// [`RunHandle::checkpoint`] skips the O(edges) scan — the fresh-start
    /// counterpart of [`Runner::resume_trusted`] for serving layers that
    /// fingerprint each snapshot once at cache-intern time.
    ///
    /// `fingerprint` **must** be `graph_fingerprint` of this handle's
    /// graph; a wrong value would stamp every checkpoint with a foreign
    /// identity and poison later resumes. Debug builds verify the claim.
    pub fn adopt_fingerprint(&mut self, fingerprint: u64) {
        debug_assert_eq!(
            fingerprint,
            graph_fingerprint(self.g),
            "adopted fingerprint must match the handle's graph"
        );
        self.fingerprint = Some(fingerprint);
    }

    /// The current progress snapshot (also what [`RunHandle::advance`]
    /// returns).
    pub fn progress(&self) -> Progress {
        self.snapshot()
    }

    /// The fixed-budget statistics: the walker-order Chan merge of the
    /// sessions' own streams (one walker: that chain's stream,
    /// untouched) — the same fold [`RunHandle::finish`] packs, so
    /// progress widths and the final estimate's widths agree bitwise.
    fn fixed_stats(&self) -> BatchStats {
        let mut stats = BatchStats::new(num_graphlets(self.cfg.k), self.batch_len);
        for session in self.sessions.iter().flatten() {
            stats.merge(session.stats());
        }
        stats
    }

    fn snapshot(&self) -> Progress {
        let (batches, width) = match &self.rule {
            Some(rule) => {
                let crit = rule.critical_value(self.pooled.batches());
                (
                    self.pooled.batches(),
                    self.pooled.max_relative_half_width(crit, rule.min_concentration),
                )
            }
            None => {
                let stats = self.fixed_stats();
                let crit = studentized_critical(1.96, stats.batches());
                (stats.batches(), stats.max_relative_half_width(crit, 0.01))
            }
        };
        Progress {
            steps: self.steps(),
            walkers: self.caps.len(),
            rounds: self.rounds,
            batches,
            width,
            converged: self.met,
            finished: self.is_finished(),
        }
    }

    /// An interim [`Estimate`] of the run so far — raw scores, error
    /// bars, and (for adaptive budgets) the convergence report, exactly
    /// as [`RunHandle::finish`] would pack them at this point.
    pub fn estimate(&self) -> Estimate {
        let accuracy = match &self.rule {
            Some(_) => self.pooled.clone(),
            None => self.fixed_stats(),
        };
        self.assemble(accuracy)
    }

    /// Consumes the handle, returning the final [`Estimate`]. See the
    /// type docs for the bit-identity contract with one-shot runs.
    pub fn finish(mut self) -> Estimate {
        // Same packing as `estimate`, but the pooled statistics (which
        // carry the full batch-mean series) are moved, not cloned.
        let accuracy = match &self.rule {
            Some(_) => std::mem::replace(&mut self.pooled, BatchStats::new(0, 1)),
            None => self.fixed_stats(),
        };
        self.assemble(accuracy)
    }

    /// Packs the handle's current state around the chosen accuracy
    /// statistics (the pool for adaptive budgets, the walker-order Chan
    /// merge for fixed ones).
    fn assemble(&self, accuracy: BatchStats) -> Estimate {
        debug_assert_eq!(
            self.steps(),
            self.sessions.iter().flatten().map(|s| s.scored()).sum::<usize>(),
            "round bookkeeping must match the sessions' scored windows"
        );
        let types = num_graphlets(self.cfg.k);
        let mut raw = vec![0.0f64; types];
        let mut valid = 0usize;
        for session in self.sessions.iter().flatten() {
            for (acc, x) in raw.iter_mut().zip(session.raw()) {
                *acc += x;
            }
            valid += session.valid();
        }
        let adaptive = self.rule.as_ref().map(|rule| {
            let crit = rule.critical_value(accuracy.batches());
            self.tracker.report(
                self.caps.len(),
                self.rounds,
                self.steps(),
                self.met,
                crit,
                self.status.clone(),
            )
        });
        Estimate {
            config: self.cfg.clone(),
            steps: self.steps(),
            valid_samples: valid,
            raw_scores: raw,
            accuracy: Some(accuracy),
            adaptive,
        }
    }

    /// Serializes the run's complete live state into `w` as a versioned,
    /// checksummed snapshot: configuration, budget, per-walker RNG raw
    /// state, walk positions, scoring windows, raw scores, batch-means
    /// accumulators, pooled statistics, and the adaptive tracker's
    /// latches. Call it between advances, at any cadence — resuming via
    /// [`Runner::resume`] and driving to completion reproduces the
    /// uninterrupted run bit for bit.
    ///
    /// Fails with [`GxError::Io`] on writer errors (and, under a
    /// [`FaultPlan::fail_write_after`] budget, by injection — before a
    /// byte is written). A failed checkpoint never perturbs the run: the
    /// handle advances and finishes exactly as if the call had not
    /// happened.
    pub fn checkpoint<W: Write>(&mut self, w: &mut W) -> Result<(), GxError> {
        if let Some(allowed) = self.plan.fail_write_after {
            if self.checkpoints >= allowed {
                return Err(GxError::Io(std::io::ErrorKind::WriteZero));
            }
        }
        let fingerprint = match self.fingerprint {
            Some(fp) => fp,
            None => {
                let fp = graph_fingerprint(self.g);
                self.fingerprint = Some(fp);
                fp
            }
        };
        let payload = self.encode_payload(fingerprint);
        write_envelope(&payload, w)?;
        self.checkpoints += 1;
        Ok(())
    }

    /// [`RunHandle::checkpoint`] onto disk via
    /// [`crate::checkpoint::write_atomic`] (temporary sibling → fsync →
    /// rename): a crash mid-write leaves the previous checkpoint file
    /// intact, never a torn half-write — the property that makes a live
    /// checkpoint cadence safe.
    pub fn checkpoint_to_file<P: AsRef<Path>>(&mut self, path: P) -> Result<(), GxError> {
        let mut bytes = Vec::new();
        self.checkpoint(&mut bytes)?;
        write_atomic(path, &bytes)
    }

    /// The flat field encoding behind [`RunHandle::checkpoint`] (the
    /// envelope is layered on top by the caller).
    fn encode_payload(&self, fingerprint: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, fingerprint);
        put_usize(&mut buf, self.cfg.k);
        put_usize(&mut buf, self.cfg.d);
        put_u8(&mut buf, self.cfg.css as u8);
        put_u8(&mut buf, self.cfg.non_backtracking as u8);
        put_usize(&mut buf, self.cfg.burn_in);
        match &self.rule {
            None => put_u8(&mut buf, 0),
            Some(rule) => {
                put_u8(&mut buf, 1);
                put_f64(&mut buf, rule.target_rel_ci);
                put_usize(&mut buf, rule.check_every);
                put_usize(&mut buf, rule.max_steps);
                put_f64(&mut buf, rule.z);
                put_usize(&mut buf, rule.batch_len);
                put_u64(&mut buf, rule.min_batches);
                put_f64(&mut buf, rule.min_concentration);
                put_u8(&mut buf, rule.per_type as u8);
                put_usize(&mut buf, rule.max_series_batches);
            }
        }
        put_usize(&mut buf, self.batch_len);
        put_u64(&mut buf, self.seed);
        put_usize(&mut buf, self.caps.len());
        put_usize(&mut buf, self.batch_width);
        for &c in &self.caps {
            put_usize(&mut buf, c);
        }
        for &d in &self.done {
            put_usize(&mut buf, d);
        }
        for s in &self.status {
            s.encode_into(&mut buf);
        }
        put_usize(&mut buf, self.rounds);
        put_u8(&mut buf, self.met as u8);
        self.tracker.encode_into(&mut buf);
        self.pooled.encode_into(&mut buf);
        for &b in &self.pooled_batches {
            put_u64(&mut buf, b);
        }
        for s in &self.sessions {
            match s {
                None => put_u8(&mut buf, 0),
                Some(s) => {
                    put_u8(&mut buf, 1);
                    s.encode_into(&mut buf);
                }
            }
        }
        buf
    }

    /// Inverse of [`RunHandle::encode_payload`], validating every field
    /// against its domain, the graph, and the other fields — a
    /// checksum-valid but internally inconsistent payload is a typed
    /// [`CheckpointError`], never a panic.
    fn decode_from(
        r: &mut Reader<'_>,
        g: &'g G,
        trusted: Option<u64>,
        version: u32,
    ) -> Result<Self, GxError> {
        let expected = r.u64("handle.fingerprint")?;
        // A trusted fingerprint (see `Runner::resume_trusted`) replaces
        // the O(edges) rescan with the caller's cached value.
        let found = trusted.unwrap_or_else(|| graph_fingerprint(g));
        if expected != found {
            return Err(CheckpointError::GraphMismatch { expected, found }.into());
        }
        let cfg = EstimatorConfig {
            k: r.usize("cfg.k")?,
            d: r.usize("cfg.d")?,
            css: decode_bool(r, "cfg.css")?,
            non_backtracking: decode_bool(r, "cfg.non_backtracking")?,
            burn_in: r.usize("cfg.burn_in")?,
        };
        if cfg.try_validate().is_err() {
            return Err(CheckpointError::Malformed { what: "cfg" }.into());
        }
        let rule = match r.u8("rule.tag")? {
            0 => None,
            1 => {
                let rule = StoppingRule {
                    target_rel_ci: r.f64("rule.target_rel_ci")?,
                    check_every: r.usize("rule.check_every")?,
                    max_steps: r.usize("rule.max_steps")?,
                    z: r.f64("rule.z")?,
                    batch_len: r.usize("rule.batch_len")?,
                    min_batches: r.u64("rule.min_batches")?,
                    min_concentration: r.f64("rule.min_concentration")?,
                    per_type: decode_bool(r, "rule.per_type")?,
                    max_series_batches: r.usize("rule.max_series_batches")?,
                };
                if rule.try_validate().is_err() {
                    return Err(CheckpointError::Malformed { what: "rule" }.into());
                }
                Some(rule)
            }
            _ => return Err(CheckpointError::Malformed { what: "rule.tag" }.into()),
        };
        let batch_len = r.usize("handle.batch_len")?;
        if batch_len == 0 || rule.as_ref().is_some_and(|r| r.batch_len != batch_len) {
            return Err(CheckpointError::Malformed { what: "handle.batch_len" }.into());
        }
        let seed = r.u64("handle.seed")?;
        let walkers = r.count(1 << 16, "handle.walkers")?;
        if walkers == 0 {
            return Err(CheckpointError::Malformed { what: "handle.walkers" }.into());
        }
        let max_series_batches = rule.as_ref().map_or(0, |r| r.max_series_batches);
        if max_series_batches != 0 && walkers > 1 {
            // check() never lets this combination start a run.
            return Err(CheckpointError::Malformed { what: "rule.max_series_batches" }.into());
        }
        // Format v2 added the engine's group width; v1 snapshots are the
        // scalar engine (width 1). `start()` clamps the width to the
        // walker count, so anything wider — or zero — is corruption.
        let batch_width = if version >= 2 {
            let bw = r.usize("handle.batch_width")?;
            if bw == 0 || bw > walkers {
                return Err(CheckpointError::Malformed { what: "handle.batch_width" }.into());
            }
            bw
        } else {
            1
        };
        let mut caps = Vec::with_capacity(walkers);
        for _ in 0..walkers {
            caps.push(r.usize("handle.caps")?);
        }
        let mut done = Vec::with_capacity(walkers);
        for &cap in &caps {
            let d = r.usize("handle.done")?;
            if d > cap {
                return Err(CheckpointError::Malformed { what: "handle.done" }.into());
            }
            done.push(d);
        }
        let mut status = Vec::with_capacity(walkers);
        for _ in 0..walkers {
            status.push(WalkerStatus::decode_from(r)?);
        }
        let rounds = r.usize("handle.rounds")?;
        let met = decode_bool(r, "handle.met")?;
        let tracker = AdaptiveTracker::decode_from(r)?;
        let types = num_graphlets(cfg.k);
        if tracker.types() != types {
            return Err(CheckpointError::Malformed { what: "handle.tracker" }.into());
        }
        let pooled = BatchStats::decode_from(r)?;
        let pool_ok = pooled.types() == types
            && match (&rule, max_series_batches) {
                // Fixed budgets never fold the pool.
                (None, _) => pooled.batches() == 0 && pooled.batch_len() == batch_len,
                (Some(_), 0) => pooled.batch_len() == batch_len,
                // R-batching collapses double the pooled batch length.
                (Some(_), _) => pooled.batch_len() % batch_len == 0,
            };
        if !pool_ok {
            return Err(CheckpointError::Malformed { what: "handle.pooled" }.into());
        }
        let mut pooled_batches = Vec::with_capacity(walkers);
        for _ in 0..walkers {
            pooled_batches.push(r.u64("handle.pooled_batches")?);
        }
        let mut sessions = Vec::with_capacity(walkers);
        for &scored in &done {
            match r.u8("handle.session.tag")? {
                0 if scored == 0 => sessions.push(None),
                0 => return Err(CheckpointError::Malformed { what: "handle.session" }.into()),
                1 => {
                    let session = AnySession::decode_from(r, g, &cfg)?;
                    if session.scored() != scored {
                        return Err(
                            CheckpointError::Malformed { what: "handle.session.scored" }.into()
                        );
                    }
                    sessions.push(Some(session));
                }
                _ => return Err(CheckpointError::Malformed { what: "handle.session.tag" }.into()),
            }
        }
        Ok(Self {
            g,
            cfg,
            rule,
            batch_len,
            max_series_batches,
            batch_width,
            seed,
            caps,
            sessions,
            done,
            status,
            pooled,
            pooled_batches,
            tracker,
            rounds,
            met,
            progress: None,
            plan: FaultPlan::none(),
            fingerprint: Some(expected),
            checkpoints: 0,
        })
    }
}

/// Reads a `bool` stored as a strict `0`/`1` byte.
fn decode_bool(r: &mut Reader<'_>, what: &'static str) -> Result<bool, CheckpointError> {
    match r.u8(what)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CheckpointError::Malformed { what }),
    }
}

impl<'g, G: GraphAccess + Sync> RunHandle<'g, G> {
    /// [`RunHandle::advance`] with the walkers fanned across the
    /// machine's cores (one OS thread per core, each running a
    /// contiguous chunk of walkers). State evolution — and therefore
    /// every subsequent output — is bit-identical to [`RunHandle::advance`]:
    /// shares (quarantines included) are precomputed before any thread
    /// spawns, and pooling and merging happen on the calling thread in
    /// walker order.
    ///
    /// `advance_par(0)` is the same documented no-op as
    /// [`RunHandle::advance`]`(0)`: no threads spawn, nothing moves, the
    /// current [`Progress`] is returned.
    pub fn advance_par(&mut self, windows: usize) -> Progress {
        if windows == 0 {
            return self.snapshot();
        }
        self.apply_poison();
        let shares = self.shares(windows);
        if shares.iter().all(|&s| s == 0) {
            return self.snapshot();
        }
        let threads = available_cores().min(self.sessions.len());
        let chunk = self.sessions.len().div_ceil(threads);
        let (g, cfg, seed, batch_len, cap) =
            (self.g, &self.cfg, self.seed, self.batch_len, self.max_series_batches);
        let bw = self.batch_width;
        std::thread::scope(|scope| {
            for (c, slots) in self.sessions.chunks_mut(chunk).enumerate() {
                let shares = &shares;
                scope.spawn(move || {
                    if bw <= 1 {
                        for (off, slot) in slots.iter_mut().enumerate() {
                            let i = c * chunk + off;
                            if shares[i] == 0 {
                                continue;
                            }
                            slot.get_or_insert_with(|| {
                                AnySession::new(g, cfg, walker_seed(seed, i), batch_len, cap)
                            })
                            .run(shares[i]);
                        }
                    } else {
                        // Lock-step groups within this thread's walkers.
                        // Group boundaries are scheduling-only (each
                        // lane's stream is bit-identical regardless), so
                        // sub-chunking the thread chunk is fine even when
                        // the two chunk sizes do not divide evenly.
                        let mut base = 0usize;
                        for sub in slots.chunks_mut(bw) {
                            let mut group = Vec::with_capacity(sub.len());
                            for (off, slot) in sub.iter_mut().enumerate() {
                                let i = c * chunk + base + off;
                                if shares[i] == 0 {
                                    continue;
                                }
                                let s = slot.get_or_insert_with(|| {
                                    AnySession::new(g, cfg, walker_seed(seed, i), batch_len, cap)
                                });
                                group.push((s, shares[i]));
                            }
                            AnySession::run_batch(&mut group);
                            base += sub.len();
                        }
                    }
                });
            }
        });
        self.after_round(&shares)
    }
}
