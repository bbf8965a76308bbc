//! The service front door: [`EstimationService::submit`] /
//! [`JobHandle`] — submit, poll, cancel, wait.
//!
//! A [`JobSpec`] is the serving-layer twin of [`gx_core::Runner`]: the
//! same config × budget × fan-out × seed axes, plus the job-level knobs
//! a multiplexed run needs (scheduling weight, deadline, fault plan).
//! Every job submitted to a live service terminates in exactly one
//! typed outcome — `Ok(Estimate)` or a
//! [`ServiceError`] — never a hang, never an
//! escaped panic.

use crate::cache::SnapshotCache;
use crate::recovery::BackoffPolicy;
use crate::scheduler::{self, JobShared, ServiceShared};
use crate::sync::{locked, wait_timeout_unpoisoned, wait_unpoisoned};
use gx_core::parallel::available_cores;
use gx_core::{
    Estimate, EstimatorConfig, FaultPlan, GxError, Progress, ServiceError, StoppingRule,
};
use gx_graph::hash::{splitmix64, SPLITMIX_GAMMA};
use gx_graph::Graph;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifier of a submitted job, unique within one service.
pub type JobId = u64;

/// The job's step budget — the service-side mirror of the runner's
/// fixed/adaptive axis.
#[derive(Debug, Clone)]
pub(crate) enum JobBudget {
    /// Score exactly this many windows.
    Fixed(usize),
    /// Walk until the rule converges (or its cap).
    Until(StoppingRule),
}

/// Deterministic fault plan for one job — the service-level extension
/// of [`gx_core::FaultPlan`], covering the failure modes the *pool*
/// (not a single run) must survive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobFaults {
    /// Panic the worker right before it would advance this job round
    /// (1-based), exactly once. Exercises worker quarantine +
    /// checkpoint re-adoption; the panic payload is
    /// [`crate::InjectedWorkerPanic`].
    pub panic_at_round: Option<usize>,
    /// Fail this many end-of-lease checkpoint writes (typed I/O errors
    /// through the real [`gx_core::RunHandle::checkpoint`] fault path)
    /// before letting one succeed. Exercises the capped-backoff retry
    /// loop.
    pub checkpoint_write_failures: usize,
    /// `(walker, round)` chain poisonings, threaded into the run's core
    /// [`FaultPlan`]. Exercises graceful degradation: the job completes
    /// on surviving walkers, flagged degraded.
    pub poison: Vec<(usize, usize)>,
}

impl JobFaults {
    /// No faults (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether this plan injects nothing.
    pub fn is_none(&self) -> bool {
        *self == Self::none()
    }

    /// A deterministic pseudo-random plan (SplitMix64 over `seed`):
    /// each fault family fires with probability ~1/3, rounds drawn from
    /// `1..=max_round`, poisonings over `0..walkers`. Same seed, same
    /// plan — the chaos-test form of hand-picking faults.
    pub fn from_seed(seed: u64, walkers: usize, max_round: usize) -> Self {
        assert!(walkers >= 1 && max_round >= 1, "fault plans need a walker and a round");
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(1);
            splitmix64(x.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(SPLITMIX_GAMMA))
        };
        let mut faults = Self::none();
        if next() % 3 == 0 {
            faults.poison = FaultPlan::from_seed(next(), walkers, max_round).poison;
        }
        if next() % 3 == 0 {
            faults.panic_at_round = Some(1 + (next() % max_round as u64) as usize);
        }
        if next() % 3 == 0 {
            faults.checkpoint_write_failures = 1 + (next() % 3) as usize;
        }
        faults
    }
}

/// One estimation job: which graph, what to estimate, how accurately,
/// and under which serving constraints. Built with method chaining and
/// submitted via [`EstimationService::submit`].
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub(crate) graph: Arc<Graph>,
    pub(crate) cfg: EstimatorConfig,
    pub(crate) budget: Option<JobBudget>,
    pub(crate) walkers: usize,
    pub(crate) seed: u64,
    pub(crate) weight: u32,
    pub(crate) deadline: Option<Duration>,
    pub(crate) round_windows: Option<usize>,
    pub(crate) faults: JobFaults,
}

impl JobSpec {
    /// A job estimating `cfg` on `graph`, with no budget yet, one
    /// walker, seed 0, weight 1, no deadline, and no faults.
    ///
    /// `graph` is built in RAM or opened from a `.gxsn` snapshot
    /// ([`Graph::open`], or [`SnapshotCache::from_mapped`] to share one
    /// mapping); a mapped job runs straight off the page cache.
    /// Submitting the same `Arc` (or the canonical one a previous submit
    /// shared) skips the per-submit fingerprint scan, and a mapped
    /// snapshot never needs one: its header carries the fingerprint.
    pub fn new(graph: Arc<Graph>, cfg: EstimatorConfig) -> Self {
        Self {
            graph,
            cfg,
            budget: None,
            walkers: 1,
            seed: 0,
            weight: 1,
            deadline: None,
            round_windows: None,
            faults: JobFaults::none(),
        }
    }

    /// Fixed budget: score exactly `steps` windows.
    pub fn steps(mut self, steps: usize) -> Self {
        self.budget = Some(JobBudget::Fixed(steps));
        self
    }

    /// Adaptive budget: walk until `rule` converges or its cap.
    pub fn until(mut self, rule: StoppingRule) -> Self {
        self.budget = Some(JobBudget::Until(rule));
        self
    }

    /// Fan the budget over `walkers` independent chains.
    pub fn walkers(mut self, walkers: usize) -> Self {
        self.walkers = walkers;
        self
    }

    /// Seed of the run (same contract as [`gx_core::Runner::seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scheduling weight: rounds granted per scheduler cycle (clamped
    /// to ≥ 1). A weight-2 job advances twice per deficit-round-robin
    /// cycle; it gets done sooner but cannot starve anyone — every
    /// job's grant still arrives once per cycle.
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Deadline, measured from admission. An expired job terminates as
    /// [`ServiceError::DeadlineExceeded`] with its best-effort partial
    /// estimate attached — the clock runs while queued, so a starved
    /// job times out honestly.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Scored windows per scheduler round for **fixed** budgets
    /// (default `steps / 8`, floor 1). Fixed-budget output is
    /// schedule-independent, so this only trades scheduling granularity
    /// against per-lease overhead. Adaptive budgets always advance on
    /// their rule's `check_every` cadence — the check schedule decides
    /// where the run stops, and keeping it makes a service job
    /// golden-bit identical to the same run driven solo.
    pub fn round_windows(mut self, windows: usize) -> Self {
        self.round_windows = Some(windows.max(1));
        self
    }

    /// Attaches a deterministic [`JobFaults`] plan (robustness testing
    /// only).
    pub fn faults(mut self, faults: JobFaults) -> Self {
        self.faults = faults;
        self
    }
}

/// How the service terminated one job — every field observable exactly
/// once the job is done (via [`JobHandle::wait`] or
/// [`JobHandle::try_result`]).
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The typed terminal outcome: the finished estimate, or why the
    /// service ended the job early.
    pub outcome: Result<Estimate, ServiceError>,
    /// Best-effort partial estimate for jobs ended early (cancelled /
    /// deadline-exceeded after at least one scheduler round). `None`
    /// when the job never advanced.
    pub partial: Option<Estimate>,
    /// Whether any of the job's walkers was quarantined mid-run
    /// (graceful degradation — see [`gx_core::WalkerStatus`]).
    pub degraded: bool,
    /// Scheduler leases the job received (excluding leases lost to a
    /// worker failure).
    pub leases: usize,
    /// Worker failures during the job's leases. Each was followed by a
    /// re-adoption from the job's checkpoint, except the last one of a
    /// [`ServiceError::Poisoned`] job.
    pub recoveries: usize,
    /// Checkpoint-write retries spent across all leases.
    pub checkpoint_retries: usize,
    /// Global lease sequence number of the job's first lease.
    pub first_lease_seq: Option<u64>,
    /// Global lease sequence number of the job's last lease.
    pub last_lease_seq: Option<u64>,
}

/// The submitter's handle to one job: poll progress, cancel, await the
/// typed outcome. Dropping the handle does **not** cancel the job.
#[derive(Debug, Clone)]
pub struct JobHandle {
    pub(crate) shared: Arc<JobShared>,
}

impl JobHandle {
    /// The job's service-unique id.
    pub fn id(&self) -> JobId {
        self.shared.id
    }

    /// Requests cooperative cancellation: the worker observes the flag
    /// between scheduler rounds and terminates the job as
    /// [`ServiceError::Cancelled`] with its partial estimate attached.
    /// Idempotent; a job that finishes before noticing stays `Ok`.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Release);
    }

    /// The latest [`Progress`] snapshot (updated after every scheduler
    /// round), `None` before the job's first round.
    pub fn progress(&self) -> Option<Progress> {
        *locked(&self.shared.progress)
    }

    /// The result if the job already terminated, without blocking.
    pub fn try_result(&self) -> Option<JobResult> {
        locked(&self.shared.result).clone()
    }

    /// Blocks until the job terminates. Always returns on a live or
    /// shut-down service: shutdown resolves every incomplete job as
    /// [`ServiceError::Shutdown`] rather than leaving waiters hanging.
    pub fn wait(&self) -> JobResult {
        let mut slot = locked(&self.shared.result);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = wait_unpoisoned(&self.shared.done, slot);
        }
    }

    /// [`JobHandle::wait`] bounded by `timeout` — the watchdog form.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        // Wall-clock deadline arithmetic is inherently timing code.
        #[allow(clippy::disallowed_methods)]
        let deadline = Instant::now() + timeout;
        let mut slot = locked(&self.shared.result);
        while slot.is_none() {
            #[allow(clippy::disallowed_methods)]
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (s, _) = wait_timeout_unpoisoned(&self.shared.done, slot, left);
            slot = s;
        }
        slot.clone()
    }
}

/// Sizing and policy of an [`EstimationService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads in the pool (clamped to ≥ 1). Defaults to the
    /// machine's available cores.
    pub workers: usize,
    /// Admission bound: maximum incomplete (queued + in-flight) jobs
    /// before submissions shed as [`ServiceError::Rejected`].
    pub max_pending: usize,
    /// Checkpoint-write retry backoff.
    pub backoff: BackoffPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { workers: available_cores(), max_pending: 64, backoff: BackoffPolicy::default() }
    }
}

/// A point-in-time observability snapshot of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Worker threads currently pulling leases.
    pub healthy_workers: usize,
    /// Workers quarantined after a panic (each was replaced, so
    /// capacity is unchanged).
    pub quarantined_workers: usize,
    /// Jobs waiting in the ready queue.
    pub queued: usize,
    /// Jobs currently leased to a worker.
    pub in_flight: usize,
    /// Jobs terminated (any outcome).
    pub completed: u64,
    /// Jobs offered to `submit` (admitted or not).
    pub submitted: u64,
    /// Jobs shed by admission control.
    pub rejected: u64,
    /// Scheduler leases granted so far.
    pub leases: u64,
    /// Jobs re-adopted from a checkpoint after a worker failure
    /// (counted per failure, not per job).
    pub recoveries: u64,
    /// Distinct graph snapshots in the shared cache.
    pub cached_snapshots: usize,
}

/// A fault-tolerant multi-job estimation service: a fixed worker pool
/// multiplexing many concurrent jobs over shared graph snapshots.
///
/// * **Fairness** — deficit-round-robin over `advance(windows)` rounds:
///   every incomplete job's next grant is at most one scheduler cycle
///   away, so a ±1% job cannot starve a ±10% job (see
///   [`JobSpec::weight`]).
/// * **Robustness** — per-job deadlines and cooperative cancellation
///   terminate as typed [`ServiceError`]s with
///   partial estimates attached; admission control sheds overload as
///   `Rejected` with a retry hint; transient checkpoint-write faults
///   retry under capped backoff with jitter; a panicking worker is
///   quarantined and replaced while its job is re-adopted from its last
///   round-boundary checkpoint by a surviving worker.
/// * **Determinism** — a job's advance schedule is its own (the rule's
///   `check_every` cadence, or the fixed-budget increment), independent
///   of how jobs interleave, so a fault-free service job is golden-bit
///   identical to the same run driven solo through [`gx_core::Runner`].
///
/// ```
/// use gx_service::{EstimationService, JobSpec, ServiceConfig};
/// use gx_core::EstimatorConfig;
/// use std::sync::Arc;
///
/// let g = Arc::new(gx_graph::generators::classic::paper_figure1());
/// let service = EstimationService::start(ServiceConfig::default());
/// let job = service
///     .submit(JobSpec::new(g, EstimatorConfig::recommended(3)).steps(5_000).seed(7))
///     .expect("admitted");
/// let result = job.wait();
/// assert!(result.outcome.is_ok());
/// ```
#[derive(Debug)]
pub struct EstimationService {
    shared: Arc<ServiceShared>,
}

impl EstimationService {
    /// Starts the worker pool and returns the service front door.
    pub fn start(config: ServiceConfig) -> Self {
        Self { shared: ServiceShared::start(config) }
    }

    /// Submits a job. Returns the handle, or a typed refusal:
    /// [`GxError::Service`] with [`ServiceError::Rejected`] when
    /// admission control sheds it (resubmit after the hint) or
    /// [`ServiceError::Shutdown`] on a stopped service, and the same
    /// config/rule/fan-out [`GxError`]s [`gx_core::Runner`] would
    /// return for an invalid spec — invalid jobs are refused at the
    /// door, not discovered on a worker.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, GxError> {
        scheduler::submit(&self.shared, spec)
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// Drops cached graph snapshots no incomplete job references,
    /// returning how many were evicted.
    pub fn evict_unused_snapshots(&self) -> usize {
        self.shared.cache.evict_unused()
    }

    /// The shared snapshot cache (mainly for tests and diagnostics).
    pub fn snapshot_cache(&self) -> &SnapshotCache {
        &self.shared.cache
    }

    /// Stops the service: running leases finish, every incomplete job
    /// resolves as [`ServiceError::Shutdown`] (waiters never hang), and
    /// the worker threads are joined. Idempotent; also invoked by
    /// `Drop`.
    pub fn shutdown(&self) {
        scheduler::shutdown(&self.shared);
    }
}

impl Drop for EstimationService {
    fn drop(&mut self) {
        scheduler::shutdown(&self.shared);
    }
}
