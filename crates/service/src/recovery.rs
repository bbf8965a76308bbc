//! The lease runner and recovery machinery: one scheduler lease =
//! resume a job from its round-boundary snapshot, advance it a bounded
//! number of rounds, snapshot it back.
//!
//! Making the snapshot the *only* representation of a descheduled job
//! is the load-bearing design decision of the service: scheduling a job
//! onto a different worker, migrating it off a quarantined one, and
//! recovering it after a crash are all the same operation — feed the
//! last round-boundary snapshot to [`gx_core::Runner::resume_trusted`].
//! There is no "live" job state a panic can corrupt: a worker that dies
//! mid-lease loses only that lease's rounds, and the PR 6 golden-bit
//! checkpoint contract makes the replay bit-identical to a run that was
//! never interrupted.
//!
//! Checkpoint writes are the one step that must not fail silently:
//! transient faults are retried under [`BackoffPolicy`] (capped
//! exponential with deterministic jitter), and the retry loop keeps
//! honoring cancellation and deadlines so a persistently-failing store
//! still terminates the job with a typed outcome.

use crate::api::{JobBudget, JobFaults};
use crate::deadline::Deadline;
use crate::scheduler::JobShared;
use crate::sync::locked;
use gx_core::{Estimate, FaultPlan, Runner};
use gx_graph::hash::{splitmix64, SPLITMIX_GAMMA};
use gx_graph::Graph;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Capped exponential backoff with deterministic jitter, used between
/// checkpoint-write retries.
///
/// Delay for attempt `n` (0-based) is `min(cap, base · 2ⁿ)`, scaled by
/// a jitter factor in `[0.5, 1.0]` derived from a SplitMix64 stream of
/// `(seed, n)` — deterministic per job, so fault-injection tests replay
/// exactly, while distinct jobs desynchronize instead of thundering
/// onto a recovering checkpoint store in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-retry delay.
    pub base: Duration,
    /// Ceiling no delay exceeds (pre-jitter).
    pub cap: Duration,
}

impl Default for BackoffPolicy {
    /// 500µs doubling to a 50ms cap: fast enough that a blip costs
    /// microseconds, slow enough that a struggling store is not hammered.
    fn default() -> Self {
        Self { base: Duration::from_micros(500), cap: Duration::from_millis(50) }
    }
}

impl BackoffPolicy {
    /// The delay before retry `attempt` (0-based) for a job keyed by
    /// `seed`.
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.cap);
        // Jitter in [0.5, 1.0]: half-scale at minimum keeps the backoff
        // meaningful, full-scale at maximum never exceeds the cap.
        let mix = splitmix64((seed ^ u64::from(attempt)).wrapping_add(SPLITMIX_GAMMA));
        let jitter = 0.5 + 0.5 * (mix as f64 / u64::MAX as f64);
        capped.mul_f64(jitter)
    }
}

/// Worker panics one job may cause before the scheduler stops
/// re-adopting it and resolves it as [`gx_core::ServiceError::Poisoned`].
/// Injected panics fire once per plan, so only a lease that panics
/// deterministically — a corrupt snapshot body, a bug — reaches it.
pub const MAX_RECOVERIES: usize = 3;

/// The panic payload of an injected worker failure, so robustness tests
/// can distinguish (and silence) injected crashes from real bugs. See
/// [`crate::silence_injected_panics`].
#[derive(Debug)]
pub struct InjectedWorkerPanic;

/// Everything one lease needs, copied out of the scheduler's job record
/// under the lock and owned by the worker for the lease's duration. The
/// worker holds **no lock** while running a lease, so a panicking lease
/// can never poison the scheduler.
pub(crate) struct Lease {
    pub graph: Arc<Graph>,
    pub fingerprint: u64,
    pub cfg: gx_core::EstimatorConfig,
    pub budget: JobBudget,
    pub walkers: usize,
    pub seed: u64,
    /// The job's last round-boundary snapshot (`None` before its first
    /// lease). The scheduler keeps its own copy: this one is the
    /// worker's to consume, and a panic mid-lease forfeits nothing.
    pub snapshot: Option<Vec<u8>>,
    /// Job rounds completed before this lease (for fault round
    /// accounting).
    pub rounds_done: usize,
    /// Rounds this lease may run (the job's DRR deficit grant).
    pub rounds_budget: usize,
    /// Scored windows per round (the job's natural advance increment).
    pub round_windows: usize,
    /// This lease's slice of the job's fault plan (injected panic
    /// pre-armed by the scheduler; checkpoint-failure budget consumed
    /// here and returned through [`LeaseEnd::Yielded`]).
    pub faults: JobFaults,
    pub backoff: BackoffPolicy,
    pub deadline: Deadline,
    pub shared: Arc<JobShared>,
}

/// How a lease ended. Terminal variants resolve the job; `Yielded`
/// returns it to the scheduler's ready queue.
pub(crate) enum LeaseEnd {
    /// The job's budget (or stopping rule) completed.
    Finished { estimate: Box<Estimate>, degraded: bool },
    /// The lease's round grant is spent; the job continues later from
    /// this snapshot.
    /// (Degradation needs no field here: quarantined-walker status is
    /// part of the snapshot and resurfaces on resume.)
    Yielded {
        snapshot: Vec<u8>,
        rounds_run: usize,
        /// Checkpoint-write retries this lease burned (telemetry).
        checkpoint_retries: usize,
        /// Remaining injected checkpoint-failure budget, written back to
        /// the job record.
        checkpoint_failures_left: usize,
    },
    /// The submitter's cancel flag was observed.
    Cancelled { partial: Option<Box<Estimate>>, degraded: bool },
    /// The job's deadline passed.
    DeadlineExceeded { partial: Option<Box<Estimate>>, degraded: bool },
}

/// Runs one lease to its end. Panics only by injection
/// ([`JobFaults::panic_at_round`]) or on a genuine bug — either way the
/// worker catches it, quarantines itself, and the scheduler re-adopts
/// the job from the snapshot it still holds.
pub(crate) fn run_lease(lease: Lease) -> LeaseEnd {
    let Lease {
        graph,
        fingerprint,
        cfg,
        budget,
        walkers,
        seed,
        snapshot,
        rounds_done,
        rounds_budget,
        round_windows,
        mut faults,
        backoff,
        deadline,
        shared,
    } = lease;
    let g: &Graph = &graph;

    // Cheap pre-checks before any handle is built: a job cancelled or
    // expired while queued terminates here, with a partial estimate
    // only if an earlier lease left a snapshot to read it from.
    let partial_only = |snapshot: &Option<Vec<u8>>| -> (Option<Box<Estimate>>, bool) {
        match snapshot {
            None => (None, false),
            Some(bytes) => match Runner::resume_trusted(g, fingerprint, &mut bytes.as_slice()) {
                Ok(h) => (Some(Box::new(h.estimate())), h.degraded()),
                Err(_) => (None, false),
            },
        }
    };
    if shared.cancel.load(Ordering::Acquire) {
        let (partial, degraded) = partial_only(&snapshot);
        return LeaseEnd::Cancelled { partial, degraded };
    }
    if deadline.expired() {
        let (partial, degraded) = partial_only(&snapshot);
        return LeaseEnd::DeadlineExceeded { partial, degraded };
    }

    // Materialize the run: resume the snapshot (trusted fingerprint —
    // the cache computed it once at intern time) or start fresh. The
    // spec was validated at submit, and our own snapshots round-trip by
    // the PR 6 contract, so failures here are bugs, not inputs.
    let plan =
        |fail: Option<usize>| FaultPlan { fail_write_after: fail, poison: faults.poison.clone() };
    let mut handle = match &snapshot {
        Some(bytes) => Runner::resume_trusted(g, fingerprint, &mut bytes.as_slice())
            // gx-lint: allow(panic_surface) -- deliberate: runs under the worker catch_unwind boundary; a snapshot we wrote that fails to resume is a checkpoint-subsystem bug, and panicking quarantines the worker and re-adopts the job
            .expect("own round-boundary snapshot must resume"),
        None => {
            let runner = match &budget {
                JobBudget::Fixed(steps) => Runner::new(cfg.clone()).steps(*steps),
                JobBudget::Until(rule) => Runner::new(cfg.clone()).until(rule.clone()),
            };
            let mut h = runner
                .seed(seed)
                .walkers(walkers)
                .start(g)
                // gx-lint: allow(panic_surface) -- deliberate: admission already validated this spec; reaching here means the validators diverged, which the catch_unwind boundary converts into quarantine + re-adopt rather than a wedged job
                .expect("job spec was validated at submit");
            h.adopt_fingerprint(fingerprint);
            h
        }
    };
    handle.set_faults(plan(None));

    // The round loop: cooperative cancellation/deadline checks between
    // rounds, the injected worker panic fired *before* the round it
    // names (so the job's last snapshot is exactly the round boundary
    // the recovery conformance test replays from).
    let mut rounds_run = 0usize;
    while rounds_run < rounds_budget {
        if shared.cancel.load(Ordering::Acquire) {
            let degraded = handle.degraded();
            return LeaseEnd::Cancelled { partial: Some(Box::new(handle.estimate())), degraded };
        }
        if deadline.expired() {
            let degraded = handle.degraded();
            return LeaseEnd::DeadlineExceeded {
                partial: Some(Box::new(handle.estimate())),
                degraded,
            };
        }
        let next_round = rounds_done + rounds_run + 1;
        if faults.panic_at_round.is_some_and(|at| next_round >= at) {
            std::panic::panic_any(InjectedWorkerPanic);
        }
        let progress = handle.advance(round_windows);
        rounds_run += 1;
        *locked(&shared.progress) = Some(progress);
        if progress.finished {
            let degraded = handle.degraded();
            return LeaseEnd::Finished { estimate: Box::new(handle.finish()), degraded };
        }
    }

    // Deschedule: snapshot at the round boundary, retrying transient
    // write faults (injected ones consume the fault budget through the
    // same typed-error path a real store failure would take). The loop
    // still honors cancellation and deadlines, so a store that never
    // recovers cannot wedge the job.
    let mut retries = 0usize;
    let mut attempt = 0u32;
    loop {
        if shared.cancel.load(Ordering::Acquire) {
            let degraded = handle.degraded();
            return LeaseEnd::Cancelled { partial: Some(Box::new(handle.estimate())), degraded };
        }
        if deadline.expired() {
            let degraded = handle.degraded();
            return LeaseEnd::DeadlineExceeded {
                partial: Some(Box::new(handle.estimate())),
                degraded,
            };
        }
        let inject = faults.checkpoint_write_failures > 0;
        handle.set_faults(plan(if inject { Some(0) } else { None }));
        let mut buf = Vec::new();
        match handle.checkpoint(&mut buf) {
            Ok(()) => {
                return LeaseEnd::Yielded {
                    snapshot: buf,
                    rounds_run,
                    checkpoint_retries: retries,
                    checkpoint_failures_left: faults.checkpoint_write_failures,
                };
            }
            Err(_) => {
                // Typed failure (injected or real); the run itself is
                // unperturbed — a failed checkpoint never moves a sample.
                if inject {
                    faults.checkpoint_write_failures -= 1;
                }
                retries += 1;
                std::thread::sleep(backoff.delay(attempt, seed ^ shared.id));
                attempt = attempt.saturating_add(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_grows() {
        let p = BackoffPolicy::default();
        assert_eq!(p.delay(3, 7), p.delay(3, 7), "same (attempt, seed), same delay");
        for attempt in 0..20 {
            let d = p.delay(attempt, 42);
            assert!(d <= p.cap, "jittered delay must respect the cap");
            assert!(d >= p.base / 2, "jitter floor is half the base schedule");
        }
        // The pre-jitter schedule doubles: even the minimum jitter at
        // attempt 4 exceeds the maximum jitter at attempt 0.
        assert!(p.delay(4, 1).as_nanos() > p.delay(0, 1).as_nanos());
    }

    #[test]
    fn backoff_jitter_desynchronizes_distinct_jobs() {
        let p = BackoffPolicy::default();
        // Not a randomness test — just that the seed actually reaches
        // the jitter, so fleets of jobs do not retry in lockstep.
        let distinct: std::collections::HashSet<u128> =
            (0..16).map(|seed| p.delay(2, seed).as_nanos()).collect();
        assert!(distinct.len() > 1);
    }
}
