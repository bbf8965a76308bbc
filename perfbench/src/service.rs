//! Closed-loop load on `EstimationService`: one submitting thread keeps
//! a fixed number of jobs outstanding, and every job's estimate must be
//! bit-identical to the same spec run solo through `Runner`.

use crate::calib::{self, Kernel};
use crate::ops::{Outcome, Resolved};
use crate::stats::{jain, mean, median};
use gx_core::{Estimate, EstimatorConfig, Runner, StoppingRule};
use gx_graph::Graph;
use gx_service::{EstimationService, JobHandle, JobResult, JobSpec, ServiceConfig};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One job spec, its solo reference and the truth it is checked against.
pub struct PoolJob {
    pub graph: Arc<Graph>,
    pub cfg: EstimatorConfig,
    pub budget: Budget,
    pub walkers: usize,
    pub seed: u64,
    pub truth: Option<Arc<Resolved>>,
    /// The same spec run solo through `Runner`, and its wall time.
    pub solo: Estimate,
    pub solo_s: f64,
}

/// The run a pool job describes, as a `Runner`.
fn runner_for(cfg: &EstimatorConfig, budget: &Budget, walkers: usize, seed: u64) -> Runner {
    let r = Runner::new(cfg.clone()).walkers(walkers).seed(seed);
    match budget {
        Budget::Fixed(steps) => r.steps(*steps),
        Budget::Until(rule) => r.until(rule.clone()),
    }
}

/// A pool job's budget.
#[derive(Clone)]
pub enum Budget {
    Fixed(usize),
    Until(StoppingRule),
}

impl PoolJob {
    fn spec(&self) -> JobSpec {
        let s = JobSpec::new(self.graph.clone(), self.cfg.clone())
            .walkers(self.walkers)
            .seed(self.seed);
        match &self.budget {
            Budget::Fixed(steps) => s.steps(*steps),
            Budget::Until(rule) => s.until(rule.clone()),
        }
    }

    /// Builds the job and its solo reference (run and timed here).
    pub fn new(
        graph: Arc<Graph>,
        cfg: EstimatorConfig,
        budget: Budget,
        walkers: usize,
        seed: u64,
        truth: Option<Arc<Resolved>>,
    ) -> Result<Self, String> {
        let t0 = Instant::now();
        let solo = runner_for(&cfg, &budget, walkers, seed)
            .run_local(&*graph)
            .map_err(|e| e.to_string())?;
        let solo_s = t0.elapsed().as_secs_f64();
        Ok(Self { graph, cfg, budget, walkers, seed, truth, solo, solo_s })
    }

    pub fn adaptive(&self) -> bool {
        matches!(self.budget, Budget::Until(_))
    }
}

fn bits(e: &Estimate) -> Vec<u64> {
    e.raw_scores.iter().map(|x| x.to_bits()).collect()
}

/// One completed job.
pub struct JobRecord {
    pub pool_index: usize,
    pub latency_s: f64,
    pub submit_s: f64,
    pub leases: usize,
    pub steps: usize,
    pub rel_err: f64,
    pub ok: Result<(), String>,
    /// The calibration segment the job ran in.
    pub segment: usize,
}

/// The outcome of a closed loop.
pub struct MixResult {
    pub jobs: Vec<JobRecord>,
    /// The untimed warm-up jobs (checked like the rest).
    pub warm: Vec<JobRecord>,
    pub wall_s: f64,
    pub workers: usize,
    /// Submissions refused at the door, and jobs with no result within
    /// [`JOB_TIMEOUT`].
    pub lost: u64,
    /// Wall time of each calibration segment (one segment when the
    /// loop is not calibrated), and host speed against nominal in each.
    pub segments: Vec<f64>,
    pub scale: Vec<f64>,
}

/// How long a job may go without a result before it counts as lost.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs the closed loop until `seconds` have passed and at least
/// `min_jobs` jobs completed (or exactly `max_jobs`, if given),
/// submitting `pool[order[n % order.len()]]` as the `n`-th job.
///
/// With `calib = Some((kernel, segment_s))` the loop runs in segments of
/// about `segment_s`: at the end of each it stops submitting, lets the
/// service drain, and times a chunk of `kernel` on every worker's core,
/// so each segment's jobs can be scaled by the host's speed around it.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    pool: &[PoolJob],
    order: &[usize],
    workers: usize,
    outstanding: usize,
    seconds: f64,
    min_jobs: usize,
    max_jobs: Option<usize>,
    calib: Option<(&Kernel, f64)>,
) -> MixResult {
    let service = EstimationService::start(ServiceConfig { workers, ..ServiceConfig::default() });
    let mut pending: VecDeque<(usize, Instant, f64, JobHandle)> = VecDeque::new();
    let mut out = MixResult {
        jobs: Vec::new(),
        warm: Vec::new(),
        wall_s: 0.0,
        workers,
        lost: 0,
        segments: Vec::new(),
        scale: Vec::new(),
    };
    // Warm-up, untimed: the first two jobs of the order, so every graph
    // is interned (fingerprinted) before the clock starts.
    for &i in order.iter().take(2) {
        let t0 = Instant::now();
        match service.submit(pool[i].spec()) {
            Ok(h) => match h.wait_timeout(JOB_TIMEOUT) {
                Some(result) => out.warm.push(record(pool, i, t0, 0.0, Instant::now(), &result)),
                None => out.lost += 1,
            },
            Err(_) => out.lost += 1,
        }
    }
    let mut chunks = Vec::new();
    let chunk = |chunks: &mut Vec<f64>| {
        if let Some((k, _)) = calib {
            chunks.push(k.chunk(workers));
        }
    };
    chunk(&mut chunks);
    let mut next = 0usize;
    let start = Instant::now();
    let mut seg_start = start;
    let mut submitting = true;
    let mut draining = false;
    loop {
        let done = out.jobs.len();
        submitting = submitting
            && match max_jobs {
                Some(cap) => next < cap,
                None => start.elapsed().as_secs_f64() < seconds || done + pending.len() < min_jobs,
            };
        draining |= calib.is_some_and(|(_, seg)| seg_start.elapsed().as_secs_f64() >= seg);
        if submitting && draining && pending.is_empty() {
            out.segments.push(seg_start.elapsed().as_secs_f64());
            chunk(&mut chunks);
            (seg_start, draining) = (Instant::now(), false);
        }
        while submitting
            && !draining
            && pending.len() < outstanding
            && max_jobs.is_none_or(|cap| next < cap)
        {
            let i = order[next % order.len()];
            next += 1;
            let t0 = Instant::now();
            match service.submit(pool[i].spec()) {
                Ok(h) => pending.push_back((i, t0, t0.elapsed().as_secs_f64(), h)),
                Err(_) => out.lost += 1,
            }
        }
        let Some((_, _, _, oldest)) = pending.front() else { break };
        let _ = oldest.wait_timeout(Duration::from_micros(200));
        let now = Instant::now();
        let mut k = 0;
        while k < pending.len() {
            let Some(result) = pending[k].3.try_result() else {
                k += 1;
                continue;
            };
            let (i, t0, submit_s, _) = pending.remove(k).expect("index in range");
            let mut rec = record(pool, i, t0, submit_s, now, &result);
            rec.segment = out.segments.len();
            out.jobs.push(rec);
        }
        if !submitting && pending.is_empty() {
            break;
        }
        // A job this late is a hung service: give up on what is left.
        if pending.front().is_some_and(|p| now.duration_since(p.1) > JOB_TIMEOUT) {
            out.lost += pending.len() as u64;
            break;
        }
    }
    out.segments.push(seg_start.elapsed().as_secs_f64());
    out.wall_s = start.elapsed().as_secs_f64();
    chunk(&mut chunks);
    out.scale = match calib {
        // Segment i lies between chunks i and i + 1.
        Some((k, _)) => {
            let f = calib::factors(&chunks, k.nominal_s(workers), 2);
            f.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
        }
        None => vec![1.0; out.segments.len()],
    };
    service.shutdown();
    out
}

/// Checks a job's result against its solo run and truth.
fn record(
    pool: &[PoolJob],
    i: usize,
    t0: Instant,
    submit_s: f64,
    done: Instant,
    result: &JobResult,
) -> JobRecord {
    let job = &pool[i];
    let (rel_err, ok) = match &result.outcome {
        Err(e) => (f64::NAN, Err(format!("job outcome {e}"))),
        Ok(est) if bits(est) != bits(&job.solo) || est.steps != job.solo.steps => {
            (f64::NAN, Err("job estimate differs from its solo run".to_string()))
        }
        Ok(est) => match &job.truth {
            Some(t) => {
                let (worst, within) = t.check(&Outcome::of(est));
                let ok = if within { Ok(()) } else { Err(format!("relative error {worst:.3}")) };
                (worst, ok)
            }
            None => (f64::NAN, Ok(())),
        },
    };
    JobRecord {
        pool_index: i,
        latency_s: done.duration_since(t0).as_secs_f64(),
        submit_s,
        leases: result.leases,
        steps: result.outcome.as_ref().map_or(0, |e| e.steps),
        rel_err,
        ok,
        segment: 0,
    }
}

/// Service-layer figures of a closed loop: leases per job, submit
/// time, solo time, overhead of worker time over solo time, and
/// fairness (Jain's index over per-job slowdown against solo).
pub struct ServiceLayer {
    pub leases_per_job: f64,
    pub submit_s: f64,
    pub solo_op_s: f64,
    pub overhead_frac: f64,
    pub fairness: f64,
}

pub fn service_layer(pool: &[PoolJob], res: &MixResult) -> ServiceLayer {
    let solo_of = |j: &JobRecord| pool[j.pool_index].solo_s;
    let solo: Vec<f64> = res.jobs.iter().map(solo_of).collect();
    let slowdown: Vec<f64> = res.jobs.iter().map(|j| j.latency_s / solo_of(j)).collect();
    ServiceLayer {
        leases_per_job: mean(&res.jobs.iter().map(|j| j.leases as f64).collect::<Vec<_>>()),
        submit_s: median(&res.jobs.iter().map(|j| j.submit_s).collect::<Vec<_>>()),
        solo_op_s: median(&pool.iter().map(|p| p.solo_s).collect::<Vec<_>>()),
        overhead_frac: res.wall_s * res.workers as f64 / solo.iter().sum::<f64>() - 1.0,
        fairness: jain(&slowdown),
    }
}
