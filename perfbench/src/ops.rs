//! The closed loop of `Runner` ops: fixed-budget ops fill the run, and
//! a fixed number of adaptive ops is spread evenly through it.

use crate::calib::{self, Kernel};
use crate::inputs::{stream, sub_seed};
use crate::stats::{median, quantile, Metrics};
use crate::sys::rss_mb;
use gx_core::{Estimate, EstimatorConfig, GxError, Runner, StoppingRule};
use gx_graph::GraphAccess;
use std::time::Instant;

/// Fewest fixed ops a run times, so at least ten lie beyond p90.
pub const MIN_FIXED_OPS: usize = 100;

/// Relative error above which a type's estimate fails its check: the
/// larger of this floor and six of the estimate's own standard errors
/// (against exact truth), or twelve robust standard deviations of the
/// run's ops (against their consensus).
const REL_ERR_FLOOR: f64 = 0.2;
const SE_MULTIPLE: f64 = 6.0;
const MAD_MULTIPLE: f64 = 12.0;
/// Types below this concentration are left out of error checks.
pub const MIN_CONC: f64 = 0.01;

/// One workload's `Runner` ops.
#[derive(Clone)]
pub struct OpSpec {
    pub cfg: EstimatorConfig,
    pub steps: usize,
    pub walkers: usize,
    /// Fan walkers over cores (`Runner::run`) instead of the calling
    /// thread (`Runner::run_local`).
    pub parallel: bool,
    pub rule: StoppingRule,
    pub adaptive_ops: usize,
    /// The calibration kernel timed before each op, and its chunk size
    /// at nominal speed.
    pub calib: calib::Kind,
    pub calib_chunk_s: f64,
}

impl OpSpec {
    pub fn fixed(&self, seed: u64) -> Runner {
        Runner::new(self.cfg.clone()).steps(self.steps).walkers(self.walkers).seed(seed)
    }

    pub fn adaptive(&self, seed: u64) -> Runner {
        Runner::new(self.cfg.clone()).until(self.rule.clone()).walkers(self.walkers).seed(seed)
    }

    pub fn exec<G: GraphAccess + Sync>(&self, r: &Runner, g: &G) -> Result<Estimate, GxError> {
        if self.parallel {
            r.run(g)
        } else {
            r.run_local(g)
        }
    }
}

/// What the estimates are checked against.
pub enum Reference {
    /// gx-exact concentrations of the graph.
    Truth(Vec<f64>),
    /// The per-type median over the run's fixed ops, for graphs too
    /// large to count exactly within a run.
    Consensus,
}

/// A reference resolved against a run's ops: concentrations, and for a
/// consensus the absolute tolerance per type.
pub struct Resolved {
    pub conc: Vec<f64>,
    tol: Option<Vec<f64>>,
}

impl Resolved {
    /// Exact concentrations; each estimate's tolerance comes from its
    /// own standard errors.
    pub fn truth(conc: Vec<f64>) -> Self {
        Self { conc, tol: None }
    }

    fn new(reference: &Reference, records: &[OpRecord]) -> Self {
        if let Reference::Truth(t) = reference {
            return Self::truth(t.clone());
        }
        let ests: Vec<&Outcome> =
            records.iter().filter(|r| !r.adaptive).filter_map(|r| r.result.as_ref().ok()).collect();
        let types = ests.first().map_or(0, |o| o.conc.len());
        let (mut conc, mut tol) = (Vec::new(), Vec::new());
        for i in 0..types {
            let xs: Vec<f64> = ests.iter().map(|o| o.conc[i]).collect();
            let med = median(&xs);
            let mad = median(&xs.iter().map(|x| (x - med).abs()).collect::<Vec<_>>());
            conc.push(med);
            tol.push((REL_ERR_FLOOR * med).max(MAD_MULTIPLE * 1.4826 * mad));
        }
        Self { conc, tol: Some(tol) }
    }

    /// The worst relative error over qualifying types, and whether
    /// every qualifying type is within tolerance.
    pub fn check(&self, o: &Outcome) -> (f64, bool) {
        let mut worst = 0.0f64;
        let mut ok = o.valid > 0 && o.conc.iter().all(|c| c.is_finite());
        for (i, (&c, &r)) in o.conc.iter().zip(&self.conc).enumerate() {
            if r < MIN_CONC {
                continue;
            }
            let err = (c - r).abs();
            worst = worst.max(err / r);
            let tol = match &self.tol {
                Some(tol) => tol[i],
                None if o.se[i].is_finite() => (REL_ERR_FLOOR * r).max(SE_MULTIPLE * o.se[i]),
                None => REL_ERR_FLOOR * r,
            };
            ok &= err <= tol;
        }
        (worst, ok)
    }
}

/// What the checks and metrics read of an estimate. Kept instead of the
/// estimate, whose batch-mean series would make the run's own memory
/// grow with its op count.
pub struct Outcome {
    pub steps: usize,
    pub valid: usize,
    /// Whether an adaptive run met its stopping rule.
    pub target_met: bool,
    pub conc: Vec<f64>,
    /// Standard error of each concentration.
    pub se: Vec<f64>,
}

impl Outcome {
    pub fn of(est: &Estimate) -> Self {
        Self {
            steps: est.steps,
            valid: est.valid_samples,
            target_met: est.adaptive().is_some_and(|a| a.target_met),
            conc: est.concentrations(),
            se: (0..est.raw_scores.len()).map(|i| est.concentration_std_error(i)).collect(),
        }
    }
}

/// One completed op.
pub struct OpRecord {
    pub wall_s: f64,
    /// Host speed against nominal when the op ran (see [`calib`]);
    /// `wall_s * scale` is the op's scaled time.
    pub scale: f64,
    pub adaptive: bool,
    pub result: Result<Outcome, String>,
}

/// Memory samples taken after the first and the last timed op.
#[derive(Debug, Clone, Copy, Default)]
pub struct RssTrack {
    pub first_peak_mb: f64,
    pub first_now_mb: f64,
    pub last_peak_mb: f64,
    pub last_now_mb: f64,
}

/// The outcome of a timed loop.
pub struct LoopResult {
    pub records: Vec<OpRecord>,
    pub reference: Resolved,
    pub wall_s: f64,
    pub rss: RssTrack,
    pub attempted: u64,
    pub failed: u64,
    pub fail_notes: Vec<String>,
}

/// Runs one untimed warm-up op of each kind, then the timed loop for
/// `seconds`, timing a chunk of `kernel` before every op, then checks
/// every op against `reference`.
pub fn run_loop<G: GraphAccess + Sync>(
    g: &G,
    spec: &OpSpec,
    seed: u64,
    seconds: f64,
    reference: &Reference,
    kernel: &Kernel,
    nproc: usize,
) -> LoopResult {
    let threads = if spec.parallel { nproc } else { 1 };
    let mut warm = Vec::new();
    for (adaptive, r) in [
        (false, spec.fixed(sub_seed(seed, stream::FIXED_OPS, u64::MAX >> 8))),
        (true, spec.adaptive(sub_seed(seed, stream::ADAPTIVE_OPS, u64::MAX >> 8))),
    ] {
        warm.push(timed_op(g, spec, &r, adaptive));
    }

    let mut records = Vec::new();
    let mut chunks = Vec::new();
    let mut rss = RssTrack::default();
    let (mut fixed, mut adaptive) = (0usize, 0usize);
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let adaptive_due = adaptive < spec.adaptive_ops
            && (adaptive as f64) < spec.adaptive_ops as f64 * elapsed / seconds;
        if elapsed >= seconds && fixed >= MIN_FIXED_OPS && adaptive == spec.adaptive_ops {
            break;
        }
        chunks.push(kernel.chunk(threads));
        let rec = if adaptive_due || (fixed >= MIN_FIXED_OPS && elapsed >= seconds) {
            adaptive += 1;
            let r = spec.adaptive(sub_seed(seed, stream::ADAPTIVE_OPS, adaptive as u64));
            timed_op(g, spec, &r, true)
        } else {
            fixed += 1;
            let r = spec.fixed(sub_seed(seed, stream::FIXED_OPS, fixed as u64));
            timed_op(g, spec, &r, false)
        };
        records.push(rec);
        if records.len() == 1 {
            (rss.first_peak_mb, rss.first_now_mb) = rss_mb();
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    (rss.last_peak_mb, rss.last_now_mb) = rss_mb();
    for (rec, f) in records.iter_mut().zip(calib::factors(&chunks, kernel.nominal_s(threads), 3)) {
        rec.scale = f;
    }

    let reference = Resolved::new(reference, &records);
    let mut out = LoopResult {
        records: Vec::new(),
        reference,
        wall_s,
        rss,
        attempted: 0,
        failed: 0,
        fail_notes: Vec::new(),
    };
    for rec in warm.iter().chain(&records) {
        out.attempted += 1;
        if let Err(note) = op_check(rec, spec, &out.reference) {
            out.failed += 1;
            if out.fail_notes.len() < 5 {
                out.fail_notes.push(note);
            }
        }
    }
    out.records = records;
    out
}

fn timed_op<G: GraphAccess + Sync>(g: &G, spec: &OpSpec, r: &Runner, adaptive: bool) -> OpRecord {
    let t0 = Instant::now();
    let result = spec.exec(r, g);
    let wall_s = t0.elapsed().as_secs_f64();
    OpRecord {
        wall_s,
        scale: 1.0,
        adaptive,
        result: result.map(|e| Outcome::of(&e)).map_err(|e| e.to_string()),
    }
}

fn op_check(rec: &OpRecord, spec: &OpSpec, reference: &Resolved) -> Result<(), String> {
    let est = rec.result.as_ref().map_err(|e| format!("op error: {e}"))?;
    if rec.adaptive {
        if !est.target_met {
            return Err(format!("adaptive op missed its target within {} steps", est.steps));
        }
    } else if est.steps != spec.steps {
        return Err(format!("fixed op scored {} of {} windows", est.steps, spec.steps));
    }
    let (worst, ok) = reference.check(est);
    if !ok {
        return Err(format!("estimate off the reference: worst relative error {worst:.3}"));
    }
    Ok(())
}

/// The end-to-end metrics of a `Runner` loop (all but set-up time),
/// from scaled op times; `raw` gives them from wall times instead.
pub fn loop_metrics(res: &LoopResult, m: &mut Metrics, raw: bool) {
    let t = |r: &OpRecord| if raw { r.wall_s } else { r.wall_s * r.scale };
    let fixed: Vec<&OpRecord> = res.records.iter().filter(|r| !r.adaptive).collect();
    let adaptive: Vec<&OpRecord> = res.records.iter().filter(|r| r.adaptive).collect();
    let walls: Vec<f64> = fixed.iter().map(|r| t(r)).collect();
    let errs: Vec<f64> = fixed
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .map(|e| res.reference.check(e).0)
        .collect();
    let steps = |r: &OpRecord| r.result.as_ref().map_or(0, |o| o.steps);
    // Every fixed op scores the same number of windows.
    let op_steps = fixed.first().map_or(0, |r| steps(r));
    m.put("steps_per_s", op_steps as f64 / median(&walls), "1/s");
    m.put("op_p50_s", median(&walls), "s");
    m.put("op_p90_s", quantile(&walls, 0.9), "s");
    m.put("time_to_ci_s", median(&adaptive.iter().map(|r| t(r)).collect::<Vec<_>>()), "s");
    m.put(
        "steps_to_ci",
        median(&adaptive.iter().map(|r| steps(r) as f64).collect::<Vec<_>>()),
        "count",
    );
    m.put("max_rel_err", median(&errs), "1");
    // Over the fixed ops alone: the adaptive ops' share of the loop's
    // time follows how many steps the seed's ops needed.
    m.put("jobs_per_s", fixed.len() as f64 / walls.iter().sum::<f64>(), "1/s");
}
