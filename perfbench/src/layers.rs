//! Per-layer metrics of the traced run, measured from outside each
//! layer: counts and sampled spans around the public calls into it.

use crate::counting::{Call, CountingGraph, CALLS};
use crate::inputs::{stream, sub_seed, Scratch};
use crate::ops::OpSpec;
use crate::service::{closed_loop, service_layer, Budget, PoolJob};
use crate::stats::{median, Metrics};
use crate::sys::rss_mb;
use crate::trace::{
    clock_overhead_ns, graph_ns_per_step, replay, stage_ns_per_step, Layer, ReplayStats, Tracer,
    LAYERS,
};
use gx_core::{graph_fingerprint, Runner};
use gx_graph::{CompressedGraph, Graph, GraphAccess};
use std::sync::Arc;
use std::time::Instant;

/// Every 2^LOG2_EVERY-th call of a layer is timed.
pub const LOG2_EVERY: u32 = 6;

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Steps per second of `reps` runs of `runner` (median wall time).
fn rate<G: GraphAccess + Sync>(
    g: &G,
    runner: &Runner,
    parallel: bool,
    reps: usize,
) -> Result<f64, String> {
    let mut walls = Vec::new();
    let mut steps = 0;
    for _ in 0..reps {
        let (est, s) = time(|| if parallel { runner.run(g) } else { runner.run_local(g) });
        steps = est.map_err(|e| e.to_string())?.steps;
        walls.push(s);
    }
    Ok(steps as f64 / median(&walls))
}

/// The traced pipeline, the engine's graph calls, the runner's engine
/// variants, adaptive checks and checkpoints, for one workload's ops
/// over `g`. Returns the per-layer metrics; `Err` names a failed check.
pub fn runner_layers<G: GraphAccess + Sync>(
    g: &G,
    spec: &OpSpec,
    seed: u64,
    replay_ops: usize,
    nproc: usize,
    tracer: &Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let clock = clock_overhead_ns();
    let cfg = &spec.cfg;

    // Exact call counts of the engine itself, through the counting
    // adapter, on the workload's first fixed op.
    let op_seed = sub_seed(seed, stream::REPLAY, 0);
    let counting = CountingGraph::new(g);
    let est = spec.fixed(op_seed).run_local(&counting).map_err(|e| e.to_string())?;
    let scored = est.steps as f64;
    for call in CALLS {
        m.put(
            &format!("graph.{}_calls_per_step", call.name()),
            counting.count(call) as f64 / scored,
            "count",
        );
    }

    // Untraced: the engine, and the pipeline replayed stage by stage
    // (each stage adds one layer), interleaved over the same ops. Stage
    // differences are each layer's contribution to ns/step; they sum to
    // the full replay, and the engine's remainder is unattributed.
    let mut runs = Vec::new();
    let mut runner_ns = Vec::new();
    let mut stage_ns = vec![Vec::new(); LAYERS.len()];
    let mut untraced_s = 0.0;
    for i in 0..replay_ops {
        let op_seed = sub_seed(seed, stream::REPLAY, i as u64);
        let (est, wall) = time(|| spec.fixed(op_seed).run_local(g));
        let est = est.map_err(|e| e.to_string())?;
        runner_ns.push(wall * 1e9 / est.steps as f64);
        untraced_s += wall;
        for (stage, ns) in stage_ns.iter_mut().enumerate() {
            ns.push(stage_ns_per_step(g, cfg, spec.steps, spec.walkers, op_seed, stage));
        }
        runs.push((op_seed, est));
    }
    let stage: Vec<f64> = stage_ns.iter().map(|v| median(v)).collect();
    let contrib =
        |l: Layer| stage[l as usize] - if l as usize == 0 { 0.0 } else { stage[l as usize - 1] };
    let runner_ns = median(&runner_ns);
    m.put("walks.contrib_ns_per_step", contrib(Layer::Walk), "ns");
    m.put("window.contrib_ns_per_step", contrib(Layer::Push) + contrib(Layer::Sample), "ns");
    m.put("graphlets.contrib_ns_per_step", contrib(Layer::Classify), "ns");
    m.put("css.contrib_ns_per_step", contrib(Layer::Css), "ns");
    m.put("accuracy.contrib_ns_per_step", contrib(Layer::Tick), "ns");
    m.put("runner.ns_per_step", runner_ns, "ns");
    m.put("runner.unattributed_ns_per_step", runner_ns - stage[LAYERS.len() - 1], "ns");

    // Traced: the full pipeline with sampled spans, over the same ops;
    // it must reproduce the engine's estimate bits.
    let sampled = CountingGraph::sampled(g, LOG2_EVERY, tracer);
    let mut total: Option<ReplayStats> = None;
    for (i, (op_seed, est)) in runs.iter().enumerate() {
        let r =
            replay(&sampled, tracer, LOG2_EVERY, cfg, spec.steps, spec.walkers, *op_seed, i as u32);
        if bits(&r.raw) != bits(&est.raw_scores) || r.valid as usize != est.valid_samples {
            return Err(format!("traced replay of op {i} differs from the engine's run"));
        }
        match &mut total {
            None => total = Some(r),
            Some(t) => t.absorb(&r),
        }
    }
    let r = total.ok_or("no replay ops")?;
    let per_call = |l: Layer| r.stat(l).mean_ns(clock);
    let incl = |l: Layer| r.ns_per_step(l, clock);
    let graph_in = |l: Layer| graph_ns_per_step(&sampled, l.caller(), r.scored, clock);
    let graph_ns = |c: Call| {
        let ns = sampled.mean_ns(c);
        if ns.is_finite() {
            (ns - clock).max(0.0)
        } else {
            0.0
        }
    };
    for call in [Call::Degree, Call::NeighborAt, Call::HasEdge, Call::Visit] {
        m.put(&format!("graph.{}_ns", call.name()), graph_ns(call), "ns");
    }
    let graph_total: f64 = [Layer::Walk, Layer::Push, Layer::Classify, Layer::Css, Layer::Tick]
        .into_iter()
        .map(graph_in)
        .sum();
    m.put("graph.ns_per_step", graph_total, "ns");
    m.put("walks.step_ns", per_call(Layer::Walk), "ns");
    m.put("walks.self_ns_per_step", incl(Layer::Walk) - graph_in(Layer::Walk), "ns");
    m.put("window.push_ns", per_call(Layer::Push), "ns");
    m.put("window.sample_ns", per_call(Layer::Sample), "ns");
    m.put("window.probes_per_step", r.probes as f64 / r.scored as f64, "count");
    m.put("window.valid_frac", r.valid as f64 / r.scored as f64, "1");
    m.put(
        "window.self_ns_per_step",
        incl(Layer::Push) + incl(Layer::Sample) - graph_in(Layer::Push),
        "ns",
    );
    m.put("graphlets.classify_ns", per_call(Layer::Classify), "ns");
    m.put("graphlets.self_ns_per_step", incl(Layer::Classify) - graph_in(Layer::Classify), "ns");
    m.put("css.weight_ns", per_call(Layer::Css), "ns");
    m.put("css.self_ns_per_step", incl(Layer::Css) - graph_in(Layer::Css), "ns");
    m.put("accuracy.tick_ns", per_call(Layer::Tick), "ns");
    m.put("accuracy.self_ns_per_step", incl(Layer::Tick) - graph_in(Layer::Tick), "ns");
    let spans_ns: f64 = LAYERS.iter().map(|&l| incl(l)).sum();
    m.put("trace.span_sum_ns_per_step", spans_ns, "ns");
    m.put("trace.replay_ns_per_step", r.wall_s * 1e9 / r.scored as f64, "ns");

    // Tracing overhead: the engine over the sampling adapter against
    // the engine over the bare graph, same ops.
    let (_, traced_s) = time(|| {
        (0..replay_ops).try_for_each(|i| {
            spec.fixed(sub_seed(seed, stream::REPLAY, i as u64)).run_local(&sampled).map(|_| ())
        })
    });
    m.put("trace.overhead_frac", traced_s / untraced_s - 1.0, "1");

    // Engine variants at the workload's op size.
    let seq = rate(g, &Runner::new(cfg.clone()).steps(spec.steps).seed(op_seed), false, 5)?;
    let par =
        rate(g, &Runner::new(cfg.clone()).steps(spec.steps).walkers(nproc).seed(op_seed), true, 5)?;
    let wide = Runner::new(cfg.clone()).steps(spec.steps).walkers(24).seed(op_seed);
    let default24 = rate(g, &wide, false, 5)?;
    let batched = rate(g, &wide.clone().batch_width(24), false, 5)?;
    m.put("runner.seq_steps_per_s", seq, "1/s");
    m.put("runner.par_steps_per_s", par, "1/s");
    m.put("runner.scaling_eff", par / (seq * nproc as f64), "1");
    m.put("runner.batched_steps_per_s", batched, "1/s");
    m.put("runner.batched_speedup", batched / default24, "1");

    // Convergence checks: an adaptive op against the fixed op of the
    // same steps, walkers and seed (medians of alternating repeats),
    // per check; and the stopping rule's own test on the final stats.
    let mut checks = Vec::new();
    let mut check_ns = Vec::new();
    let mut converged_ns = Vec::new();
    for i in 0..3u64 {
        let s = sub_seed(seed, stream::ADAPTIVE_OPS, i + 1);
        let adaptive = spec.adaptive(s);
        let est = spec.exec(&adaptive, g).map_err(|e| e.to_string())?;
        let rounds = est.adaptive().map_or(0, |a| a.rounds).max(1) as f64;
        let fixed = Runner::new(cfg.clone()).steps(est.steps).walkers(spec.walkers).seed(s);
        let (mut ta, mut tf) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            ta.push(time(|| spec.exec(&adaptive, g)).1);
            tf.push(time(|| spec.exec(&fixed, g)).1);
        }
        checks.push(rounds);
        check_ns.push((median(&ta) - median(&tf)) * 1e9 / rounds);
        if let Some(stats) = est.accuracy() {
            let reps = 1_000;
            let (_, t) = time(|| {
                (0..reps).filter(|_| spec.rule.converged(std::hint::black_box(stats))).count()
            });
            converged_ns.push(t * 1e9 / reps as f64);
        }
    }
    m.put("accuracy.checks_per_op", median(&checks), "count");
    m.put("accuracy.check_ns", median(&check_ns), "ns");
    m.put("accuracy.converged_ns", median(&converged_ns), "ns");

    // Checkpoint encode and trusted resume at mid-run.
    let fp = graph_fingerprint(g);
    let mut encode = Vec::new();
    let mut resume = Vec::new();
    let mut bytes = 0;
    for _ in 0..5 {
        let mut h = spec.fixed(op_seed).start(g).map_err(|e| e.to_string())?;
        h.adopt_fingerprint(fp);
        h.advance((spec.steps / spec.walkers / 2).max(1));
        let mut buf = Vec::new();
        let (res, s) = time(|| h.checkpoint(&mut buf));
        res.map_err(|e| e.to_string())?;
        encode.push(s);
        bytes = buf.len();
        let (res, s) = time(|| Runner::resume_trusted(g, fp, &mut buf.as_slice()).map(|_| ()));
        res.map_err(|e| e.to_string())?;
        resume.push(s);
    }
    m.put("checkpoint.encode_s", median(&encode), "s");
    m.put("checkpoint.resume_s", median(&resume), "s");
    m.put("checkpoint.bytes", bytes as f64, "bytes");
    m.put("trace.spans", tracer.spans().len() as f64, "count");
    Ok(())
}

/// Service-layer metrics of a closed loop of `jobs` jobs over `pool`
/// in `order`, two outstanding per worker.
pub fn service_metrics(
    pool: &[PoolJob],
    order: &[usize],
    nproc: usize,
    jobs: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    let res = closed_loop(pool, order, nproc, 2 * nproc, 0.0, jobs, Some(jobs), None);
    if res.lost > 0 {
        return Err(format!("{} service jobs refused or without a result", res.lost));
    }
    if let Some(bad) = res.jobs.iter().chain(&res.warm).find_map(|j| j.ok.as_ref().err()) {
        return Err(format!("service job failed its check: {bad}"));
    }
    let s = service_layer(pool, &res);
    m.put("service.leases_per_job", s.leases_per_job, "count");
    m.put("service.submit_s", s.submit_s, "s");
    m.put("service.solo_op_s", s.solo_op_s, "s");
    m.put("service.overhead_frac", s.overhead_frac, "1");
    m.put("service.fairness", s.fairness, "1");
    Ok(())
}

/// A pool of the workload's own fixed ops as service jobs.
pub fn fixed_pool(
    g: &Arc<Graph>,
    spec: &OpSpec,
    seed: u64,
    size: usize,
) -> Result<Vec<PoolJob>, String> {
    (0..size)
        .map(|i| {
            let s = sub_seed(seed, stream::JOBS, i as u64);
            PoolJob::new(
                g.clone(),
                spec.cfg.clone(),
                Budget::Fixed(spec.steps),
                spec.walkers,
                s,
                None,
            )
        })
        .collect()
}

/// Writes `g` as a GXSC snapshot, opens it, and runs `ops` fixed ops
/// over it: write and open time, the resident memory the open added,
/// and the growth of resident memory from the first op to the last.
pub fn disk_metrics(
    g: &Graph,
    spec: &OpSpec,
    seed: u64,
    ops: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    let scratch = Scratch::new("disk").map_err(|e| e.to_string())?;
    let path = scratch.file("graph.gxsc");
    let (res, write_s) = time(|| gx_graph::write_gxsc(g, None, &path));
    res.map_err(|e| e.to_string())?;
    let before = rss_mb().1;
    let (cg, open_s) = time(|| CompressedGraph::open(&path));
    let cg = cg.map_err(|e| e.to_string())?;
    let opened = rss_mb().1;
    let mut first = 0.0;
    for i in 0..ops.max(1) {
        spec.exec(&spec.fixed(sub_seed(seed, stream::FIXED_OPS, i as u64 + 1)), &cg)
            .map_err(|e| e.to_string())?;
        if i == 0 {
            first = rss_mb().1;
        }
    }
    m.put("disk.write_s", write_s, "s");
    m.put("disk.open_s", open_s, "s");
    m.put("disk.open_rss_mb", opened - before, "MiB");
    m.put("disk.rss_growth_mb", rss_mb().1 - first, "MiB");
    Ok(())
}
