//! The four workloads: their set-up, pinned checks, timed loop and
//! traced run.

use crate::calib::{Kernel, Kind};
use crate::inputs::{self, stream, sub_seed, Scratch};
use crate::layers;
use crate::ops::{self, OpSpec, Reference, Resolved};
use crate::service::{self, Budget, PoolJob};
use crate::stats::{median, quantile, Metrics};
use crate::sys::{rss_mb, Host};
use crate::trace::Tracer;
use gx_core::{Estimate, EstimatorConfig, Runner, StoppingRule};
use gx_datasets::dataset;
use gx_graph::{CompressedGraph, Graph, MmapGraph};
use std::sync::Arc;
use std::time::Instant;

pub const NAMES: [&str; 4] = ["epinion-k4", "ba-dram-k4", "ba-gxsc-k4", "service-mix"];

/// Size of the DRAM-resident Barabási–Albert graph (CSR ≈ 480 MB).
const DRAM_NODES: usize = 4_000_000;
const DRAM_M: usize = 14;
/// Size of the compressed-snapshot graph: ~120× the nodes the GXSC
/// decode cache (64 blocks of 64 nodes) can hold.
const GXSC_NODES: usize = 500_000;
const GXSC_M: usize = 8;

/// Service-mix shape: distinct fixed and adaptive job specs (each is
/// run solo once, before timing, as its job's bit-identity reference),
/// and jobs outstanding per worker.
const POOL_FIXED: usize = 512;
const POOL_ADAPTIVE: usize = 256;
const OUTSTANDING_PER_WORKER: usize = 2;
const MIX_FIXED_STEPS: usize = 20_000;
/// Service-mix calibration: segment length and kernel chunk size.
const MIX_SEGMENT_S: f64 = 0.5;
const MIX_CHUNK_S: f64 = 0.01;
/// Chunk size of the set-up's calibration.
const SETUP_CHUNK_S: f64 = 0.002;

/// Timed set-up phases; `setup_s` is their sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub write_s: f64,
    pub open_s: f64,
    pub prewarm_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate_s + self.write_s + self.open_s + self.prewarm_s
    }
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Builds every lookup table a run of `cfg` uses, through the front door.
fn prewarm(g: &Graph, cfg: &EstimatorConfig) -> Result<(), String> {
    Runner::new(cfg.clone()).steps(1_000).run_local(g).map(|_| ()).map_err(|e| e.to_string())
}

/// A workload's inputs once set up.
pub enum State {
    Epinion { g: Arc<Graph> },
    Dram { g: Arc<Graph> },
    Gxsc { g: Arc<Graph>, cg: Box<CompressedGraph>, scratch: Scratch },
    Mix { epinion: Arc<Graph>, gowalla: Arc<Graph> },
}

/// Runs workload `name`'s set-up for `seed`, timing each phase.
pub fn setup(name: &str, seed: u64) -> Result<(State, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let k4 = EstimatorConfig::recommended(4);
    let graph_seed = sub_seed(seed, stream::GRAPH, 0);
    let state = match name {
        "epinion-k4" => {
            let (g, s) = time(|| Arc::new(dataset("epinion-sim").graph().clone()));
            t.generate_s = s;
            t.prewarm_s = time(|| prewarm(&g, &k4)).1;
            State::Epinion { g }
        }
        "ba-dram-k4" => {
            let (g, s) = time(|| inputs::ba(DRAM_NODES, DRAM_M, graph_seed));
            t.generate_s = s;
            t.prewarm_s = time(|| prewarm(&g, &k4)).1;
            State::Dram { g: Arc::new(g) }
        }
        "ba-gxsc-k4" => {
            let scratch = Scratch::new("gxsc").map_err(|e| e.to_string())?;
            let path = scratch.file("graph.gxsc");
            let (g, s) = time(|| inputs::ba(GXSC_NODES, GXSC_M, graph_seed));
            t.generate_s = s;
            let (res, s) = time(|| gx_graph::write_gxsc(&g, None, &path));
            res.map_err(|e| e.to_string())?;
            t.write_s = s;
            let (cg, s) = time(|| CompressedGraph::open(&path));
            t.open_s = s;
            t.prewarm_s = time(|| prewarm(&g, &k4)).1;
            State::Gxsc { g: Arc::new(g), cg: Box::new(cg.map_err(|e| e.to_string())?), scratch }
        }
        "service-mix" => {
            let ((e, w), s) = time(|| {
                let g = |name| Arc::new(dataset(name).graph().clone());
                (g("epinion-sim"), g("gowalla-sim"))
            });
            t.generate_s = s;
            t.prewarm_s =
                time(|| prewarm(&e, &k4).and(prewarm(&w, &EstimatorConfig::recommended(3)))).1;
            State::Mix { epinion: e, gowalla: w }
        }
        other => return Err(format!("unknown workload {other:?}; expected one of {NAMES:?}")),
    };
    Ok((state, t))
}

/// Runs workload `name`'s set-up between two calibrations on the
/// compute kernel; returns it with its total time scaled by the host's
/// speed (see [`crate::calib`]).
pub fn calibrated_setup(name: &str, seed: u64) -> Result<(State, SetupTimes, f64), String> {
    let kernel = Kernel::new(Kind::Compute, SETUP_CHUNK_S);
    let before = kernel.factor(1, 5);
    let (state, t) = setup(name, seed)?;
    let after = kernel.factor(1, 5);
    Ok((state, t, t.total() * (before + after) / 2.0))
}

/// The `Runner` ops of the three single-front-door workloads (the
/// epinion-k4 spec also drives the traced pipeline of service-mix).
fn op_spec(name: &str) -> OpSpec {
    let k4 = EstimatorConfig::recommended(4);
    match name {
        "epinion-k4" => OpSpec {
            cfg: k4,
            steps: 100_000,
            walkers: 1,
            parallel: false,
            rule: StoppingRule::new(0.02, 10_000, 8_000_000),
            adaptive_ops: 25,
            calib: Kind::Compute,
            calib_chunk_s: 0.001,
        },
        "ba-dram-k4" => OpSpec {
            cfg: k4,
            steps: 48_000,
            walkers: 24,
            parallel: true,
            rule: StoppingRule::new(0.05, 1_000, 20_000_000),
            adaptive_ops: 11,
            calib: Kind::Memory,
            calib_chunk_s: 0.002,
        },
        "ba-gxsc-k4" => OpSpec {
            cfg: k4,
            steps: 2_400,
            walkers: 24,
            parallel: true,
            rule: StoppingRule { batch_len: 64, ..StoppingRule::new(0.15, 10, 4_000_000) },
            adaptive_ops: 31,
            calib: Kind::Compute,
            calib_chunk_s: 0.002,
        },
        other => unreachable!("{other} has no Runner op spec"),
    }
}

/// The service-mix job pool: fixed-budget k = 4 jobs on the epinion
/// analog and adaptive k = 3 jobs on the gowalla analog, and the
/// submission order, which alternates the two.
fn mix_pool(
    epinion: &Arc<Graph>,
    gowalla: &Arc<Graph>,
    seed: u64,
) -> Result<(Vec<PoolJob>, Vec<usize>), String> {
    let t4 = Arc::new(Resolved::truth(dataset("epinion-sim").exact_concentrations(4)));
    let t3 = Arc::new(Resolved::truth(dataset("gowalla-sim").exact_concentrations(3)));
    let (k4, k3) = (EstimatorConfig::recommended(4), EstimatorConfig::recommended(3));
    let rule = StoppingRule { batch_len: 256, ..StoppingRule::new(0.02, 1_000, 4_000_000) };
    let mut pool = Vec::new();
    for i in 0..POOL_FIXED as u64 {
        let s = sub_seed(seed, stream::JOBS, i);
        pool.push(PoolJob::new(
            epinion.clone(),
            k4.clone(),
            Budget::Fixed(MIX_FIXED_STEPS),
            1,
            s,
            Some(t4.clone()),
        )?);
    }
    for i in 0..POOL_ADAPTIVE as u64 {
        let s = sub_seed(seed, stream::JOBS, POOL_FIXED as u64 + i);
        pool.push(PoolJob::new(
            gowalla.clone(),
            k3.clone(),
            Budget::Until(rule.clone()),
            1,
            s,
            Some(t3.clone()),
        )?);
    }
    let order = (0..POOL_FIXED).flat_map(|i| [i, POOL_FIXED + i % POOL_ADAPTIVE]).collect();
    Ok((pool, order))
}

/// A finished run: the human-readable lines and the result fields.
pub struct Report {
    pub lines: Vec<String>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Report {
    fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.lines.push(format!("CHECK FAILED: {}", why.into()));
    }
}

fn bits(e: &Estimate) -> Vec<u64> {
    e.raw_scores.iter().map(|x| x.to_bits()).collect()
}

/// Runs workload `name`: set-up (repeated in fresh processes per
/// `setup_reps`), pinned checks, then the timed loop (`trace == false`)
/// or the traced per-layer run.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    host: &Host,
    setup_reps: &dyn Fn(usize) -> Result<Vec<f64>, String>,
) -> Result<Report, String> {
    let mut rep = Report {
        lines: Vec::new(),
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Metrics::default(),
    };
    let (state, times, scaled_setup_s) = calibrated_setup(name, seed)?;

    // Where the graph sits against the caches.
    let graph_bytes = match &state {
        State::Epinion { g } | State::Dram { g } | State::Gxsc { g, .. } => inputs::csr_bytes(g),
        State::Mix { epinion, gowalla } => inputs::csr_bytes(epinion) + inputs::csr_bytes(gowalla),
    };
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    rep.lines.push(format!(
        "host: nproc {}, L2 {:.1} MiB, LLC {:.1} MiB, THP {}; graph CSR {:.2} MiB",
        host.nproc,
        mib(host.l2_bytes),
        mib(host.llc_bytes),
        host.thp,
        mib(graph_bytes)
    ));
    match name {
        "epinion-k4" if host.l2_bytes > 0 && graph_bytes > host.l2_bytes => rep.fail(format!(
            "epinion-k4 graph ({graph_bytes} B) no longer fits in L2 ({} B)",
            host.l2_bytes
        )),
        "ba-dram-k4" if host.llc_bytes == 0 || graph_bytes < 4 * host.llc_bytes => {
            rep.fail(format!(
                "ba-dram-k4 graph ({graph_bytes} B) is not at least 4x the LLC ({} B)",
                host.llc_bytes
            ))
        }
        _ => {}
    }

    let mut setup_s = vec![scaled_setup_s];
    if !trace {
        // Fresh-process repeats: cheap set-ups get more of them.
        let more = match name {
            "ba-dram-k4" | "ba-gxsc-k4" => 2,
            _ => 8,
        };
        setup_s.extend(setup_reps(more)?);
    }
    rep.lines.push(format!("setup_s reps: {setup_s:?}"));

    match state {
        State::Epinion { g } => {
            let truth = dataset("epinion-sim").exact_concentrations(4);
            let spec = op_spec(name);
            runner_workload(
                &mut rep,
                &*g,
                Some(&g),
                &spec,
                seed,
                seconds,
                trace,
                host,
                Reference::Truth(truth),
            )?;
        }
        State::Dram { g } => {
            let spec = op_spec(name);
            pinned_engines(&mut rep, &g, &spec, seed);
            runner_workload(
                &mut rep,
                &*g,
                Some(&g),
                &spec,
                seed,
                seconds,
                trace,
                host,
                Reference::Consensus,
            )?;
        }
        State::Gxsc { g, cg, scratch } => {
            let spec = op_spec(name);
            pinned_backends(&mut rep, &g, &cg, &scratch, &spec, seed)?;
            // The timed loop runs without the RAM graph resident.
            let keep = trace.then_some(g);
            runner_workload(
                &mut rep,
                &*cg,
                keep.as_ref(),
                &spec,
                seed,
                seconds,
                trace,
                host,
                Reference::Consensus,
            )?;
        }
        State::Mix { epinion, gowalla } => {
            mix_workload(&mut rep, &epinion, &gowalla, seed, seconds, trace, host)?;
        }
    }

    let m = &mut rep.metrics;
    if trace {
        m.put("setup.generate_s", times.generate_s, "s");
        m.put("setup.prewarm_s", times.prewarm_s, "s");
        m.put("env.nproc", host.nproc as f64, "count");
        m.put("env.l2_mb", mib(host.l2_bytes), "MiB");
        m.put("env.llc_mb", mib(host.llc_bytes), "MiB");
        m.put("env.graph_mb", mib(graph_bytes), "MiB");
    } else {
        m.put("setup_s", median(&setup_s), "s");
        m.put("peak_rss_mb", rss_mb().0, "MiB");
    }
    Ok(rep)
}

/// Default engine against `batch_width(24)`, calling thread against
/// fanned out, on one pinned op: the estimate bits must be equal.
fn pinned_engines(rep: &mut Report, g: &Graph, spec: &OpSpec, seed: u64) {
    let pin = spec.fixed(sub_seed(seed, stream::FIXED_OPS, 0));
    let runs = [pin.run_local(g), pin.clone().batch_width(24).run_local(g), pin.run(g)];
    rep.attempted += runs.len() as u64;
    let ok: Vec<_> = runs.iter().filter_map(|r| r.as_ref().ok()).collect();
    if ok.len() != runs.len() || ok.iter().any(|e| bits(e) != bits(ok[0])) {
        rep.failed += runs.len() as u64;
        rep.fail("pinned op: default engine, batch_width(24) and fan-out disagree");
    }
}

/// RAM CSR against GXSN against GXSC, default engine and
/// `batch_width(24)`, on one pinned op: the estimate bits must be equal.
fn pinned_backends(
    rep: &mut Report,
    g: &Graph,
    cg: &CompressedGraph,
    scratch: &Scratch,
    spec: &OpSpec,
    seed: u64,
) -> Result<(), String> {
    let path = scratch.file("graph.gxsn");
    gx_graph::write_gxsn(g, None, &path).map_err(|e| e.to_string())?;
    let mg = MmapGraph::open(&path).map_err(|e| e.to_string())?;
    let pin = spec.fixed(sub_seed(seed, stream::FIXED_OPS, 0));
    let wide = pin.clone().batch_width(24);
    let runs = [
        pin.run_local(g),
        wide.run_local(g),
        pin.run_local(&mg),
        wide.run_local(&mg),
        pin.run_local(cg),
        wide.run_local(cg),
        pin.run(cg),
    ];
    rep.attempted += runs.len() as u64;
    let ok: Vec<_> = runs.iter().filter_map(|r| r.as_ref().ok()).collect();
    if ok.len() != runs.len() || ok.iter().any(|e| bits(e) != bits(ok[0])) {
        rep.failed += runs.len() as u64;
        rep.fail("pinned op: RAM, GXSN and GXSC backends or engines disagree");
    }
    drop(mg);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// The timed loop of `Runner` ops, or the traced per-layer run.
#[allow(clippy::too_many_arguments)]
fn runner_workload<G: gx_graph::GraphAccess + Sync>(
    rep: &mut Report,
    g: &G,
    ram: Option<&Arc<Graph>>,
    spec: &OpSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    host: &Host,
    reference: Reference,
) -> Result<(), String> {
    if trace {
        let tracer = Tracer::new();
        let res = layers::runner_layers(g, spec, seed, 5, host.nproc, &tracer, &mut rep.metrics);
        rep.attempted += 1;
        if let Err(e) = res {
            rep.failed += 1;
            rep.fail(e);
        }
        let ram = ram.ok_or("the traced run needs the graph in RAM")?;
        let pool = layers::fixed_pool(ram, spec, seed, 8)?;
        let order: Vec<usize> = (0..pool.len()).collect();
        if let Err(e) = layers::service_metrics(&pool, &order, host.nproc, 16, &mut rep.metrics) {
            rep.fail(e);
        }
        layers::disk_metrics(ram, spec, seed, 3, &mut rep.metrics)?;
        write_spans(rep, &tracer, seed);
        return Ok(());
    }
    let kernel = Kernel::new(spec.calib, spec.calib_chunk_s);
    let res = ops::run_loop(g, spec, seed, seconds, &reference, &kernel, host.nproc);
    rep.attempted += res.attempted;
    rep.failed += res.failed;
    for note in &res.fail_notes {
        rep.fail(note.clone());
    }
    rep.lines.push(format!(
        "timed loop: {} ops ({} adaptive) in {:.2} s; RSS after first op {:.1} MiB (peak {:.1}), after last {:.1} MiB (peak {:.1})",
        res.records.len(),
        res.records.iter().filter(|r| r.adaptive).count(),
        res.wall_s,
        res.rss.first_now_mb,
        res.rss.first_peak_mb,
        res.rss.last_now_mb,
        res.rss.last_peak_mb
    ));
    let mut raw = Metrics::default();
    ops::loop_metrics(&res, &mut raw, true);
    rep.lines.push(format!(
        "unscaled: {}; host speed (median scale) {:.3}",
        raw.0.iter().map(|m| format!("{} {:.4e}", m.name, m.value)).collect::<Vec<_>>().join(", "),
        median(&res.records.iter().map(|r| r.scale).collect::<Vec<_>>())
    ));
    ops::loop_metrics(&res, &mut rep.metrics, false);
    Ok(())
}

fn write_spans(rep: &mut Report, tracer: &Tracer, seed: u64) {
    let dir = inputs::data_dir().join("traces");
    let path = dir.join(format!("spans-{}-seed{seed}.tsv", std::process::id()));
    match std::fs::create_dir_all(&dir).and_then(|_| tracer.write_tsv(&path)) {
        Ok(()) => rep.lines.push(format!(
            "spans: {} kept ({} past the cap) written to {}",
            tracer.spans().len(),
            tracer.dropped(),
            path.display()
        )),
        Err(e) => rep.fail(format!("writing spans: {e}")),
    }
}

/// The service-mix closed loop, or its traced per-layer run.
fn mix_workload(
    rep: &mut Report,
    epinion: &Arc<Graph>,
    gowalla: &Arc<Graph>,
    seed: u64,
    seconds: f64,
    trace: bool,
    host: &Host,
) -> Result<(), String> {
    let (pool, order) = mix_pool(epinion, gowalla, seed)?;
    let outstanding = OUTSTANDING_PER_WORKER * host.nproc;
    if trace {
        // The per-step pipeline of the mix's k = 4 jobs, then the
        // service layer over a fixed number of mix jobs.
        let tracer = Tracer::new();
        let spec = op_spec("epinion-k4");
        rep.attempted += 1;
        if let Err(e) =
            layers::runner_layers(&**epinion, &spec, seed, 5, host.nproc, &tracer, &mut rep.metrics)
        {
            rep.failed += 1;
            rep.fail(e);
        }
        if let Err(e) = layers::service_metrics(&pool, &order, host.nproc, 256, &mut rep.metrics) {
            rep.fail(e);
        }
        layers::disk_metrics(epinion, &spec, seed, 3, &mut rep.metrics)?;
        write_spans(rep, &tracer, seed);
        return Ok(());
    }
    let kernel = Kernel::new(Kind::Compute, MIX_CHUNK_S);
    let res = service::closed_loop(
        &pool,
        &order,
        host.nproc,
        outstanding,
        seconds,
        ops::MIN_FIXED_OPS,
        None,
        Some((&kernel, MIX_SEGMENT_S)),
    );
    rep.attempted += (res.jobs.len() + res.warm.len()) as u64 + res.lost;
    rep.failed += res.lost;
    for j in res.jobs.iter().chain(&res.warm) {
        if let Err(e) = &j.ok {
            rep.failed += 1;
            if rep.failed <= 5 {
                rep.fail(format!(
                    "job {} ({}): {e}",
                    j.pool_index,
                    if pool[j.pool_index].adaptive() { "adaptive" } else { "fixed" }
                ));
            }
        }
    }
    if res.lost > 0 {
        rep.fail(format!("{} jobs refused or without a result", res.lost));
    }
    let lat_of = |j: &service::JobRecord| j.latency_s * res.scale[j.segment];
    // Fixed and adaptive jobs form two modes far apart; a quantile over
    // both would fall in the gap between them, so the op quantiles are
    // over fixed jobs, as on the other workloads.
    let lat: Vec<f64> =
        res.jobs.iter().filter(|j| !pool[j.pool_index].adaptive()).map(lat_of).collect();
    let adaptive: Vec<_> = res.jobs.iter().filter(|j| pool[j.pool_index].adaptive()).collect();
    let steps: usize = res.jobs.iter().map(|j| j.steps).sum();
    let busy: f64 = res.segments.iter().zip(&res.scale).map(|(s, f)| s * f).sum();
    let errs: Vec<f64> = res
        .jobs
        .iter()
        .filter(|j| !pool[j.pool_index].adaptive())
        .map(|j| j.rel_err)
        .filter(|e| e.is_finite())
        .collect();
    rep.lines.push(format!(
        "closed loop: {} jobs ({} adaptive), {outstanding} outstanding on {} workers, {:.2} s in {} segments; unscaled p50 {:.4e} s, jobs/s {:.4e}; host speed (median scale) {:.3}",
        res.jobs.len(),
        adaptive.len(),
        host.nproc,
        res.wall_s,
        res.segments.len(),
        median(
            &res.jobs
                .iter()
                .filter(|j| !pool[j.pool_index].adaptive())
                .map(|j| j.latency_s)
                .collect::<Vec<_>>()
        ),
        res.jobs.len() as f64 / res.segments.iter().sum::<f64>(),
        median(&res.scale)
    ));
    let m = &mut rep.metrics;
    m.put("steps_per_s", steps as f64 / busy, "1/s");
    m.put("op_p50_s", median(&lat), "s");
    m.put("op_p90_s", quantile(&lat, 0.9), "s");
    m.put("time_to_ci_s", median(&adaptive.iter().map(|j| lat_of(j)).collect::<Vec<_>>()), "s");
    m.put(
        "steps_to_ci",
        median(&adaptive.iter().map(|j| j.steps as f64).collect::<Vec<_>>()),
        "count",
    );
    m.put("max_rel_err", median(&errs), "1");
    m.put("jobs_per_s", res.jobs.len() as f64 / busy, "1/s");
    Ok(())
}
