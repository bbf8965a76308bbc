//! Micro-benchmarks for the cost model the paper's §5 claims: per-step
//! cost of the walks by d (O(1) for d ≤ 2, enumeration beyond), the
//! CSS overhead, classification, and the exact counters.
//!
//! Timing model: each row warms up for ~20 ms, then runs batches of
//! calls until ~200 ms of measurement accumulates, and prints the mean
//! wall time per call. The repository's perf trajectory is tracked by
//! the JSON-writing `throughput` bench and `perfbench/`; these rows are
//! quick per-operation costs.
//!
//! Run with: `cargo bench -p gx-bench --bench micro_walks`

// A timing bench reads the wall clock by design.
#![allow(clippy::disallowed_methods)]

use gx_core::{EstimatorConfig, Runner};
use gx_datasets::dataset;
use gx_exact::{count_graphlets_esu, four_node_counts, three_node_counts};
use gx_graphlets::classify_mask;
use gx_walks::{random_start_state, rng_from_seed, G2Walk, GdWalk, SrwWalk, StateWalk};
use std::hint::black_box;
use std::time::{Duration, Instant};

const WARM_UP: Duration = Duration::from_millis(20);
const MEASURE: Duration = Duration::from_millis(200);

/// Times `routine` and prints its mean wall time per call. The warm-up
/// call count sets the batch size, so clock reads stay off the timed
/// path for fast routines.
fn bench<O>(id: &str, mut routine: impl FnMut() -> O) {
    let warm = Instant::now();
    let mut batch = 0u64;
    while warm.elapsed() < WARM_UP {
        black_box(routine());
        batch += 1;
    }
    let (mut total, mut iters) = (Duration::ZERO, 0u64);
    while total < MEASURE {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(routine());
        }
        total += t.elapsed();
        iters += batch;
    }
    let ns = total.as_nanos() as f64 / iters as f64;
    if ns >= 1.0e6 {
        println!("bench {id:<40} {:>12.3} ms/iter", ns / 1.0e6);
    } else if ns >= 1.0e3 {
        println!("bench {id:<40} {:>12.3} µs/iter", ns / 1.0e3);
    } else {
        println!("bench {id:<40} {ns:>12.1} ns/iter");
    }
}

fn bench_walk_steps() {
    let g = dataset("epinion-sim").graph();
    let mut rng = rng_from_seed(1);
    let mut w = SrwWalk::new(g, 0, false);
    bench("walk_step/srw1", || {
        w.step(&mut rng);
        w.state_degree()
    });
    let mut rng = rng_from_seed(2);
    let (u, v) = gx_walks::random_start_edge(g, &mut rng);
    let mut w = G2Walk::new(g, u, v, false);
    bench("walk_step/g2", || {
        w.step(&mut rng);
        w.state_degree()
    });
    for d in [3usize, 4] {
        let mut rng = rng_from_seed(3);
        let start = random_start_state(g, d, &mut rng);
        let mut w = GdWalk::new(g, &start, false);
        bench(&format!("walk_step/g{d}"), || {
            w.step(&mut rng);
            w.state_degree()
        });
    }
}

fn bench_estimators_end_to_end() {
    let g = dataset("epinion-sim").graph();
    for cfg in [
        EstimatorConfig { k: 4, d: 2, ..Default::default() },
        EstimatorConfig { k: 4, d: 2, css: true, ..Default::default() },
        EstimatorConfig { k: 4, d: 3, ..Default::default() },
        EstimatorConfig { k: 3, d: 1, css: true, non_backtracking: true, ..Default::default() },
    ] {
        let id = format!("estimate_1k_steps/{}_k{}", cfg.name(), cfg.k);
        let runner = Runner::new(cfg).steps(1_000);
        let mut seed = 0u64;
        bench(&id, || {
            seed += 1;
            runner.clone().seed(seed).run_local(g).expect("valid configuration")
        });
    }
}

fn bench_classification() {
    let mut m = 0u32;
    bench("classify/classify_mask_k5", || {
        m = (m + 37) % 1024;
        classify_mask(5, m)
    });
}

fn bench_exact_counters() {
    let g = dataset("brightkite-sim").graph();
    bench("exact/three_node_closed_form", || three_node_counts(g));
    bench("exact/four_node_closed_form", || four_node_counts(g));
    bench("exact/esu_k4", || count_graphlets_esu(g, 4));
}

fn main() {
    bench_walk_steps();
    bench_estimators_end_to_end();
    bench_classification();
    bench_exact_counters();
}
