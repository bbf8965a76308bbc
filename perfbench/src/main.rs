//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <epinion-k4|ba-dram-k4|ba-gxsc-k4|service-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload and prints its end-to-end metrics;
//! `--trace 1` is the separate traced run that prints per-layer
//! metrics and writes its spans under `.perfbench-data/traces/`. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

// Benchmark harness: wall-clock timing is the whole point here.
#![allow(clippy::disallowed_methods)]

mod calib;
mod counting;
mod inputs;
mod layers;
mod ops;
mod service;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, setup_probe: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs `n` more set-ups of the workload, each in a fresh process so
/// one-time work (table builds, page faults) is paid every time, one
/// after another; returns their `setup_s`.
fn setup_in_fresh_processes(workload: &str, seed: u64, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..n)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", "--workload", workload, "--seed", &seed.to_string()])
                .output()
                .map_err(|e| format!("set-up probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            match text.lines().last().and_then(|l| l.strip_prefix("setup_s ")) {
                Some(v) if out.status.success() => {
                    v.trim().parse().map_err(|e| format!("set-up probe: {e}"))
                }
                _ => Err(format!("set-up probe failed: {}", String::from_utf8_lossy(&out.stderr))),
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return match workloads::calibrated_setup(&args.workload, args.seed) {
            Ok((_, _, t)) => {
                println!("setup_s {t:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let host = sys::Host::probe();
    let reps = |n| setup_in_fresh_processes(&args.workload, args.seed, n);
    let report =
        match workloads::run(&args.workload, args.seed, args.seconds, args.trace, &host, &reps) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", args.workload);
                return ExitCode::FAILURE;
            }
        };
    println!("workload {} seed {} trace {}", args.workload, args.seed, u8::from(args.trace));
    for line in &report.lines {
        println!("{line}");
    }
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    for m in report.metrics.0.iter() {
        println!("{:<40} {:>16.6e} {}", m.name, m.value, m.unit);
    }
    println!("{:<40} {:>16.6e} 1", "fail_frac", fail_frac);
    let correct = report.correct && report.failed == 0;
    println!(
        "{}",
        stats::result_json(correct, report.attempted.max(1), report.failed, &report.metrics)
    );
    ExitCode::SUCCESS
}
