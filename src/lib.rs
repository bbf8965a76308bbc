//! # graphlet-rw
//!
//! A Rust implementation of **"A General Framework for Estimating Graphlet
//! Statistics via Random Walk"** (Chen, Li, Wang, Lui — PVLDB 10(3), 2016),
//! together with every substrate it needs: graph storage and generators, a
//! restricted-access (crawling) model, random walks on subgraph
//! relationship graphs, exact counters for ground truth, and the baselines
//! the paper compares against.
//!
//! This crate is a facade: it re-exports the workspace's public API under
//! stable module names. Start with the [`Runner`] front door — one
//! composable entry point for fixed/adaptive × sequential/parallel
//! estimation with typed errors:
//!
//! ```
//! use graphlet_rw::{EstimatorConfig, Runner};
//! use graphlet_rw::graph::generators::classic;
//!
//! let g = classic::paper_figure1();
//! // SRW2CSS — the paper's recommended method for 4-node graphlets.
//! let est = Runner::new(EstimatorConfig::recommended(4))
//!     .steps(20_000)
//!     .seed(42)
//!     .run(&g)
//!     .expect("valid configuration");
//! let conc = est.concentrations();
//! assert!((conc.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```
//!
//! Invalid input — a config, rule, fan-out or budget out of domain — is
//! a typed [`GxError`] from the runner, never a panic.

/// Graph substrate: CSR storage, builders, generators, connectivity, the
/// restricted-access model, explicit `G(d)` construction.
pub use gx_graph as graph;

/// Graphlet taxonomy: atlas, canonical classification, α coefficients.
pub use gx_graphlets as graphlets;

/// Random walks on `G(d)`: SRW, the O(1) edge walk, non-backtracking
/// variants, Metropolis–Hastings.
pub use gx_walks as walks;

/// The estimation framework (paper Algorithms 1–3, Theorems 2–3).
pub use gx_core as core;

/// Exact counting (ground truth): ESU and closed forms.
pub use gx_exact as exact;

/// Competing methods: wedge sampling, path sampling, Wedge-MHRW, GUISE.
pub use gx_baselines as baselines;

/// Synthetic analogs of the paper's evaluation datasets.
pub use gx_datasets as datasets;

/// Estimation as a service: fair multi-job scheduling, deadlines,
/// cancellation, overload shedding, checkpoint-based crash recovery.
pub use gx_service as service;

pub use gx_core::{
    graph_fingerprint, measure_burn_in, write_atomic, AdaptiveReport, BatchStats, BurnInReport,
    CheckpointError, ConfigError, Corruption, Estimate, EstimatorConfig, FailingWriter, FaultPlan,
    GxError, ParallelConfig, Progress, RuleError, RunHandle, Runner, ServiceError, StoppingRule,
    WalkerStatus,
};
pub use gx_graph::{
    read_header, write_gxsc, write_gxsn, CompressedGraph, Graph, GraphAccess, NodeId,
    SnapshotError, SnapshotHeader, SnapshotInfo, SnapshotKind,
};
pub use gx_graphlets::GraphletId;
pub use gx_service::{EstimationService, JobHandle, JobResult, JobSpec, ServiceConfig};
