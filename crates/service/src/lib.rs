//! **gx-service** — a fault-tolerant, fair, multi-job estimation
//! service over the `gx-core` runner.
//!
//! The paper's estimators answer one question per run; a serving
//! deployment answers many at once, against shared graph snapshots,
//! under latency and reliability constraints the single-run API never
//! sees. This crate provides that layer as plain `std` concurrency
//! (threads + `Mutex`/`Condvar`, no async runtime):
//!
//! * [`EstimationService`] — a fixed worker pool multiplexing many
//!   concurrent jobs, deficit-round-robin fair, one shared CSR per
//!   distinct graph ([`SnapshotCache`]).
//! * [`JobSpec`] / [`JobHandle`] — per-job budgets, weights, deadlines,
//!   cooperative cancellation, progress polling.
//! * Typed terminal outcomes only: every submitted job ends in
//!   `Ok(Estimate)` or a [`gx_core::ServiceError`]
//!   (`Rejected`/`DeadlineExceeded`/`Cancelled`/`Shutdown`/`Poisoned`),
//!   with a best-effort partial estimate attached where one exists.
//! * Crash recovery: a worker that panics is quarantined and replaced;
//!   its in-flight job is re-adopted from its last round-boundary
//!   checkpoint by a surviving worker — bit-identical to an
//!   uninterrupted run, by the checkpoint subsystem's golden-bit
//!   contract. A job that has panicked [`MAX_RECOVERIES`] workers ends
//!   `Poisoned` instead.
//!
//! The design hinge: a descheduled job *is* its checkpoint bytes.
//! Scheduling, migration, and crash recovery are all
//! [`gx_core::Runner::resume_trusted`] from the same snapshot, so the
//! fault-tolerance story inherits the already-tested checkpoint
//! guarantees instead of adding a second state-transfer mechanism.

mod admission;
pub mod api;
pub mod cache;
pub mod deadline;
pub mod recovery;
mod scheduler;
mod sync;

pub use api::{
    EstimationService, JobFaults, JobHandle, JobId, JobResult, JobSpec, ServiceConfig, ServiceStats,
};
pub use cache::SnapshotCache;
pub use deadline::Deadline;
pub use gx_core::ServiceError;
pub use recovery::{BackoffPolicy, InjectedWorkerPanic, MAX_RECOVERIES};

use std::panic::PanicHookInfo;
use std::sync::Once;

/// Silences the default panic-hook backtrace for **injected** worker
/// panics ([`JobFaults::panic_at_round`]), so robustness tests and
/// examples do not spray scary-but-expected `panicked at ...` noise.
/// Real panics (any other payload) still print through the previous
/// hook. Idempotent; affects only processes that opt in.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info: &PanicHookInfo<'_>| {
            if info.payload().downcast_ref::<InjectedWorkerPanic>().is_none() {
                previous(info);
            }
        }));
    });
}
