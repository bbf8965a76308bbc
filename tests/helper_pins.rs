//! Literal outputs of the seeded hash helpers, pinned.
//!
//! Derived seeds, fault plans, backoff jitter and graph fingerprints all
//! come from the two primitives in `gx_graph::hash` (FNV-1a and the
//! SplitMix64 finalizer). Their values reach checkpoint bytes, snapshot
//! headers and every seeded expectation in the other suites, so moving
//! or refactoring a helper must leave each of these numbers unchanged.

use graphlet_rw::graph::generators::classic;
use graphlet_rw::graph::hash::{splitmix64, SPLITMIX_GAMMA};
use graphlet_rw::service::{BackoffPolicy, JobFaults};
use graphlet_rw::walks::derive_seed;
use graphlet_rw::{graph_fingerprint, FaultPlan};

#[test]
fn splitmix_stream_outputs_are_pinned() {
    // The service's jitter and fault streams draw `splitmix64(x + GAMMA)`.
    let out = |x: u64| splitmix64(x.wrapping_add(SPLITMIX_GAMMA));
    assert_eq!(out(0), 0xe220_a839_7b1d_cdaf);
    assert_eq!(out(1), 0x910a_2dec_8902_5cc1);
    assert_eq!(out(0xDEAD_BEEF), 0x4adf_b90f_68c9_eb9b);
    assert_eq!(out(u64::MAX), 0xe4d9_7177_1b65_2c20);
}

#[test]
fn derived_seeds_are_pinned() {
    assert_eq!(derive_seed(0, 0), 0);
    assert_eq!(derive_seed(42, 7), 0x53ad_348a_f3dd_af4b);
    assert_eq!(derive_seed(u64::MAX, 3), 0x8f33_8340_13b3_1f7c);
}

#[test]
fn fault_plans_are_pinned() {
    assert_eq!(FaultPlan::from_seed(0, 8, 20).poison, vec![(7, 1)]);
    assert_eq!(FaultPlan::from_seed(9, 8, 20).poison, vec![(4, 7)]);
    assert_eq!(FaultPlan::from_seed(0xDEAD_BEEF, 8, 20).poison, vec![(3, 15)]);

    let plan = |seed| JobFaults::from_seed(seed, 4, 10);
    let want = |panic_at_round, checkpoint_write_failures, poison| JobFaults {
        panic_at_round,
        checkpoint_write_failures,
        poison,
    };
    assert_eq!(plan(0), want(None, 0, vec![(1, 5)]));
    assert_eq!(plan(1), JobFaults::none());
    assert_eq!(plan(6), want(None, 3, vec![]));
    assert_eq!(plan(7), want(Some(6), 2, vec![]));
    assert_eq!(plan(8), want(Some(10), 0, vec![(3, 5)]));
    assert_eq!(plan(10), want(None, 3, vec![(3, 5)]));
}

#[test]
fn backoff_jitter_is_pinned() {
    let p = BackoffPolicy::default();
    assert_eq!(p.delay(0, 0).as_nanos(), 470_828);
    assert_eq!(p.delay(1, 7).as_nanos(), 869_909);
    assert_eq!(p.delay(5, 0xABCD).as_nanos(), 13_045_316);
    assert_eq!(p.delay(20, u64::MAX).as_nanos(), 39_508_819);
}

#[test]
fn petersen_fingerprint_is_pinned() {
    assert_eq!(graph_fingerprint(&classic::petersen()), 0xd1d5_2612_38a2_d20e);
}
