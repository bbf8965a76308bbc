//! Seeded randomness.
//!
//! Everything stochastic in the workspace goes through PCG64 with explicit
//! seeds: `rand`'s `StdRng` documents that its stream may change between
//! releases, which would silently break the reproducibility of every
//! experiment in EXPERIMENTS.md.

use gx_graph::hash::{splitmix64, SPLITMIX_GAMMA};
use rand::SeedableRng;

/// The workspace-wide PRNG.
pub type WalkRng = rand_pcg::Pcg64;

/// A PCG64 seeded deterministically from a `u64`.
pub fn rng_from_seed(seed: u64) -> WalkRng {
    WalkRng::seed_from_u64(seed)
}

/// Exports the complete serializable state of a [`WalkRng`]: the PCG64
/// `(state, increment)` pair. Together with the walk's own position this
/// is everything a checkpoint needs to resume a chain bit-identically —
/// see [`import_rng_state`].
pub fn export_rng_state(rng: &WalkRng) -> (u128, u128) {
    rng.raw_state()
}

/// Rebuilds a [`WalkRng`] from an [`export_rng_state`] pair, resuming the
/// stream at exactly the exported position (no re-seeding). The pair must
/// come from a prior export; fabricating one with an even increment is a
/// construction error.
pub fn import_rng_state(state: u128, increment: u128) -> WalkRng {
    WalkRng::from_raw_state(state, increment)
}

/// Derives an independent child seed from `(base, stream)` with SplitMix64
/// finalization — used to give every repetition / dataset / method its own
/// stream without correlated low bits.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    splitmix64(base ^ stream.wrapping_mul(SPLITMIX_GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = rng_from_seed(42);
        let mut b = rng_from_seed(42);
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(2);
        let same = (0..32).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn export_import_resumes_mid_stream() {
        let mut rng = rng_from_seed(7);
        for _ in 0..100 {
            rng.gen::<u64>();
        }
        let (state, inc) = export_rng_state(&rng);
        let mut resumed = import_rng_state(state, inc);
        for _ in 0..256 {
            assert_eq!(rng.gen::<u64>(), resumed.gen::<u64>());
        }
    }

    #[test]
    fn derive_seed_spreads_streams() {
        let base = 7;
        let seeds: std::collections::HashSet<u64> =
            (0..1000).map(|i| derive_seed(base, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }
}
