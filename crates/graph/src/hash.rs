//! The workspace's two non-cryptographic hash primitives, in one place.
//!
//! * FNV-1a (64-bit) digests snapshot headers, the checkpoint envelope
//!   (`gx_core::checkpoint`) and, fed word by word, the structural
//!   [`crate::graph_fingerprint`].
//! * The SplitMix64 finalizer derives independent seeds and the
//!   deterministic fault/jitter streams of `gx-core` and `gx-service`.
//!
//! Both are pinned bit-for-bit: their outputs live in checkpoint bytes,
//! snapshot headers and seeded test expectations.

/// FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit digest — shared by snapshot headers and the checkpoint
/// envelope (`gx_core::checkpoint::fnv1a`). Every byte step is a
/// bijection of the running state, so same-length inputs differing in
/// any single bit hash differently — the guarantee the corruption tests
/// lean on.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64's state increment (the golden-ratio gamma): a SplitMix64
/// stream's `i`-th output is [`splitmix64`]`(seed + i · GAMMA)`.
pub const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer (Steele, Lea & Flood 2014): a
/// bijective avalanche mix of `z`, so nearby inputs give uncorrelated
/// outputs.
pub fn splitmix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
