//! Every input a workload runs on, generated from the workload seed:
//! the Barabási–Albert graphs, snapshot files, op seeds and job specs.
//! The named datasets (`epinion-sim`, `gowalla-sim`) are the
//! `gx_datasets` registry's own fixed graphs. The program under test
//! receives only these inputs.

use gx_graph::generators::barabasi_albert;
use gx_graph::Graph;
use gx_walks::derive_seed;
use rand::SeedableRng;
use std::path::PathBuf;

/// Independent sub-seeds of one workload seed.
pub mod stream {
    pub const GRAPH: u64 = 1;
    pub const FIXED_OPS: u64 = 1 << 20;
    pub const ADAPTIVE_OPS: u64 = 2 << 20;
    pub const JOBS: u64 = 3 << 20;
    pub const REPLAY: u64 = 4 << 20;
}

/// The seed of the `i`-th member of `stream` under workload seed `seed`.
pub fn sub_seed(seed: u64, stream: u64, i: u64) -> u64 {
    derive_seed(seed, stream + i)
}

fn rng(seed: u64) -> rand_pcg::Pcg64 {
    rand_pcg::Pcg64::seed_from_u64(seed)
}

/// A Barabási–Albert graph (connected by construction).
pub fn ba(nodes: usize, m: usize, seed: u64) -> Graph {
    barabasi_albert(nodes, m, &mut rng(seed))
}

/// Bytes of a graph's CSR arrays: `usize` offsets and `u32` adjacency.
pub fn csr_bytes(g: &Graph) -> u64 {
    ((g.num_nodes() + 1) * std::mem::size_of::<usize>() + 2 * g.num_edges() * 4) as u64
}

/// The directory for files a run writes (snapshots, spans), relative
/// to the directory the benchmark runs from.
pub fn data_dir() -> PathBuf {
    PathBuf::from(".perfbench-data")
}

/// A per-process scratch directory under [`data_dir`], removed when
/// dropped.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = data_dir().join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(ba(500, 3, 5), ba(500, 3, 5));
        assert_ne!(ba(500, 3, 5), ba(500, 3, 6));
        assert_ne!(sub_seed(1, stream::FIXED_OPS, 0), sub_seed(1, stream::ADAPTIVE_OPS, 0));
        assert_ne!(sub_seed(1, stream::FIXED_OPS, 0), sub_seed(2, stream::FIXED_OPS, 0));
    }
}
