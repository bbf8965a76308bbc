//! Host-speed calibration.
//!
//! The benchmark shares its host with other tenants, whose load moves
//! the speed of the same code by up to 40% within minutes. A fixed
//! kernel of the benchmark's own, which no change to the program can
//! speed up or slow down, is timed next to every op; each op's time is
//! then scaled by how far the kernel's speed at that moment sits from
//! its nominal speed. A change to the program moves the scaled times by
//! what it moves the raw ones, while the host's drift moves the op and
//! the kernel alike and largely cancels (how much an op slows under a
//! given load differs somewhat from how much the kernel does).
//!
//! Two kernels: [`Kind::Compute`] is a random walk with an edge test
//! per step on a small graph the benchmark builds itself (cache
//! resident, branchy, like the estimator's compute), and
//! [`Kind::Memory`] adds a dependent load per step from a 128 MiB
//! random cycle (DRAM latency, like a walk on a graph far beyond the
//! LLC).

use std::hint::black_box;
use std::time::Instant;

/// Which kernel a workload is calibrated with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Compute,
    Memory,
}

const GRAPH_NODES: usize = 2048;
const GRAPH_LINKS: usize = 8;
const CHASE_ENTRIES: usize = 32 << 20;
/// The kernels' nominal cost per step, on one thread and on several
/// at once: near their speed on a quiet 2-core Xeon KVM guest, where two
/// threads at once each run about 1.6 times slower than one alone.
/// Scaled times read as on a host that runs the kernel at exactly this
/// speed.
const NOMINAL_NS: [[f64; 2]; 2] = [[14.0, 22.0], [300.0, 300.0]];

/// A calibration kernel: its graph, its cycle and its chunk size.
pub struct Kernel {
    kind: Kind,
    off: Vec<u32>,
    adj: Vec<u32>,
    chase: Vec<u32>,
    steps: usize,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Kernel {
    /// A kernel whose chunk takes about `chunk_s` seconds at nominal
    /// speed on one thread. Built from a fixed seed: every run times the
    /// same work.
    pub fn new(kind: Kind, chunk_s: f64) -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut lists = vec![Vec::new(); GRAPH_NODES];
        for u in 0..GRAPH_NODES {
            lists[u].push(((u + 1) % GRAPH_NODES) as u32);
            lists[(u + 1) % GRAPH_NODES].push(u as u32);
            for _ in 0..GRAPH_LINKS {
                let v = (xorshift(&mut x) % GRAPH_NODES as u64) as usize;
                if v != u {
                    lists[u].push(v as u32);
                    lists[v].push(u as u32);
                }
            }
        }
        let (mut off, mut adj) = (vec![0u32], Vec::new());
        for l in &mut lists {
            l.sort_unstable();
            l.dedup();
            adj.extend_from_slice(l);
            off.push(adj.len() as u32);
        }
        let chase = match kind {
            Kind::Compute => Vec::new(),
            Kind::Memory => {
                // Sattolo's shuffle: one cycle through every entry.
                let mut c: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
                for i in (1..CHASE_ENTRIES).rev() {
                    let j = (xorshift(&mut x) % i as u64) as usize;
                    c.swap(i, j);
                }
                c
            }
        };
        let steps = (chunk_s * 1e9 / NOMINAL_NS[kind as usize][0]) as usize;
        Self { kind, off, adj, chase, steps }
    }

    /// Walks `steps` steps from a start given by `seed`.
    fn walk(&self, seed: u64, steps: usize) -> u64 {
        let (off, adj) = (&self.off, &self.adj);
        let mut r = seed | 1;
        let (mut prev, mut cur, mut hits) = (0usize, 1usize, 0u64);
        let mut at = (seed % CHASE_ENTRIES as u64) as u32;
        for _ in 0..steps {
            let (a, b) = (off[cur] as usize, off[cur + 1] as usize);
            let next = adj[a + (xorshift(&mut r) % (b - a) as u64) as usize] as usize;
            let p = &adj[off[prev] as usize..off[prev + 1] as usize];
            hits += u64::from(p.binary_search(&(next as u32)).is_ok());
            if self.kind == Kind::Memory {
                at = self.chase[at as usize];
            }
            (prev, cur) = (cur, next);
        }
        hits + u64::from(at)
    }

    /// One thread's chunk: an untimed eighth to bring the kernel's
    /// graph back into cache after the op before it, then the timed
    /// chunk.
    fn timed_walk(&self, seed: u64) -> f64 {
        black_box(self.walk(black_box(seed), self.steps / 8));
        let t0 = Instant::now();
        black_box(self.walk(black_box(seed + 1), self.steps));
        t0.elapsed().as_secs_f64()
    }

    /// Runs one chunk on each of `threads` threads at once; returns the
    /// slowest thread's time.
    pub fn chunk(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return self.timed_walk(7);
        }
        std::thread::scope(|s| {
            let hs: Vec<_> =
                (0..threads).map(|t| s.spawn(move || self.timed_walk(7 + 2 * t as u64))).collect();
            hs.into_iter().map(|h| h.join().expect("calibration thread")).fold(0.0, f64::max)
        })
    }

    /// Host speed against nominal over `n` chunks on `threads` threads.
    pub fn factor(&self, threads: usize, n: usize) -> f64 {
        let chunks: Vec<f64> = (0..n).map(|_| self.chunk(threads)).collect();
        self.nominal_s(threads) / crate::stats::median(&chunks)
    }

    /// The chunk's wall time at nominal speed on `threads` threads.
    pub fn nominal_s(&self, threads: usize) -> f64 {
        self.steps as f64 * NOMINAL_NS[self.kind as usize][usize::from(threads > 1)] * 1e-9
    }
}

/// Host speed against nominal, per op: `nominal / measured` chunk time
/// over a centred window of `half` chunks either side, by the median.
/// Multiplying an op's time by its factor gives its scaled time.
pub fn factors(chunks_s: &[f64], nominal_s: f64, half: usize) -> Vec<f64> {
    (0..chunks_s.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(chunks_s.len());
            nominal_s / crate::stats::median(&chunks_s[lo..hi])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_work_is_fixed() {
        let k = Kernel::new(Kind::Compute, 1e-4);
        assert_eq!(k.walk(3, 1_000), Kernel::new(Kind::Compute, 1e-4).walk(3, 1_000));
        assert!(k.chunk(2) > 0.0 && k.nominal_s(1) < k.nominal_s(2));
    }

    #[test]
    fn factors_take_a_centred_median() {
        let f = factors(&[1.0, 2.0, 100.0, 2.0, 2.0], 2.0, 1);
        assert_eq!(f, vec![2.0 / 1.5, 1.0, 1.0, 1.0, 1.0]);
    }
}
