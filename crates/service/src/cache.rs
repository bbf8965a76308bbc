//! The shared-snapshot cache: one loaded CSR per distinct graph and
//! storage, keyed by the checkpoint subsystem's
//! [`graph_fingerprint`](gx_core::graph_fingerprint).
//!
//! N concurrent jobs over the same snapshot must share one CSR — both
//! for memory (the snapshot dominates a job's footprint) and so the
//! trusted-fingerprint resume path ([`gx_core::Runner::resume_trusted`])
//! can skip the O(edges) fingerprint rescan on every scheduler lease.
//! [`SnapshotCache::intern`] canonicalizes a submitted `Arc<Graph>`:
//! content-identical graphs (same fingerprint) on the same storage
//! collapse onto the first `Arc` seen. A graph opened from a GXSN
//! snapshot is keyed by its header fingerprint in O(1); an in-RAM graph
//! pays one O(edges) scan on first submission, and re-submitting a
//! previously-interned `Arc` is a pointer-equality hit that skips it.
//! A mapped and an in-RAM copy of one graph stay separate entries, so a
//! job never silently switches storage.

use crate::sync::locked;
use gx_graph::{Graph, SnapshotError};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Cache key: the graph's fingerprint and whether it is mapped.
type Key = (u64, bool);

/// Fingerprint-keyed cache of loaded graph snapshots.
///
/// Entries live until [`SnapshotCache::evict_unused`] removes the ones
/// no job references anymore; the cache is bounded by the number of
/// *distinct* graphs submitted, which a serving deployment controls.
#[derive(Debug, Default)]
pub struct SnapshotCache {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Canonical graph per (fingerprint, mapped).
    graphs: HashMap<Key, Arc<Graph>>,
    /// Data-pointer → key, for canonical `Arc`s only. Keys are only ever
    /// pointers of `Arc`s held alive in `graphs`, so a key can never
    /// dangle onto a recycled allocation.
    by_ptr: HashMap<usize, Key>,
}

impl SnapshotCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonicalizes `g`: returns the shared graph for its content and
    /// storage, and the content's fingerprint. A mapped snapshot is
    /// keyed by its header fingerprint (O(1)); the first submission of
    /// an in-RAM graph pays one O(edges) fingerprint scan, and
    /// re-submitting the *returned* (canonical) `Arc` afterwards is a
    /// pointer lookup.
    pub fn intern(&self, g: Arc<Graph>) -> (Arc<Graph>, u64) {
        let mut inner = locked(&self.inner);
        let ptr = Arc::as_ptr(&g) as usize;
        if let Some(&key) = inner.by_ptr.get(&ptr) {
            // `by_ptr` keys are only ever canonical `Arc`s held in
            // `graphs`, but degrade to a rescan rather than panic if
            // that invariant is ever broken.
            if let Some(canonical) = inner.graphs.get(&key) {
                return (canonical.clone(), key.0);
            }
        }
        let key = (g.fingerprint(), g.is_mapped());
        let canonical = match inner.graphs.get(&key) {
            Some(existing) => existing.clone(),
            None => {
                inner.graphs.insert(key, g.clone());
                inner.by_ptr.insert(ptr, key);
                g
            }
        };
        (canonical, key.0)
    }

    /// Opens the GXSN snapshot at `path` ([`Graph::open`]) and interns
    /// it — or, if a mapping with the same header fingerprint is already
    /// cached, returns it *without mapping the file again* (the header
    /// read is 64 bytes). This is what makes repeated
    /// `GX_DATASET_MMAP` submissions of one snapshot share a single
    /// mmap.
    pub fn from_mapped(&self, path: impl AsRef<Path>) -> Result<(Arc<Graph>, u64), SnapshotError> {
        let header = gx_graph::read_header(&path)?;
        if let Some(existing) = locked(&self.inner).graphs.get(&(header.fingerprint, true)) {
            return Ok((existing.clone(), header.fingerprint));
        }
        // Map outside the lock (it touches the filesystem), then race
        // benignly: if another thread mapped the same content first,
        // theirs wins and ours unmaps on drop.
        Ok(self.intern(Arc::new(Graph::open(path)?)))
    }

    /// Distinct snapshots currently cached (in-RAM + mapped).
    pub fn len(&self) -> usize {
        locked(&self.inner).graphs.len()
    }

    /// Whether the cache holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every snapshot no longer referenced outside the cache,
    /// returning how many were evicted (dropping a mapped graph's last
    /// `Arc` unmaps it). Call between bursts; jobs keep their own `Arc`
    /// clones, so an in-flight job's snapshot is never evicted from
    /// under it.
    pub fn evict_unused(&self) -> usize {
        let inner = &mut *locked(&self.inner);
        let before = inner.graphs.len();
        inner.graphs.retain(|_, g| Arc::strong_count(g) > 1);
        let graphs = &inner.graphs;
        inner.by_ptr.retain(|_, key| graphs.contains_key(key));
        before - inner.graphs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_core::graph_fingerprint;
    use gx_graph::generators::classic;

    #[test]
    fn content_identical_arcs_collapse_to_one_snapshot() {
        let cache = SnapshotCache::new();
        let a = Arc::new(classic::lollipop(8, 4));
        let b = Arc::new(classic::lollipop(8, 4));
        let (ca, fa) = cache.intern(a);
        let (cb, fb) = cache.intern(b);
        assert_eq!(fa, fb, "same content, same fingerprint");
        assert!(Arc::ptr_eq(&ca, &cb), "jobs must share one CSR");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_graphs_keep_distinct_entries() {
        let cache = SnapshotCache::new();
        let (_, fa) = cache.intern(Arc::new(classic::lollipop(8, 4)));
        let (_, fb) = cache.intern(Arc::new(classic::petersen()));
        assert_ne!(fa, fb);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinterning_the_canonical_arc_is_a_pointer_hit() {
        let cache = SnapshotCache::new();
        let (canonical, fp) = cache.intern(Arc::new(classic::petersen()));
        let (again, fp2) = cache.intern(canonical.clone());
        assert_eq!(fp, fp2);
        assert!(Arc::ptr_eq(&canonical, &again));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evict_unused_drops_only_unreferenced_snapshots() {
        let cache = SnapshotCache::new();
        let (held, _) = cache.intern(Arc::new(classic::lollipop(8, 4)));
        let (dropped, _) = cache.intern(Arc::new(classic::petersen()));
        drop(dropped);
        assert_eq!(cache.evict_unused(), 1);
        assert_eq!(cache.len(), 1);
        // The held snapshot survived and is still the canonical entry.
        let (again, _) = cache.intern(held.clone());
        assert!(Arc::ptr_eq(&held, &again));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn from_mapped_shares_one_mapping_per_fingerprint() {
        let g = classic::lollipop(8, 4);
        let path = std::env::temp_dir().join("gx_service_cache_shared.gxsn");
        gx_graph::write_gxsn(&g, None, &path).unwrap();
        let cache = SnapshotCache::new();
        let (a, fa) = cache.from_mapped(&path).unwrap();
        let (b, fb) = cache.from_mapped(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(fa, fb);
        assert!(Arc::ptr_eq(&a, &b), "second open must reuse the first mapping");
        assert_eq!(cache.len(), 1);
        // The header fingerprint the cache keys on is the same value an
        // O(edges) rescan would compute — resume_trusted stays safe.
        assert_eq!(fa, graph_fingerprint(&*a));
        assert_eq!(fa, graph_fingerprint(&g));
        // Eviction: drop both handles, the mapping goes away.
        drop((a, b));
        assert_eq!(cache.evict_unused(), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn mapped_and_ram_copies_of_one_graph_stay_per_backend() {
        let g = classic::petersen();
        let path = std::env::temp_dir().join("gx_service_cache_backends.gxsn");
        gx_graph::write_gxsn(&g, None, &path).unwrap();
        let cache = SnapshotCache::new();
        let (_ram, f1) = cache.intern(Arc::new(g));
        let (_mapped, f2) = cache.from_mapped(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(f1, f2, "same content, same fingerprint");
        assert_eq!(cache.len(), 2, "one entry per backend — jobs never switch backends silently");
    }

    #[test]
    fn fingerprint_matches_core_graph_fingerprint() {
        // resume_trusted relies on the cached value being exactly what
        // core would compute — a drifted cache would forfeit the
        // wrong-graph protection.
        let cache = SnapshotCache::new();
        let g = Arc::new(classic::petersen());
        let (_, fp) = cache.intern(g.clone());
        assert_eq!(fp, graph_fingerprint(&*g));
    }
}
