//! A thread-safe, sharded artifact store.
//!
//! [`SharedArtifactStore`] wraps the core [`ArtifactStore`] in `N`
//! [`RwLock`]-guarded shards so concurrent plan executions and sessions can
//! load and materialize artifacts without a single global lock. Artifacts
//! are routed to shards by their logical name (already a hash, so the
//! distribution is uniform); raw datasets — registered rarely, read often —
//! all live in shard 0.
//!
//! The wrapper preserves the core store's *modelled* cost accounting
//! exactly: every load/store cost reported to callers is the inner store's
//! measured-codec-plus-modelled-IO figure. Real lock contention is
//! accounted separately, as wall-clock
//! [`SharedArtifactStore::lock_wait_seconds`], so the simulated IO model
//! and the real synchronization overhead never mix.

use hyppo_core::codec::CodecError;
use hyppo_core::{ArtifactStorage, ArtifactStore};
use hyppo_ml::Artifact;
use hyppo_pipeline::ArtifactName;
use hyppo_tensor::Dataset;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Default shard count: enough to make same-shard collisions rare for the
/// handful of workers a plan runs, small enough to keep merge cheap.
pub const DEFAULT_SHARDS: usize = 8;

#[derive(Debug)]
struct SharedInner {
    shards: Vec<RwLock<ArtifactStore>>,
    /// Cumulative wall-clock nanoseconds threads spent waiting for shard
    /// locks.
    lock_wait_nanos: AtomicU64,
}

/// Cheaply cloneable handle to a sharded, lock-protected artifact store.
///
/// Clones share the same underlying shards; the handle implements
/// [`ArtifactStorage`], so the core executor, cost annotator, and
/// materializer run against it unchanged.
#[derive(Clone, Debug)]
pub struct SharedArtifactStore {
    inner: Arc<SharedInner>,
}

impl SharedArtifactStore {
    /// Empty store with `n_shards` shards (at least 1).
    pub fn new(n_shards: usize) -> Self {
        let n = n_shards.max(1);
        let shards = (0..n).map(|_| RwLock::new(ArtifactStore::new())).collect();
        SharedArtifactStore {
            inner: Arc::new(SharedInner { shards, lock_wait_nanos: AtomicU64::new(0) }),
        }
    }

    /// Merge the shards back into a single-owner store. Callers are expected to have
    /// joined every thread holding a clone; the merge reads a consistent
    /// snapshot under the shard locks either way.
    pub fn into_store(self) -> ArtifactStore {
        let mut merged: Option<ArtifactStore> = None;
        for shard in &self.inner.shards {
            let guard = shard.read().unwrap_or_else(|e| e.into_inner());
            match &mut merged {
                None => merged = Some(guard.clone()),
                Some(out) => {
                    for (name, bytes) in guard.entries() {
                        out.insert_raw(name, bytes.clone());
                    }
                }
            }
        }
        merged.unwrap_or_default()
    }

    /// Register a raw source dataset (outside the storage budget).
    pub fn register_dataset(&self, id: &str, dataset: Dataset) {
        self.write_shard(0).register_dataset(id, dataset);
    }

    /// Total bytes of all registered raw datasets.
    pub fn total_dataset_bytes(&self) -> u64 {
        self.read_shard(0).total_dataset_bytes()
    }

    /// Number of materialized artifacts across all shards.
    pub fn len(&self) -> usize {
        (0..self.inner.shards.len()).map(|i| self.read_shard(i).len()).sum()
    }

    /// Whether no artifacts are materialized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative wall-clock seconds threads spent waiting on shard locks —
    /// the real synchronization overhead, kept apart from the modelled IO
    /// costs.
    pub fn lock_wait_seconds(&self) -> f64 {
        // hyppo-lint: allow(relaxed-ordering-justified) contention gauge; a torn
        // sum across in-flight adds is acceptable for metrics
        self.inner.lock_wait_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    fn read_shard(&self, i: usize) -> RwLockReadGuard<'_, ArtifactStore> {
        let start = Instant::now();
        let guard = self.inner.shards[i].read().unwrap_or_else(|e| e.into_inner());
        self.record_wait(start);
        guard
    }

    fn write_shard(&self, i: usize) -> RwLockWriteGuard<'_, ArtifactStore> {
        let start = Instant::now();
        let guard = self.inner.shards[i].write().unwrap_or_else(|e| e.into_inner());
        self.record_wait(start);
        guard
    }

    fn record_wait(&self, start: Instant) {
        let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        // hyppo-lint: allow(relaxed-ordering-justified) contention gauge only
        self.inner.lock_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    fn shard_for(&self, name: ArtifactName) -> usize {
        shard_of(name, self.inner.shards.len())
    }
}

/// Names are already hashes, so the low bits shard uniformly.
fn shard_of(name: ArtifactName, n: usize) -> usize {
    name.0 as usize % n
}

impl ArtifactStorage for SharedArtifactStore {
    fn dataset_shape(&self, id: &str) -> Option<(usize, usize)> {
        self.read_shard(0).dataset_shape(id)
    }

    fn dataset_bytes(&self, id: &str) -> Option<u64> {
        self.read_shard(0).dataset_bytes(id)
    }

    fn load_dataset(&self, id: &str) -> Option<(Artifact, f64)> {
        self.read_shard(0).load_dataset(id)
    }

    fn load_artifact(&self, name: ArtifactName) -> Result<Option<(Artifact, f64)>, CodecError> {
        self.read_shard(self.shard_for(name)).load(name)
    }

    fn contains_artifact(&self, name: ArtifactName) -> bool {
        self.read_shard(self.shard_for(name)).contains(name)
    }

    fn artifact_size(&self, name: ArtifactName) -> Option<u64> {
        self.read_shard(self.shard_for(name)).size_of(name)
    }

    fn put_artifact(&mut self, name: ArtifactName, artifact: &Artifact) -> (u64, f64) {
        self.write_shard(self.shard_for(name)).put(name, artifact)
    }

    fn remove_artifact(&mut self, name: ArtifactName) -> Option<u64> {
        self.write_shard(self.shard_for(name)).remove(name)
    }

    fn used_bytes(&self) -> u64 {
        (0..self.inner.shards.len()).map(|i| self.read_shard(i).used_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppo_pipeline::naming::dataset_name;
    use hyppo_tensor::{Matrix, TaskKind};

    fn dataset(rows: usize) -> Dataset {
        Dataset::new(
            Matrix::filled(rows, 3, 0.5),
            vec![0.0; rows],
            (0..3).map(|i| format!("f{i}")).collect(),
            TaskKind::Regression,
        )
    }

    #[test]
    fn put_load_roundtrip_through_shards() {
        let mut store = SharedArtifactStore::new(4);
        let a = Artifact::Predictions(vec![1.0, 2.0, 3.0]);
        let name = dataset_name("x");
        let (bytes, cost) = store.put_artifact(name, &a);
        assert!(bytes > 0 && cost > 0.0);
        let (back, load_cost) = store.load_artifact(name).unwrap().unwrap();
        assert_eq!(a, back);
        assert!(load_cost > 0.0);
        assert_eq!(store.used_bytes(), bytes);
        assert_eq!(store.artifact_size(name), Some(bytes));
        assert_eq!(store.remove_artifact(name), Some(bytes));
        assert!(store.is_empty());
    }

    #[test]
    fn into_store_merges_every_shard() {
        let mut shared = SharedArtifactStore::new(4);
        shared.register_dataset("d", dataset(10));
        for i in 0..20u64 {
            shared.put_artifact(ArtifactName(i), &Artifact::Value(i as f64));
        }
        let merged = shared.into_store();
        assert_eq!(merged.len(), 20);
        assert!(merged.dataset("d").is_some(), "datasets live in shard 0");
        for i in 0..20u64 {
            let (a, _) = merged.load(ArtifactName(i)).unwrap().unwrap();
            assert_eq!(a, Artifact::Value(i as f64));
        }
    }

    #[test]
    fn names_spread_across_shards() {
        let mut store = SharedArtifactStore::new(4);
        for i in 0..64u64 {
            store.put_artifact(ArtifactName(i), &Artifact::Value(0.0));
        }
        let counts: Vec<usize> = (0..4).map(|i| store.read_shard(i).len()).collect();
        assert!(counts.iter().all(|&c| c > 0), "all shards used: {counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 64);
    }

    #[test]
    fn concurrent_puts_from_many_threads_all_land() {
        let store = SharedArtifactStore::new(4);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let mut store = store.clone();
                s.spawn(move || {
                    for i in 0..25u64 {
                        let name = ArtifactName(t * 1000 + i);
                        store.put_artifact(name, &Artifact::Value(t as f64));
                    }
                });
            }
        });
        assert_eq!(store.len(), 200);
        assert!(store.lock_wait_seconds() >= 0.0);
    }

    #[test]
    fn datasets_are_shared_between_clones() {
        let store = SharedArtifactStore::new(2);
        store.register_dataset("d", dataset(8));
        let clone = store.clone();
        assert_eq!(clone.dataset_shape("d"), Some((8, 3)));
        assert!(clone.load_dataset("d").is_some());
        assert_eq!(clone.total_dataset_bytes(), store.total_dataset_bytes());
    }
}
