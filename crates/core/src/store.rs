//! The artifact store: raw source datasets plus materialized artifacts.
//!
//! The paper's source node `s` stands for "all possible storage locations".
//! This store models them: raw datasets are always loadable (data sources
//! are never eviction candidates, §IV-H), while derived artifacts occupy
//! the storage budget and can be materialized/evicted by the history
//! manager.
//!
//! Load and store costs combine *measured* codec time with a *modelled*
//! bandwidth term (`bytes / bandwidth + overhead`), standing in for the
//! disk/network the paper's testbed would hit.

use crate::codec::{self, CodecError};
use bytes::Bytes;
use hyppo_ml::Artifact;
use hyppo_pipeline::ArtifactName;
use hyppo_tensor::Dataset;
use std::collections::HashMap;
use std::time::Instant;

/// Storage abstraction over the source node `s`.
///
/// The executor, cost annotator, and materializer are generic over this
/// trait so plans can run against either the single-owner
/// [`ArtifactStore`] or a concurrent wrapper (e.g. the runtime crate's
/// `SharedArtifactStore`) without changing the modelled cost accounting.
/// Method names are suffixed with `_artifact`/`_shape` where an inherent
/// [`ArtifactStore`] method of the same role exists, so concrete callers
/// keep resolving to the inherent API.
pub trait ArtifactStorage {
    /// `(rows, columns)` of a registered dataset.
    fn dataset_shape(&self, id: &str) -> Option<(usize, usize)>;

    /// Size in bytes of a registered dataset.
    fn dataset_bytes(&self, id: &str) -> Option<u64>;

    /// Load a raw dataset with its modelled IO cost in seconds.
    fn load_dataset(&self, id: &str) -> Option<(Artifact, f64)>;

    /// Load a materialized artifact with its load cost in seconds.
    /// `Ok(None)` means not materialized; `Err` means the stored encoding
    /// is corrupt.
    fn load_artifact(&self, name: ArtifactName) -> Result<Option<(Artifact, f64)>, CodecError>;

    /// Whether an artifact is materialized.
    fn contains_artifact(&self, name: ArtifactName) -> bool;

    /// Stored size of a materialized artifact.
    fn artifact_size(&self, name: ArtifactName) -> Option<u64>;

    /// Materialize an artifact; returns `(stored bytes, store cost seconds)`.
    fn put_artifact(&mut self, name: ArtifactName, artifact: &Artifact) -> (u64, f64);

    /// Evict a materialized artifact; returns its size if present.
    fn remove_artifact(&mut self, name: ArtifactName) -> Option<u64>;

    /// Total bytes used by materialized artifacts (budget accounting).
    fn used_bytes(&self) -> u64;
}

/// Simulated storage backing the source node `s`.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    datasets: HashMap<String, Dataset>,
    items: HashMap<ArtifactName, Bytes>,
    /// Modelled read/write bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Fixed per-operation overhead in seconds.
    pub overhead: f64,
}

impl Default for ArtifactStore {
    fn default() -> Self {
        ArtifactStore {
            datasets: HashMap::new(),
            items: HashMap::new(),
            bandwidth: 500.0 * 1_048_576.0,
            overhead: 2e-4,
        }
    }
}

impl ArtifactStore {
    /// Empty store with default bandwidth.
    pub fn new() -> Self {
        Self::default()
    }

    fn io_cost(&self, bytes: usize) -> f64 {
        self.overhead + bytes as f64 / self.bandwidth
    }

    /// Register a raw source dataset (outside the storage budget).
    pub fn register_dataset(&mut self, id: &str, dataset: Dataset) {
        self.datasets.insert(id.to_string(), dataset);
    }

    /// Borrow a registered dataset.
    pub fn dataset(&self, id: &str) -> Option<&Dataset> {
        self.datasets.get(id)
    }

    /// Size in bytes of a registered dataset.
    pub fn dataset_bytes(&self, id: &str) -> Option<u64> {
        self.datasets.get(id).map(|d| d.size_bytes() as u64)
    }

    /// Load a raw dataset; returns the artifact and the load cost in
    /// seconds (modelled IO only — datasets are kept deserialized).
    pub fn load_dataset(&self, id: &str) -> Option<(Artifact, f64)> {
        let d = self.datasets.get(id)?;
        let cost = self.io_cost(d.size_bytes());
        Some((Artifact::Data(d.clone()), cost))
    }

    /// Materialize an artifact. Returns `(stored bytes, store cost
    /// seconds)`; the cost combines measured encode time and modelled IO.
    pub fn put(&mut self, name: ArtifactName, artifact: &Artifact) -> (u64, f64) {
        let start = Instant::now();
        let bytes = codec::encode(artifact);
        let encode_secs = start.elapsed().as_secs_f64();
        let len = bytes.len();
        self.items.insert(name, bytes);
        (len as u64, encode_secs + self.io_cost(len))
    }

    /// Load a materialized artifact. Returns the artifact and the load cost
    /// in seconds (measured decode + modelled IO). `Ok(None)` means the
    /// artifact is not materialized; `Err` means its encoding is corrupt.
    pub fn load(&self, name: ArtifactName) -> Result<Option<(Artifact, f64)>, CodecError> {
        let Some(bytes) = self.items.get(&name) else { return Ok(None) };
        let start = Instant::now();
        let artifact = codec::decode(bytes)?;
        let decode_secs = start.elapsed().as_secs_f64();
        Ok(Some((artifact, decode_secs + self.io_cost(bytes.len()))))
    }

    /// Whether an artifact is materialized.
    pub fn contains(&self, name: ArtifactName) -> bool {
        self.items.contains_key(&name)
    }

    /// Evict a materialized artifact; returns its size if present.
    pub fn remove(&mut self, name: ArtifactName) -> Option<u64> {
        self.items.remove(&name).map(|b| b.len() as u64)
    }

    /// Stored size of a materialized artifact.
    pub fn size_of(&self, name: ArtifactName) -> Option<u64> {
        self.items.get(&name).map(|b| b.len() as u64)
    }

    /// Total bytes used by materialized artifacts (budget accounting).
    pub fn used_bytes(&self) -> u64 {
        self.items.values().map(|b| b.len() as u64).sum()
    }

    /// Number of materialized artifacts.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no artifacts are materialized.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Names of all materialized artifacts.
    pub fn names(&self) -> impl Iterator<Item = ArtifactName> + '_ {
        self.items.keys().copied()
    }

    /// Raw encoded payloads of all materialized artifacts. Persistence and
    /// sharding layers use this to move entries between stores without a
    /// decode/encode round trip.
    pub fn entries(&self) -> impl Iterator<Item = (ArtifactName, &Bytes)> + '_ {
        self.items.iter().map(|(&n, b)| (n, b))
    }

    /// Insert an already-encoded payload verbatim (the inverse of
    /// [`ArtifactStore::entries`]). The bytes are trusted to be a valid
    /// encoding; a corrupt payload surfaces later as a load error.
    pub fn insert_raw(&mut self, name: ArtifactName, bytes: Bytes) {
        self.items.insert(name, bytes);
    }

    /// Ids of all registered raw datasets.
    pub fn dataset_ids(&self) -> impl Iterator<Item = &str> + '_ {
        self.datasets.keys().map(String::as_str)
    }

    /// Total bytes of all registered raw datasets (the basis for relative
    /// storage budgets — the paper's `B = 0.1 × dataset_size`).
    pub fn total_dataset_bytes(&self) -> u64 {
        self.datasets.values().map(|d| d.size_bytes() as u64).sum()
    }
}

impl ArtifactStorage for ArtifactStore {
    fn dataset_shape(&self, id: &str) -> Option<(usize, usize)> {
        self.datasets.get(id).map(|d| (d.len(), d.n_features()))
    }

    fn dataset_bytes(&self, id: &str) -> Option<u64> {
        ArtifactStore::dataset_bytes(self, id)
    }

    fn load_dataset(&self, id: &str) -> Option<(Artifact, f64)> {
        ArtifactStore::load_dataset(self, id)
    }

    fn load_artifact(&self, name: ArtifactName) -> Result<Option<(Artifact, f64)>, CodecError> {
        self.load(name)
    }

    fn contains_artifact(&self, name: ArtifactName) -> bool {
        self.contains(name)
    }

    fn artifact_size(&self, name: ArtifactName) -> Option<u64> {
        self.size_of(name)
    }

    fn put_artifact(&mut self, name: ArtifactName, artifact: &Artifact) -> (u64, f64) {
        self.put(name, artifact)
    }

    fn remove_artifact(&mut self, name: ArtifactName) -> Option<u64> {
        self.remove(name)
    }

    fn used_bytes(&self) -> u64 {
        ArtifactStore::used_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppo_pipeline::naming::dataset_name;
    use hyppo_tensor::{Matrix, TaskKind};

    fn dataset(rows: usize) -> Dataset {
        let m = Matrix::filled(rows, 4, 1.5);
        Dataset::new(
            m,
            vec![0.0; rows],
            (0..4).map(|i| format!("f{i}")).collect(),
            TaskKind::Regression,
        )
    }

    #[test]
    fn dataset_registration_and_load() {
        let mut store = ArtifactStore::new();
        store.register_dataset("higgs", dataset(100));
        assert!(store.dataset("higgs").is_some());
        assert!(store.dataset("nope").is_none());
        let (artifact, cost) = store.load_dataset("higgs").unwrap();
        assert!(artifact.as_data().is_some());
        assert!(cost >= store.overhead);
    }

    #[test]
    fn put_load_roundtrip() {
        let mut store = ArtifactStore::new();
        let a = Artifact::Predictions(vec![1.0, 2.0, 3.0]);
        let name = dataset_name("x");
        let (bytes, put_cost) = store.put(name, &a);
        assert!(bytes > 0);
        assert!(put_cost > 0.0);
        let (back, load_cost) = store.load(name).unwrap().unwrap();
        assert_eq!(a, back);
        assert!(load_cost > 0.0);
    }

    #[test]
    fn larger_artifacts_cost_more_to_load() {
        let mut store = ArtifactStore::new();
        store.bandwidth = 1_048_576.0; // 1 MB/s to make the asymmetry obvious
        let small = dataset_name("small");
        let large = dataset_name("large");
        store.put(small, &Artifact::Predictions(vec![0.0; 100]));
        store.put(large, &Artifact::Predictions(vec![0.0; 1_000_000]));
        let (_, c_small) = store.load(small).unwrap().unwrap();
        let (_, c_large) = store.load(large).unwrap().unwrap();
        assert!(c_large > 10.0 * c_small, "{c_large} vs {c_small}");
    }

    #[test]
    fn eviction_and_accounting() {
        let mut store = ArtifactStore::new();
        let name = dataset_name("x");
        let (bytes, _) = store.put(name, &Artifact::Value(1.0));
        assert!(store.contains(name));
        assert_eq!(store.used_bytes(), bytes);
        assert_eq!(store.size_of(name), Some(bytes));
        assert_eq!(store.len(), 1);
        assert_eq!(store.remove(name), Some(bytes));
        assert!(!store.contains(name));
        assert!(store.is_empty());
        assert_eq!(store.remove(name), None);
    }

    #[test]
    fn total_dataset_bytes_sums_sources() {
        let mut store = ArtifactStore::new();
        store.register_dataset("a", dataset(10));
        store.register_dataset("b", dataset(20));
        let expected = dataset(10).size_bytes() as u64 + dataset(20).size_bytes() as u64;
        assert_eq!(store.total_dataset_bytes(), expected);
    }

    #[test]
    fn missing_artifact_loads_as_none() {
        let store = ArtifactStore::new();
        assert!(store.load(dataset_name("nope")).unwrap().is_none());
    }

    #[test]
    fn corrupt_encoding_is_an_error_not_a_panic() {
        let mut store = ArtifactStore::new();
        let name = dataset_name("x");
        store.insert_raw(name, Bytes::from(&b"garbage"[..]));
        assert!(store.load(name).is_err());
    }

    #[test]
    fn overwrite_replaces_payload() {
        let mut store = ArtifactStore::new();
        let name = dataset_name("x");
        store.put(name, &Artifact::Value(1.0));
        store.put(name, &Artifact::Value(2.0));
        let (back, _) = store.load(name).unwrap().unwrap();
        assert_eq!(back, Artifact::Value(2.0));
        assert_eq!(store.len(), 1);
    }
}
