//! The content-addressed artifact store.
//!
//! Artifacts live at `<root>/<kind>/<digest>.json`, where the digest is
//! the stable hash of the producing job's defining content (for a sweep
//! shard: location + `AnnualConfig`, which embeds the `TrainingConfig`).
//! Writes go through a temp file and an atomic rename, so a kill can never
//! leave a torn artifact — the store either has the complete JSON or
//! nothing. Each write has its own temp file (process id plus a
//! per-process counter), so concurrent writers of one digest — executor
//! threads, or `--shard` processes sharing a store — never truncate or
//! rename each other's half-written file; the last rename wins, and every
//! candidate is complete.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::hash::Digest;

/// Why an artifact could not be loaded. The distinction matters to
/// callers that answer for the store over a network or an exit code:
/// *absent* is the caller's mistake (404), *corrupt* or *unreadable* is
/// the store's (500).
#[derive(Debug)]
pub enum ArtifactError {
    /// No artifact exists under this `(kind, digest)`.
    NotFound,
    /// The artifact file exists but its JSON does not parse (torn write
    /// or foreign content).
    Corrupt(String),
    /// The artifact file exists but could not be read.
    Io(std::io::Error),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::NotFound => write!(f, "artifact not found"),
            ArtifactError::Corrupt(e) => write!(f, "artifact corrupt: {e}"),
            ArtifactError::Io(e) => write!(f, "artifact unreadable: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// A directory of content-addressed JSON artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// Opens (creating if absent) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation errors.
    pub fn open(root: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(root)?;
        Ok(ArtifactStore { root: root.to_path_buf() })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path an artifact lives at.
    #[must_use]
    pub fn path_for(&self, kind: &str, digest: Digest) -> PathBuf {
        self.root.join(kind).join(format!("{digest}.json"))
    }

    /// Whether a complete artifact exists.
    #[must_use]
    pub fn contains(&self, kind: &str, digest: Digest) -> bool {
        self.path_for(kind, digest).is_file()
    }

    /// Loads an artifact, or `None` when absent or unreadable (an
    /// unreadable artifact is treated as a cache miss, never an error —
    /// the job simply re-runs).
    #[must_use]
    pub fn get<T: DeserializeOwned>(&self, kind: &str, digest: Digest) -> Option<T> {
        self.try_get(kind, digest).ok()
    }

    /// Loads an artifact, distinguishing *absent* from *corrupt* and
    /// *unreadable*. The executor's cache probe wants [`ArtifactStore::get`]
    /// (any failure is a miss); result backends answering for a specific
    /// artifact — `GET /jobs/{id}`, `coolair report` — want this.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::NotFound`] when no file exists,
    /// [`ArtifactError::Corrupt`] when its JSON does not parse,
    /// [`ArtifactError::Io`] when it cannot be read.
    pub fn try_get<T: DeserializeOwned>(
        &self,
        kind: &str,
        digest: Digest,
    ) -> Result<T, ArtifactError> {
        let path = self.path_for(kind, digest);
        let bytes = std::fs::read(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                ArtifactError::NotFound
            } else {
                ArtifactError::Io(e)
            }
        })?;
        serde_json::from_slice(&bytes).map_err(|e| ArtifactError::Corrupt(e.to_string()))
    }

    /// Stores an artifact atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Propagates serialization and file I/O errors.
    pub fn put<T: Serialize>(
        &self,
        kind: &str,
        digest: Digest,
        value: &T,
    ) -> std::io::Result<()> {
        let path = self.path_for(kind, digest);
        let dir = self.root.join(kind);
        std::fs::create_dir_all(&dir)?;
        let json = serde_json::to_vec(value)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let tmp = dir.join(format!("{digest}.json.{}.{}.tmp", std::process::id(), next_write_id()));
        std::fs::write(&tmp, &json)?;
        std::fs::rename(&tmp, &path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// Number of complete artifacts under one kind (0 for an absent kind).
    #[must_use]
    pub fn count(&self, kind: &str) -> usize {
        std::fs::read_dir(self.root.join(kind)).map_or(0, |rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                .count()
        })
    }
}

/// A process-unique id for one [`ArtifactStore::put`]'s temp file.
fn next_write_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::stable_digest;

    fn temp_store(name: &str) -> ArtifactStore {
        let root = std::env::temp_dir().join("coolair_runner_store_test").join(name);
        let _ = std::fs::remove_dir_all(&root);
        ArtifactStore::open(&root).unwrap()
    }

    #[test]
    fn put_get_round_trip() {
        let store = temp_store("round_trip");
        let digest = stable_digest(&("Newark", 42u64));
        assert!(!store.contains("probe", digest));
        store.put("probe", digest, &vec![1.5f64, 0.1, -3.25]).unwrap();
        assert!(store.contains("probe", digest));
        let back: Vec<f64> = store.get("probe", digest).unwrap();
        assert_eq!(back, vec![1.5, 0.1, -3.25]);
        assert_eq!(store.count("probe"), 1);
        assert_eq!(store.count("absent-kind"), 0);
    }

    #[test]
    fn corrupt_artifact_reads_as_miss() {
        let store = temp_store("corrupt");
        let digest = stable_digest(&1u8);
        store.put("probe", digest, &7u32).unwrap();
        std::fs::write(store.path_for("probe", digest), b"{ torn").unwrap();
        assert_eq!(store.get::<u32>("probe", digest), None);
    }

    #[test]
    fn try_get_distinguishes_absent_from_corrupt() {
        let store = temp_store("try_get");
        let digest = stable_digest(&9u8);
        assert!(matches!(
            store.try_get::<u32>("probe", digest),
            Err(ArtifactError::NotFound)
        ));
        store.put("probe", digest, &7u32).unwrap();
        assert_eq!(store.try_get::<u32>("probe", digest).unwrap(), 7);
        std::fs::write(store.path_for("probe", digest), b"{ torn").unwrap();
        assert!(matches!(
            store.try_get::<u32>("probe", digest),
            Err(ArtifactError::Corrupt(_))
        ));
    }

    #[test]
    fn concurrent_writers_of_one_digest_never_expose_a_torn_artifact() {
        // Writers of one digest race through put while readers keep
        // loading it. With a shared temp name one writer could truncate
        // or rename another's half-written file; every read must parse.
        let store = temp_store("concurrent");
        let digest = stable_digest(&"contended");
        let payload: Vec<u64> = (0..20_000).collect();
        store.put("probe", digest, &payload).unwrap();
        let start = std::sync::Barrier::new(6);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..25 {
                        store.put("probe", digest, &payload).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..50 {
                        let back: Vec<u64> = store
                            .try_get("probe", digest)
                            .expect("every concurrent read must parse");
                        assert_eq!(back.len(), payload.len());
                    }
                });
            }
        });
        assert_eq!(store.count("probe"), 1);
        let leftovers = std::fs::read_dir(store.root().join("probe")).unwrap().count();
        assert_eq!(leftovers, 1, "no temp file may outlive its put");
    }

    #[test]
    fn kinds_are_namespaced() {
        let store = temp_store("namespaced");
        let digest = stable_digest(&1u8);
        store.put("a", digest, &1u32).unwrap();
        assert!(store.get::<u32>("b", digest).is_none());
    }
}
