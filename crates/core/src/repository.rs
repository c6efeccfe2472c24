//! The persistent ER model repository: one trained classifier per problem
//! cluster plus the labeled representative vectors `P_C` used to match new
//! problems against the cluster (paper §4.4: "we maintain the similarity
//! feature vectors of the training data for each cluster").

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize, Value};

use crate::distribution::{AnalysisOptions, DistributionSketch};
use crate::error::{MorerError, REPOSITORY_FORMAT_VERSION};
use morer_ml::dataset::{FeatureMatrix, TrainingSet};
use morer_ml::model::TrainedModel;

/// Lazily built [`DistributionSketch`] of a cluster's representatives,
/// keyed by the analysis options it was built under.
#[derive(Debug, Clone)]
struct CachedSketch {
    sample_cap: usize,
    seed: u64,
    sketch: Arc<DistributionSketch>,
}

/// Interior-mutable, serialization-transparent sketch cache.
///
/// The cache is an acceleration structure, not repository state: it
/// serializes as `null`, deserializes to empty, and never participates in
/// equality — a loaded repository compares equal to the one that was saved
/// and rebuilds its sketches lazily on first search.
#[derive(Default)]
pub struct SketchCache(Mutex<Option<CachedSketch>>);

impl Clone for SketchCache {
    fn clone(&self) -> Self {
        Self(Mutex::new(self.0.lock().expect("sketch cache poisoned").clone()))
    }
}

impl std::fmt::Debug for SketchCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self.0.lock().map(|s| s.is_some()).unwrap_or(false);
        write!(f, "SketchCache({})", if filled { "filled" } else { "empty" })
    }
}

impl PartialEq for SketchCache {
    fn eq(&self, _: &Self) -> bool {
        true // caches never affect entry equality
    }
}

impl Serialize for SketchCache {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
    fn write_json(&self, out: &mut String) {
        out.push_str("null");
    }
}

/// Whatever was stored is discarded: the streaming reader skips it (still
/// checking its syntax and nesting depth) without building it.
impl Deserialize for SketchCache {
    fn from_value(_: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self::default())
    }
    fn read_json(p: &mut serde::json::Parser<'_>) -> Result<Self, serde::Error> {
        p.skip().map(|()| Self::default())
    }
}

/// Dirty-tracking record of the generation-time training inputs an entry
/// was produced from: the cluster membership and label budget of the last
/// full (re)generation.
///
/// Generation training is deterministic in `(members, budget, cluster
/// position)`, so during a full-recluster ingest a cluster whose fingerprint
/// is unchanged can keep its stored entry — skipping the retrain is
/// bit-identical to redoing it. The fingerprint is **cleared** whenever the
/// entry is mutated outside full regeneration (`sel_cov` coverage retrains),
/// and — like [`SketchCache`] — it is an acceleration structure, not
/// repository state: it serializes as `null`, loads as empty (a reloaded
/// repository conservatively retrains on its first full recluster) and never
/// participates in entry equality.
#[derive(Debug, Clone, Default)]
pub struct Provenance(Option<(Vec<usize>, usize)>);

impl Provenance {
    /// Record the generation inputs this entry's training consumed.
    pub fn record(&mut self, members: Vec<usize>, budget: usize) {
        self.0 = Some((members, budget));
    }

    /// Forget the fingerprint (call on any out-of-generation mutation).
    pub fn clear(&mut self) {
        self.0 = None;
    }

    /// Whether the entry was generation-trained on exactly these inputs.
    pub fn matches(&self, members: &[usize], budget: usize) -> bool {
        self.0.as_ref().is_some_and(|(m, b)| m == members && *b == budget)
    }

    /// Whether a fingerprint is currently recorded (observability for tests).
    pub fn is_recorded(&self) -> bool {
        self.0.is_some()
    }
}

impl PartialEq for Provenance {
    fn eq(&self, _: &Self) -> bool {
        true // dirty-tracking never affects entry equality
    }
}

impl Serialize for Provenance {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
    fn write_json(&self, out: &mut String) {
        out.push_str("null");
    }
}

impl Deserialize for Provenance {
    fn from_value(_: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self::default())
    }
    fn read_json(p: &mut serde::json::Parser<'_>) -> Result<Self, serde::Error> {
        p.skip().map(|()| Self::default())
    }
}

/// The versioned repository document, borrowing the entries
/// ([`ModelRepository::versioned`]).
#[derive(Serialize)]
pub(crate) struct Versioned<'a> {
    version: u64,
    entries: &'a [ClusterEntry],
}

/// One repository entry: a cluster of ER problems and its model `M_C`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterEntry {
    /// Stable entry id within the repository.
    pub id: usize,
    /// Positional indices (into the owning pipeline's problem store) of the
    /// cluster's member problems.
    pub problem_ids: Vec<usize>,
    /// The trained classifier `M_C`.
    pub model: TrainedModel,
    /// The labeled training vectors `P_C` — both the model's training data
    /// and the sample new problems are compared against.
    pub representatives: TrainingSet,
    /// Ground-truth labels spent to build this entry (0 for supervised mode
    /// where labels were assumed available).
    pub labels_used: usize,
    /// Cached distribution sketch of `representatives` (see
    /// [`ClusterEntry::representative_sketch`]). Must be invalidated
    /// whenever `representatives` changes ([`ClusterEntry::invalidate_sketch`]).
    pub sketch: SketchCache,
    /// Generation-training fingerprint for dirty-tracked incremental
    /// regeneration (see [`Provenance`]). Must be cleared whenever the entry
    /// is mutated outside a full regeneration
    /// ([`ClusterEntry::mark_mutated`] does both invalidations at once).
    pub provenance: Provenance,
}

impl ClusterEntry {
    /// Build an entry with an empty sketch cache.
    pub fn new(
        id: usize,
        problem_ids: Vec<usize>,
        model: TrainedModel,
        representatives: TrainingSet,
        labels_used: usize,
    ) -> Self {
        Self {
            id,
            problem_ids,
            model,
            representatives,
            labels_used,
            sketch: SketchCache::default(),
            provenance: Provenance::default(),
        }
    }

    /// Invalidate every cached/derived artifact after an out-of-generation
    /// mutation of the entry (`sel_cov` retrains, incremental-attach
    /// retrains): the representative sketch is stale and the
    /// generation-training fingerprint no longer describes the stored model.
    pub fn mark_mutated(&mut self) {
        self.invalidate_sketch();
        self.provenance.clear();
    }

    /// The representative feature matrix (for distribution comparison).
    pub fn representative_features(&self) -> &FeatureMatrix {
        &self.representatives.x
    }

    /// The distribution sketch of the representatives `P_C`, built lazily on
    /// first use and cached until [`Self::invalidate_sketch`] (or a change
    /// of `sample_cap`/`seed`). This is what makes `sel_base` search
    /// O(query sketch) per solve instead of re-sorting every entry's
    /// representative columns on every comparison.
    pub fn representative_sketch(&self, opts: &AnalysisOptions) -> Arc<DistributionSketch> {
        let mut slot = self.sketch.0.lock().expect("sketch cache poisoned");
        let is_c2st = opts.test == crate::distribution::DistributionTest::C2st;
        let valid = slot.as_ref().is_some_and(|c| {
            c.sample_cap == opts.sample_cap
                && c.seed == opts.seed
                // sketches only carry the artifacts of the test family they
                // were built for; rebuild when the caller needs the other
                && (if is_c2st {
                    c.sketch.has_c2st_rows()
                } else {
                    c.sketch.has_univariate_columns()
                })
        });
        if !valid {
            *slot = Some(CachedSketch {
                sample_cap: opts.sample_cap,
                seed: opts.seed,
                sketch: Arc::new(DistributionSketch::of(self.representative_features(), opts)),
            });
        }
        Arc::clone(&slot.as_ref().expect("just filled").sketch)
    }

    /// Drop the cached sketch. Call after any mutation of
    /// `representatives` (`sel_cov` retrains do).
    pub fn invalidate_sketch(&self) {
        *self.sketch.0.lock().expect("sketch cache poisoned") = None;
    }

    /// Whether a sketch is currently cached (observability for tests).
    pub fn has_cached_sketch(&self) -> bool {
        self.sketch.0.lock().expect("sketch cache poisoned").is_some()
    }
}

/// The serializable model repository.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelRepository {
    /// All cluster entries.
    pub entries: Vec<ClusterEntry>,
}

impl ModelRepository {
    /// Number of stored models.
    pub fn num_models(&self) -> usize {
        self.entries.len()
    }

    /// Total labels spent across entries.
    pub fn total_labels_used(&self) -> usize {
        self.entries.iter().map(|e| e.labels_used).sum()
    }

    /// The versioned document `save_json` renders:
    /// `{"version": 1, "entries": [...]}`. Shared with the WAL base-snapshot
    /// writer ([`crate::wal`]) so a compacted base embeds a `repository`
    /// sub-document byte-identical to a `save_json` file.
    pub(crate) fn versioned(&self) -> Versioned<'_> {
        Versioned { version: REPOSITORY_FORMAT_VERSION, entries: &self.entries }
    }

    /// Decode a repository from an already-parsed versioned value tree
    /// (the version header is inspected before the — possibly
    /// incompatible — entries are decoded). Shared by [`Self::load_json`]
    /// and the WAL base-snapshot reader.
    pub(crate) fn from_versioned_value(envelope: &Value) -> Result<Self, MorerError> {
        let version = match serde::map_get(envelope, "version")
            .map_err(|e| MorerError::Parse(e.to_string()))?
        {
            // legacy version-less file: same entry encoding as version 1
            Value::Null => 0,
            Value::U64(v) => *v,
            Value::I64(v) if *v >= 0 => *v as u64,
            other => {
                return Err(MorerError::Parse(format!(
                    "repository version must be an integer, found {other:?}"
                )))
            }
        };
        if version > REPOSITORY_FORMAT_VERSION {
            return Err(MorerError::UnsupportedVersion { found: version });
        }
        let entries_value = serde::map_get(envelope, "entries")
            .map_err(|e| MorerError::Parse(e.to_string()))?;
        let entries = Vec::<ClusterEntry>::from_value(entries_value)
            .map_err(|e| MorerError::Parse(e.to_string()))?;
        Ok(Self { entries })
    }

    /// Serialize as JSON to any writer, in the current versioned format:
    /// `{"version": 1, "entries": [...]}` (see
    /// [`REPOSITORY_FORMAT_VERSION`]).
    ///
    /// # Errors
    /// [`MorerError::Io`] when the writer fails. (The JSON text is rendered
    /// before any byte is written, so errors keep their I/O identity
    /// instead of being stringified by the serializer.)
    pub fn save_json<W: Write>(&self, writer: W) -> Result<(), MorerError> {
        let text = serde_json::to_string(&self.versioned())
            .map_err(|e| MorerError::Parse(e.to_string()))?;
        let mut writer = BufWriter::new(writer);
        writer.write_all(text.as_bytes())?;
        writer.flush()?;
        Ok(())
    }

    /// Deserialize from JSON.
    ///
    /// Accepts the current versioned format and legacy version-less files
    /// (`{"entries": [...]}`, written before the header existed).
    ///
    /// # Errors
    /// [`MorerError::UnsupportedVersion`] when the file declares a version
    /// newer than [`REPOSITORY_FORMAT_VERSION`];
    /// [`MorerError::Parse`] on malformed JSON or a structurally wrong
    /// document; [`MorerError::Io`] when the reader fails.
    pub fn load_json<R: Read>(reader: R) -> Result<Self, MorerError> {
        // read first so reader failures stay MorerError::Io, then parse the
        // raw tree so the version header is inspected before the (possibly
        // incompatible) entries are decoded
        let mut text = String::new();
        BufReader::new(reader).read_to_string(&mut text)?;
        let envelope =
            serde_json::from_str_value(&text).map_err(|e| MorerError::Parse(e.to_string()))?;
        Self::from_versioned_value(&envelope)
    }

    /// Save to a file path (versioned format), crash-safely: the document
    /// is rendered to a temporary file in the target directory, synced,
    /// and atomically renamed over `path` — a crash mid-save leaves either
    /// the previous file or the complete new one, never a torn hybrid.
    pub fn save(&self, path: &Path) -> Result<(), MorerError> {
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        let file_name = path.file_name().ok_or_else(|| {
            MorerError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("repository path {} has no file name", path.display()),
            ))
        })?;
        let tmp = dir.join(format!(".{}.tmp", file_name.to_string_lossy()));
        let publish = (|| -> Result<(), MorerError> {
            let file = std::fs::File::create(&tmp)?;
            self.save_json(&file)?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)?;
            Ok(())
        })();
        if publish.is_err() {
            let _ = std::fs::remove_file(&tmp);
        } else {
            // best-effort directory sync so the rename itself survives
            // power loss (not all platforms allow syncing a directory)
            let _ = std::fs::File::open(dir).and_then(|d| d.sync_all());
        }
        publish
    }

    /// Load from a file path.
    pub fn load(path: &Path) -> Result<Self, MorerError> {
        Self::load_json(std::fs::File::open(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morer_ml::model::ModelConfig;

    fn sample_entry(id: usize) -> ClusterEntry {
        let training = TrainingSet::from_rows(
            &[vec![0.9, 0.8], vec![0.1, 0.2], vec![0.85, 0.9], vec![0.15, 0.1]],
            &[true, false, true, false],
        );
        let model = TrainedModel::train(&ModelConfig::GaussianNb, &training);
        ClusterEntry::new(id, vec![id * 2, id * 2 + 1], model, training, 4)
    }

    #[test]
    fn repository_accounting() {
        let repo = ModelRepository { entries: vec![sample_entry(0), sample_entry(1)] };
        assert_eq!(repo.num_models(), 2);
        assert_eq!(repo.total_labels_used(), 8);
        assert_eq!(repo.entries[1].problem_ids, vec![2, 3]);
    }

    #[test]
    fn json_round_trip() {
        let repo = ModelRepository { entries: vec![sample_entry(0)] };
        let mut buf = Vec::new();
        repo.save_json(&mut buf).unwrap();
        let loaded = ModelRepository::load_json(&buf[..]).unwrap();
        assert_eq!(repo, loaded);
    }

    #[test]
    fn file_round_trip() {
        let repo = ModelRepository { entries: vec![sample_entry(0), sample_entry(1)] };
        let dir = std::env::temp_dir().join("morer_repo_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.json");
        repo.save(&path).unwrap();
        let loaded = ModelRepository::load(&path).unwrap();
        assert_eq!(repo, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_replaces_an_existing_file_atomically() {
        let dir = std::env::temp_dir().join(format!("morer_atomic_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.json");
        ModelRepository { entries: vec![sample_entry(0)] }.save(&path).unwrap();
        let next = ModelRepository { entries: vec![sample_entry(0), sample_entry(1)] };
        next.save(&path).unwrap();
        assert_eq!(ModelRepository::load(&path).unwrap(), next);
        // the scratch file never outlives the save
        assert!(!dir.join(".repo.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_is_a_typed_io_error() {
        // the parent "directory" is a regular file: the tmp file cannot be
        // created, and the failure must surface as Io, not a panic
        let dir = std::env::temp_dir().join(format!("morer_notadir_{}", std::process::id()));
        std::fs::write(&dir, b"i am a file").unwrap();
        let err = ModelRepository::default().save(&dir.join("repo.json")).unwrap_err();
        assert!(matches!(err, MorerError::Io(_)), "got {err:?}");
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn sketch_cache_is_transparent_to_equality_and_serde() {
        use crate::distribution::{AnalysisOptions, DistributionTest};
        let entry = sample_entry(0);
        let opts = AnalysisOptions::new(DistributionTest::KolmogorovSmirnov, 1000, 7);
        assert!(!entry.has_cached_sketch());
        let s1 = entry.representative_sketch(&opts);
        assert!(entry.has_cached_sketch());
        // cached: second call returns the same allocation
        let s2 = entry.representative_sketch(&opts);
        assert!(std::sync::Arc::ptr_eq(&s1, &s2));
        // a filled cache does not break equality with a fresh entry...
        assert_eq!(entry, sample_entry(0));
        // ...nor the serialized form
        let repo = ModelRepository { entries: vec![entry] };
        let mut with_cache = Vec::new();
        repo.save_json(&mut with_cache).unwrap();
        let mut fresh = Vec::new();
        ModelRepository { entries: vec![sample_entry(0)] }.save_json(&mut fresh).unwrap();
        assert_eq!(with_cache, fresh);
        let loaded = ModelRepository::load_json(&with_cache[..]).unwrap();
        assert!(!loaded.entries[0].has_cached_sketch());
    }

    #[test]
    fn invalidate_sketch_drops_the_cache() {
        use crate::distribution::{AnalysisOptions, DistributionTest};
        let entry = sample_entry(0);
        let opts = AnalysisOptions::new(DistributionTest::Wasserstein, 1000, 3);
        let _ = entry.representative_sketch(&opts);
        assert!(entry.has_cached_sketch());
        entry.invalidate_sketch();
        assert!(!entry.has_cached_sketch());
        // different options also bypass a stale cache
        let _ = entry.representative_sketch(&opts);
        let other = AnalysisOptions::new(DistributionTest::Wasserstein, 500, 3);
        let s = entry.representative_sketch(&other);
        assert_eq!(s.num_features(), 2);
    }

    #[test]
    fn provenance_is_transparent_to_equality_and_serde() {
        let mut entry = sample_entry(0);
        assert!(!entry.provenance.is_recorded());
        entry.provenance.record(vec![0, 1], 4);
        assert!(entry.provenance.matches(&[0, 1], 4));
        assert!(!entry.provenance.matches(&[0, 1], 5));
        assert!(!entry.provenance.matches(&[0, 2], 4));
        // a recorded fingerprint does not break equality with a fresh entry
        assert_eq!(entry, sample_entry(0));
        // ...and round-trips to empty (a reloaded repository conservatively
        // retrains on its first full recluster)
        let repo = ModelRepository { entries: vec![entry] };
        let mut buf = Vec::new();
        repo.save_json(&mut buf).unwrap();
        let loaded = ModelRepository::load_json(&buf[..]).unwrap();
        assert!(!loaded.entries[0].provenance.is_recorded());
    }

    #[test]
    fn mark_mutated_clears_sketch_and_provenance() {
        use crate::distribution::{AnalysisOptions, DistributionTest};
        let mut entry = sample_entry(0);
        entry.provenance.record(vec![0, 1], 4);
        let opts = AnalysisOptions::new(DistributionTest::KolmogorovSmirnov, 1000, 7);
        let _ = entry.representative_sketch(&opts);
        assert!(entry.has_cached_sketch() && entry.provenance.is_recorded());
        entry.mark_mutated();
        assert!(!entry.has_cached_sketch());
        assert!(!entry.provenance.is_recorded());
    }

    #[test]
    fn load_rejects_garbage() {
        let err = ModelRepository::load_json(&b"not json"[..]).unwrap_err();
        assert!(matches!(err, MorerError::Parse(_)), "got {err:?}");
    }

    #[test]
    fn io_failures_keep_their_io_identity() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe gone"))
            }
        }
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::TimedOut, "slow disk"))
            }
        }
        // a transient I/O failure must surface as Io, never Parse — callers
        // retry Io but permanently reject Parse
        let repo = ModelRepository { entries: vec![sample_entry(0)] };
        match repo.save_json(Broken).unwrap_err() {
            MorerError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe),
            other => panic!("expected Io, got {other:?}"),
        }
        match ModelRepository::load_json(Broken).unwrap_err() {
            MorerError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::TimedOut),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn saved_files_carry_the_version_header() {
        let repo = ModelRepository { entries: vec![sample_entry(0)] };
        let mut buf = Vec::new();
        repo.save_json(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.starts_with(&format!("{{\"version\":{REPOSITORY_FORMAT_VERSION}")),
            "missing version header: {}",
            &text[..60.min(text.len())]
        );
    }

    #[test]
    fn legacy_version_less_json_still_loads() {
        let repo = ModelRepository { entries: vec![sample_entry(0), sample_entry(1)] };
        // the pre-versioning on-disk format: a bare {"entries": [...]} map
        let legacy = format!(
            "{{\"entries\":{}}}",
            serde_json::to_string(&repo.entries).unwrap()
        );
        let loaded = ModelRepository::load_json(legacy.as_bytes()).unwrap();
        assert_eq!(loaded, repo);
    }

    #[test]
    fn unknown_future_version_is_a_typed_error() {
        let future = format!(
            "{{\"version\":{},\"entries\":[]}}",
            REPOSITORY_FORMAT_VERSION + 1
        );
        let err = ModelRepository::load_json(future.as_bytes()).unwrap_err();
        match err {
            MorerError::UnsupportedVersion { found } => {
                assert_eq!(found, REPOSITORY_FORMAT_VERSION + 1);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // a non-integer version is malformed, not "unsupported"
        let junk = ModelRepository::load_json(&b"{\"version\":\"two\",\"entries\":[]}"[..]);
        assert!(matches!(junk, Err(MorerError::Parse(_))));
    }

    #[test]
    fn loaded_model_still_predicts() {
        let repo = ModelRepository { entries: vec![sample_entry(0)] };
        let mut buf = Vec::new();
        repo.save_json(&mut buf).unwrap();
        let loaded = ModelRepository::load_json(&buf[..]).unwrap();
        use morer_ml::model::Classifier;
        assert!(loaded.entries[0].model.predict(&[0.9, 0.9]));
        assert!(!loaded.entries[0].model.predict(&[0.1, 0.1]));
    }
}
