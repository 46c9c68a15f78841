//! The on-disk model registry.
//!
//! A registry is one directory of `FIOM` containers:
//!
//! ```text
//! registry/
//!   typing.ckpt          # TypingIndex: scaler + centroids + tag per cluster
//!   lc1.ckpt             # current checkpoint for workload type "lc1"
//!   lc1.last_good.ckpt   # last checkpoint that met the reward baseline
//!   bi.ckpt
//!   ...
//! ```
//!
//! Checkpoints are keyed by workload-type tag (`[a-z0-9_-]`, at most 64
//! characters — the same alphabet `fleetio-obs` JSONL emits unescaped).
//! At vSSD attach time, `fleetio::warmstart::classify_tag` rebuilds the
//! typing model from the stored typing index and names the tag to
//! warm-start from. All writes go through [`crate::atomic_write`]; loads
//! verify the container CRC before any field is interpreted.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use fleetio_des::codec::{decode_container, encode_container, DecodeError, PayloadKind};

use crate::atomic::atomic_write;
use crate::checkpoint::{ModelCheckpoint, TypingIndex};

/// Why a registry operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Filesystem failure (message includes the path).
    Io(String),
    /// The file exists but its container or payload is invalid.
    Corrupt {
        /// File that failed to decode.
        path: PathBuf,
        /// Why it failed.
        error: DecodeError,
    },
    /// No checkpoint stored under this tag (or no typing index).
    Missing(PathBuf),
    /// Tag violates the registry key alphabet.
    InvalidTag(String),
    /// A fine-tuning configuration failed validation.
    InvalidConfig(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(msg) => write!(f, "registry I/O error: {msg}"),
            RegistryError::Corrupt { path, error } => {
                write!(f, "corrupt checkpoint {}: {error}", path.display())
            }
            RegistryError::Missing(path) => write!(f, "no checkpoint at {}", path.display()),
            RegistryError::InvalidTag(tag) => write!(
                f,
                "invalid registry tag {tag:?}: need 1..=64 chars of [a-z0-9_-]"
            ),
            RegistryError::InvalidConfig(msg) => write!(f, "invalid fine-tune config: {msg}"),
        }
    }
}

fn io_err(path: &Path, e: &io::Error) -> RegistryError {
    RegistryError::Io(format!("{}: {e}", path.display()))
}

/// Validates a registry tag: 1..=64 characters of `[a-z0-9_-]`.
///
/// # Errors
///
/// [`RegistryError::InvalidTag`] otherwise.
pub fn validate_tag(tag: &str) -> Result<(), RegistryError> {
    let ok = !tag.is_empty()
        && tag.len() <= 64
        && tag
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-');
    if ok {
        Ok(())
    } else {
        Err(RegistryError::InvalidTag(tag.to_string()))
    }
}

/// A directory of checkpoints keyed by workload-type tag.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    dir: PathBuf,
}

impl ModelRegistry {
    /// Opens the registry at `dir`. Opening touches nothing on disk: the
    /// first save creates the directory, and a read of a registry that
    /// does not exist fails naming it.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        ModelRegistry { dir: dir.into() }
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the current checkpoint for `tag`.
    pub fn model_path(&self, tag: &str) -> PathBuf {
        self.dir.join(format!("{tag}.ckpt"))
    }

    /// Path of the last-good checkpoint for `tag`.
    pub fn last_good_path(&self, tag: &str) -> PathBuf {
        self.dir.join(format!("{tag}.last_good.ckpt"))
    }

    /// Path of the typing index.
    pub fn typing_path(&self) -> PathBuf {
        self.dir.join("typing.ckpt")
    }

    /// Atomically writes `ckpt` as the current checkpoint for its tag.
    ///
    /// # Errors
    ///
    /// Invalid tag or filesystem failure.
    pub fn save_model(&self, ckpt: &ModelCheckpoint) -> Result<PathBuf, RegistryError> {
        validate_tag(&ckpt.meta.tag)?;
        let path = self.model_path(&ckpt.meta.tag);
        let bytes = encode_container(PayloadKind::ModelCheckpoint, &ckpt.encode());
        self.write(&path, &bytes)?;
        Ok(path)
    }

    /// Copies the current checkpoint for `tag` over the last-good slot
    /// (atomically, and only after re-verifying its checksum — a corrupt
    /// current file must never be promoted).
    ///
    /// # Errors
    ///
    /// Missing or corrupt current checkpoint, or filesystem failure.
    pub fn promote_last_good(&self, tag: &str) -> Result<PathBuf, RegistryError> {
        validate_tag(tag)?;
        let src = self.model_path(tag);
        let bytes = read_ckpt_bytes(&src)?;
        verify_model_bytes(&src, &bytes)?;
        let dst = self.last_good_path(tag);
        self.write(&dst, &bytes)?;
        Ok(dst)
    }

    /// Loads and fully validates the current checkpoint for `tag`.
    ///
    /// # Errors
    ///
    /// Missing file, corrupt container/payload, or invalid tag.
    pub fn load_model(&self, tag: &str) -> Result<ModelCheckpoint, RegistryError> {
        validate_tag(tag)?;
        load_model_file(&self.model_path(tag))
    }

    /// Loads the last-good checkpoint for `tag`.
    ///
    /// # Errors
    ///
    /// Missing file, corrupt container/payload, or invalid tag.
    pub fn load_last_good(&self, tag: &str) -> Result<ModelCheckpoint, RegistryError> {
        validate_tag(tag)?;
        load_model_file(&self.last_good_path(tag))
    }

    /// Loads the current checkpoint, falling back to last-good when the
    /// current one is missing or corrupt. Returns the checkpoint plus
    /// whether the fallback fired.
    ///
    /// # Errors
    ///
    /// The *primary* error when the fallback also fails (so callers see
    /// why the preferred file was unusable).
    pub fn load_model_or_last_good(
        &self,
        tag: &str,
    ) -> Result<(ModelCheckpoint, bool), RegistryError> {
        validate_tag(tag)?;
        match load_model_file(&self.model_path(tag)) {
            Ok(ckpt) => Ok((ckpt, false)),
            Err(primary) => match load_model_file(&self.last_good_path(tag)) {
                Ok(ckpt) => Ok((ckpt, true)),
                Err(_) => Err(primary),
            },
        }
    }

    /// Atomically writes the typing index.
    ///
    /// # Errors
    ///
    /// Structural validation failure or filesystem failure.
    pub fn save_typing(&self, index: &TypingIndex) -> Result<PathBuf, RegistryError> {
        index.validate().map_err(|msg| RegistryError::Corrupt {
            path: self.typing_path(),
            error: DecodeError::Malformed(msg),
        })?;
        for tag in &index.cluster_tags {
            validate_tag(tag)?;
        }
        let path = self.typing_path();
        let bytes = encode_container(PayloadKind::TypingIndex, &index.encode());
        self.write(&path, &bytes)?;
        Ok(path)
    }

    /// Loads and validates the typing index.
    ///
    /// # Errors
    ///
    /// Missing file or corrupt container/payload.
    pub fn load_typing(&self) -> Result<TypingIndex, RegistryError> {
        let path = self.typing_path();
        let bytes = read_ckpt_bytes(&path)?;
        let (kind, payload) = decode_container(&bytes).map_err(|error| RegistryError::Corrupt {
            path: path.clone(),
            error,
        })?;
        if kind != PayloadKind::TypingIndex {
            return Err(RegistryError::Corrupt {
                path,
                error: DecodeError::Malformed(format!(
                    "expected typing index, found {}",
                    kind.name()
                )),
            });
        }
        TypingIndex::decode(payload).map_err(|error| RegistryError::Corrupt { path, error })
    }

    /// Atomically writes `bytes` to `path` in the registry, creating the
    /// directory on the registry's first write.
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), RegistryError> {
        fs::create_dir_all(&self.dir).map_err(|e| io_err(&self.dir, &e))?;
        atomic_write(path, bytes).map_err(|e| io_err(path, &e))
    }

    /// All `*.ckpt` files in the registry, sorted by file name.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] when the directory cannot be read, a
    /// missing registry among them.
    pub fn ls(&self) -> Result<Vec<PathBuf>, RegistryError> {
        let mut out = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, &e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("ckpt") {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }
}

fn read_ckpt_bytes(path: &Path) -> Result<Vec<u8>, RegistryError> {
    match fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            Err(RegistryError::Missing(path.to_path_buf()))
        }
        Err(e) => Err(io_err(path, &e)),
    }
}

fn verify_model_bytes(path: &Path, bytes: &[u8]) -> Result<ModelCheckpoint, RegistryError> {
    let (kind, payload) = decode_container(bytes).map_err(|error| RegistryError::Corrupt {
        path: path.to_path_buf(),
        error,
    })?;
    if kind != PayloadKind::ModelCheckpoint {
        return Err(RegistryError::Corrupt {
            path: path.to_path_buf(),
            error: DecodeError::Malformed(format!(
                "expected model checkpoint, found {}",
                kind.name()
            )),
        });
    }
    ModelCheckpoint::decode(payload).map_err(|error| RegistryError::Corrupt {
        path: path.to_path_buf(),
        error,
    })
}

fn load_model_file(path: &Path) -> Result<ModelCheckpoint, RegistryError> {
    let bytes = read_ckpt_bytes(path)?;
    verify_model_bytes(path, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointMeta;
    use fleetio_des::rng::SmallRng;
    use fleetio_rl::{PpoConfig, PpoPolicy, PpoTrainer};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("fleetio-model-registry")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ckpt(tag: &str, seed: u64) -> ModelCheckpoint {
        let mut rng = SmallRng::seed_from_u64(seed);
        let policy = PpoPolicy::new(2, &[3], &[4], &mut rng);
        let trainer = PpoTrainer::new(policy, 2, PpoConfig::default(), seed);
        ModelCheckpoint {
            meta: CheckpointMeta {
                seed,
                tag: tag.to_string(),
            },
            trainer: trainer.export_state(),
        }
    }

    fn index() -> TypingIndex {
        TypingIndex {
            scaler_mean: vec![0.0, 0.0],
            scaler_std: vec![1.0, 1.0],
            centroids: vec![vec![-1.0, 0.0], vec![1.0, 0.0]],
            cluster_tags: vec!["lc1".to_string(), "bi".to_string()],
            unknown_distance: 3.0,
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let reg = ModelRegistry::open(scratch("save_load"));
        let c = ckpt("lc1", 7);
        reg.save_model(&c).expect("save succeeds");
        let back = reg.load_model("lc1").expect("load succeeds");
        assert_eq!(format!("{c:?}"), format!("{back:?}"));
        assert!(matches!(
            reg.load_model("lc2"),
            Err(RegistryError::Missing(_))
        ));
    }

    #[test]
    fn tags_are_validated() {
        let reg = ModelRegistry::open(scratch("tags"));
        for bad in ["", "UPPER", "dots.bad", "spaces no", "../escape"] {
            assert!(
                matches!(reg.load_model(bad), Err(RegistryError::InvalidTag(_))),
                "{bad:?} accepted"
            );
        }
        assert!(matches!(
            reg.save_model(&ckpt("Bad.Tag", 1)),
            Err(RegistryError::InvalidTag(_))
        ));
    }

    #[test]
    fn corrupt_current_falls_back_to_last_good() {
        let reg = ModelRegistry::open(scratch("fallback"));
        let good = ckpt("lc1", 3);
        reg.save_model(&good).expect("save succeeds");
        reg.promote_last_good("lc1").expect("promote succeeds");
        // Newer (different-seed) checkpoint becomes current, then rots.
        reg.save_model(&ckpt("lc1", 4))
            .expect("second save succeeds");
        let path = reg.model_path("lc1");
        let mut bytes = fs::read(&path).expect("checkpoint readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).expect("corruption plants");
        // Direct load reports corruption; the fallback path recovers.
        assert!(matches!(
            reg.load_model("lc1"),
            Err(RegistryError::Corrupt { .. })
        ));
        let (back, fell_back) = reg
            .load_model_or_last_good("lc1")
            .expect("fallback recovers");
        assert!(fell_back);
        assert_eq!(back.meta.seed, 3);
        // With both copies gone, the primary error surfaces.
        fs::remove_file(reg.last_good_path("lc1")).expect("last-good removes");
        assert!(matches!(
            reg.load_model_or_last_good("lc1"),
            Err(RegistryError::Corrupt { .. })
        ));
    }

    #[test]
    fn promote_refuses_corrupt_current() {
        let reg = ModelRegistry::open(scratch("promote_corrupt"));
        reg.save_model(&ckpt("bi", 9)).expect("save succeeds");
        let path = reg.model_path("bi");
        let mut bytes = fs::read(&path).expect("checkpoint readable");
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).expect("corruption plants");
        assert!(matches!(
            reg.promote_last_good("bi"),
            Err(RegistryError::Corrupt { .. })
        ));
        assert!(!reg.last_good_path("bi").exists());
    }

    #[test]
    fn typing_roundtrip() {
        let reg = ModelRegistry::open(scratch("typing"));
        assert!(matches!(reg.load_typing(), Err(RegistryError::Missing(_))));
        reg.save_typing(&index()).expect("typing saves");
        assert_eq!(reg.load_typing().expect("typing loads"), index());
    }

    #[test]
    fn kind_confusion_rejected() {
        // A typing container under a model name (and vice versa) must not
        // decode as the wrong kind.
        let reg = ModelRegistry::open(scratch("kind_confusion"));
        let bytes = encode_container(PayloadKind::TypingIndex, &index().encode());
        reg.write(&reg.model_path("lc1"), &bytes)
            .expect("plant succeeds");
        assert!(matches!(
            reg.load_model("lc1"),
            Err(RegistryError::Corrupt { .. })
        ));
        let c = ckpt("x", 1);
        let bytes = encode_container(PayloadKind::ModelCheckpoint, &c.encode());
        reg.write(&reg.typing_path(), &bytes)
            .expect("plant succeeds");
        assert!(matches!(
            reg.load_typing(),
            Err(RegistryError::Corrupt { .. })
        ));
    }

    #[test]
    fn ls_sorted() {
        let reg = ModelRegistry::open(scratch("ls"));
        reg.save_model(&ckpt("lc2", 2)).expect("save succeeds");
        reg.save_model(&ckpt("bi", 1)).expect("save succeeds");
        reg.save_typing(&index()).expect("typing saves");
        let names: Vec<String> = reg
            .ls()
            .expect("ls succeeds")
            .iter()
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(str::to_string))
            .collect();
        assert_eq!(names, ["bi.ckpt", "lc2.ckpt", "typing.ckpt"]);
    }

    #[test]
    fn opening_and_listing_a_missing_registry_creates_nothing() {
        let dir = scratch("missing");
        let reg = ModelRegistry::open(&dir);
        match reg.ls() {
            Err(RegistryError::Io(msg)) => {
                assert!(msg.contains(&dir.display().to_string()), "{msg}")
            }
            other => panic!("expected an i/o error, got {other:?}"),
        }
        assert!(!dir.exists(), "a reader creates no directory");
        reg.save_model(&ckpt("bi", 1))
            .expect("the first save creates it");
        assert_eq!(reg.ls().expect("ls succeeds").len(), 1);
    }
}
