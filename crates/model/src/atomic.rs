//! Crash-safe file replacement.
//!
//! This is the **only** place in the simulation crates allowed to open a
//! file for writing (enforced by the `atomic-io` audit rule): everything
//! else goes through [`atomic_write`], or its group form [`AtomicBatch`],
//! so a crash mid-save can never leave a half-written checkpoint under
//! the final name. Readers either see the old complete file or the new
//! complete file.
//!
//! The temp name is derived deterministically from the final name (no
//! PIDs, timestamps or random suffixes — the `entropy` audit rule bans
//! ambient randomness). The registry is single-writer by design, so a
//! fixed temp name cannot race with itself.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// Writes `bytes` to `path` atomically: write to `<path>.tmp`, fsync,
/// rename over `path`, then fsync the parent directory so the rename
/// itself is durable.
///
/// # Errors
///
/// Any I/O failure from create/write/sync/rename. On error the final
/// file is untouched (a stale `.tmp` may remain; the next save truncates
/// it).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    replace_synced(path, bytes)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    Ok(())
}

/// [`atomic_write`] for a group of files in one directory that become
/// durable together: each [`write`](AtomicBatch::write) is the same tmp +
/// fsync + rename, but the directory is synced once per group, by
/// [`commit`](AtomicBatch::commit), whose last file (an index listing the
/// others, say) is written only after every rename before it is durable.
/// Until then a power loss may undo a written file's rename, never tear
/// its contents.
#[derive(Debug)]
pub struct AtomicBatch {
    dir: std::path::PathBuf,
    /// Renames made since the directory was last synced.
    pending: bool,
}

impl AtomicBatch {
    /// A batch writing into `dir`.
    pub fn new(dir: &Path) -> Self {
        AtomicBatch {
            dir: dir.to_path_buf(),
            pending: false,
        }
    }

    /// Whether a write is waiting for [`commit`](AtomicBatch::commit).
    pub fn pending(&self) -> bool {
        self.pending
    }

    /// Writes `bytes` to `dir/name` as [`atomic_write`] does, leaving the
    /// directory sync to the next commit.
    ///
    /// # Errors
    ///
    /// As [`atomic_write`].
    pub fn write(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        replace_synced(&self.dir.join(name), bytes)?;
        self.pending = true;
        Ok(())
    }

    /// Syncs the directory (when a write is pending), so every write so
    /// far is durable, then writes `bytes` to `dir/name` through
    /// [`atomic_write`].
    ///
    /// # Errors
    ///
    /// As [`atomic_write`], for the last file.
    pub fn commit(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        if self.pending {
            sync_dir(&self.dir);
            self.pending = false;
        }
        atomic_write(&self.dir.join(name), bytes)
    }
}

/// Writes `<path>.tmp`, fsyncs it and renames it over `path`.
fn replace_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Durability of a rename requires syncing the directory entry. Not every
/// platform supports opening a directory for sync; failure here
/// downgrades durability, not atomicity, so it is best-effort.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// The deterministic temp name used by [`atomic_write`]: `<path>.tmp`.
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fleetio-model-atomic").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir creates");
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let dir = scratch_dir("writes_and_replaces");
        let target = dir.join("a.ckpt");
        atomic_write(&target, b"one").expect("first write succeeds");
        assert_eq!(fs::read(&target).expect("file readable"), b"one");
        atomic_write(&target, b"two-longer").expect("replace succeeds");
        assert_eq!(fs::read(&target).expect("file readable"), b"two-longer");
        // No temp file lingers after a successful write.
        assert!(!tmp_path(&target).exists());
    }

    #[test]
    fn stale_tmp_is_overwritten() {
        let dir = scratch_dir("stale_tmp");
        let target = dir.join("b.ckpt");
        fs::write(tmp_path(&target), b"torn garbage from a crash").expect("stale tmp plants");
        atomic_write(&target, b"fresh").expect("write over stale tmp succeeds");
        assert_eq!(fs::read(&target).expect("file readable"), b"fresh");
        assert!(!tmp_path(&target).exists());
    }

    #[test]
    fn a_batch_writes_each_file_and_commits_the_last() {
        let dir = scratch_dir("batch");
        let mut batch = AtomicBatch::new(&dir);
        assert!(!batch.pending());
        batch.write("a.seg", b"one").expect("first file");
        batch.write("b.seg", b"two").expect("second file");
        assert!(batch.pending());
        batch.commit("index", b"a b").expect("commit");
        assert!(!batch.pending());
        for (name, bytes) in [("a.seg", &b"one"[..]), ("b.seg", b"two"), ("index", b"a b")] {
            assert_eq!(fs::read(dir.join(name)).expect("file readable"), bytes);
            assert!(!tmp_path(&dir.join(name)).exists());
        }
        // A blocked temp name fails that file alone.
        fs::create_dir_all(tmp_path(&dir.join("c.seg"))).expect("block c.seg");
        assert!(batch.write("c.seg", b"three").is_err());
        assert!(!batch.pending());
        assert!(!dir.join("c.seg").exists());
    }

    #[test]
    fn failed_write_leaves_final_file_untouched() {
        let dir = scratch_dir("failed_write");
        let target = dir.join("c.ckpt");
        atomic_write(&target, b"good").expect("seed write succeeds");
        // Writing into a missing directory fails before any rename.
        let bad = dir.join("missing-subdir").join("c.ckpt");
        assert!(atomic_write(&bad, b"never").is_err());
        assert_eq!(fs::read(&target).expect("file readable"), b"good");
    }
}
