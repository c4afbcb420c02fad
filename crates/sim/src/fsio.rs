//! Crash-safe file handling: atomic temp-file + rename writes, and
//! quarantine of files that fail validation.
//!
//! Every artifact the workspace persists — sweep telemetry, trace
//! bundles, snapshots, sweep manifests and per-point results — goes
//! through [`write_text_atomic`], so a crash mid-write can never leave a
//! half-written file at the destination path: readers either see the old
//! contents or the complete new contents, never a torn prefix.

use crate::SimError;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes concurrent writers targeting the same destination from
/// within one process (parallel sweep workers); the process id separates
/// processes.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_sibling(path: &Path) -> PathBuf {
    let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map_or_else(|| "out".into(), |f| f.to_os_string());
    name.push(format!(".tmp.{}.{n}", std::process::id()));
    path.with_file_name(name)
}

/// Writes `text` to `path` atomically: the bytes land in a temp sibling
/// in the same directory (same filesystem, so the final rename cannot
/// cross a mount), are flushed and fsynced, and only then renamed over
/// the destination. On any error the temp file is removed and `path` is
/// left untouched.
///
/// # Errors
///
/// Propagates the underlying I/O error (create, write, sync, or rename).
pub fn write_text_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = temp_sibling(path);
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Best-effort cleanup; the original error is the one that matters.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// A [`SimError::Io`] naming the file it happened to.
pub(crate) fn io_err(path: &Path, e: &dyn std::fmt::Display) -> SimError {
    SimError::Io(format!("{}: {e}", path.display()))
}

/// Moves a file that failed validation aside as `<name>.corrupt`, where
/// it is kept for inspection but never read again, and returns its new
/// path.
pub(crate) fn quarantine(path: &Path) -> std::io::Result<PathBuf> {
    let mut name = path
        .file_name()
        .map_or_else(|| "file".into(), std::ffi::OsStr::to_os_string);
    name.push(".corrupt");
    let target = path.with_file_name(name);
    fs::rename(path, &target)?;
    Ok(target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_replaces() {
        let dir = std::env::temp_dir().join(format!("greencell-fsio-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        write_text_atomic(&path, "first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        write_text_atomic(&path, "second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        // No temp droppings left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_leaves_no_temp() {
        let missing = Path::new("/nonexistent-greencell-dir/artifact.json");
        assert!(write_text_atomic(missing, "x").is_err());
    }
}
