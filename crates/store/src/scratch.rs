//! A self-removing scratch path for page files.

use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A file path in a fresh directory under the system temp dir. Dropping
/// it removes the directory with everything in it — the file and any
/// sibling a writer names after it — so a run leaves no page file behind
/// (a panicking test included: unwinding drops it). It derefs to the
/// file's path.
///
/// The directory is `mar-<label>-<pid>-<n>`, `n` counting the scratch
/// paths this process has made, so concurrent tests and processes never
/// share one.
#[derive(Debug)]
pub struct ScratchPath {
    dir: PathBuf,
    file: PathBuf,
}

impl ScratchPath {
    /// Creates the directory and names `file` inside it; the file itself
    /// is left to its writer.
    pub fn new(label: &str, file: &str) -> io::Result<Self> {
        static MADE: AtomicU64 = AtomicU64::new(0);
        let n = MADE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mar-{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let file = dir.join(file);
        Ok(Self { dir, file })
    }
}

impl Deref for ScratchPath {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.file
    }
}

impl AsRef<Path> for ScratchPath {
    fn as_ref(&self) -> &Path {
        &self.file
    }
}

impl Drop for ScratchPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::ScratchPath;

    #[test]
    fn dropping_removes_the_file_and_its_siblings() {
        let a = ScratchPath::new("scratch-test", "a.pages").unwrap();
        let b = ScratchPath::new("scratch-test", "a.pages").unwrap();
        assert_ne!(*a, *b);
        std::fs::write(&a, b"page").unwrap();
        std::fs::write(a.with_extension("shard-0.pages"), b"page").unwrap();
        let dir = a.parent().unwrap().to_path_buf();
        drop(a);
        assert!(!dir.exists());
        assert!(b.parent().unwrap().exists());
    }
}
