//! Helpers shared by the integration test files (each file includes this
//! module with `mod common;`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh path for one test's scratch file, removed on drop.
///
/// Each `TempPath` owns its own directory under the system temp dir,
/// named by process id, the running test's name and a process-wide
/// counter, so tests running at the same time never share (or delete)
/// each other's fixtures. The file lives inside that directory; sidecar
/// files written next to it (a database's `<path>.wal`) go when the
/// directory does.
pub struct TempPath {
    dir: PathBuf,
    path: PathBuf,
}

impl TempPath {
    pub fn new(name: &str) -> TempPath {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let thread = std::thread::current();
        let test = thread.name().unwrap_or("main").replace("::", "-");
        let dir = std::env::temp_dir().join(format!("eider-{}-{test}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test scratch directory");
        let path = dir.join(name);
        TempPath { dir, path }
    }
}

impl std::ops::Deref for TempPath {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
