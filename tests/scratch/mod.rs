//! A per-test scratch directory under the temp dir, removed with
//! everything in it when the test drops it, pass or fail.

use std::path::{Path, PathBuf};

/// The directory `stqc-<tag>-<pid>` under the temp dir, created empty
/// and removed on drop. Daemons started in a test keep their socket's
/// lock file beside the socket, so a test that starts one puts the
/// socket in here. Declare the guard before anything that uses the
/// directory, so that it is dropped after them.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates the directory, removing a leftover of the same name.
    pub fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("stqc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    /// `name` inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl AsRef<Path> for Scratch {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
