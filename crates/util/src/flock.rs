//! Advisory `flock(2)` locks on dedicated lock files: the proof cache's
//! journal lock (blocking) and the serve daemon's socket-path lock
//! (non-blocking). The lock belongs to the open file description, so it
//! serializes distinct processes and distinct handles inside one
//! process alike, and the OS drops it if the holder dies.
//!
//! Off Unix there is no advisory locking: both constructors succeed
//! without locking anything.

use std::fs::File;
use std::io;
use std::path::Path;

/// An exclusive lock on a file, held until dropped. Opening never
/// truncates, so taking a lock leaves a rival's lock file intact.
pub struct FileLock {
    #[cfg_attr(not(unix), allow(dead_code))]
    file: File,
}

#[cfg(unix)]
mod sys {
    // Declared by hand (the registry is unreachable, so no `libc`);
    // flock(2) has had this exact signature and these constants on
    // every Unix Rust targets support.
    extern "C" {
        pub fn flock(fd: i32, operation: i32) -> i32;
    }
    pub const LOCK_EX: i32 = 2;
    pub const LOCK_NB: i32 = 4;
    pub const LOCK_UN: i32 = 8;
}

impl FileLock {
    /// Blocks until the exclusive lock on `path` (created if missing)
    /// is held.
    ///
    /// # Errors
    ///
    /// Opening `path` or locking it failed.
    pub fn exclusive(path: &Path) -> io::Result<FileLock> {
        FileLock::acquire(path, true)
    }

    /// Takes the exclusive lock on `path` (created if missing) without
    /// waiting.
    ///
    /// # Errors
    ///
    /// Another holder has the lock (`WouldBlock`), or opening failed.
    pub fn try_exclusive(path: &Path) -> io::Result<FileLock> {
        FileLock::acquire(path, false)
    }

    #[cfg(unix)]
    fn acquire(path: &Path, wait: bool) -> io::Result<FileLock> {
        use std::os::unix::io::AsRawFd;
        let file = File::options().create(true).append(true).open(path)?;
        let operation = if wait {
            sys::LOCK_EX
        } else {
            sys::LOCK_EX | sys::LOCK_NB
        };
        loop {
            // SAFETY: flock(2) only reads its two integer arguments, and
            // the descriptor belongs to `file`, which outlives the call.
            if unsafe { sys::flock(file.as_raw_fd(), operation) } == 0 {
                return Ok(FileLock { file });
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    #[cfg(not(unix))]
    fn acquire(path: &Path, _wait: bool) -> io::Result<FileLock> {
        let file = File::options().create(true).append(true).open(path)?;
        Ok(FileLock { file })
    }
}

#[cfg(unix)]
impl Drop for FileLock {
    fn drop(&mut self) {
        // Closing the fd would release the lock anyway; the explicit
        // unlock documents intent and survives fd-leak refactors.
        use std::os::unix::io::AsRawFd;
        // SAFETY: as in `acquire`; `self.file` is still open here.
        unsafe {
            sys::flock(self.file.as_raw_fd(), sys::LOCK_UN);
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn a_held_lock_refuses_a_second_taker_until_dropped() {
        let path = std::env::temp_dir().join(format!("stq-flock-test-{}", std::process::id()));
        let held = FileLock::exclusive(&path).expect("first lock");
        let err = FileLock::try_exclusive(&path).err().expect("lock is held");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        drop(held);
        drop(FileLock::try_exclusive(&path).expect("lock is free again"));
        let _ = std::fs::remove_file(&path);
    }
}
