//! Processes, paths, and memory readings. Every file the benchmark
//! writes lives under `target/stqbench/` of the directory it runs from.

use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Duration;

/// The benchmark's own directory for work files and traces.
pub fn out_dir() -> PathBuf {
    Path::new("target").join("stqbench")
}

/// A fresh, empty work directory for one workload run, removed when
/// dropped, on success or failure.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> Result<WorkDir, String> {
        let dir = out_dir().join(format!("{workload}-{}", std::process::id()));
        let fresh = || -> io::Result<()> {
            if dir.exists() {
                std::fs::remove_dir_all(&dir)?;
            }
            std::fs::create_dir_all(&dir)
        };
        fresh().map_err(|e| format!("work dir {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn trace_path(workload: &str) -> PathBuf {
    out_dir().join(format!("trace-{workload}.jsonl"))
}

/// The `stqc` binary of the build the benchmark measures: the release
/// profile under `CARGO_TARGET_DIR`, else under `target`.
pub fn stqc() -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let path = Path::new(&target).join("release").join("stqc");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found: build it first with `cargo build --release`",
            path.display()
        ))
    }
}

/// Peak resident memory (`VmHWM`) of a process, in MiB.
pub fn vm_hwm_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The largest peak resident memory of any child this process has
/// waited for, in MiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_maxrss_mb() -> Option<f64> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s (two `long`s
    /// each), then fourteen `long`s starting with `ru_maxrss` (KiB).
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `getrusage` writes one `struct rusage` through the pointer,
    // and `Rusage` has exactly that layout on 64-bit Linux.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0).then(|| usage.maxrss as f64 / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_maxrss_mb() -> Option<f64> {
    None
}

/// A child process that is killed and waited for if it is dropped while
/// still running, so no run leaves a process behind.
pub struct Reaped {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Option<BufReader<ChildStdout>>,
}

impl Reaped {
    /// Spawns `cmd` with piped stdin and stdout.
    pub fn spawn_piped(cmd: &mut Command) -> io::Result<Reaped> {
        let mut child = cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
        Ok(Reaped {
            stdin: child.stdin.take(),
            stdout: child.stdout.take().map(BufReader::new),
            child,
        })
    }

    pub fn spawn(cmd: &mut Command) -> io::Result<Reaped> {
        Ok(Reaped {
            child: cmd.spawn()?,
            stdin: None,
            stdout: None,
        })
    }

    pub fn id(&self) -> u32 {
        self.child.id()
    }

    /// The next line of the child's stdout, without its newline; `None`
    /// at end of output.
    pub fn read_line(&mut self) -> io::Result<Option<String>> {
        let out = self.stdout.as_mut().ok_or(io::ErrorKind::BrokenPipe)?;
        let mut line = String::new();
        if out.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        Ok(Some(line.trim_end().to_owned()))
    }

    pub fn write_line(&mut self, line: &str) -> io::Result<()> {
        let input = self.stdin.as_mut().ok_or(io::ErrorKind::BrokenPipe)?;
        input.write_all(line.as_bytes())?;
        input.write_all(b"\n")?;
        input.flush()
    }

    /// Closes stdin and waits for the child to exit; returns its code.
    pub fn wait(mut self) -> io::Result<Option<i32>> {
        self.stdin = None;
        let status = self.child.wait()?;
        Ok(status.code())
    }

    /// Waits up to `limit` for the child to exit, then kills it.
    pub fn wait_or_kill(mut self, limit: Duration) -> io::Result<Option<i32>> {
        self.stdin = None;
        let start = std::time::Instant::now();
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Ok(status.code());
            }
            if start.elapsed() > limit {
                self.child.kill()?;
                return Ok(self.child.wait()?.code());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
