//! What the benchmark reads about its own process and host (Linux `/proc`).

use std::path::{Path, PathBuf};

/// Cores the process may run on; reported with every result because every
/// workload's numbers depend on it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`, fixed
/// at 100 on every Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) the whole process has used so far,
/// including threads that have already exited.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // The command name may hold spaces; fields are counted after its ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace();
    let utime = fields.nth(11).and_then(|f| f.parse::<f64>().ok());
    let stime = fields.next().and_then(|f| f.parse::<f64>().ok());
    match (utime, stime) {
        (Some(u), Some(s)) => Ok((u + s) / TICKS_PER_S),
        _ => Err("unexpected /proc/self/stat layout".to_owned()),
    }
}

/// Peak resident set size of the process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// A scratch directory inside the current directory (the checkout the
/// benchmark was started from), removed again on drop. The benchmark reads
/// and writes nowhere else.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

/// Parent of every [`WorkDir`]; listed in the repository's `.gitignore`.
pub const WORK_ROOT: &str = ".bench_work";

impl WorkDir {
    /// Create `.bench_work/<label>-<pid>` under the current directory.
    pub fn create(label: &str) -> Result<WorkDir, String> {
        let path = Path::new(WORK_ROOT).join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Create (emptying it first if it exists) a sub-directory.
    pub fn fresh_subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is untracked clutter,
        // not a wrong result.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(nproc() >= 1);
        let before = process_cpu_s().unwrap();
        let mut x = 0_u64;
        for i in 0..30_000_000_u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s().unwrap() >= before);
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
