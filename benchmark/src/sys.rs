//! Process and file-system facts read from `/proc`.

use std::path::Path;

/// A `Key:   N kB` field of `/proc/<pid>/status` (`None` = this process).
pub fn status_field(pid: Option<u32>, key: &str) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    status_field(pid, "VmHWM").map(|kib| kib as f64 / 1024.0)
}

/// Current resident set (`VmRSS`) in MiB.
pub fn rss_mib(pid: Option<u32>) -> Option<f64> {
    status_field(pid, "VmRSS").map(|kib| kib as f64 / 1024.0)
}

/// CPU time (user and system) of a process's live threads, in
/// microseconds: the sum of each thread's on-CPU time from
/// `/proc/<pid>/task/<tid>/schedstat`, which counts in nanoseconds where
/// `/proc/<pid>/stat` counts in 10 ms ticks.
pub fn cpu_us(pid: u32) -> Option<f64> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    // A thread that exits while it is read is skipped.
    let ns: u64 = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok())
        .filter_map(|text| text.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    Some(ns as f64 / 1e3)
}

/// The type of the file system holding `path` (longest mount-point match
/// in `/proc/mounts`), e.g. `ext4` or `tmpfs`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount = fields.next()?;
            let kind = fields.next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of a file in bytes (0 when absent).
pub fn file_size(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
