//! Facts about the machine a run happened on, recorded with every run
//! so that drift between sets of runs is shown rather than guessed.

use std::path::Path;
use std::time::Instant;

/// Peak resident set (`VmHWM`) of a process in MiB, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// File-system type of the mount holding `path` (longest matching
/// mount point in `/proc/self/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, fstype)| fstype)
        .unwrap_or_else(|| "unknown".into())
}

/// Flushes `path` and, for a directory, every file under it to the
/// device. Set-up leaves hundreds of MB of dirty pages behind; without
/// this their write-back to a shared disk would run inside the measured
/// window and throttle the queries' own writes by however busy the
/// disk happens to be.
pub fn sync_tree(path: &Path) -> std::io::Result<()> {
    if std::fs::symlink_metadata(path)?.is_dir() {
        for entry in std::fs::read_dir(path)? {
            sync_tree(&entry?.path())?;
        }
    }
    std::fs::File::open(path)?.sync_all()
}

/// Ticks of CPU time stolen by the hypervisor and ticks of all CPU
/// time, summed over CPUs since boot (first line of `/proc/stat`).
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Seconds taken by a fixed, single-threaded integer kernel (64 Mi
/// xorshift-multiply steps). Its value depends only on the CPU and on
/// what else the machine is running, so comparing it across runs shows
/// how much of a change in the gated metrics is the machine's.
pub fn calibration_s() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..(64u64 << 20) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(0x2545_f491_4f6c_dd1d));
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}
