//! What the benchmark reads about the process and the host it runs on.

use std::fs;
use std::path::{Path, PathBuf};

use ntier_trace::json::{obj, Json};

/// Directory the benchmark writes span files and reports into:
/// `$CARGO_TARGET_DIR/benchmark`, or `target/benchmark` under the current
/// directory.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("benchmark")
}

/// This process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    simcore::profile::peak_rss_bytes().map(|b| b as f64 / (1024.0 * 1024.0))
}

/// User plus system CPU seconds this process has used, all threads
/// included (`utime + stime` of `/proc/self/stat`, in 1/100 s ticks).
pub fn cpu_secs() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// The host fingerprint recorded in every report: core count, CPU model,
/// kernel, the most threads any workload uses, and the git commit of the
/// current directory when it is a git checkout.
pub fn fingerprint(threads: usize) -> Json {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    obj([
        ("nproc", Json::UInt(crate::workloads::host_threads() as u64)),
        ("cpu_model", Json::Str(cpu)),
        ("kernel", Json::Str(kernel)),
        ("threads", Json::UInt(threads as u64)),
        (
            "git_head",
            Json::Str(git_head(Path::new(".git")).unwrap_or_else(|| "unknown".into())),
        ),
    ])
}

/// The commit `HEAD` of a `.git` directory names, following one symbolic
/// ref through loose refs or `packed-refs`.
fn git_head(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, r) = l.split_once(' ')?;
        (r == name).then(|| id.to_string())
    })
}
