//! The run header: what a reader needs to know about the machine and the
//! settings before comparing two result files.

use std::path::Path;

use crate::json::Json;
use crate::workloads::Spec;

/// Filesystem type of the mount holding `path`, from `/proc/self/mountinfo`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            // "<id> <parent> <dev> <root> <mount point> <opts> … - <fstype> …"
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs = right.split(' ').next()?;
            path.starts_with(mount_point).then_some((mount_point.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs.to_string())
}

/// The CPU ids in a kernel list such as `0-3,6`.
fn cpu_list(list: &str) -> Vec<usize> {
    list.trim()
        .split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.parse::<usize>().ok()?..=hi.parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// The CPUs this process may run on (`Cpus_allowed_list`); empty where
/// `/proc` is absent.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or(vec![], cpu_list)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

pub fn header(seed: u64, seconds: f64, quick: bool, scratch: &Path, specs: &[Spec]) -> Json {
    let fs = fs_type(scratch);
    if fs == "tmpfs" || fs == "ramfs" {
        eprintln!(
            "dpbench: WARNING: scratch directory {} is on {fs}, where fsync is free; the durable \
             workloads' times mean nothing here. Point DPBENCH_DIR at a real disk.",
            scratch.display()
        );
    }
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    let workloads = specs.iter().map(|s| {
        let fields = [
            ("n", s.n),
            ("value_len", s.value_len),
            ("loaded", s.loaded),
            ("trace_len", s.trace_len),
            ("warmup_ops", s.warmup_ops),
        ];
        (s.name, Json::obj(fields.map(|(k, v)| (k, Json::Int(v as u64)))))
    });
    Json::obj([
        ("commit", Json::str(git_commit())),
        ("nproc", Json::Int(cpu_list(&online).len() as u64)),
        (
            "cpus_allowed",
            Json::Arr(allowed_cpus().into_iter().map(|c| Json::Int(c as u64)).collect()),
        ),
        ("isa_tier", Json::str(dps_crypto::isa::tier().name())),
        ("kernel", Json::str(kernel.trim())),
        ("scratch_fs", Json::str(fs)),
        ("dps_cache_bytes", std::env::var("DPS_CACHE_BYTES").map_or(Json::Null, Json::str)),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        ("workloads", Json::obj(workloads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(cpu_list("0-1\n"), [0, 1]);
        assert_eq!(cpu_list("0,2-4,7"), [0, 2, 3, 4, 7]);
        assert_eq!(cpu_list("3"), [3]);
        assert!(cpu_list("").is_empty());
    }

    #[test]
    fn fs_type_resolves_real_mounts() {
        if Path::new("/proc/self/mountinfo").exists() {
            assert_eq!(fs_type(Path::new("/proc")), "proc");
            assert_ne!(fs_type(&std::env::temp_dir()), "unknown");
        }
    }
}
