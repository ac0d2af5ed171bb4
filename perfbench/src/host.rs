//! The host/build stamp printed with every result, and process memory.

use experiments::json::Json;
use std::path::Path;

/// A field of `/proc/self/status` (Linux), e.g. `VmHWM` or
/// `Cpus_allowed_list`.
fn proc_status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k == key).then(|| v.trim().to_string())
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs in this process's affinity mask (`Cpus_allowed_list`, e.g.
/// `0-1,4`).
fn affinity_cpus() -> Option<usize> {
    let list = proc_status_field("Cpus_allowed_list")?;
    list.split(',')
        .map(|part| match part.split_once('-') {
            Some((lo, hi)) => Some(hi.parse::<usize>().ok()? - lo.parse::<usize>().ok()? + 1),
            None => part.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// The checked-out revision, read from `.git` in the working directory
/// without leaving it; `unknown` outside a git checkout.
fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The stamp: harts, affinity, build profile, revision, compiler, the
/// workload seed and each session's resolved encode plan.
#[must_use]
pub fn stamp(workload: &str, seed: u64, encode_plans: &[String]) -> Json {
    let harts = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::U64(seed)),
        ("weight_seed", Json::U64(crate::WEIGHT_SEED)),
        ("available_parallelism", Json::U64(harts as u64)),
        (
            "affinity_cpus",
            affinity_cpus().map_or(Json::Null, |n| Json::U64(n as u64)),
        ),
        ("profile", Json::str(env!("PERFBENCH_PROFILE"))),
        ("git_revision", Json::str(git_revision())),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        (
            "encode_plans",
            Json::Arr(encode_plans.iter().map(Json::str).collect()),
        ),
    ])
}
