//! Process and thread accounting read from `/proc`.

use std::fs;

/// `USER_HZ`: the unit of the CPU fields in `/proc/*/stat`. It is 100 on
/// every Linux ABI (the kernel scales to it whatever `CONFIG_HZ` is).
const TICKS_PER_SECOND: f64 = 100.0;

/// `(comm, user + system CPU seconds)` parsed from one `stat` file.
fn parse_stat(stat: &str) -> Option<(&str, f64)> {
    // `pid (comm) state ppid … utime stime …`; comm may itself contain
    // spaces and parentheses, so split at the *last* ')'.
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let mut rest = stat[close + 1..].split_ascii_whitespace();
    let utime: f64 = rest.nth(11)?.parse().ok()?;
    let stime: f64 = rest.next()?.parse().ok()?;
    Some((&stat[open + 1..close], (utime + stime) / TICKS_PER_SECOND))
}

/// User + system CPU seconds the whole process has used, exited threads
/// included.
///
/// # Panics
///
/// Panics if `/proc/self/stat` is unreadable or malformed: the benchmark
/// cannot report CPU cost without it.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat(&stat).expect("parse /proc/self/stat").1
}

/// CPU seconds used so far by this process's *live* threads whose name
/// starts with `prefix`.
pub fn thread_cpu_s(prefix: &str) -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("stat")).ok())
        .filter_map(|stat| parse_stat(&stat).map(|(comm, cpu)| (comm.starts_with(prefix), cpu)))
        .filter(|&(matches, _)| matches)
        .map(|(_, cpu)| cpu)
        .sum()
}

/// Seconds of CPU the host took away from this machine's virtual CPUs so
/// far (`steal` in `/proc/stat`), summed over CPUs; 0 where the kernel
/// does not account it.
pub fn host_steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().find(|l| l.starts_with("cpu "))?;
            line.split_ascii_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / TICKS_PER_SECOND)
}

/// Peak resident set size of the process so far (`VmHWM`), MiB.
///
/// # Panics
///
/// Panics if `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

extern "C" {
    /// glibc's `prctl(2)` wrapper; std links the C library already.
    fn prctl(option: i32, ...) -> i32;
}

/// `PR_SET_THP_DISABLE` from `<linux/prctl.h>`.
const PR_SET_THP_DISABLE: i32 = 41;

/// Opts this process (and the children it spawns) out of transparent huge
/// pages; returns whether the kernel accepted.
///
/// With THP on `always`, which huge pages a process happens to get is
/// decided at start-up and moved whole runs of the n=64 workloads by up to
/// 35 % on the builder box, against 5 % with THP off. The product's
/// behaviour does not depend on it; the measurement's steadiness does.
pub fn disable_transparent_huge_pages() -> bool {
    // SAFETY: `prctl` is the C library's variadic wrapper around the
    // system call of the same name. PR_SET_THP_DISABLE takes one integer
    // flag and three zero arguments, reads or writes no memory of ours,
    // and only sets a flag on the process's address space.
    unsafe { prctl(PR_SET_THP_DISABLE, 1usize, 0usize, 0usize, 0usize) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_awkward_thread_names() {
        let line = "42 (co-entity-1 (x)) S 1 42 42 0 -1 4194304 98 0 0 0 150 50 0 0 20 0 5 0 1 2 3";
        assert_eq!(parse_stat(line), Some(("co-entity-1 (x)", 2.0)));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mib() > 0.5);
        assert_eq!(thread_cpu_s("no-such-thread-name"), 0.0);
    }
}
