//! What the host says about this process: CPU time, peak memory, steal.
//! All of it is read from `/proc`, so the package needs no `libc`.

use std::fs;

/// Kernel clock ticks per second in `/proc` accounting. `sysconf(_SC_CLK_TCK)`
/// is 100 on every Linux port this runs on; there is no way to ask without
/// `libc`, so it is stated here.
const CLK_TCK: f64 = 100.0;

/// Process CPU seconds (user + system, all threads, reaped children not
/// included) from `/proc/self/stat`. Ticks are 10 ms; a measured phase
/// spends thousands of them.
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 / CLK_TCK)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name (field
/// 2) may hold spaces and parentheses, so fields are counted from the last
/// `)`.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // rest starts at field 3 (state); utime is field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Jiffies summed over all CPUs from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuJiffies {
    /// Runnable but not running: the hypervisor gave the CPU to someone else.
    pub steal: u64,
    /// user + nice + system + irq + softirq: the guest ran.
    pub busy: u64,
    /// Every column, idle and iowait included.
    pub total: u64,
}

impl CpuJiffies {
    pub fn read() -> Self {
        fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| parse_cpu_line(&s))
            .unwrap_or_default()
    }

    fn since(self, before: CpuJiffies) -> CpuJiffies {
        CpuJiffies {
            steal: self.steal.saturating_sub(before.steal),
            busy: self.busy.saturating_sub(before.busy),
            total: self.total.saturating_sub(before.total),
        }
    }
}

fn parse_cpu_line(stat: &str) -> Option<CpuJiffies> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let v: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (v.len() == 8).then(|| CpuJiffies {
        steal: v[7],
        busy: v[0] + v[1] + v[2] + v[5] + v[6],
        total: v.iter().sum(),
    })
}

/// What the hypervisor took between two readings.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Steal {
    /// Stolen share of all CPU time, idle included (`host.steal_frac`).
    pub of_total: f64,
    /// Stolen share of the time the guest *wanted* a CPU (steal over steal +
    /// busy): by how much work that was running was held up.
    pub of_wanted: f64,
}

impl Steal {
    pub fn between(before: CpuJiffies, after: CpuJiffies) -> Steal {
        let d = after.since(before);
        let share = |part: u64, whole: u64| if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
        Steal {
            of_total: share(d.steal, d.total),
            of_wanted: share(d.steal, d.steal + d.busy),
        }
    }
}

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// in a tree that is not a repository (the driver's checkout is not).
pub fn git_rev() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h,
        Err(_) => return "unknown".into(),
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}")).map_or_else(|_| head.to_string(), |s| s.trim().to_string()),
        None => head.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_odd_command_names() {
        let line = "4242 (a b) c)) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 1 2";
        assert_eq!(parse_stat_cpu_ticks(line), Some(300));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_and_steal_parsing() {
        let status = "Name:\tx\nVmPeak:\t  10 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(2048));
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8\n";
        let before = parse_cpu_line(stat).unwrap();
        assert_eq!((before.steal, before.busy, before.total), (35, 155, 1000));
        let after = CpuJiffies {
            steal: 85,
            busy: 305,
            total: 1200,
        };
        let s = Steal::between(before, after);
        assert_eq!((s.of_total, s.of_wanted), (0.25, 0.25));
        assert_eq!(Steal::between(after, after), Steal::default());
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        let j = CpuJiffies::read();
        assert!(j.steal + j.busy <= j.total);
    }
}
