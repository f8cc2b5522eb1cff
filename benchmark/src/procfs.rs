//! What `/proc` says about this process and the machine it runs on.

/// How much of the machine's CPUs the hypervisor gave to someone else:
/// when this is not ≈0 the machine was not the program's alone, and every
/// time in the run is inflated by an amount no statistic removes.
pub struct StealClock {
    /// `(steal, all)` ticks at the start.
    start: (f64, f64),
}

impl StealClock {
    pub fn start() -> StealClock {
        StealClock {
            start: StealClock::ticks(),
        }
    }

    /// `(steal, all)` ticks of all CPUs since boot, from `/proc/stat`.
    fn ticks() -> (f64, f64) {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<f64> = stat
            .lines()
            .find(|l| l.split_whitespace().next() == Some("cpu"))
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|t| t.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        // user nice system idle iowait irq softirq steal (guest times are
        // already inside user).
        (
            fields.get(7).copied().unwrap_or(0.0),
            fields.iter().take(8).sum(),
        )
    }

    pub fn ratio(&self) -> f64 {
        let now = StealClock::ticks();
        let all = now.1 - self.start.1;
        if all > 0.0 {
            (now.0 - self.start.0) / all
        } else {
            0.0
        }
    }
}

/// `(cpu seconds, peak RSS in MB, threads)` of this process, from `/proc`.
pub fn proc_self() -> (f64, f64, f64) {
    // Linux reports utime/stime in USER_HZ, which is 100 on every
    // architecture Linux supports; std has no sysconf to ask.
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields count from
    // after its closing parenthesis: utime and stime are fields 14 and 15.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks / USER_HZ, field("VmHWM:") / 1024.0, field("Threads:"))
}
