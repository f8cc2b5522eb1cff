//! Which CPU each side of a one-caller workload runs on.
//!
//! Left to the scheduler, the caller and the serving threads of a
//! ping-pong either share one CPU (every wake-up local) or sit on two (two
//! wake-ups of a halted vCPU per round trip), and which it is changes from
//! run to run: the same `pingpong_small_tcp` reads 12 µs or 87 µs. The
//! paper's ping-pong has two machines; here the serving side gets the first
//! CPU and the calling side the last, so every run measures the same
//! thing. Workloads with two callers and two nodes are not placed at all.
//!
//! std has no affinity call and the benchmark takes no dependency, so the
//! mask is set with `taskset` (util-linux) on the calling thread's id;
//! threads spawned afterwards inherit it.

use std::process::Command;
use std::time::{Duration, Instant};

pub struct Placement {
    /// CPUs this process was allowed on when it started.
    cpus: Vec<usize>,
    /// Time spent inside `taskset`, which is not the program's set-up.
    spent: Duration,
}

impl Placement {
    pub fn detect() -> Result<Placement, String> {
        let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .ok_or("no Cpus_allowed_list in /proc/self/status")?;
        let mut cpus = Vec::new();
        for range in list.trim().split(',') {
            let (first, last) = range.split_once('-').unwrap_or((range, range));
            let parse = |s: &str| s.parse::<usize>().map_err(|e| format!("{list:?}: {e}"));
            cpus.extend(parse(first)?..=parse(last)?);
        }
        if cpus.is_empty() {
            return Err(format!("no CPU in {list:?}"));
        }
        Ok(Placement {
            cpus,
            spent: Duration::ZERO,
        })
    }

    pub fn cpus(&self) -> usize {
        self.cpus.len()
    }

    /// From here on the calling thread builds the serving side.
    pub fn serving_side(&mut self) -> Result<(), String> {
        self.pin(self.cpus[0])
    }

    /// From here on the calling thread is the caller.
    pub fn calling_side(&mut self) -> Result<(), String> {
        self.pin(self.cpus[self.cpus.len() - 1])
    }

    /// Time spent placing threads since the last call.
    pub fn take_spent(&mut self) -> Duration {
        std::mem::take(&mut self.spent)
    }

    /// With one CPU there is nothing to choose; otherwise a placement that
    /// cannot be applied is an error, never a silently different layout.
    fn pin(&mut self, cpu: usize) -> Result<(), String> {
        if self.cpus.len() == 1 {
            return Ok(());
        }
        let t = Instant::now();
        let link = std::fs::read_link("/proc/thread-self").map_err(|e| e.to_string())?;
        let tid = link
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or("unreadable /proc/thread-self")?;
        let output = Command::new("taskset")
            .args(["-cp", &cpu.to_string(), tid])
            .output()
            .map_err(|e| format!("taskset: {e}"))?;
        self.spent += t.elapsed();
        if output.status.success() {
            Ok(())
        } else {
            Err(format!(
                "taskset -cp {cpu} {tid}: {}",
                String::from_utf8_lossy(&output.stderr).trim()
            ))
        }
    }
}
