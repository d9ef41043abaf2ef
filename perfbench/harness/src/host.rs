//! Readings from `/proc`: the measured process's peak memory and the
//! host-noise indicators recorded next to every run's metrics.

/// `VmHWM` of this process in MB (peak resident set).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-noise counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noise {
    /// Time the hypervisor ran other guests on this VM's CPUs, ms.
    pub steal_ms: f64,
    /// Time this thread waited on a run queue, ms.
    pub runq_wait_ms: f64,
}

impl Noise {
    #[must_use]
    pub fn read() -> Noise {
        // /proc/stat: `cpu user nice system idle iowait irq softirq steal …`
        // in USER_HZ ticks (10 ms on Linux).
        let steal_ticks = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                s.lines()
                    .next()
                    .and_then(|l| l.split_whitespace().nth(8))
                    .and_then(|v| v.parse::<f64>().ok())
            })
            .unwrap_or(0.0);
        // schedstat: `<on-cpu ns> <run-queue wait ns> <timeslices>`.
        let runq_ns = std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| {
                s.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
            .unwrap_or(0.0);
        Noise {
            steal_ms: steal_ticks * 10.0,
            runq_wait_ms: runq_ns / 1e6,
        }
    }

    #[must_use]
    pub fn since(self, start: Noise) -> Noise {
        Noise {
            steal_ms: self.steal_ms - start.steal_ms,
            runq_wait_ms: self.runq_wait_ms - start.runq_wait_ms,
        }
    }
}
