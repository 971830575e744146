//! Bench-side timers and process counters: the closed loop, latency
//! percentiles, process CPU time and the resident-set high-water mark.

use std::time::Instant;

/// A closed loop never stops before this many latency samples, so that at
/// least ten lie beyond p90.
const MIN_SAMPLES: u64 = 100;

/// Process user + system CPU time in seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space-separated. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse().ok())
        .collect();
    // The kernel reports these in USER_HZ, which is 100 on Linux.
    ticks.iter().sum::<f64>() / 100.0
}

/// CPU time the hypervisor gave to other guests, over all of the
/// machine's CPUs, in seconds (the `steal` column of `/proc/stat`; 0 when
/// unavailable). Wall-clock metrics include it; process CPU time does not.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// `VmHWM` (peak resident set size) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Type-7 percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    hyper_trace::percentile(&s, p)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile_of(samples, 50.0)
}

/// What one timed window measured.
///
/// A latency sample is one *group* of consecutive queries on one client,
/// timed together and divided by the group's size: a hypervisor pause of
/// tens of milliseconds then shifts one sample by a fraction of itself
/// instead of doubling a short query's latency, which keeps the tail
/// percentiles repeatable. Groups with a failed query have no latency sample.
#[derive(Debug, Default)]
pub struct Window {
    /// Mean per-query latency in ms of each group whose queries all
    /// succeeded, in issue order.
    pub lat_ms: Vec<f64>,
    /// The index of the group each latency sample belongs to.
    pub group: Vec<u64>,
    /// Queries attempted.
    pub attempted: u64,
    /// Queries that errored or were refused.
    pub failed: u64,
    /// Wall-clock length of the window in seconds.
    pub wall_s: f64,
    /// Process CPU seconds spent in the window (all threads).
    pub cpu_s: f64,
    /// CPU seconds stolen from this machine by the hypervisor in the window.
    pub steal_s: f64,
}

/// Marks the start of a timed window.
pub struct WindowClock {
    start: Instant,
    cpu0: f64,
    steal0: f64,
    deadline_s: f64,
}

impl WindowClock {
    /// Start a window that should last `seconds`.
    pub fn start(seconds: f64) -> WindowClock {
        WindowClock {
            cpu0: cpu_seconds(),
            steal0: steal_seconds(),
            start: Instant::now(),
            deadline_s: seconds,
        }
    }

    /// True while another group should be issued: before the deadline, or
    /// after it while fewer than [`MIN_SAMPLES`] groups were started (up to
    /// three times the requested length).
    pub fn more(&self, started: u64) -> bool {
        let t = self.start.elapsed().as_secs_f64();
        t < self.deadline_s || (started < MIN_SAMPLES && t < 3.0 * self.deadline_s)
    }

    /// Close the window.
    pub fn finish(self, lat_ms: Vec<f64>, group: Vec<u64>, attempted: u64, failed: u64) -> Window {
        Window {
            lat_ms,
            group,
            attempted,
            failed,
            wall_s: self.start.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - self.cpu0,
            steal_s: steal_seconds() - self.steal0,
        }
    }
}

/// Run `op` in a closed loop for `seconds`: each call starts when the
/// previous one has returned. Calls come in groups of `group_size`, and
/// `op` gets the index of its group. A failing `op` ends the run through
/// [`crate::wrong`], so every query of a library workload succeeds.
pub fn closed_loop(seconds: f64, group_size: u64, mut op: impl FnMut(u64)) -> Window {
    let clock = WindowClock::start(seconds);
    let (mut lat_ms, mut group) = (Vec::new(), Vec::new());
    let mut g = 0u64;
    while clock.more(g) {
        let t0 = Instant::now();
        for _ in 0..group_size {
            op(g);
        }
        lat_ms.push(ms_since(t0) / group_size as f64);
        group.push(g);
        g += 1;
    }
    clock.finish(lat_ms, group, g * group_size, 0)
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}
