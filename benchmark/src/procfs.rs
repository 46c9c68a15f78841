//! `/proc/self` readers: CPU time, peak RSS and context switches, so a
//! noisy run is recognisable beside its wall time. Linux only; every
//! reader returns zeros elsewhere rather than failing the benchmark.

use std::fs;

/// Kernel clock ticks per second for `/proc/self/stat` times. `USER_HZ`
/// is 100 on every Linux ABI Rust targets.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed by this process (all threads,
/// including ones that already exited).
pub fn cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields are counted after ")".
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_S
}

/// Snapshot of `/proc/self/status` fields.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Status {
    /// Peak resident set size (`VmHWM`), MiB.
    pub peak_rss_mb: f64,
    /// Voluntary context switches of the main thread.
    pub voluntary_ctxt: u64,
    /// Involuntary context switches of the main thread.
    pub involuntary_ctxt: u64,
}

/// Reads [`Status`].
pub fn status() -> Status {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    Status {
        peak_rss_mb: field("VmHWM:") / 1024.0,
        voluntary_ctxt: field("voluntary_ctxt_switches:") as u64,
        involuntary_ctxt: field("nonvoluntary_ctxt_switches:") as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_see_this_process() {
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(status().peak_rss_mb > 0.5);
        assert!(cpu_s() > 0.0);
    }
}
