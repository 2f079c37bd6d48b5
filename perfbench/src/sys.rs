//! Process-wide figures from `/proc/self` (Linux).

use std::time::Duration;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat`; 100 on every mainstream Linux configuration.
const CLOCK_TICKS_PER_S: f64 = 100.0;

fn status_field_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    status_field_kb("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Threads the process currently runs.
pub fn threads() -> Option<u64> {
    status_field_kb("Threads:")
}

/// User plus system CPU time the process has used so far.
pub fn cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 of this remainder.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(Duration::from_secs_f64(ticks as f64 / CLOCK_TICKS_PER_S))
}

#[cfg(test)]
mod tests {
    #[test]
    fn proc_figures_are_readable() {
        assert!(super::peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(super::threads().expect("Threads") >= 1);
        assert!(super::cpu_time().is_some());
    }
}
