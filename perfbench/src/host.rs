//! Host resource readings from `/proc` (Linux).

/// Kernel clock ticks per second for `/proc/self/stat` CPU times
/// (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU seconds this process has used so far, threads
/// that already exited included. Returns 0 where `/proc` is unreadable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated: state is field 3, utime
    // and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / TICKS_PER_SEC
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable {line}"))?;
    Ok(kib / 1024.0)
}
