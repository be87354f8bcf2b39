//! What the benchmark reads about the host it runs on.

/// Ticks (1/100 s of one CPU) the hypervisor gave to other guests while
/// this guest's CPUs wanted to run, summed over CPUs since boot: `steal`
/// in `/proc/stat`, or 0 where unavailable.  On a small guest a stolen
/// CPU stalls every thread hand-off, so samples taken while ticks were
/// stolen measure the neighbours as much as the program.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|steal| steal.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process so far, from `/proc/self/status`.
pub fn peak_rss_mib() -> Result<f64, Box<dyn std::error::Error>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
