//! Raw-sample statistics and process readings.
//!
//! Percentiles are taken from the sorted raw samples (nearest rank), never
//! from a bucketed histogram, so two paths 20% apart read 20% apart.

/// Nearest-rank percentile `q` (0..=1) of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// `(min, median, max)` of `values`.
pub fn min_med_max(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    match (s.first(), s.last()) {
        (Some(&lo), Some(&hi)) => (lo, percentile(&s, 0.5), hi),
        _ => (0.0, 0.0, 0.0),
    }
}

/// User + system CPU time of the whole process (every thread, live or
/// exited), in microseconds, from `/proc/self/stat`.
pub fn process_cpu_us() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 11 and 12 after `state`.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("missing field {i} in /proc/self/stat"))
    };
    // The kernel reports these in USER_HZ, which is 100 on Linux.
    Ok((ticks(11)? + ticks(12)?) * 10_000.0)
}

/// CPU time the host took from this machine's CPUs while they had work
/// to run (steal, summed over all CPUs), in milliseconds, from
/// `/proc/stat`.
pub fn host_steal_ms() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("reading /proc/stat: {e}"))?;
    // `cpu user nice system idle iowait irq softirq steal ...`, in USER_HZ.
    stat.lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<u64>().ok())
        .map(|t| t as f64 * 10.0)
        .ok_or_else(|| "no steal field in /proc/stat".to_string())
}

/// Current resident set size (`VmRSS`) in MiB.
pub fn rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmRSS in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
