//! Small measurement helpers: order statistics, output digests, process
//! memory, and the named-metric list the benchmark prints.

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated `q`-quantile of `values` (0 for an empty slice).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// One timed repetition of a workload's unit of work.
pub struct Rep {
    /// Trials (or records) the repetition processed.
    pub items: usize,
    /// Wall-clock seconds it took.
    pub seconds: f64,
    /// Whether its output passed the check.
    pub ok: bool,
}

impl Rep {
    pub fn rate(&self) -> f64 {
        ratio(self.items as f64, self.seconds)
    }
}

/// Runs `rep` back to back (a closed loop with one caller) until at least
/// `seconds` have passed, and at least once.
pub fn repeat_for(seconds: f64, mut rep: impl FnMut() -> Rep) -> Vec<Rep> {
    let start = std::time::Instant::now();
    let mut reps = Vec::new();
    loop {
        let done = rep();
        eprintln!(
            "unit {}: {} item(s) in {:.3}s ({:.3}/s){}",
            reps.len() + 1,
            done.items,
            done.seconds,
            done.rate(),
            if done.ok { "" } else { ", output check FAILED" }
        );
        reps.push(done);
        if start.elapsed().as_secs_f64() >= seconds {
            return reps;
        }
    }
}

/// Median items per second over `reps`.
pub fn median_rate(reps: &[Rep]) -> f64 {
    median(&reps.iter().map(Rep::rate).collect::<Vec<_>>())
}

/// A digest of an output's bytes: its length and 64-bit FNV-1a hash.  It
/// guards against accidental output changes, not adversaries.
pub fn digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{}:{hash:016x}", bytes.len())
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map(|kib| kib * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

/// Named metrics with units, in print order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, String)>,
}

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.entries
            .push((name.to_string(), value, unit.to_string()));
    }

    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    /// One `name value unit` line per metric, for people reading the log.
    pub fn human_lines(&self) -> String {
        self.entries
            .iter()
            .map(|(name, value, unit)| format!("{name:<34} {value:>16.6} {unit}\n"))
            .collect()
    }

    /// The `{"name": {"value": v, "unit": "u"}, ...}` object.  Values keep
    /// every digit (Rust's shortest round-trip formatting); a non-finite
    /// value is written as 0 and reported by [`Metrics::all_finite`].
    pub fn to_json(&self) -> String {
        let members: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }

    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, v, _)| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_the_linear_definition() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digests_separate_different_bytes() {
        assert_eq!(digest(b"abc"), digest(b"abc"));
        assert_ne!(digest(b"abc"), digest(b"abd"));
        assert!(digest(b"abc").starts_with("3:"));
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.push("a", 1.0, "s");
        m.push("b", 0.25, "1/s");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.0, \"unit\": \"s\"}, \"b\": {\"value\": 0.25, \"unit\": \"1/s\"}}"
        );
        assert!(peak_rss_mb() > 0.0);
    }
}
