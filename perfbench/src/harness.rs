//! Harness arithmetic shared by every workload: the percentile rule, the
//! peak-RSS probe, seed derivation and the one-line JSON result.

use std::fmt::Write as _;

use mis_beeping::rng::mix;

/// Domain tag separating the benchmark's derived seeds from every other
/// stream in the workspace.
const BENCH_DOMAIN: u64 = 0xBE4C_0000_0000_0001;

/// Derives the seed of input `(a, b)` in stream `stream` from the
/// workload seed given on the command line. Graph, run and request seeds
/// all come from here, so one `--seed` fixes every input of a run.
#[must_use]
pub fn derive_seed(seed: u64, stream: u64, a: u64, b: u64) -> u64 {
    mix(seed, BENCH_DOMAIN, stream, a, b)
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`: the smallest
/// sample with at least `p`% of the samples at or below it. Returns `None`
/// for an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Number of the `n` samples that lie strictly beyond the nearest-rank
/// percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of the reported percentiles (50, 75, 90, 95, 99) that has
/// at least ten of `n` samples beyond it — the tail a sample of this size
/// can support. `None` when even the median has fewer than ten beyond it.
#[must_use]
pub fn supported_tail(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
}

/// Parses the process high-water mark (`VmHWM`, in kB) out of the text of
/// `/proc/self/status` and returns it in MB (10⁶ bytes).
#[must_use]
pub fn parse_vmhwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb as f64 * 1024.0 / 1e6),
        _ => None,
    }
}

/// This process's peak resident set size in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks a `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vmhwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Records the p50 and p75 latency of a workload's base and fast
/// classes (`base_p50_ms` … `fast_p75_ms`), each given in ms.
///
/// # Panics
///
/// When a class has no samples.
pub fn insert_latencies(m: &mut crate::Metrics, base: &[f64], fast: &[f64]) {
    let pct = |xs: &[f64], p| percentile(xs, p).expect("every class has samples");
    m.insert("base_p50_ms", pct(base, 50.0));
    m.insert("base_p75_ms", pct(base, 75.0));
    m.insert("fast_p50_ms", pct(fast, 50.0));
    m.insert("fast_p75_ms", pct(fast, 75.0));
}

/// Median of `samples` (nearest rank); 0 for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Nanoseconds to milliseconds.
#[must_use]
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `num / den`, or 0 when nothing was attempted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What one benchmark invocation prints as its last line.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (runs or requests).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records one metric; names are unique within a report.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            self.metrics.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `1 − failed/attempted`: the share of operations whose output
    /// passed its check.
    #[must_use]
    pub fn ok_frac(&self) -> f64 {
        1.0 - ratio(self.failed as f64, self.attempted as f64)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    ///
    /// # Errors
    ///
    /// When a metric is not a finite number.
    pub fn json_line(&self) -> Result<String, String> {
        let correct = self.failed == 0 && self.attempted > 0;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest text that reads back as the same
            // f64, so every measured digit survives.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(20.0));
        assert_eq!(percentile(&xs, 75.0), Some(30.0));
        assert_eq!(percentile(&xs, 100.0), Some(40.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn forty_samples_leave_ten_beyond_p75() {
        assert_eq!(beyond(40, 75.0), 10);
        assert_eq!(beyond(39, 75.0), 9);
        assert_eq!(beyond(0, 75.0), 0);
    }

    #[test]
    fn supported_tail_follows_sample_count() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(39), Some(50.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
    }

    #[test]
    fn vmhwm_is_parsed_in_megabytes() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  512000 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vmhwm_mb(status), Some(512_000.0 * 1024.0 / 1e6));
        assert_eq!(parse_vmhwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_process_has_a_peak() {
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }

    #[test]
    fn report_line_counts_failures() {
        let mut r = Report::default();
        r.check(true);
        r.check(false);
        r.metric("setup_s", 0.25, "s");
        assert_eq!(r.ok_frac(), 0.5);
        assert_eq!(
            r.json_line().unwrap(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.metric("bad", f64::NAN, "ms");
        assert!(r.json_line().is_err());
    }

    #[test]
    fn derived_seeds_separate_streams() {
        assert_eq!(derive_seed(1, 2, 3, 0), derive_seed(1, 2, 3, 0));
        assert_ne!(derive_seed(1, 2, 3, 0), derive_seed(1, 3, 2, 0));
        assert_ne!(derive_seed(1, 2, 3, 0), derive_seed(1, 2, 0, 3));
        assert_ne!(derive_seed(1, 2, 3, 0), derive_seed(2, 2, 3, 0));
    }
}
