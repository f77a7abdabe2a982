//! Order statistics, `/proc` memory readings and the result line.

use std::fmt::Write;

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The reported set-up time: the `q`-quantile of a run's set-up
/// samples, taken low. Set-up takes a millisecond or two, so a slow
/// spell of a shared host shifts whole stretches of samples; the low end
/// of many samples taken across the run repeats between runs where their
/// median does not.
pub fn setup_figure(samples: &[f64], q: f64) -> f64 {
    quantile(samples, q)
}

/// The spread of a run's set-up samples, for stderr.
pub fn setup_support(samples: &[f64]) -> String {
    format!(
        "{} set-up samples (ms): min {:.3}, p20 {:.3}, median {:.3}, max {:.3}",
        samples.len(),
        quantile(samples, 0.0) * 1e3,
        quantile(samples, 0.2) * 1e3,
        median(samples) * 1e3,
        quantile(samples, 1.0) * 1e3,
    )
}

/// Samples lying strictly beyond the `q`-quantile, printed with each
/// percentile so its support is visible.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// A `VmHWM`/`VmRSS`-style field of `/proc/<pid>/status`, in MiB.
pub fn proc_status_mb(pid: Option<u32>, field: &str) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's peak-RSS mark (`VmHWM`) to its current RSS, so
/// a later reading covers only what runs after this call.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// End-to-end figures gathered over a run's rounds.
#[derive(Default)]
pub struct EndToEnd {
    /// Closed-loop throughput of each round; the run reports the median,
    /// which a stall of the host in one round cannot move.
    pub apps_per_s: Vec<f64>,
    /// Samples pooled over all rounds, in ms: verdict times, and open-loop
    /// latencies at the low and the high rate.
    pub verdict_ms: Vec<f64>,
    pub lo_ms: Vec<f64>,
    pub hi_ms: Vec<f64>,
}

impl EndToEnd {
    /// The gated end-to-end metrics, in `BENCHMARK.json` order: the
    /// figures whose spread between runs on a shared 2-core host stays
    /// within the largest bound a metric may have on every workload
    /// (`RECORD.json` keeps the spreads).
    pub fn metrics(peak_rss_mb: f64, setup_s: f64) -> Metrics {
        let mut m = Metrics::default();
        m.put("peak_rss_mb", peak_rss_mb, "MB");
        m.put("setup_s", setup_s, "s");
        m
    }

    /// Verdict times, throughput, latency under open-loop load and the
    /// highest rate meeting the SLO. On a shared host they vary between
    /// runs too much on at least one workload to be gated (README.md),
    /// so they are reported, ungated, with the per-layer metrics.
    pub fn load_metrics(&self, max_rate: f64) -> Metrics {
        let mut m = Metrics::default();
        m.put("verdict_ms_p50", median(&self.verdict_ms), "ms");
        m.put("apps_per_s", median(&self.apps_per_s), "1/s");
        m.put("verdict_ms_p90", quantile(&self.verdict_ms, 0.9), "ms");
        m.put("latency_ms_p50.lo", median(&self.lo_ms), "ms");
        m.put("latency_ms_p99.lo", quantile(&self.lo_ms, 0.99), "ms");
        m.put("latency_ms_p50.hi", median(&self.hi_ms), "ms");
        m.put("latency_ms_p99.hi", quantile(&self.hi_ms, 0.99), "ms");
        m.put("max_rate_under_slo", max_rate, "1/s");
        m
    }

    /// Sample counts behind the percentiles, for stderr.
    pub fn support(&self) -> String {
        format!(
            "{} verdicts ({} beyond p90), {} low-rate jobs ({} beyond p99), {} high-rate jobs ({} beyond p99)",
            self.verdict_ms.len(),
            beyond(self.verdict_ms.len(), 0.9),
            self.lo_ms.len(),
            beyond(self.lo_ms.len(), 0.99),
            self.hi_ms.len(),
            beyond(self.hi_ms.len(), 0.99),
        )
    }
}

/// One named metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The result object, printed as the last stdout line of a run.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                out,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .unwrap();
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(1000, 0.99), 10);
    }
}
