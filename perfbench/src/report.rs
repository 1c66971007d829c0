//! Sample statistics and the result a run prints.

/// Nearest-rank quantile of ascending-sorted `sorted` (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of samples (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The completed operations of one round of identical work.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Wall seconds of the round.
    pub wall: f64,
    /// Per-operation latency in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Per-operation `RunReport::execution_seconds`.
    pub cet_s: Vec<f64>,
}

/// Run `round` once untimed, to fill caches and let lazily built state
/// settle, then again and again until `seconds` have passed; return the
/// timed rounds. The warm-up round's operations are still checked.
pub fn timed_rounds<R>(seconds: std::time::Duration, mut round: impl FnMut() -> R) -> Vec<R> {
    round();
    let start = std::time::Instant::now();
    let mut rounds = Vec::new();
    while start.elapsed() < seconds {
        rounds.push(round());
    }
    rounds
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises, where it summarises samples.
    pub samples: Option<usize>,
}

/// What a run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were rejected or timed out.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Add a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, samples });
    }

    /// Record a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Human-readable lines: every metric with unit and sample count,
    /// then every failed check.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            out.push_str(&format!("{:<28} {:>14.6} {}{}\n", m.name, m.value, m.unit, n));
        }
        for p in &self.problems {
            out.push_str(&format!("CHECK FAILED: {p}\n"));
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the metrics named in `keep`, in that order. A metric
    /// that was not measured, or is not finite, reports as `null`; `finish`
    /// has already marked such a run incorrect.
    pub fn json(&self, keep: &[&str]) -> String {
        let metrics: Vec<String> = keep
            .iter()
            .map(|&name| {
                let m = self.metrics.iter().find(|m| m.name == name);
                let value = match m {
                    Some(m) if m.value.is_finite() => format!("{:?}", m.value),
                    _ => "null".into(),
                };
                let unit = m.map_or("", |m| m.unit);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Settle `correct`: no failed check, no failed operation, at least
    /// one attempt, and every metric in `keep` measured and finite.
    pub fn finish(&mut self, keep: &[&str]) {
        for &name in keep {
            match self.metrics.iter().find(|m| m.name == name) {
                None => self.problems.push(format!("metric {name} was not measured")),
                Some(m) if !m.value.is_finite() => {
                    self.problems.push(format!("metric {name} is not finite ({})", m.value))
                }
                Some(_) => {}
            }
        }
        if self.failed > 0 {
            self.problems.push(format!("{} of {} operations failed", self.failed, self.attempted));
        }
        if self.attempted == 0 {
            self.problems.push("no operation was attempted".into());
        }
        self.correct = self.problems.is_empty();
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
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome { attempted: 3, ..Default::default() };
        o.push("latency_p50_ms", 1.25, "ms", Some(3));
        o.push("setup_s", 0.5, "s", None);
        o.finish(&["latency_p50_ms", "setup_s"]);
        assert_eq!(
            o.json(&["latency_p50_ms", "setup_s"]),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
