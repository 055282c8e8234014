//! Statistics, host facts, and the result lines.

use aqp::obs::json::Value;
use std::process::Command;

/// Quantile of an ascending slice, interpolated linearly between the two
/// nearest ranks (0 for an empty slice). Interpolating matters for a pass
/// of 64 requests, where neighbouring ranks are different templates.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else { return 0.0 };
    let at = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Median with the two middle values averaged (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance check of this benchmark uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// A named measurement with its unit, in output order.
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics(Vec::new())
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(self.0.iter().all(|(n, _, _)| n != name), "metric {name} reported twice");
        self.0.push((name.to_string(), value, unit));
    }

    /// One `name value unit` line per metric, for people.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<44} {value:>16.6} {unit}");
        }
    }

    fn to_json(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    let fields = vec![("value".to_string(), (*value).into()), ("unit".to_string(), (*unit).into())];
                    (name.clone(), Value::Obj(fields))
                })
                .collect(),
        )
    }
}

/// The result line: the last line of standard output, one JSON object
/// with exactly the keys `correct`, `attempted`, `failed`, `metrics`.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    let line = Value::Obj(vec![
        ("correct".into(), correct.into()),
        ("attempted".into(), attempted.into()),
        ("failed".into(), failed.into()),
        ("metrics".into(), metrics.to_json()),
    ]);
    println!("{}", line.to_json());
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Facts about the host and build that every output records, because no
/// latency means anything without them.
pub fn host_facts() -> Vec<(String, Value)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc".into(), nproc.into()),
        ("cpu".into(), cpu.as_str().into()),
        ("rustc".into(), command_line("rustc", &["-V"]).as_str().into()),
        ("git_commit".into(), command_line("git", &["rev-parse", "HEAD"]).as_str().into()),
        ("profile".into(), "release".into()),
    ]
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert!((quantile(&v, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
