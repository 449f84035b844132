//! Order statistics for the report.

use std::collections::BTreeMap;

use armada_bench::json::Json;

/// One verdict's latency, labelled with what was asked: the module, and
/// how (`cold`, `plain`, `recheck`, `repeat` or `fresh`).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub module: &'static str,
    pub kind: &'static str,
    pub ms: f64,
}

/// Each (module, kind) group's median latency and sample count, fastest
/// group first: which module a latency change came from.
pub fn group_medians(samples: &[Sample]) -> Vec<(String, f64, usize)> {
    let mut groups: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for s in samples {
        groups.entry((s.module, s.kind)).or_default().push(s.ms);
    }
    let mut medians: Vec<(String, f64, usize)> = groups
        .into_iter()
        .map(|((module, kind), ms)| (format!("{module}/{kind}"), percentile(&ms, 0.5), ms.len()))
        .collect();
    medians.sort_by(|a, b| a.1.total_cmp(&b.1));
    medians
}

/// The nearest-rank `q`-quantile of `values` (`q` in `[0, 1]`); NaN when
/// empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of the `q`-quantile among `n > 0` samples (the
/// epsilon keeps `0.9 * 100` from rounding up to rank 91).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The interquartile distance as a share of the median, with the quartiles
/// Python's `statistics.quantiles(values, n=4)` gives (the "exclusive"
/// method). 0 for fewer than two values: one sample has no spread.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let (q1, q2, q3) = (quartile(1), quartile(2), quartile(3));
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The highest of the usual percentiles that still has at least ten samples
/// beyond it, or `None` below twenty samples.
pub fn tail_quantile(samples: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.5]
        .into_iter()
        .find(|&q| samples > 0 && samples - rank(samples, q) >= 10)
}

/// A timing as the report records it: median, the tail percentile that has
/// ten samples beyond it, and the sample count.
pub fn timing(values: &[f64]) -> Json {
    let mut fields = vec![
        ("median", crate::num(percentile(values, 0.5))),
        ("samples", Json::int(values.len())),
    ];
    if let Some(q) = tail_quantile(values.len()) {
        fields.push(("tail_q", Json::Num(q)));
        fields.push(("tail", Json::Num(percentile(values, q))));
    }
    Json::obj(fields)
}

/// The process's peak resident set size in MiB (`VmHWM`) since the last
/// call, or NaN where `/proc` does not report it. Each call restarts the
/// peak from the current size (writing `5` to `/proc/self/clear_refs`);
/// where that is refused, the peak keeps the whole process's history.
pub fn take_peak_rss_mb() -> f64 {
    let peak = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN);
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    peak
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((quartile_spread(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.9), 90.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(19), None);
    }
}
