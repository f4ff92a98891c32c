//! Sample statistics and the two outside-in readers: `GET /stats` deltas
//! and the child's `/proc/<pid>/status` memory lines.

use crate::json::Value;
use std::collections::BTreeMap;

/// A percentile is reported only with at least this many samples beyond
/// it (the `choosing-metrics` rule), so a tail is never one outlier.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, or an error
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let beyond = (n as f64 * (100.0 - p) / 100.0).floor() as usize;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it, fewer than {MIN_BEYOND}"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Ok(sorted[rank.clamp(1, n) - 1])
}

/// The highest percentile of `menu` (descending) that `samples` support,
/// with the percentile chosen; `menu` ends at 50, which falls back to the
/// plain median when even that has too few samples beyond it.
pub fn tail(samples: &[f64], menu: &[f64]) -> (f64, f64) {
    for &p in menu {
        if let Ok(v) = percentile(samples, p) {
            return (v, p);
        }
    }
    (median(samples), 50.0)
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method) —
/// the spread the driver judges repeatability by. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Flattens the numeric members of a `GET /stats` body into
/// `engine.<name>` / `service.<name>` entries (nested objects such as
/// `requests_by_status` become `service.requests_by_status.<key>`).
fn flatten_stats(stats: &Value) -> BTreeMap<String, f64> {
    fn walk(prefix: &str, v: &Value, out: &mut BTreeMap<String, f64>) {
        for (k, member) in v.members() {
            let name = if prefix.is_empty() {
                k.clone()
            } else {
                format!("{prefix}.{k}")
            };
            match member {
                Value::Num(n) => {
                    out.insert(name, *n);
                }
                Value::Obj(_) => walk(&name, member, out),
                _ => {}
            }
        }
    }
    let mut out = BTreeMap::new();
    walk("", stats, &mut out);
    out
}

/// `after − before` per counter; a counter absent before counts from 0.
pub fn stats_delta(before: &Value, after: &Value) -> BTreeMap<String, f64> {
    let before = flatten_stats(before);
    flatten_stats(after)
        .into_iter()
        .map(|(k, v)| {
            let base = before.get(&k).copied().unwrap_or(0.0);
            (k, v - base)
        })
        .collect()
}

/// The kB value of one `/proc/<pid>/status` line such as `VmHWM`.
pub fn status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let n = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(n)
    })
}

/// Reads `field` (kB) from a live process's status file.
pub fn proc_status_kb(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_kb(&status, field)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), Ok(990.0));
        assert_eq!(percentile(&s, 50.0), Ok(500.0));
        // 999 samples leave only 9 beyond p99.
        assert!(percentile(&s[..999], 99.0).is_err());
        assert!(percentile(&s[..99], 90.0).is_err());
        assert_eq!(percentile(&s[..100], 90.0), Ok(90.0));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn tail_falls_back_down_the_menu() {
        let s: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(tail(&s, &[99.0, 90.0, 75.0, 50.0]), (108.0, 90.0));
        assert_eq!(tail(&s[..40], &[99.0, 90.0, 75.0, 50.0]), (30.0, 75.0));
        assert_eq!(tail(&s[..5], &[99.0, 90.0, 75.0, 50.0]), (3.0, 50.0));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn stats_delta_subtracts_per_counter() {
        let before = parse(
            r#"{"engine":{"executions":10,"cache_hits":8},
                "service":{"version":4,"requests_by_status":{"200":11}}}"#,
        )
        .unwrap();
        let after = parse(
            r#"{"engine":{"executions":25,"cache_hits":20},
                "service":{"version":9,"requests_by_status":{"200":30,"503":2}}}"#,
        )
        .unwrap();
        let d = stats_delta(&before, &after);
        assert_eq!(d["engine.executions"], 15.0);
        assert_eq!(d["engine.cache_hits"], 12.0);
        assert_eq!(d["service.version"], 5.0);
        assert_eq!(d["service.requests_by_status.200"], 19.0);
        assert_eq!(d["service.requests_by_status.503"], 2.0);
    }

    #[test]
    fn vm_hwm_reader_parses_the_status_format() {
        let status =
            "Name:\ttriq-cli\nVmPeak:\t  900000 kB\nVmHWM:\t  381728 kB\nVmRSS:\t  215464 kB\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(381728));
        assert_eq!(status_kb(status, "VmRSS"), Some(215464));
        assert_eq!(status_kb(status, "VmSwap"), None);
        assert_eq!(status_kb("VmHWM:\tmany kB\n", "VmHWM"), None);
        // Our own process has the line too.
        assert!(proc_status_kb(std::process::id(), "VmHWM").unwrap() > 0);
    }
}
