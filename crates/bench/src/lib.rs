//! Shared helpers for the experiment harness (`src/bin/experiments.rs`)
//! and the criterion benches (`benches/`). Each experiment reproduces one
//! table, figure or theorem-shaped claim of the paper; the README's
//! "Benchmarks" table records the headline outcomes, and
//! `benchmark/README.md` describes the end-to-end serving benchmark.

use std::time::Instant;

/// Times a closure, returning (result, milliseconds).
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Least-squares slope of log(y) over log(x): the fitted polynomial degree
/// of a runtime curve (experiment E5 reports this).
pub fn fitted_exponent(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = logs.len() as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let sx: f64 = logs.iter().map(|(x, _)| x).sum();
    let sy: f64 = logs.iter().map(|(_, y)| y).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = logs.iter().map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Consecutive growth ratios of a series (experiments E1/E7 report these
/// to show super-polynomial blowup).
pub fn growth_ratios(series: &[f64]) -> Vec<f64> {
    series
        .windows(2)
        .map(|w| if w[0] > 0.0 { w[1] / w[0] } else { f64::NAN })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_fit_recovers_powers() {
        let quadratic: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((fitted_exponent(&quadratic) - 2.0).abs() < 1e-9);
        let linear: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((fitted_exponent(&linear) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ratios() {
        assert_eq!(growth_ratios(&[1.0, 2.0, 8.0]), vec![2.0, 4.0]);
    }
}
