//! Small order statistics and the process-level probes the benchmark
//! reports (peak resident memory).

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; 0 for an empty
/// slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Harrell–Davis estimate of quantile `q` in `(0, 1)` of `values`: the
/// mean of all order statistics, weighted by a Beta(q(n+1), (1-q)(n+1))
/// distribution. Where a tail is sparse the interpolated order statistic
/// jumps between neighbouring samples; this estimate varies much less
/// between samples. 0 for an empty slice.
pub fn harrell_davis(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut below = 0.0;
    sorted
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let cdf = beta_cdf((i + 1) as f64 / n, a, b);
            let weight = cdf - below;
            below = cdf;
            weight * v
        })
        .sum()
}

/// The regularised incomplete beta function `I_x(a, b)`, the CDF of a
/// Beta(a, b) distribution, by its continued fraction.
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    // The fraction converges fast on this side of the mean; use the
    // symmetry I_x(a, b) = 1 - I_{1-x}(b, a) on the other.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

/// Lentz's evaluation of the continued fraction of `I_x(a, b)`.
fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    let guard = |v: f64| if v.abs() < 1e-300 { 1e-300 } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..=500 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const COEFFICIENTS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1 - x) = π / sin(πx).
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let series = COEFFICIENTS
        .iter()
        .enumerate()
        .fold(0.999_999_999_999_809_9, |acc, (i, c)| {
            acc + c / (x + i as f64 + 1.0)
        });
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// Geometric mean of strictly positive `values`; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn harrell_davis_matches_known_values() {
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.25) - 3.625_609_908_221_908_f64.ln()).abs() < 1e-10);
        assert!((beta_cdf(0.3, 1.0, 1.0) - 0.3).abs() < 1e-12);
        assert!((beta_cdf(0.5, 7.0, 7.0) - 0.5).abs() < 1e-12);
        assert!((beta_cdf(0.2, 2.0, 3.0) - 0.1808).abs() < 1e-12);
        // A symmetric sample's median, and a constant sample's tail.
        let ramp: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!((harrell_davis(&ramp, 0.5) - 50.0).abs() < 1e-9);
        assert!((harrell_davis(&[4.0; 1500], 0.99) - 4.0).abs() < 1e-9);
        // The estimate sits near the interpolated quantile of a long sample.
        let long: Vec<f64> = (0..2000).map(f64::from).collect();
        assert!((harrell_davis(&long, 0.99) - quantile(&long, 0.99)).abs() < 2.0);
    }
}
