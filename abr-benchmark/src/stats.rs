//! Order statistics for latencies and run-to-run spreads.

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The `q`-quantile (`0 <= q <= 1`) by linear interpolation between
/// order statistics; `0.0` for an empty sample.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        1 => s[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        }
    }
}

/// The median; `0.0` for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(v, n=4)` gives them (its default `exclusive`
/// method), so spreads printed here match the ones computed from the
/// printed values. Needs at least two values.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// `(q3 − q1) / median`, the run-to-run spread a bound is judged against.
pub fn spread(v: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(v)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3.0, 1.0], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentiles_interpolate_and_median_is_the_middle() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }
}
