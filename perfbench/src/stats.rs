//! Order statistics over timing samples.

/// Median (mean of the two middle values for an even count); 0 when
/// empty. Sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples a tail value must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it:
/// the sample with exactly that many larger ones, and its percentile.
/// When that sample would sit below the median (fewer than
/// `2 * TAIL_BEYOND + 1` samples), the maximum (percentile 100). Sorts `v`.
pub fn tail(v: &mut [f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 2 * TAIL_BEYOND {
        return (v[n - 1], 100.0);
    }
    let i = n - 1 - TAIL_BEYOND;
    (v[i], 100.0 * (i + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&mut v);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        assert_eq!(tail(&mut [5.0, 1.0]), (5.0, 100.0));
        let mut few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&mut few), (20.0, 100.0));
    }
}
