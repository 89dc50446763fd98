//! Order statistics and the frontier hypervolume.

/// Median of a sample (mean of the two middle values for even sizes).
///
/// # Panics
/// On an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `q`·n samples at or below it, `q` in (0, 1].
///
/// # Panics
/// On an empty sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of percentile `q` in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps float error in q·n (0.99·1000) from adding a rank.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Samples a reported tail percentile must leave above it.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles the benchmark may report, highest first.
pub const TAIL_QS: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// The tail a sample supports: the highest percentile of [`TAIL_QS`]
/// with at least [`MIN_BEYOND`] samples beyond it, or the median when
/// even that has fewer. Returns `(q, value)`.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let q = TAIL_QS
        .into_iter()
        .find(|&q| beyond(sorted.len(), q) >= MIN_BEYOND)
        .unwrap_or(0.50);
    (q, nearest_rank(sorted, q))
}

/// Share of the reference box `[0, x_ref] × [0, y_ref]` dominated by
/// `points` when both coordinates are minimised (area and runtime).
/// Dominated points and the parts of points outside the box add
/// nothing, so the result is in `[0, 1]`.
pub fn hypervolume(points: &[(f64, f64)], x_ref: f64, y_ref: f64) -> f64 {
    let mut pts: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|&(x, y)| x < x_ref && y < y_ref)
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut area = 0.0;
    let mut best_y = y_ref;
    for (i, &(x, y)) in pts.iter().enumerate() {
        best_y = best_y.min(y);
        let next_x = pts.get(i + 1).map_or(x_ref, |p| p.0);
        area += (next_x - x) * (y_ref - best_y);
    }
    area / (x_ref * y_ref)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 5.0);
        assert_eq!(nearest_rank(&s, 0.51), 6.0);
        assert_eq!(nearest_rank(&s, 0.99), 10.0);
        assert_eq!(nearest_rank(&s, 0.01), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // p99 of n leaves n - ceil(0.99 n) samples beyond: 10 first at n = 1000.
        let s = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail(&s(1000)), (0.99, 990.0));
        // 999 samples: p99 has 9 beyond, p95 has 49.
        assert_eq!(tail(&s(999)), (0.95, 950.0));
        assert_eq!(tail(&s(100)), (0.90, 90.0));
        assert_eq!(tail(&s(40)), (0.75, 30.0));
        // Too few for any tail: the median.
        assert_eq!(tail(&s(5)), (0.50, 3.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn hypervolume_of_a_three_point_frontier() {
        // Box 10 × 10. Sweeping x: [2,4) under y=8 → 2·2 = 4; [4,7) under
        // y=5 → 3·5 = 15; [7,10) under y=2 → 3·8 = 24. Total 43 of 100.
        let front = [(4.0, 5.0), (2.0, 8.0), (7.0, 2.0)];
        assert!((hypervolume(&front, 10.0, 10.0) - 0.43).abs() < 1e-12);
        // A dominated point and a point outside the box change nothing.
        let more = [(4.0, 5.0), (2.0, 8.0), (7.0, 2.0), (5.0, 6.0), (11.0, 1.0)];
        assert!((hypervolume(&more, 10.0, 10.0) - 0.43).abs() < 1e-12);
        assert_eq!(hypervolume(&[], 10.0, 10.0), 0.0);
    }
}
