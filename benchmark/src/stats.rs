//! The arithmetic behind every reported number: nearest-rank
//! percentiles, Python-compatible quartiles, and the element-wise
//! minimum across identical passes.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the population at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(q1, q3)` as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method) — the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need two samples");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Element-wise minimum over passes that timed the same operations in
/// the same order. A stall the host injected into some passes
/// disappears; a stall the program causes recurs at the same index in
/// every pass and survives.
pub fn min_across(passes: &[&[f64]]) -> Vec<f64> {
    let n = passes.iter().map(|p| p.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        // 1200 samples: p99 is rank 1188, leaving 12 beyond it.
        let s: Vec<f64> = (0..1200).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), 1187.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3,1,4,1,5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.0, 5.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn min_across_keeps_recurring_stalls_only() {
        // Index 2 stalls in every pass (the program); index 0 and 4
        // stall in one pass each (the host).
        let passes: [&[f64]; 3] = [
            &[90.0, 10.0, 500.0, 10.0, 11.0],
            &[10.0, 11.0, 510.0, 10.0, 80.0],
            &[11.0, 10.0, 505.0, 12.0, 10.0],
        ];
        assert_eq!(min_across(&passes), vec![10.0, 10.0, 500.0, 10.0, 10.0]);
        // Ragged input truncates to the shortest pass.
        assert_eq!(min_across(&[&[1.0, 2.0], &[3.0]]), vec![1.0]);
        assert!(min_across(&[]).is_empty());
    }
}
