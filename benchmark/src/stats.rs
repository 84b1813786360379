//! The clock, and the order statistics every reported number goes through.

use std::time::Instant;

/// The benchmark's only clock read.
pub fn now() -> Instant {
    Instant::now() // mb-lint: allow(no-adhoc-clock) -- the benchmark times calls from outside the layers; mb_obs timers are the thing under test
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile (`p` in `(0, 100]`): the smallest sample with at
/// least `p` percent of the samples at or below it. Panics on no samples —
/// every caller has run at least one operation.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median, averaging the middle pair of an even-sized sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Time-ordered samples split into up to five consecutive windows of at
/// least four samples each.
pub fn windows<T>(samples: &[T]) -> impl Iterator<Item = &[T]> {
    let n = (samples.len() / 4).clamp(1, 5);
    (0..n).map(move |i| &samples[i * samples.len() / n..(i + 1) * samples.len() / n])
}

/// The median of the quietest window of a run: the smallest of the window
/// medians. Interference on a shared box comes in bursts of seconds that
/// slow everything by 30–80% and only ever slow it, so a run's whole-sample
/// median flips whenever bursts cover half of it; the quietest fifth of the
/// run is what the program itself costs.
pub fn quiet_median(samples: &[f64]) -> f64 {
    windows(samples)
        .map(median)
        .min_by(f64::total_cmp)
        .expect("at least one window")
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method) —
/// the rule the benchmark's acceptance check uses. Needs two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        // 11 samples: ceil(0.95 * 11) = 11, the maximum.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 11.0);
        assert_eq!(percentile(&v, 50.0), 6.0);
    }

    #[test]
    fn quiet_median_ignores_a_burst_that_covers_most_of_a_run() {
        // 40 samples: a slow burst over the first 28, then the clean level.
        let mut run = vec![15.0; 28];
        run.extend([9.0, 9.2, 8.8, 9.1, 9.0, 9.3, 8.9, 9.0, 9.1, 9.0, 8.7, 9.2]);
        assert_eq!(median(&run), 15.0);
        assert_eq!(quiet_median(&run), 9.0);
        // Windows are consecutive, cover everything once, and hold >= 4 samples.
        let sizes: Vec<usize> = windows(&run).map(<[f64]>::len).collect();
        assert_eq!(sizes, [8, 8, 8, 8, 8]);
        let sizes: Vec<usize> = windows(&run[..11]).map(<[f64]>::len).collect();
        assert_eq!(sizes, [5, 6]);
        assert_eq!(windows(&run[..3]).count(), 1);
        assert_eq!(quiet_median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]), (15.0, 120.0));
    }
}
