//! The harness's own arithmetic: percentiles, the quiet-window figures and
//! the quartiles of the noise report.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1); 0 for an
/// empty slice.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Sorts `values` and returns its nearest-rank percentile.
pub fn percentile_of<T: Copy + Default + Ord>(values: &mut [T], p: f64) -> T {
    values.sort_unstable();
    percentile(values, p)
}

/// Median of unsorted floats (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Windows each client's series is cut into (equal operation counts).
pub const WINDOWS: usize = 20;

/// Latency and rate of a run's quiet quarter.
///
/// Each client's latency series (in operation order) is cut into
/// [`WINDOWS`] consecutive windows.  In this kind of sandbox two things
/// add time to whole stretches of a run and never take any away: other
/// tenants, and the scheduler putting a client and the tier worker that
/// serves it on different cores (a loopback round trip then costs ≈ 20 µs
/// more, for seconds at a time).  Whole-run figures mix those stretches in
/// at a share that differs from run to run; the quartile of the windows on
/// the fast side does not, as long as a quarter of the run was quiet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuietWindows {
    /// First quartile of the windows' median latencies.
    pub p50_ns: f64,
    /// First quartile of the windows' p99 latencies.
    pub p99_ns: f64,
    /// Each client's third-quartile window rate, summed over clients.
    pub calls_per_s: f64,
    /// Samples in the smallest window (1 % of them lie beyond its p99).
    pub smallest_window: usize,
}

pub fn quiet_windows(per_client: &[&[u32]]) -> QuietWindows {
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let mut calls_per_s = 0.0;
    let mut smallest_window = usize::MAX;
    for series in per_client {
        let mut rates = Vec::with_capacity(WINDOWS);
        for window in 0..WINDOWS {
            let lo = series.len() * window / WINDOWS;
            let hi = series.len() * (window + 1) / WINDOWS;
            if lo == hi {
                continue;
            }
            let mut samples = series[lo..hi].to_vec();
            // Operations run back to back, so a window lasts as long as
            // its latencies add up to.
            let nanos: u64 = samples.iter().map(|&ns| u64::from(ns)).sum();
            rates.push(samples.len() as f64 * 1e9 / nanos.max(1) as f64);
            smallest_window = smallest_window.min(samples.len());
            samples.sort_unstable();
            p50s.push(f64::from(percentile(&samples, 0.50)));
            p99s.push(f64::from(percentile(&samples, 0.99)));
        }
        if rates.len() >= 2 {
            calls_per_s += quartiles(&rates)[2];
        }
    }
    if p50s.len() < 2 {
        return QuietWindows {
            p50_ns: 0.0,
            p99_ns: 0.0,
            calls_per_s: 0.0,
            smallest_window: 0,
        };
    }
    QuietWindows {
        p50_ns: quartiles(&p50s)[0],
        p99_ns: quartiles(&p99s)[0],
        calls_per_s,
        smallest_window,
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the benchmark contract's spread is defined on.  Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..4usize).enumerate() {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        out[slot] = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&values, 0.0), 1);
        assert_eq!(percentile(&values, 0.50), 51); // round(99 * 0.5) = 50 -> 51
        assert_eq!(percentile(&values, 0.99), 99);
        assert_eq!(percentile(&values, 1.0), 100);
        assert_eq!(percentile::<u32>(&[], 0.5), 0);
        let mut unsorted = vec![9u32, 1, 5];
        assert_eq!(percentile_of(&mut unsorted, 0.5), 5);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_stall_or_a_slow_stretch_does_not_move_the_quiet_quarter() {
        // Two clients, 2000 operations each at 100 ns.  Client 0 stalls for
        // 60 operations; client 1 spends its second half in a slow mode.
        let mut a = vec![100u32; 2000];
        for slot in &mut a[210..270] {
            *slot = 1_000_000;
        }
        let mut b = vec![100u32; 2000];
        for slot in &mut b[1000..] {
            *slot = 160;
        }
        let quiet = quiet_windows(&[&a, &b]);
        assert_eq!(quiet.p50_ns, 100.0);
        assert_eq!(quiet.p99_ns, 100.0);
        assert_eq!(quiet.smallest_window, 100);
        // Both clients manage 10M calls/s in their quiet windows.
        assert!(
            (quiet.calls_per_s - 2e7).abs() < 1.0,
            "{}",
            quiet.calls_per_s
        );
        // The whole-run figures do see both.
        let mut all: Vec<u32> = a.into_iter().chain(b).collect();
        assert_eq!(percentile_of(&mut all, 0.99), 1_000_000);
        assert_eq!(percentile_of(&mut all, 0.80), 160);
    }

    #[test]
    fn a_slowdown_of_the_whole_run_moves_the_quiet_quarter() {
        let fast: Vec<u32> = (0..4000).map(|i| 100 + (i % 7)).collect();
        let slow: Vec<u32> = fast.iter().map(|ns| ns * 2).collect();
        let (fast, slow) = (quiet_windows(&[&fast]), quiet_windows(&[&slow]));
        assert_eq!(slow.p50_ns, fast.p50_ns * 2.0);
        assert_eq!(slow.p99_ns, fast.p99_ns * 2.0);
        assert!((fast.calls_per_s / slow.calls_per_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn windows_follow_operation_order() {
        // Latency grows with time: the quiet quarter is the run's start.
        let series: Vec<u32> = (0..2000).collect();
        let quiet = quiet_windows(&[&series]);
        // Window medians are 50, 150, ... 1950; their first quartile
        // (exclusive method, 20 values) is 475.
        assert_eq!(quiet.p50_ns, 475.0);
        assert_eq!(quiet_windows(&[]).p50_ns, 0.0);
        assert_eq!(quiet_windows(&[&[5]]).p50_ns, 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 2, 7], n=4) == [2.0, 7.0, 10.0]
        assert_eq!(quartiles(&[10.0, 2.0, 7.0]), [2.0, 7.0, 10.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
    }
}
