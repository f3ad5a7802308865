//! Small order statistics and the virtual-makespan rule.

/// Percentiles a report may name, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// A tail percentile is only an estimate with this many samples above it.
const SAMPLES_BEYOND: usize = 10;

/// Median (mean of the middle two for an even count). Sorts in place.
///
/// # Panics
/// On an empty slice: every caller measures at least once.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The distance between the first and the third quartile as a share of the
/// median — quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (its default "exclusive" method), so this is the spread the
/// benchmark contract's driver computes. 0 for fewer than two samples.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    let mid = median(&mut sorted);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / mid.abs().max(f64::MIN_POSITIVE)
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly above the nearest rank of percentile `p` among `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it among `n`, if any — the tail a sample of this size
/// supports.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && samples_beyond(n, p) >= SAMPLES_BEYOND)
}

/// Virtual makespan of execution passes list-scheduled in admission order
/// over `slots` slots: a pass `(ready, duration)` starts at
/// `max(ready, earliest slot free)` and holds its slot for `duration`. The
/// rule `scheduler_throughput` uses, so `virt_rps` means the same thing.
pub fn virtual_makespan_us(passes: &[(u64, u64)], slots: usize) -> u64 {
    let mut free_at = vec![0u64; slots.max(1)];
    let mut makespan = 0u64;
    for &(ready, duration) in passes {
        let slot = free_at.iter_mut().min().expect("at least one slot");
        *slot = (*slot).max(ready) + duration;
        makespan = makespan.max(*slot);
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_honours_ten_samples_beyond() {
        // 128 requests: p90 leaves 12 beyond, p95 only 6.
        assert_eq!(samples_beyond(128, 90.0), 12);
        assert_eq!(samples_beyond(128, 95.0), 6);
        assert_eq!(highest_supported_percentile(128), Some(90.0));
        // Exactly ten beyond still counts; nine does not.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(12_800), Some(99.9));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn segment_median() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow segment out of eight does not move the median.
        let mut rates = [100.0, 101.0, 99.0, 100.5, 12.0, 100.2, 99.8, 100.1];
        assert!((median(&mut rates) - 100.05).abs() < 1e-9);
    }

    #[test]
    fn quartile_spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]: two samples
        // extrapolate, so a pair reads one and a half times its range.
        assert!((quartile_spread(&[12.0, 10.0]) - 3.0 / 11.0).abs() < 1e-12);
        // quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
        assert!((quartile_spread(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
        assert_eq!(quartile_spread(&[]), 0.0);
    }

    #[test]
    fn makespan_matches_hand_worked_case() {
        // Two slots. A(ready 0, 10) -> slot0 [0,10]; B(0, 4) -> slot1 [0,4];
        // C(2, 5) -> slot1 frees first: [4,9]; D(20, 3) -> slot1 idle until
        // its arrival: [20,23]; E(0, 1) -> slot0 [10,11].
        let passes = [(0, 10), (0, 4), (2, 5), (20, 3), (0, 1)];
        assert_eq!(virtual_makespan_us(&passes, 2), 23);
        // One slot serialises: 0-10, 10-14, 14-19, 20-23, 23-24.
        assert_eq!(virtual_makespan_us(&passes, 1), 24);
        assert_eq!(virtual_makespan_us(&[], 2), 0);
    }
}
