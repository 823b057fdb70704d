//! Order statistics for timings and latencies.

/// Median of `values`: the middle value, or the mean of the two middle
/// values for an even count. NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least a `q` share
/// of the samples at or below it. `+∞` samples (failed requests) sort last.
/// NaN for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    sorted[rank(sorted.len(), q) - 1]
}

/// How many samples lie beyond the nearest-rank `q` percentile of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Latency of each request measured from its due time: `done[i] - due[i]`,
/// or `+∞` when request `i` never completed successfully (failed, refused
/// or unanswered), so that it misses every latency limit.
pub fn due_time_latencies(due: &[f64], done: &[Option<f64>]) -> Vec<f64> {
    due.iter()
        .zip(done)
        .map(|(&d, c)| c.map_or(f64::INFINITY, |c| c - d))
        .collect()
}

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(20, 0.5), 10);
        assert_eq!(samples_beyond(19, 0.5), 9);
        assert_eq!(samples_beyond(8, 0.99), 0);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn failed_requests_count_as_infinite_latency() {
        let due = [0.0, 1.0, 2.0, 3.0];
        let done = [Some(0.5), None, Some(2.25), Some(3.0)];
        let lat = due_time_latencies(&due, &done);
        assert_eq!(lat, vec![0.5, f64::INFINITY, 0.25, 0.0]);
        // One miss in four pushes the 75th percentile past every finite
        // latency but leaves the median finite.
        assert_eq!(percentile(&lat, 1.0), f64::INFINITY);
        assert_eq!(percentile(&lat, 0.5), 0.25);
    }

    #[test]
    fn latency_counts_the_wait_behind_a_stall() {
        // Requests due every 10 ms; the second stalls the loop until
        // t = 100 ms, so the third is sent late and its latency includes
        // the wait from its due time, not from when it was sent.
        let due = [0.00, 0.01, 0.02];
        let done = [Some(0.001), Some(0.100), Some(0.101)];
        let lat = due_time_latencies(&due, &done);
        assert!((lat[2] - 0.081).abs() < 1e-12);
    }
}
