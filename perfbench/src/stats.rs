//! The metric arithmetic: order statistics over repeated passes, and the
//! ratios the per-layer account is built from.

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => {
            let hi = v.swap_remove(n / 2);
            Some((v[n / 2 - 1] + hi) / 2.0)
        }
    }
}

/// The highest percentile of `samples` that still has at least ten
/// samples beyond it, as `(percentile, value)`; `None` with fewer than
/// eleven samples, where no such percentile exists.
///
/// With `n` samples sorted ascending, the value at index `n - 11` has
/// exactly ten samples above it; its percentile is the share of samples
/// at or below it.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 11 {
        return None;
    }
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// A span's self time: its duration minus the time its child spans cover,
/// floored at 0 (children timed with their own probe overhead can, in a
/// pathological case, read longer than the parent).
pub fn self_time(total: u64, children: &[u64]) -> u64 {
    total.saturating_sub(children.iter().sum())
}

/// Share of planned runs that produced no valid result.
pub fn failed_frac(failed: u64, planned: u64) -> f64 {
    share(failed as f64, planned as f64)
}

/// `traced / untraced - 1`: the share of wall time the probes add.
pub fn overhead_frac(traced: f64, untraced: f64) -> f64 {
    if untraced > 0.0 {
        traced / untraced - 1.0
    } else {
        0.0
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        // Only the minimum has ten samples above it.
        assert_eq!(tail_percentile(&eleven), Some((100.0 / 11.0, 1.0)));
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        // The 90th value has exactly ten (91..=100) above it.
        assert_eq!(tail_percentile(&hundred), Some((90.0, 90.0)));
    }

    #[test]
    fn shares_and_self_time() {
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
        assert_eq!(self_time(100, &[30, 20]), 50);
        assert_eq!(self_time(10, &[30]), 0);
        let (stamp, sched, sink) = (30u64, 20u64, 5u64);
        let total = 100u64;
        let driver = self_time(total, &[stamp, sched, sink]);
        let sum: f64 = [stamp, sched, sink, driver]
            .iter()
            .map(|&t| share(t as f64, total as f64))
            .sum();
        assert!((sum - 1.0).abs() < 1e-12, "shares of one run partition it");
    }

    #[test]
    fn failed_and_overhead_fractions() {
        assert_eq!(failed_frac(0, 256), 0.0);
        assert_eq!(failed_frac(64, 256), 0.25);
        assert_eq!(failed_frac(0, 0), 0.0);
        assert!((overhead_frac(1.2, 1.0) - 0.2).abs() < 1e-12);
        assert_eq!(overhead_frac(1.0, 0.0), 0.0);
    }
}
