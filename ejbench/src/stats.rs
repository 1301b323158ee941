//! Order statistics over latency samples.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`: the
/// smallest sample with at least `p`% of the samples at or below it.
/// `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Samples per window of [`windowed_p95`]: every window's p95 has at
/// least ten samples beyond it.
pub const P95_WINDOW: usize = 200;

/// The p95 of a run: `samples` (in the order they were taken) are cut into
/// consecutive windows of at least [`P95_WINDOW`] samples, and the result
/// is the median of the windows' nearest-rank p95s.  A burst of host noise
/// then moves one window, not the metric, while a tail the program shows
/// throughout moves every window.  Fewer than [`P95_WINDOW`] samples form
/// one window.
pub fn windowed_p95(samples: &[f64]) -> Option<f64> {
    let windows = (samples.len() / P95_WINDOW).max(1);
    let per = samples.len() / windows;
    let p95s: Vec<f64> = (0..windows)
        .filter_map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * per
            };
            percentile(&samples[w * per..end], 95.0)
        })
        .collect();
    median(&p95s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 100.0), Some(200.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        // ten samples lie above the p95 of 200
        assert_eq!(v.iter().filter(|&&x| x > 190.0).count(), 10);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 80.0), Some(4.0));
        assert_eq!(percentile(&v, 81.0), Some(5.0));
    }

    #[test]
    fn windowed_p95_resists_one_noisy_window() {
        // three windows of 200; the middle one has a burst of slow samples
        let mut v: Vec<f64> = Vec::new();
        for w in 0..3 {
            for i in 0..200 {
                let slow = w == 1 && i % 5 == 0;
                v.push(if slow { 100.0 } else { f64::from(i % 20) });
            }
        }
        assert_eq!(percentile(&v, 95.0), Some(100.0));
        assert_eq!(windowed_p95(&v), Some(18.0));
        // below one window it is the plain p95
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(windowed_p95(&few), percentile(&few, 95.0));
        assert_eq!(windowed_p95(&[]), None);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[7.5], 95.0), Some(7.5));
    }
}
