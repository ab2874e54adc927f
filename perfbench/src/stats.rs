//! The benchmark's own statistics: medians, tail percentiles and failure
//! accounting.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
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

/// Nearest-rank percentile `p` (0–100) of `samples`; 0 when empty.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Nearest rank of percentile `p` in `n` samples, immune to the
/// rounding of `p / 100 * n` just above a whole number.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// The median time of each item over repeats of the same work:
/// `repeats[r][i]` is item `i`'s time in repeat `r`, and every repeat
/// holds the same items. Empty when there are no repeats.
pub fn per_item_median(repeats: &[Vec<u64>]) -> Vec<u64> {
    let items = repeats.first().map_or(0, Vec::len);
    assert!(
        repeats.iter().all(|r| r.len() == items),
        "repeats differ in item count"
    );
    (0..items)
        .map(|i| median(&repeats.iter().map(|r| r[i] as f64).collect::<Vec<_>>()) as u64)
        .collect()
}

/// Percentiles a tail may be reported at, highest last.
const TAIL_CANDIDATES: [f64; 5] = [50.0, 75.0, 90.0, 99.0, 99.9];

/// The highest candidate percentile, no higher than `cap`, that leaves
/// at least ten samples beyond it in a set of `n`. Falls back to the
/// median when even p75 is unsupported.
pub fn tail_percentile(n: usize, cap: f64) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|&p| p <= cap && samples_beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

/// Samples strictly above the nearest-rank percentile `p` of `n`.
fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(p, n))
}

/// Operations attempted and failed across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that failed a status or output check.
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed over attempted; 0 when nothing was attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 99.0), 99);
        assert_eq!(percentile(&samples, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 99.0), 0);
    }

    #[test]
    fn per_item_median_takes_each_items_middle_repeat() {
        let repeats = vec![vec![5, 9, 3], vec![4, 10, 3], vec![6, 8, 7]];
        assert_eq!(per_item_median(&repeats), vec![5, 9, 3]);
        assert_eq!(per_item_median(&repeats[..2]), vec![4, 9, 3]);
        assert!(per_item_median(&[]).is_empty());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        assert_eq!(tail_percentile(100, 99.9), 90.0);
        assert_eq!(tail_percentile(99, 99.9), 75.0);
        assert_eq!(tail_percentile(39, 99.9), 50.0);
        assert_eq!(tail_percentile(1_000, 75.0), 75.0);
        assert_eq!(tail_percentile(1_000, 99.9), 99.0);
        assert_eq!(tail_percentile(10_000, 99.9), 99.9);
        // The cap wins over the sample count.
        assert_eq!(tail_percentile(10_000, 99.0), 99.0);
        assert_eq!(tail_percentile(0, 99.0), 50.0);
    }

    #[test]
    fn failed_share_accounting() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_share(), 0.0);
        tally.record(true);
        tally.record(false);
        tally.record(true);
        tally.record(true);
        assert_eq!((tally.attempted, tally.failed), (4, 1));
        assert_eq!(tally.failed_share(), 0.25);
    }
}
