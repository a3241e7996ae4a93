//! Order statistics over timing samples: percentiles, medians, their
//! per-slice forms, and the quiet decile a run reports.

use crate::report::Better;

/// Nearest-rank percentile of an ascending-sorted sample (`p` in 0..=1):
/// the smallest value with at least `p` of the sample at or below it.
/// 0.0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count); 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// [`median`] of integer samples.
pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// The values completing in each whole `slice_ns` slice of a window of
/// `window_ns`, from (completion offset, value) items in any order. A
/// trailing partial slice is dropped; a window shorter than one slice is
/// one slice.
fn slices(items: &[(u64, f64)], window_ns: u64, slice_ns: u64) -> Vec<Vec<f64>> {
    let whole = (window_ns / slice_ns) as usize;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); whole.max(1)];
    for &(done_ns, v) in items {
        let i = if whole == 0 { 0 } else { (done_ns / slice_ns) as usize };
        if let Some(b) = buckets.get_mut(i) {
            b.push(v);
        }
    }
    buckets
}

/// Completions per second in each slice (0 for a slice nothing completed in).
pub fn slice_rates(done_ns: &[u64], window_ns: u64, slice_ns: u64) -> Vec<f64> {
    let items: Vec<(u64, f64)> = done_ns.iter().map(|&t| (t, 0.0)).collect();
    let secs = if window_ns < slice_ns { window_ns.max(1) } else { slice_ns } as f64 / 1e9;
    slices(&items, window_ns, slice_ns).iter().map(|b| b.len() as f64 / secs).collect()
}

/// The `p`-percentile of the values completing in each slice; slices
/// nothing completed in are skipped.
pub fn per_slice_percentile(
    items: &[(u64, f64)],
    window_ns: u64,
    slice_ns: u64,
    p: f64,
) -> Vec<f64> {
    slices(items, window_ns, slice_ns)
        .iter_mut()
        .filter(|b| !b.is_empty())
        .map(|b| {
            b.sort_by(f64::total_cmp);
            percentile(b, p)
        })
        .collect()
}

/// The value the quietest tenth of a run's slices reach: the first
/// decile of a cost, the ninth of a rate. On a shared host whatever
/// disturbs a run only ever slows it, and does so for seconds at a time
/// (measured here: plateaus of about 7 s, 12% apart), so the slices the
/// disturbance missed say what the code costs. Over sliding 10 s
/// windows of one 60 s run the median of the slices moved by 8%, their
/// first quartile by 4%, their first decile by 2%. A change to the code
/// moves every slice, and so moves this as it would a median; work that
/// disturbs only some slices shows in the tail metrics of the layers.
pub fn quiet_decile(values: &[f64], better: Better) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match better {
        Better::Lower => percentile(&v, 0.10),
        // the mirror image: the nearest rank counted from the top
        Better::Higher => {
            v.reverse();
            percentile(&v, 0.10)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_u64(&[10, 30, 20]), 20.0);
    }

    #[test]
    fn slice_rates_count_whole_slices_only() {
        // 2.5 s window, 1 s slices: the last half second is dropped
        let done = [0, 999_999_999, 1_000_000_000, 1_500_000_000, 2_400_000_000];
        assert_eq!(slice_rates(&done, 2_500_000_000, 1_000_000_000), vec![2.0, 2.0]);
        // the median over slices ignores one stalled slice
        let rates = slice_rates(
            &[0, 1, 2, 2_000_000_001, 2_000_000_002, 2_000_000_003],
            3_000_000_000,
            1_000_000_000,
        );
        assert_eq!(rates, vec![3.0, 0.0, 3.0]);
        assert_eq!(median(&rates), 3.0);
        // shorter than a slice: the whole window is the slice
        assert_eq!(slice_rates(&[1, 2, 3, 4], 500_000_000, 1_000_000_000), vec![8.0]);
    }

    #[test]
    fn per_slice_percentile_buckets_by_completion() {
        // three 1 s slices of ten values each; the middle second is 10x slower
        let mut items = Vec::new();
        for slice in 0..3u64 {
            for i in 0..10u64 {
                let v = (i + 1) as f64 * if slice == 1 { 10.0 } else { 1.0 };
                items.push((slice * 1_000_000_000 + i, v));
            }
        }
        assert_eq!(
            per_slice_percentile(&items, 3_000_000_000, 1_000_000_000, 0.5),
            vec![5.0, 50.0, 5.0]
        );
        // completions in the trailing partial slice are dropped
        items.push((3_200_000_000, 1e9));
        assert_eq!(
            per_slice_percentile(&items, 3_500_000_000, 1_000_000_000, 1.0),
            vec![10.0, 100.0, 10.0]
        );
        // shorter than a slice: one slice holds everything; empty slices vanish
        assert_eq!(
            per_slice_percentile(&[(5, 1.0), (900, 3.0), (7, 2.0)], 1_000, 1_000_000_000, 0.5),
            vec![2.0]
        );
        assert_eq!(per_slice_percentile(&[(2_500, 4.0)], 3_000, 1_000, 0.5), vec![4.0]);
        assert!(per_slice_percentile(&[], 1_000, 1_000, 0.5).is_empty());
    }

    #[test]
    fn quiet_decile_ignores_disturbed_slices_on_the_right_side() {
        // costs: most of twenty slices disturbed upwards, the quiet few decide
        let mut costs = vec![9.0; 17];
        costs.extend([5.0, 5.2, 5.1]);
        assert_eq!(quiet_decile(&costs, Better::Lower), 5.1);
        // rates: disturbance lowers them, so the decile is taken from the top
        let mut rates = vec![60.0; 17];
        rates.extend([100.0, 97.0, 98.0]);
        assert_eq!(quiet_decile(&rates, Better::Higher), 98.0);
        // ten or fewer values: the best one
        assert_eq!(quiet_decile(&[4.0, 3.0, 5.0], Better::Lower), 3.0);
        assert_eq!(quiet_decile(&[4.0, 3.0, 5.0], Better::Higher), 5.0);
        assert_eq!(quiet_decile(&[], Better::Higher), 0.0);
    }
}
