//! Order statistics over latency samples.

/// Linear-interpolated quantile of an ascending-sorted sample (the
/// "linear" method numpy and most spreadsheets use).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The tail percentile a sample of `n` supports: the highest quantile with
/// at least ten samples beyond it, capped at p99 so the metric keeps one
/// meaning once a run has 1000 samples.
pub fn tail_q(n: usize) -> f64 {
    if n < 20 {
        0.5
    } else {
        (1.0 - 10.0 / n as f64).min(0.99)
    }
}

/// Latency summary of one op class: sample count, median and tail, in
/// the sample's unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Tail quantile value (see [`tail_q`]).
    pub tail: f64,
    /// The quantile `tail` was taken at.
    pub tail_q: f64,
}

/// Summarizes an unsorted sample.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = tail_q(v.len());
    Summary {
        n: v.len(),
        p50: quantile(&v, 0.5),
        tail: quantile(&v, q),
        tail_q: q,
    }
}

/// Samples per block in [`block_tail`]: enough for a p99 with ten
/// samples beyond it.
pub const TAIL_BLOCK: usize = 1000;

/// Tail latency over consecutive rounds: rounds are merged, in order, into
/// blocks of at least [`TAIL_BLOCK`] samples (a short remainder joins the
/// last block), each block's tail is taken, and the median over blocks is
/// returned. A stretch of slow machine then moves one block's p99 rather
/// than the whole run's. A run with fewer samples is one block, at the
/// highest percentile it supports.
pub fn block_tail<'a>(rounds: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    let mut blocks: Vec<Vec<f64>> = vec![Vec::new()];
    for r in rounds {
        if blocks.last().is_some_and(|b| b.len() >= TAIL_BLOCK) {
            blocks.push(Vec::new());
        }
        blocks.last_mut().expect("never empty").extend_from_slice(r);
    }
    if blocks.len() > 1 && blocks.last().is_some_and(|b| b.len() < TAIL_BLOCK) {
        let rest = blocks.pop().expect("checked above");
        blocks.last_mut().expect("checked above").extend(rest);
    }
    let tails: Vec<f64> = blocks
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| summarize(b).tail)
        .collect();
    median(&tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn block_tail_is_the_median_of_block_tails() {
        let fast: Vec<f64> = (0..TAIL_BLOCK)
            .map(|i| i as f64 / TAIL_BLOCK as f64)
            .collect();
        let slow: Vec<f64> = fast.iter().map(|x| x * 10.0).collect();
        let one = block_tail([fast.as_slice()]);
        assert!((one - 0.99).abs() < 1e-3);
        // Two fast blocks outvote one slow block.
        let t = block_tail([fast.as_slice(), slow.as_slice(), fast.as_slice()]);
        assert!((t - one).abs() < 1e-9);
        // A short remainder joins the last block instead of forming its own.
        assert!((block_tail([fast.as_slice(), &[100.0][..]]) - one).abs() < 0.01);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_q(5000), 0.99);
        assert!((tail_q(500) - 0.98).abs() < 1e-12);
        assert_eq!(tail_q(10), 0.5);
    }
}
