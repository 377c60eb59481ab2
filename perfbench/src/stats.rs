//! Order statistics and the small pieces of arithmetic every report
//! shares, kept apart so they can be tested on their own.

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `None` for no samples.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64 / 100.0).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Median of unsorted samples (nearest rank, so always a measured value).
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(samples), 50.0)
}

/// A sorted copy.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentiles the tail metric may report, in hundredths of a percent.
pub const TAIL_LADDER_BP: [usize; 5] = [5000, 9000, 9900, 9990, 9999];

/// Samples a tail percentile needs beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail: the highest percentile of [`TAIL_LADDER_BP`] that leaves at
/// least [`TAIL_MIN_BEYOND`] samples strictly beyond its nearest rank.
/// Returns `(percentile, value, samples beyond)`, or `None` when even the
/// median has fewer than ten samples beyond it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64, usize)> {
    let s = sorted(samples);
    TAIL_LADDER_BP.iter().rev().find_map(|&bp| {
        let rank = (bp * s.len()).div_ceil(10_000);
        let beyond = s.len().saturating_sub(rank);
        (rank >= 1 && beyond >= TAIL_MIN_BEYOND).then(|| (bp as f64 / 100.0, s[rank - 1], beyond))
    })
}

/// Useful outcomes per attempt (a layer's yield); zero attempts yield 0.
pub fn ratio(useful: usize, attempts: usize) -> f64 {
    if attempts == 0 {
        0.0
    } else {
        useful as f64 / attempts as f64
    }
}

/// The part of a `taxogram mine` output that must be byte-identical
/// across engines: everything before the trailing `#` comment lines,
/// which carry per-engine counters and the wall-clock timing.
pub fn strip_trailer(output: &str) -> &str {
    let mut end = output.len();
    let mut rest = output;
    while let Some(body) = rest.strip_suffix('\n') {
        let start = body.rfind('\n').map_or(0, |i| i + 1);
        if !body[start..].starts_with('#') {
            break;
        }
        end = start;
        rest = &output[..start];
    }
    &output[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&s, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 has rank 990 and 10 beyond; p99.9 only 1.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.0, 990.0, 10)));
        // 999 samples: p99 leaves 9 beyond, so the tail falls to p90.
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&s), Some((90.0, 900.0, 99)));
        // 10000 samples reach p99.9.
        let s: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.9, 9990.0, 10)));
        // Order of the input does not matter.
        let mut r: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        r.swap(3, 500);
        assert_eq!(tail(&r), Some((99.0, 990.0, 10)));
        // Too few samples for even the median.
        assert_eq!(tail(&[1.0; 19]), None);
        assert_eq!(tail(&[1.0; 20]).map(|t| t.0), Some(50.0));
    }

    #[test]
    fn ratios_handle_zero_attempts() {
        assert_eq!(ratio(3, 4), 0.75);
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(144, 55), 144.0 / 55.0);
    }

    #[test]
    fn trailer_stripping_keeps_only_pattern_lines() {
        let serial = "0.500  [a]  0-1(2)\n0.400  [b]  \n# 2 of 2 patterns after filter, 1 classes, 3 occurrence-index updates\n# mined 2 patterns in 12.3ms\n";
        let sharded = "0.500  [a]  0-1(2)\n0.400  [b]  \n# 2 patterns from 4 shards (9 candidates)\n# termination: completed (1 classes finished, 0 abandoned)\n# mined 2 patterns in 99.0ms\n";
        assert_eq!(strip_trailer(serial), "0.500  [a]  0-1(2)\n0.400  [b]  \n");
        assert_eq!(strip_trailer(serial), strip_trailer(sharded));
        assert_eq!(strip_trailer("# mined 0 patterns in 1.0ms\n"), "");
        assert_eq!(strip_trailer("0.5  [a]  \n"), "0.5  [a]  \n");
        // A comment line before a pattern line is not trailer.
        assert_eq!(strip_trailer("# x\n0.5  [a]  \n"), "# x\n0.5  [a]  \n");
    }
}
