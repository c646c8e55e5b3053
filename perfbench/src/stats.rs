//! Percentiles, the order-independent answer checksum, and the seeded
//! generator every input of the benchmark is drawn from.

use rig_core::ResultSink;

/// Samples a percentile needs beyond it before the benchmark reports it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `pct` (0 < pct < 100) of `samples`.
///
/// Refuses (returns `Err`) unless at least [`MIN_TAIL_SAMPLES`] samples lie
/// beyond the percentile, i.e. `n * (100 - pct) >= 1000`: a p90 needs 100
/// samples and a p50 needs 20. Integer arithmetic keeps the rule exact.
pub fn percentile(samples: &[f64], pct: u32) -> Result<f64, String> {
    assert!(pct > 0 && pct < 100, "percentile must lie strictly between 0 and 100");
    let n = samples.len();
    if n * (100 - pct as usize) < MIN_TAIL_SAMPLES * 100 {
        return Err(format!(
            "p{pct} needs {} samples beyond it; {n} samples leave {}",
            MIN_TAIL_SAMPLES,
            n * (100 - pct as usize) / 100
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // smallest rank r with r / n >= pct / 100
    let rank = (n * pct as usize).div_ceil(100).max(1);
    Ok(sorted[rank - 1])
}

/// Median of any non-empty sample (no tail rule: used for repeated
/// set-up timings and per-layer self times).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean of a sample (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// SplitMix64: the one generator behind graph batches, query draws and
/// operation order, so a seed fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0FBE_4C4B_3D11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of one occurrence tuple: order-dependent *within* the tuple
/// (positions are pattern variables), combined across tuples by a
/// wrapping sum, so the checksum of an answer set does not depend on the
/// order MJoin emits it in.
pub fn tuple_hash(tuple: &[u32]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    for &v in tuple {
        h = mix(h ^ u64::from(v));
    }
    h
}

/// Counting sink that also folds every tuple into an order-independent
/// checksum and keeps the first few tuples for edge-by-edge checks.
#[derive(Debug, Default)]
pub struct ChecksumSink {
    pub count: u64,
    pub checksum: u64,
    pub sample: Vec<Vec<u32>>,
    pub keep: usize,
}

impl ChecksumSink {
    pub fn keeping(keep: usize) -> ChecksumSink {
        ChecksumSink { keep, ..ChecksumSink::default() }
    }
}

impl ResultSink for ChecksumSink {
    #[inline]
    fn push(&mut self, tuple: &[u32]) -> bool {
        self.count += 1;
        self.checksum = self.checksum.wrapping_add(tuple_hash(tuple));
        if self.sample.len() < self.keep {
            self.sample.push(tuple.to_vec());
        }
        true
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_refused_below_100_samples() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(percentile(&v, 90).is_err());
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), Ok(89.0));
    }

    #[test]
    fn p50_needs_20_samples() {
        let v: Vec<f64> = (1..20).map(f64::from).collect();
        assert!(percentile(&v, 50).is_err());
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Ok(10.0));
    }

    #[test]
    fn nearest_rank_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        Rng::new(3).shuffle(&mut v);
        assert_eq!(percentile(&v, 50), Ok(100.0));
        assert_eq!(percentile(&v, 90), Ok(180.0));
        // a p99 needs 1000 samples
        assert!(percentile(&v, 99).is_err());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn checksum_is_independent_of_tuple_order() {
        let tuples: Vec<Vec<u32>> =
            (0..500u32).map(|i| vec![i, i.wrapping_mul(7) % 97, i % 13]).collect();
        let fold = |ts: &[Vec<u32>]| {
            let mut s = ChecksumSink::default();
            for t in ts {
                s.push(t);
            }
            (s.count, s.checksum)
        };
        let mut shuffled = tuples.clone();
        Rng::new(9).shuffle(&mut shuffled);
        assert_eq!(fold(&tuples), fold(&shuffled));
        shuffled.reverse();
        assert_eq!(fold(&tuples), fold(&shuffled));
    }

    #[test]
    fn checksum_sees_positions_within_a_tuple() {
        assert_ne!(tuple_hash(&[1, 2, 3]), tuple_hash(&[3, 2, 1]));
        let mut a = ChecksumSink::default();
        a.push(&[1, 2]);
        let mut b = ChecksumSink::default();
        b.push(&[2, 1]);
        assert_ne!(a.checksum, b.checksum);
    }
}
