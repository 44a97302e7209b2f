//! Summary statistics: medians, the tail-percentile rule, and the seeded
//! generator every workload draws its inputs from.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
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

/// A tail latency: the value at integer percentile `pct`, by nearest rank,
/// over `samples` values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (100 when there are too few samples and the
    /// maximum stands in).
    pub pct: u32,
    /// The value at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest integer percentile that leaves at least [`TAIL_BEYOND`]
/// samples beyond it, by nearest rank: `p = ⌊100 (n − 10) / n⌋`, whose
/// rank `⌈p n / 100⌉` is at most `n − 10`. With 10 samples or fewer no
/// percentile qualifies and the maximum is reported as p100.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n <= TAIL_BEYOND {
        return Tail { pct: 100, value: sorted.last().copied().unwrap_or(0.0), samples: n };
    }
    let pct = (100 * (n - TAIL_BEYOND) / n) as u32;
    let rank = (pct as usize * n).div_ceil(100).max(1);
    Tail { pct, value: sorted[rank - 1], samples: n }
}

/// SplitMix64: a small, seedable generator, so the same `--seed` gives
/// byte-identical inputs on every machine.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 11..2000 {
            let t = tail(&ramp(n));
            let beyond = (1..=n).filter(|&i| i as f64 > t.value).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: p{} leaves {beyond}", t.pct);
            // The next percentile up would leave fewer than ten.
            if t.pct < 99 {
                let rank = ((t.pct as usize + 1) * n).div_ceil(100);
                assert!(n - rank < TAIL_BEYOND, "n={n}: p{} is not the highest", t.pct);
            }
            assert_eq!(t.samples, n);
        }
    }

    #[test]
    fn tail_uses_nearest_rank() {
        // 1000 samples: p99 is rank 990, leaving exactly ten beyond.
        assert_eq!(tail(&ramp(1000)), Tail { pct: 99, value: 990.0, samples: 1000 });
        // 100 samples: p90 is rank 90.
        assert_eq!(tail(&ramp(100)), Tail { pct: 90, value: 90.0, samples: 100 });
        // 20 samples: p50 is rank 10.
        assert_eq!(tail(&ramp(20)), Tail { pct: 50, value: 10.0, samples: 20 });
        // Order of the input does not matter.
        let mut shuffled = ramp(100);
        Rng::new(1, 0).shuffle(&mut shuffled);
        assert_eq!(tail(&shuffled).value, 90.0);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        assert_eq!(tail(&ramp(10)), Tail { pct: 100, value: 10.0, samples: 10 });
        assert_eq!(tail(&[]), Tail { pct: 100, value: 0.0, samples: 0 });
    }

    #[test]
    fn rng_repeats_per_seed_and_stays_in_range() {
        let a: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a, (0..5).map(|_| r.next_u64()).collect::<Vec<_>>());
        let mut r = Rng::new(7, 2);
        assert!((0..1000).all(|_| r.below(13) < 13 && r.unit() < 1.0));
    }
}
