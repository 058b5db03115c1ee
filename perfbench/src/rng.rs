//! Seeded input generation: every random choice the benchmark makes
//! (query ids, arrival times, attribute buckets, sub-seeds for the corpus
//! generators) comes from a [`SplitMix64`] stream derived from `--seed`,
//! so the same seed always yields the same inputs.

/// SplitMix64: a small, fast, well-mixed 64-bit generator. Its whole state
/// is one word, so streams are cheap to derive and trivially reproducible.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// An independent stream for one purpose (`tag`) under `seed`.
    pub fn derive(seed: u64, tag: &str) -> Self {
        let mut h = Self::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        for b in tag.bytes() {
            h.state ^= u64::from(b);
            h.next_u64();
        }
        Self::new(h.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // Multiply-shift keeps the bias below 2^-64 · n, negligible here.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A Zipf sampler over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty range");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Open-loop arrival times for `count` requests at a mean rate of
/// `count / window_s` per second: a Poisson process conditioned on its
/// count, i.e. `count` uniform points in `[0, window_s)`, sorted. Fixing
/// the count (rather than drawing it) keeps the offered load identical
/// across seeds while arrivals stay bursty.
pub fn arrival_schedule(count: usize, window_s: f64, rng: &mut SplitMix64) -> Vec<f64> {
    let mut times: Vec<f64> = (0..count).map(|_| rng.next_f64() * window_s).collect();
    times.sort_by(f64::total_cmp);
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix64::derive(7, "queries");
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix64::derive(7, "queries");
                move |_| r.next_u64()
            })
            .collect();
        let c = SplitMix64::derive(7, "arrivals").next_u64();
        let d = SplitMix64::derive(8, "queries").next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        assert_ne!(a[0], d);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn zipf_is_deterministic_for_a_seed() {
        let z = Zipf::new(1000, 1.0);
        let draw = |seed| {
            let mut r = SplitMix64::derive(seed, "zipf");
            (0..500).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut r = SplitMix64::new(5);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        // P(rank 0) = 1 / H_1000 ≈ 0.134; P(rank 999) ≈ 0.000134.
        assert!(counts[0] > 2_300 && counts[0] < 3_100, "{}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        assert!(counts[500..].iter().sum::<usize>() < counts[0]);
    }

    #[test]
    fn arrival_schedule_is_deterministic_sorted_and_bounded() {
        let make = |seed| arrival_schedule(400, 10.0, &mut SplitMix64::derive(seed, "arrivals"));
        let a = make(1);
        assert_eq!(a, make(1));
        assert_ne!(a, make(2));
        assert_eq!(a.len(), 400);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
        // Mean rate: about half the arrivals fall in the first half.
        let first_half = a.iter().filter(|&&t| t < 5.0).count();
        assert!((150..250).contains(&first_half), "{first_half}");
    }
}
