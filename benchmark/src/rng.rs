//! The workload generator's random numbers: SplitMix64, seeded from
//! `--seed` and a per-purpose stream name so adding a draw to one
//! workload never shifts another's inputs.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Self {
        // FNV-1a over the stream name, folded into the seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(seed ^ h);
        r.next_u64(); // decorrelate nearby seeds
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-32 for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }

    /// `base` scaled by a factor uniform in `1 ± ppm/1e6`.
    pub fn jitter(&mut self, base: u64, ppm: u64) -> u64 {
        let span = 2 * ppm + 1;
        let factor = 1_000_000 - ppm + self.below(span);
        (u128::from(base) * u128::from(factor) / 1_000_000) as u64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_stream_repeat_different_ones_do_not() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, "a"), draw(1, "a"));
        assert_ne!(draw(1, "a"), draw(2, "a"));
        assert_ne!(draw(1, "a"), draw(1, "b"));
    }

    #[test]
    fn jitter_stays_inside_its_band() {
        let mut r = Rng::new(3, "j");
        for _ in 0..1000 {
            let v = r.jitter(1_000_000, 5_000);
            assert!((995_000..=1_005_000).contains(&v), "{v}");
        }
        assert_eq!(r.jitter(123, 0), 123);
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = Rng::new(4, "s");
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
        xs.sort_unstable();
        assert_eq!(xs, (0..100).collect::<Vec<_>>());
    }
}
