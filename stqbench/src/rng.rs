//! The seeded generator: splitmix64, split into named streams so that
//! changing how one input is drawn never shifts another.

/// A splitmix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The stream `label` of `seed`. Distinct labels give independent
    /// sequences for the same seed.
    pub fn new(seed: u64, label: &str) -> Rng {
        // FNV-1a of the label, folded into the seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h.rotate_left(29))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// small `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential variate with the given mean: the gap between
    /// Poisson arrivals.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Deals indices from shuffled decks in which index `i` appears
/// `weights[i]` times, so every deck holds exactly the planned shares.
/// Dealing instead of drawing each index independently keeps a run's mix
/// from drifting with the seed, and spreads the rare indices out.
#[derive(Clone, Debug)]
pub struct Deck {
    rng: Rng,
    weights: Vec<u32>,
    cards: Vec<usize>,
}

impl Deck {
    pub fn new(rng: Rng, weights: &[u32]) -> Deck {
        assert!(weights.iter().any(|&w| w > 0), "a deck needs a card");
        Deck {
            rng,
            weights: weights.to_vec(),
            cards: Vec::new(),
        }
    }

    pub fn deal(&mut self) -> usize {
        if self.cards.is_empty() {
            for (i, &w) in self.weights.iter().enumerate() {
                self.cards.extend(std::iter::repeat_n(i, w as usize));
            }
            self.rng.shuffle(&mut self.cards);
        }
        self.cards.pop().expect("a refilled deck")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_label() {
        let draw = |seed, label| {
            let mut r = Rng::new(seed, label);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, "a"), draw(1, "a"));
        assert_ne!(draw(1, "a"), draw(1, "b"));
        assert_ne!(draw(1, "a"), draw(2, "a"));
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = Rng::new(7, "range");
        for _ in 0..10_000 {
            assert!(r.below(9) < 9);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.exp(10.0) >= 0.0);
        }
    }

    #[test]
    fn every_deck_deals_the_exact_shares() {
        let mut deck = Deck::new(Rng::new(3, "deck"), &[1, 0, 3]);
        for _ in 0..5 {
            let mut hits = [0; 3];
            for _ in 0..4 {
                hits[deck.deal()] += 1;
            }
            assert_eq!(hits, [1, 0, 3]);
        }
    }
}
