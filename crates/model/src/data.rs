//! Synthetic training data.
//!
//! The paper trains on a Wikipedia dump; training-data *content* never
//! affects any reported metric (trainable size, throughput), so we substitute
//! a seeded generator producing token streams with a Zipfian unigram
//! distribution and a short-range repetition structure that a small model can
//! actually learn (used by the convergence tests and examples).

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use stronghold_tensor::init::seeded_rng;

/// A deterministic synthetic token stream.
pub struct SyntheticCorpus {
    rng: ChaCha8Rng,
    vocab: usize,
    zipf_cdf: Vec<f64>,
}

impl SyntheticCorpus {
    /// Creates a corpus over `vocab` tokens with Zipf exponent ~1.
    pub fn new(vocab: usize, seed: u64) -> Self {
        assert!(vocab >= 2);
        let mut cdf = Vec::with_capacity(vocab);
        let mut acc = 0.0f64;
        for r in 1..=vocab {
            acc += 1.0 / r as f64;
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        SyntheticCorpus {
            rng: seeded_rng(seed),
            vocab,
            zipf_cdf: cdf,
        }
    }

    /// Draws one token from the Zipfian unigram distribution.
    pub fn draw_token(&mut self) -> u32 {
        let u: f64 = self.rng.gen();
        match self
            .zipf_cdf
            .binary_search_by(|c| c.partial_cmp(&u).unwrap())
        {
            Ok(i) | Err(i) => (i.min(self.vocab - 1)) as u32,
        }
    }

    /// Generates a sequence of `len + 1` tokens and splits it into an
    /// `(inputs, targets)` next-token-prediction pair of length `len`.
    ///
    /// Sequences mix Zipf noise with repeated 4-token motifs so small models
    /// can visibly reduce the loss within a few dozen steps.
    pub fn next_sample(&mut self, len: usize) -> (Vec<u32>, Vec<u32>) {
        let mut seq = Vec::with_capacity(len + 1);
        let motif: Vec<u32> = (0..4).map(|_| self.draw_token()).collect();
        while seq.len() < len + 1 {
            if self.rng.gen_bool(0.7) {
                seq.extend_from_slice(&motif);
            } else {
                seq.push(self.draw_token());
            }
        }
        seq.truncate(len + 1);
        let inputs = seq[..len].to_vec();
        let targets = seq[1..].to_vec();
        (inputs, targets)
    }

    /// Generates a batch of samples.
    pub fn next_batch(&mut self, batch: usize, len: usize) -> Vec<(Vec<u32>, Vec<u32>)> {
        (0..batch).map(|_| self.next_sample(len)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SyntheticCorpus::new(100, 42);
        let mut b = SyntheticCorpus::new(100, 42);
        assert_eq!(a.next_sample(32), b.next_sample(32));
    }

    #[test]
    fn tokens_in_vocab() {
        let mut c = SyntheticCorpus::new(17, 1);
        for _ in 0..200 {
            let (i, t) = c.next_sample(8);
            assert!(i.iter().all(|&x| (x as usize) < 17));
            assert!(t.iter().all(|&x| (x as usize) < 17));
            assert_eq!(i.len(), 8);
            assert_eq!(t.len(), 8);
        }
    }

    #[test]
    fn targets_are_shifted_inputs() {
        let mut c = SyntheticCorpus::new(50, 2);
        let (i, t) = c.next_sample(16);
        assert_eq!(&i[1..], &t[..15]);
    }

    #[test]
    fn zipf_head_is_heavier() {
        let mut c = SyntheticCorpus::new(1000, 3);
        let mut low = 0;
        for _ in 0..5000 {
            if c.draw_token() < 10 {
                low += 1;
            }
        }
        // Top-10 of 1000 Zipf tokens carry ~39% of the mass.
        assert!(low > 1200, "only {low} of 5000 draws in the head");
    }
}
