//! Offline shim for `rand_chacha`: [`ChaCha8Rng`].
//!
//! Implements the genuine ChaCha8 stream cipher (8 rounds of the ChaCha
//! quarter-round schedule over the standard 16-word state), keyed from a
//! 64-bit seed through SplitMix64 expansion. Streams are therefore
//! high-quality and fully deterministic, though not byte-identical to the
//! upstream crate (which expands seeds differently); everything in this
//! workspace relies only on self-consistency of seeded streams.

use rand::{RngCore, SeedableRng};

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// SplitMix64, used only for seed expansion.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// A ChaCha stream cipher RNG with 8 rounds.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    /// Input block: constants, 8 key words, 64-bit counter, 2 nonce words.
    input: [u32; 16],
    /// Current keystream block.
    block: [u32; 16],
    /// Next word index into `block`; 16 means "refill".
    index: usize,
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut working = self.input;
        for _ in 0..4 {
            // One double round: 4 column + 4 diagonal quarter rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (out, (w, inp)) in self
            .block
            .iter_mut()
            .zip(working.iter().zip(self.input.iter()))
        {
            *out = w.wrapping_add(*inp);
        }
        // 64-bit block counter in words 12..14.
        let counter = self.counter().wrapping_add(1);
        self.input[12] = counter as u32;
        self.input[13] = (counter >> 32) as u32;
        self.index = 0;
    }

    /// The 64-bit block counter: the index of the next block `refill`
    /// generates.
    fn counter(&self) -> u64 {
        (self.input[13] as u64) << 32 | self.input[12] as u64
    }

    /// Position in the keystream, in 32-bit words: how many words have
    /// been drawn since the stream's start (upstream `get_word_pos`).
    pub fn get_word_pos(&self) -> u128 {
        // `block` holds block `counter − 1`, of which `index` words are
        // drawn; a fresh generator has counter 0 and index 16.
        (self.counter() as u128) * 16 + self.index as u128 - 16
    }

    /// Seeks to keystream word `word_offset` (upstream `set_word_pos`):
    /// the next draw returns the word a fresh generator with this seed
    /// would return after `word_offset` draws. The block counter is 64
    /// bits, so offsets wrap at 2^68 words.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        let block = (word_offset / 16) as u64;
        self.input[12] = block as u32;
        self.input[13] = (block >> 32) as u32;
        self.index = 16;
        let within = (word_offset % 16) as usize;
        if within != 0 {
            self.refill();
            self.index = within;
        }
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(state: u64) -> Self {
        let mut sm = state;
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&CHACHA_CONSTANTS);
        for i in 0..4 {
            let w = splitmix64(&mut sm);
            input[4 + 2 * i] = w as u32;
            input[4 + 2 * i + 1] = (w >> 32) as u32;
        }
        // counter = 0 (words 12, 13), nonce = 0 (words 14, 15).
        ChaCha8Rng {
            input,
            block: [0; 16],
            index: 16,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let w = self.block[self.index];
        self.index += 1;
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let va: Vec<u32> = (0..100).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..100).map(|_| b.next_u32()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let va: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn uniformity_sanity() {
        // Mean of [0,1) uniforms must be near 0.5, variance near 1/12.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.01, "var {var}");
    }

    #[test]
    fn word_pos_counts_draws_and_seeks_anywhere() {
        let mut seq = ChaCha8Rng::seed_from_u64(11);
        let words: Vec<u32> = (0..80).map(|_| seq.next_u32()).collect();
        assert_eq!(seq.get_word_pos(), 80);
        // Every offset, block boundaries included, from fresh and from a
        // generator that has already drawn past it.
        for pos in 0..64usize {
            let mut fresh = ChaCha8Rng::seed_from_u64(11);
            assert_eq!(fresh.get_word_pos(), 0);
            fresh.set_word_pos(pos as u128);
            assert_eq!(fresh.get_word_pos(), pos as u128);
            let mut used = seq.clone();
            used.set_word_pos(pos as u128);
            for (i, want) in words[pos..pos + 16].iter().enumerate() {
                assert_eq!(fresh.next_u32(), *want, "fresh seek to {pos}, word {i}");
                assert_eq!(used.next_u32(), *want, "backward seek to {pos}, word {i}");
            }
            assert_eq!(fresh.get_word_pos(), pos as u128 + 16);
        }
    }

    #[test]
    fn bits_look_balanced() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ones: u32 = (0..1000).map(|_| rng.next_u32().count_ones()).sum();
        let frac = ones as f64 / (1000.0 * 32.0);
        assert!((frac - 0.5).abs() < 0.02, "bit balance {frac}");
    }
}
