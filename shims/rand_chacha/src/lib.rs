//! Offline shim for `rand_chacha`: [`ChaCha8Rng`].
//!
//! Implements the genuine ChaCha8 stream cipher (8 rounds of the ChaCha
//! quarter-round schedule over the standard 16-word state), keyed from a
//! 64-bit seed through SplitMix64 expansion. Streams are therefore
//! high-quality and fully deterministic, though not byte-identical to the
//! upstream crate (which expands seeds differently); everything in this
//! workspace relies only on self-consistency of seeded streams.
//!
//! # The wide refill
//!
//! ChaCha is a counter-mode cipher: keystream block `b` is a function of
//! the key and `b` alone. A refill therefore computes 16
//! consecutive blocks at once, as lanes: state word `j` of all of them is
//! one `[u32; L]` array, and every quarter-round operation is one loop over
//! the lanes. That lane code is plain Rust, and its speed is its codegen:
//! built for baseline x86-64 it runs *slower* than one block at a time, so
//! it only ever runs inside a `#[target_feature]` function picked at run
//! time: AVX-512 (one 16-lane pass), then AVX2 (two 8-lane passes). Every
//! other CPU gets the scalar block function, sixteen times: the portable
//! tier, and the oracle the wide tiers are tested against. The tiers differ
//! in speed only; each word of the stream is the same on all of them.

use rand::{RngCore, SeedableRng};

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Keystream blocks one refill computes: one 16-lane AVX-512 pass.
const BUF_BLOCKS: usize = 16;

/// Keystream words one refill computes.
const BUF_WORDS: usize = 16 * BUF_BLOCKS;

/// Word positions wrap at 2^68: the block counter is 64 bits.
const WORD_POS_MASK: u128 = (1 << 68) - 1;

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

/// Keystream block `counter` of the key in `input` into `out` (16
/// words): the input with the 64-bit block counter in words 12 and 13,
/// eight rounds, plus the input.
#[inline(always)]
fn block(input: &[u32; 16], counter: u64, out: &mut [u32]) {
    let mut input = *input;
    input[12] = counter as u32;
    input[13] = (counter >> 32) as u32;
    let mut working = input;
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
    for (o, (w, inp)) in out.iter_mut().zip(working.iter().zip(input.iter())) {
        *o = w.wrapping_add(*inp);
    }
}

/// The portable tier: the blocks from `first` on into `out`, one
/// [`block`] at a time.
fn blocks_scalar(input: &[u32; 16], first: u64, out: &mut [u32]) {
    for (i, words) in out.chunks_exact_mut(16).enumerate() {
        block(input, first.wrapping_add(i as u64), words);
    }
}

#[inline(always)]
fn add_lanes<const L: usize>(a: [u32; L], b: [u32; L]) -> [u32; L] {
    std::array::from_fn(|i| a[i].wrapping_add(b[i]))
}

#[inline(always)]
fn xor_rotate_lanes<const L: usize>(a: [u32; L], b: [u32; L], r: u32) -> [u32; L] {
    std::array::from_fn(|i| (a[i] ^ b[i]).rotate_left(r))
}

/// [`quarter_round`] on all lanes at once.
#[inline(always)]
fn quarter_round_lanes<const L: usize>(
    x: &mut [[u32; L]; 16],
    a: usize,
    b: usize,
    c: usize,
    d: usize,
) {
    x[a] = add_lanes(x[a], x[b]);
    x[d] = xor_rotate_lanes(x[d], x[a], 16);
    x[c] = add_lanes(x[c], x[d]);
    x[b] = xor_rotate_lanes(x[b], x[c], 12);
    x[a] = add_lanes(x[a], x[b]);
    x[d] = xor_rotate_lanes(x[d], x[a], 8);
    x[c] = add_lanes(x[c], x[d]);
    x[b] = xor_rotate_lanes(x[b], x[c], 7);
}

/// The lane code: blocks `first .. first + L` into `out` (`16 · L`
/// words, block by block), lane `i` computing block `first + i`. Inlined
/// into each `#[target_feature]` tier, which gives it its codegen.
#[inline(always)]
fn blocks_lanes<const L: usize>(input: &[u32; 16], first: u64, out: &mut [u32]) {
    let mut x: [[u32; L]; 16] = std::array::from_fn(|j| [input[j]; L]);
    let counters: [u64; L] = std::array::from_fn(|i| first.wrapping_add(i as u64));
    x[12] = counters.map(|c| c as u32);
    x[13] = counters.map(|c| (c >> 32) as u32);
    let init = x;
    for _ in 0..4 {
        quarter_round_lanes(&mut x, 0, 4, 8, 12);
        quarter_round_lanes(&mut x, 1, 5, 9, 13);
        quarter_round_lanes(&mut x, 2, 6, 10, 14);
        quarter_round_lanes(&mut x, 3, 7, 11, 15);
        quarter_round_lanes(&mut x, 0, 5, 10, 15);
        quarter_round_lanes(&mut x, 1, 6, 11, 12);
        quarter_round_lanes(&mut x, 2, 7, 8, 13);
        quarter_round_lanes(&mut x, 3, 4, 9, 14);
    }
    for (i, words) in out.chunks_exact_mut(16).enumerate() {
        for (j, w) in words.iter_mut().enumerate() {
            *w = x[j][i].wrapping_add(init[j][i]);
        }
    }
}

/// The wide tiers. Each `#[target_feature]` function is reached only
/// through its `refill_*` wrapper, which checks that the CPU has the
/// feature first: the one `unsafe` of this crate.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{blocks_lanes, BUF_WORDS};

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn blocks_avx512(input: &[u32; 16], first: u64, out: &mut [u32; BUF_WORDS]) {
        blocks_lanes::<16>(input, first, out);
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn blocks_avx2(input: &[u32; 16], first: u64, out: &mut [u32; BUF_WORDS]) {
        let (low, high) = out.split_at_mut(BUF_WORDS / 2);
        blocks_lanes::<8>(input, first, low);
        blocks_lanes::<8>(input, first.wrapping_add(8), high);
    }

    /// The AVX-512 tier: fills `out` with the blocks from `first` on and
    /// returns true, or touches nothing and returns false on a CPU
    /// without AVX-512F.
    pub(super) fn refill_avx512(input: &[u32; 16], first: u64, out: &mut [u32; BUF_WORDS]) -> bool {
        if !is_x86_feature_detected!("avx512f") {
            return false;
        }
        // SAFETY: the CPU supports AVX-512F, checked above.
        unsafe { blocks_avx512(input, first, out) };
        true
    }

    /// The AVX2 tier, as [`refill_avx512`].
    pub(super) fn refill_avx2(input: &[u32; 16], first: u64, out: &mut [u32; BUF_WORDS]) -> bool {
        if !is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: the CPU supports AVX2, checked above.
        unsafe { blocks_avx2(input, first, out) };
        true
    }
}

/// Fills `out` with the [`BUF_BLOCKS`] blocks from `first` on, on the
/// widest tier the CPU has.
fn refill_blocks(input: &[u32; 16], first: u64, out: &mut [u32; BUF_WORDS]) {
    #[cfg(target_arch = "x86_64")]
    if x86::refill_avx512(input, first, out) || x86::refill_avx2(input, first, out) {
        return;
    }
    blocks_scalar(input, first, out);
}

/// A ChaCha stream cipher RNG with 8 rounds.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    /// Input block: constants, 8 key words, the counter words (set per
    /// block by the refill), 2 nonce words.
    input: [u32; 16],
    /// Keystream blocks `start .. start + BUF_BLOCKS`.
    buf: [u32; BUF_WORDS],
    /// The block `buf` starts at. An empty buffer starts `BUF_BLOCKS`
    /// blocks before the next one to compute, so that the position
    /// `16 · start + index` holds whether `buf` is filled or not.
    start: u64,
    /// Next word index into `buf`; `BUF_WORDS` means "refill".
    index: usize,
}

impl ChaCha8Rng {
    /// Computes the next [`BUF_BLOCKS`] blocks into the buffer.
    fn refill(&mut self) {
        self.start = self.start.wrapping_add(BUF_BLOCKS as u64);
        refill_blocks(&self.input, self.start, &mut self.buf);
        self.index = 0;
    }

    /// Position in the keystream, in 32-bit words: how many words have
    /// been drawn since the stream's start (upstream `get_word_pos`).
    pub fn get_word_pos(&self) -> u128 {
        (u128::from(self.start) * 16 + self.index as u128) & WORD_POS_MASK
    }

    /// Seeks to keystream word `word_offset` (upstream `set_word_pos`):
    /// the next draw returns the word a fresh generator with this seed
    /// would return after `word_offset` draws. The block counter is 64
    /// bits, so offsets wrap at 2^68 words.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        let word_offset = word_offset & WORD_POS_MASK;
        let block = (word_offset / 16) as u64;
        self.start = block.wrapping_sub(BUF_BLOCKS as u64);
        self.index = BUF_WORDS;
        let within = (word_offset % 16) as usize;
        if within != 0 {
            self.refill();
            self.index = within;
        }
    }

    /// Fills `dest` with the keystream's next words: what as many
    /// [`RngCore::next_u32`] calls would return, copied out of the buffer a
    /// refill at a time.
    pub fn fill_u32(&mut self, dest: &mut [u32]) {
        let mut done = 0;
        while done < dest.len() {
            if self.index == BUF_WORDS {
                self.refill();
            }
            let k = (BUF_WORDS - self.index).min(dest.len() - done);
            dest[done..done + k].copy_from_slice(&self.buf[self.index..self.index + k]);
            self.index += k;
            done += k;
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
        // nonce = 0 (words 14, 15); the stream starts at block 0.
        ChaCha8Rng {
            input,
            buf: [0; BUF_WORDS],
            start: 0u64.wrapping_sub(BUF_BLOCKS as u64),
            index: BUF_WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index == BUF_WORDS {
            self.refill();
        }
        let w = self.buf[self.index];
        self.index += 1;
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

    /// The first 32 words of seeds 0 and 42, and four words across the
    /// carry from block 2^32 − 1 into block 2^32 of seed 7, as the
    /// one-block-at-a-time generator drew them before the wide refill: a
    /// change to the stream, on any tier, fails here.
    #[test]
    fn known_answers() {
        const SEED_0: [u32; 32] = [
            0x2d8ee5e8, 0xbf94d133, 0xa6da5a01, 0x3a738775, 0xc143ee06, 0x3d46ff10, 0xe9f6424f,
            0x17c6ab23, 0x2fb6898b, 0x5ce2479b, 0x86bff662, 0x0ae8099f, 0xc72f90bd, 0x5f2f09fd,
            0x28e5a01f, 0x95d53efa, 0x94efaf48, 0x1131e62b, 0x17d7a4e4, 0x9eec7e55, 0xcd4c18d1,
            0xe553e127, 0x3505e613, 0xb9d551f1, 0xd28d82a2, 0x0a1ffcc2, 0xf64a441d, 0xfc9216ba,
            0x4b017931, 0xb3c61fd5, 0x23eb502b, 0xe857b19d,
        ];
        const SEED_42: [u32; 32] = [
            0x87c91afc, 0x31159ef9, 0xb4169001, 0x17559844, 0x9ad9a69f, 0xf7d0afbf, 0xfd37495a,
            0xb9207ad5, 0x61329c11, 0x072db0db, 0xeca26593, 0x4051bc3b, 0xcc4703b6, 0xbfaab970,
            0x8f89d223, 0xaff5425d, 0x6b947e05, 0xf6875512, 0x953f9601, 0x26706e48, 0x6a9f2b2f,
            0x54ff14b5, 0x150e06ce, 0x9cf9c5f7, 0x8e1d738c, 0xe3507e34, 0x4c28e1a6, 0xc89c0205,
            0x38520378, 0xb51fdc8f, 0xb1c896b5, 0x6384b6fe,
        ];
        const CARRY_7: [u32; 4] = [0xc2dfbb9e, 0x48452e2d, 0xb0f899c2, 0xa9073a23];
        for (seed, want) in [(0, &SEED_0), (42, &SEED_42)] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let got: Vec<u32> = (0..32).map(|_| rng.next_u32()).collect();
            assert_eq!(got, want, "seed {seed}");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        rng.set_word_pos(((1u128 << 32) - 1) * 16 + 14);
        let mut got = [0; 4];
        rng.fill_u32(&mut got);
        assert_eq!(got, CARRY_7);
    }

    /// [`block`] as an array.
    fn block_words(input: &[u32; 16], counter: u64) -> [u32; 16] {
        let mut out = [0; 16];
        block(input, counter, &mut out);
        out
    }

    /// Key words of the generator `seed` expands to.
    fn input(seed: u64) -> [u32; 16] {
        ChaCha8Rng::seed_from_u64(seed).input
    }

    /// A refill tier: false if the CPU lacks it.
    type Refill = fn(&[u32; 16], u64, &mut [u32; BUF_WORDS]) -> bool;

    /// Every refill tier, by name: the portable one, and the wide ones,
    /// which decline on a CPU without their feature.
    fn tiers() -> Vec<(&'static str, Refill)> {
        let mut tiers: Vec<(&str, Refill)> = vec![("portable", |input, first, out| {
            blocks_scalar(input, first, out);
            true
        })];
        #[cfg(target_arch = "x86_64")]
        {
            tiers.push(("avx2", x86::refill_avx2));
            tiers.push(("avx512", x86::refill_avx512));
        }
        tiers
    }

    /// First blocks that cross the 32-bit carry of the block counter
    /// (words 12 → 13) or the 64-bit wrap, anywhere in a refill's lanes.
    const CARRY_BLOCKS: [u64; 4] = [
        (1 << 32) - 1,
        (1 << 32) - 9,
        (1 << 32) - BUF_BLOCKS as u64,
        u64::MAX - 3,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_every_tier_equals_the_block_function(
            seed in 0u64..u64::MAX,
            first in 0u64..u64::MAX,
            carry in 0usize..CARRY_BLOCKS.len() + 2,
        ) {
            // A few cases start where the counter carries instead.
            let first = CARRY_BLOCKS.get(carry).copied().unwrap_or(first);
            let input = input(seed);
            let want: Vec<u32> = (0..BUF_BLOCKS as u64)
                .flat_map(|i| block_words(&input, first.wrapping_add(i)))
                .collect();
            let mut ran = 0;
            for (name, refill) in tiers() {
                let mut out = [0; BUF_WORDS];
                if refill(&input, first, &mut out) {
                    ran += 1;
                    prop_assert_eq!(&out[..], &want[..], "tier {} first block {}", name, first);
                }
            }
            prop_assert!(ran >= 1);
        }

        #[test]
        fn prop_seeks_and_clones_read_the_block_function(
            seed in 0u64..u64::MAX,
            block_pos in 0u64..1 << 40,
            within in 0u64..3 * BUF_WORDS as u64,
            carry in 0usize..CARRY_BLOCKS.len() + 2,
            drawn in 0usize..2 * BUF_WORDS,
            len in 0usize..3 * BUF_WORDS,
        ) {
            // Positions across word, block and refill boundaries, the
            // counter carries included.
            let block_pos = CARRY_BLOCKS.get(carry).copied().unwrap_or(block_pos);
            let pos = (u128::from(block_pos) * 16 + u128::from(within)) & WORD_POS_MASK;
            let key = input(seed);
            let word = |p: u128| {
                let p = p & WORD_POS_MASK;
                block_words(&key, (p / 16) as u64)[(p % 16) as usize]
            };
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.set_word_pos(pos);
            prop_assert_eq!(rng.get_word_pos(), pos);
            // Draw a while, then clone: the clone continues where the
            // original is, and seeking it back re-reads the same words.
            for i in 0..drawn {
                prop_assert_eq!(rng.next_u32(), word(pos + i as u128), "word {}", i);
            }
            let here = (pos + drawn as u128) & WORD_POS_MASK;
            let mut clone = rng.clone();
            prop_assert_eq!(clone.get_word_pos(), here);
            let mut bulk = vec![0; len];
            clone.fill_u32(&mut bulk);
            let want: Vec<u32> = (0..len).map(|i| word(here + i as u128)).collect();
            prop_assert_eq!(&bulk, &want);
            prop_assert_eq!(clone.get_word_pos(), (here + len as u128) & WORD_POS_MASK);
            clone.set_word_pos(pos);
            for i in 0..drawn.min(len) {
                prop_assert_eq!(clone.next_u32(), word(pos + i as u128), "re-read {}", i);
            }
            prop_assert_eq!(rng.next_u32(), word(here));
        }
    }
}
