//! Token + positional embedding with scatter-add backward.

use rand_chacha::ChaCha8Rng;

use crate::init;
use crate::scratch;
use crate::tensor::Tensor;

/// Token and learned positional embedding table.
#[derive(Clone, Debug)]
pub struct Embedding {
    /// Token embedding `[vocab, hidden]`.
    pub token: Tensor,
    /// Positional embedding `[max_seq, hidden]`.
    pub position: Tensor,
}

/// Gradients of an [`Embedding`].
#[derive(Clone, Debug)]
pub struct EmbeddingGrads {
    /// Token table gradient.
    pub token: Tensor,
    /// Position table gradient.
    pub position: Tensor,
}

impl Embedding {
    /// Creates an embedding for `vocab` tokens, sequences up to `max_seq`,
    /// hidden size `hidden`.
    pub fn new(vocab: usize, max_seq: usize, hidden: usize, rng: &mut ChaCha8Rng) -> Self {
        Embedding {
            token: init::gpt2_normal([vocab, hidden], rng),
            position: init::gpt2_normal([max_seq, hidden], rng),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.token.shape().dim(0)
    }

    /// Hidden size.
    pub fn hidden(&self) -> usize {
        self.token.shape().dim(1)
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.token.numel() + self.position.numel()
    }

    /// Embeds a token sequence: `tokens: [T] -> [T, H]`, into a tensor
    /// rented from this thread's [`scratch`] pool (the step loops give it
    /// back once the first block has consumed it).
    ///
    /// # Panics
    /// Panics if any token id is out of vocabulary or `T` exceeds the
    /// positional table.
    pub fn forward(&self, tokens: &[u32]) -> Tensor {
        let h = self.hidden();
        let t = tokens.len();
        assert!(
            t <= self.position.shape().dim(0),
            "sequence longer than positional table"
        );
        // Every row is overwritten below.
        let mut out = scratch::take([t, h]);
        for (i, &tok) in tokens.iter().enumerate() {
            let tok = tok as usize;
            assert!(
                tok < self.vocab(),
                "token {tok} out of vocab {}",
                self.vocab()
            );
            let te = &self.token.data()[tok * h..(tok + 1) * h];
            let pe = &self.position.data()[i * h..(i + 1) * h];
            let row = &mut out.data_mut()[i * h..(i + 1) * h];
            for ((r, a), b) in row.iter_mut().zip(te.iter()).zip(pe.iter()) {
                *r = a + b;
            }
        }
        out
    }

    /// Embeds a token run starting at absolute position `pos0` into a
    /// reusable output: row `i` is `token[tokens[i]] + position[pos0 + i]`.
    /// The serving decode path feeds mid-sequence token runs (a single
    /// decoded token, or a freshly admitted prompt) whose positions don't
    /// start at zero.
    ///
    /// # Panics
    /// Panics if any token id is out of vocabulary or `pos0 + T` exceeds
    /// the positional table.
    pub fn forward_at_into(&self, tokens: &[u32], pos0: usize, out: &mut Tensor) {
        out.reset_for([tokens.len(), self.hidden()]);
        self.forward_at_rows(tokens, pos0, out.data_mut());
    }

    /// [`Embedding::forward_at_into`] writing the `[T, H]` rows into a raw
    /// row-major slice — the serving round embeds every sequence's run
    /// straight into its row range of one stacked activation.
    ///
    /// # Panics
    /// As [`Embedding::forward_at_into`], or if `rows.len() != T · H`.
    pub fn forward_at_rows(&self, tokens: &[u32], pos0: usize, rows: &mut [f32]) {
        let h = self.hidden();
        assert!(
            pos0 + tokens.len() <= self.position.shape().dim(0),
            "sequence longer than positional table"
        );
        assert_eq!(rows.len(), tokens.len() * h, "forward_at_rows: output rows");
        for (i, (&tok, row)) in tokens.iter().zip(rows.chunks_exact_mut(h)).enumerate() {
            let tok = tok as usize;
            assert!(
                tok < self.vocab(),
                "token {tok} out of vocab {}",
                self.vocab()
            );
            let te = &self.token.data()[tok * h..(tok + 1) * h];
            let pe = &self.position.data()[(pos0 + i) * h..(pos0 + i + 1) * h];
            for ((r, a), b) in row.iter_mut().zip(te.iter()).zip(pe.iter()) {
                *r = a + b;
            }
        }
    }

    /// Backward: scatter-adds `dy [T, H]` into the token/position tables.
    pub fn backward(&self, dy: &Tensor, tokens: &[u32], grads: &mut EmbeddingGrads) {
        let h = self.hidden();
        for (i, &tok) in tokens.iter().enumerate() {
            let tok = tok as usize;
            let dyr = &dy.data()[i * h..(i + 1) * h];
            let tg = &mut grads.token.data_mut()[tok * h..(tok + 1) * h];
            for (g, d) in tg.iter_mut().zip(dyr.iter()) {
                *g += d;
            }
            let pg = &mut grads.position.data_mut()[i * h..(i + 1) * h];
            for (g, d) in pg.iter_mut().zip(dyr.iter()) {
                *g += d;
            }
        }
    }

    /// Allocates zeroed gradients.
    pub fn zero_grads(&self) -> EmbeddingGrads {
        EmbeddingGrads {
            token: Tensor::zeros(*self.token.shape()),
            position: Tensor::zeros(*self.position.shape()),
        }
    }
}

impl EmbeddingGrads {
    /// Resets gradients to zero.
    pub fn zero_(&mut self) {
        self.token.zero_();
        self.position.zero_();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn forward_is_token_plus_position() {
        let emb = Embedding::new(10, 4, 3, &mut seeded_rng(50));
        let y = emb.forward(&[2, 7]);
        for j in 0..3 {
            assert_eq!(
                y.at(&[0, j]),
                emb.token.at(&[2, j]) + emb.position.at(&[0, j])
            );
            assert_eq!(
                y.at(&[1, j]),
                emb.token.at(&[7, j]) + emb.position.at(&[1, j])
            );
        }
    }

    #[test]
    fn backward_scatter_adds() {
        let emb = Embedding::new(6, 4, 2, &mut seeded_rng(51));
        let mut grads = emb.zero_grads();
        let dy = Tensor::from_vec([3, 2], vec![1., 2., 3., 4., 5., 6.]);
        // Token 1 appears at positions 0 and 2.
        emb.backward(&dy, &[1, 4, 1], &mut grads);
        assert_eq!(grads.token.at(&[1, 0]), 1.0 + 5.0);
        assert_eq!(grads.token.at(&[1, 1]), 2.0 + 6.0);
        assert_eq!(grads.token.at(&[4, 0]), 3.0);
        assert_eq!(grads.position.at(&[2, 1]), 6.0);
        assert_eq!(grads.position.at(&[3, 0]), 0.0);
    }

    #[test]
    fn forward_at_matches_offset_rows() {
        let emb = Embedding::new(10, 6, 3, &mut seeded_rng(53));
        let full = emb.forward(&[2, 7, 1, 4]);
        let mut out = Tensor::zeros([1]);
        emb.forward_at_into(&[1, 4], 2, &mut out);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(out.at(&[i, j]).to_bits(), full.at(&[2 + i, j]).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "longer than positional table")]
    fn forward_at_rejects_position_overflow() {
        let emb = Embedding::new(4, 4, 2, &mut seeded_rng(54));
        let mut out = Tensor::zeros([1]);
        emb.forward_at_into(&[1, 2], 3, &mut out);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn oov_panics() {
        let emb = Embedding::new(4, 4, 2, &mut seeded_rng(52));
        let _ = emb.forward(&[9]);
    }
}
