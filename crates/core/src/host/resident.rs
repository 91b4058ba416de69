//! Conventional (fully resident) trainer — the reference implementation the
//! offloaded pipeline is checked against, written independently over the
//! whole-model convenience API.
//!
//! [`HostResidentTrainer`] *is* the shared [`Engine`] over a
//! [`ResidentBackend`]; only the placement mechanism (everything in one
//! in-memory model, optimizer applied inline) and the model-building
//! constructors live here.

use bytes::Bytes;
use stronghold_collective::order::{fold_with, tree_sum, FoldPlan};
use stronghold_model::config::ModelConfig;
use stronghold_model::transformer::{Transformer, TransformerGrads};
use stronghold_tensor::Precision;

use crate::adam::{AdamParams, AdamState};
use crate::error::RuntimeError;
use crate::host::engine::{
    Engine, EngineOptions, GradSink, ParamBackend, ResidentParamsMut, StepPlan, StepWorkspace,
    TrainingState,
};
use crate::optimpool::block_sum_sq;
use crate::telemetry::Telemetry;

/// The in-memory placement backend: the whole model lives in one
/// [`Transformer`] and block updates are applied synchronously on the
/// calling thread.
pub struct ResidentBackend {
    model: Transformer,
    block_adams: Vec<AdamState>,
    /// Reused flat staging of the per-block Adam step: parameters and
    /// gradient.
    flat_stage: [Vec<f32>; 2],
    /// Canonical-tree merge schedule for the batch fan-in.
    fold_plan: FoldPlan,
    /// Reusable partial accumulators for the tree fold (≈ log₂ batch). The
    /// root, `fold_slots[0]`, holds the step's block gradients until
    /// [`ParamBackend::release_held`].
    fold_slots: Vec<TransformerGrads>,
    /// Reusable per-sample raw loss buffer for the loss tree.
    loss_buf: Vec<f32>,
    tel: Telemetry,
}

impl ResidentBackend {
    fn from_model(model: Transformer, block_adams: Vec<AdamState>) -> Self {
        ResidentBackend {
            model,
            block_adams,
            flat_stage: [Vec::new(), Vec::new()],
            fold_plan: FoldPlan::default(),
            fold_slots: Vec::new(),
            loss_buf: Vec::new(),
            tel: Telemetry::disabled(),
        }
    }

    /// The model.
    pub fn model(&self) -> &Transformer {
        &self.model
    }
}

impl ParamBackend for ResidentBackend {
    fn config(&self) -> ModelConfig {
        self.model.cfg
    }

    fn num_blocks(&self) -> usize {
        self.model.blocks.len()
    }

    fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    fn new_resident_grads(&self) -> TransformerGrads {
        // The resident groups only: the block gradients stay in the fold
        // root.
        TransformerGrads {
            blocks: Vec::new(),
            ..self.model.zero_grads()
        }
    }

    /// The fused whole-model pass runs forward *and* backward per sample,
    /// and always holds its block gradients ([`StepPlan::hold`] is
    /// ignored): with everything in memory [`ParamBackend::release_held`]
    /// *is* the inline update, and leaving it there keeps this trainer the
    /// reference the overlapped pipelines are checked against.
    fn forward_backward(
        &mut self,
        batch: &[(Vec<u32>, Vec<u32>)],
        ws: &mut StepWorkspace,
        plan: &StepPlan,
        _sink: &std::sync::Arc<dyn GradSink>,
    ) -> f32 {
        let b = batch.len();
        // Per-sample gradients and losses fold down the canonical pairwise
        // tree (see `stronghold_collective::order`): leaf `i` is sample
        // `i`'s gradient written scaled into its slot — the block leaf the
        // windowed backend runs too — and merges are plain adds.
        // Sharding the batch across replicas and tree-folding the shard
        // partials reproduces exactly this value, which is what makes
        // data-parallel training bit-identical to this reference.
        let scale = 1.0 / b as f32;
        self.fold_plan.set_len(b);
        while self.fold_slots.len() < self.fold_plan.depth() {
            self.fold_slots.push(self.model.zero_grads());
        }
        self.loss_buf.clear();
        self.loss_buf.resize(b, 0.0);
        {
            let ResidentBackend {
                model,
                fold_plan,
                fold_slots,
                loss_buf,
                ..
            } = self;
            fold_with(
                fold_plan,
                fold_slots,
                |i, slot| {
                    let (tokens, targets) = &batch[i];
                    loss_buf[i] = model.forward_backward_leaf(tokens, targets, slot, scale);
                },
                |acc, part| acc.accumulate_scaled(part, 1.0),
            );
        }
        // The resident groups go to the engine; the block gradients stay
        // in the fold root.
        let (rg, root) = (&mut ws.resident_grads, &mut self.fold_slots[0]);
        std::mem::swap(&mut rg.embedding, &mut root.embedding);
        std::mem::swap(&mut rg.lnf_g, &mut root.lnf_g);
        std::mem::swap(&mut rg.lnf_b, &mut root.lnf_b);
        if plan.want_norm {
            let parts = ws.norm_partials.iter_mut().zip(&self.model.blocks);
            for ((part, block), g) in parts.zip(&root.blocks) {
                *part = block_sum_sq(g, block.param_count(), Precision::F32);
            }
        }
        tree_sum(&self.loss_buf) / b as f32
    }

    fn release_held(&mut self, scale: f32, hp: &AdamParams) {
        let [params, grads] = &mut self.flat_stage;
        for (i, g) in self.fold_slots[0].blocks.iter().enumerate() {
            g.flatten_into(grads);
            if scale != 1.0 {
                grads.iter_mut().for_each(|x| *x *= scale);
            }
            let block = &mut self.model.blocks[i];
            block.flatten_params_into(params);
            self.block_adams[i].step(params, grads, hp);
            block.load_flat_params(params);
        }
    }

    fn resident_params_mut(&mut self) -> ResidentParamsMut<'_> {
        ResidentParamsMut {
            token: self.model.embedding.token.data_mut(),
            position: self.model.embedding.position.data_mut(),
            lnf_g: self.model.lnf_g.data_mut(),
            lnf_b: self.model.lnf_b.data_mut(),
        }
    }

    fn eval_loss(&self, batch: &[(Vec<u32>, Vec<u32>)]) -> f32 {
        let losses: Vec<f32> = batch
            .iter()
            .map(|(t, y)| self.model.forward_loss(t, y))
            .collect();
        tree_sum(&losses) / batch.len() as f32
    }

    fn model_blob(&self) -> Bytes {
        stronghold_model::serialize::save(&self.model)
    }

    fn block_adam_snapshot(&self, layer: usize) -> AdamState {
        self.block_adams[layer].clone()
    }

    fn block_params(&self, layer: usize) -> Vec<f32> {
        self.model.blocks[layer].flatten_params()
    }
}

/// A plain trainer holding the entire model in memory: the shared
/// [`Engine`] over a [`ResidentBackend`].
pub type HostResidentTrainer = Engine<ResidentBackend>;

impl Engine<ResidentBackend> {
    /// Builds the model with deterministic init from `seed`.
    pub fn new(cfg: ModelConfig, seed: u64, hp: AdamParams) -> Self {
        Self::with_options(
            cfg,
            seed,
            EngineOptions {
                adam: hp,
                ..EngineOptions::default()
            },
        )
    }

    /// [`HostResidentTrainer::new`] with full engine options (LR schedule,
    /// gradient clipping).
    pub fn with_options(cfg: ModelConfig, seed: u64, opts: EngineOptions) -> Self {
        let model = Transformer::new(cfg, seed);
        let block_adams = model
            .blocks
            .iter()
            .map(|b| AdamState::new(b.param_count()))
            .collect();
        Engine::from_backend(ResidentBackend::from_model(model, block_adams), opts)
    }

    /// Restores a trainer from [`Engine::save_training_state`] output.
    /// `cfg` guards against resuming with the wrong model shape; any
    /// malformed blob yields a typed [`RuntimeError::Checkpoint`].
    pub fn load_training_state(
        blob: Bytes,
        cfg: ModelConfig,
        opts: EngineOptions,
    ) -> Result<Self, RuntimeError> {
        let st = TrainingState::decode(blob)?;
        st.expect_config(&cfg)?;
        let TrainingState {
            step,
            model,
            block_adams,
            resident_adams,
            ..
        } = st;
        let backend = ResidentBackend::from_model(model, block_adams);
        Ok(Engine::resume(backend, opts, step, resident_adams))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_model::config::tiny;
    use stronghold_model::data::SyntheticCorpus;

    #[test]
    fn loss_decreases_over_steps() {
        let cfg = tiny(2);
        let mut t = HostResidentTrainer::new(
            cfg,
            7,
            AdamParams {
                lr: 5e-3,
                ..AdamParams::default()
            },
        );
        let mut corpus = SyntheticCorpus::new(cfg.vocab, 11);
        let batch = corpus.next_batch(cfg.batch, cfg.seq - 1);
        let initial = t.eval_loss(&batch);
        for _ in 0..25 {
            t.train_step(&batch);
        }
        let fin = t.eval_loss(&batch);
        assert!(fin < initial * 0.8, "loss {initial} -> {fin}");
    }

    #[test]
    fn save_load_resume_is_bit_exact() {
        // Train 6 steps straight vs train 3 + checkpoint + restore + 3:
        // identical parameters, because Adam state travels too.
        let cfg = tiny(3);
        let hp = AdamParams::default();
        let mut corpus = SyntheticCorpus::new(cfg.vocab, 33);
        let batch = corpus.next_batch(2, 12);

        let mut straight = HostResidentTrainer::new(cfg, 5, hp);
        for _ in 0..6 {
            straight.train_step(&batch);
        }

        let mut first = HostResidentTrainer::new(cfg, 5, hp);
        for _ in 0..3 {
            first.train_step(&batch);
        }
        let blob = first.save_training_state();
        let opts = EngineOptions {
            adam: hp,
            ..EngineOptions::default()
        };
        let mut resumed = HostResidentTrainer::load_training_state(blob, cfg, opts).unwrap();
        assert_eq!(resumed.steps(), 3);
        for _ in 0..3 {
            resumed.train_step(&batch);
        }
        for i in 0..cfg.layers {
            assert_eq!(
                straight.block_params(i),
                resumed.block_params(i),
                "block {i}"
            );
        }
        assert_eq!(
            straight.model().embedding.token,
            resumed.model().embedding.token
        );
    }

    #[test]
    fn corrupt_training_state_rejected() {
        let cfg = tiny(1);
        let t = HostResidentTrainer::new(cfg, 1, AdamParams::default());
        let mut raw = t.save_training_state().to_vec();
        raw.extend_from_slice(&[0u8; 4]);
        let err = HostResidentTrainer::load_training_state(
            bytes::Bytes::from(raw),
            cfg,
            EngineOptions::default(),
        )
        .err()
        .expect("must fail");
        assert!(
            matches!(err, RuntimeError::Checkpoint(ref m) if m.contains("trailing")),
            "{err}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let cfg = tiny(2);
        let run = || {
            let mut t = HostResidentTrainer::new(cfg, 3, AdamParams::default());
            let mut corpus = SyntheticCorpus::new(cfg.vocab, 5);
            let batch = corpus.next_batch(2, 12);
            for _ in 0..3 {
                t.train_step(&batch);
            }
            t.block_params(0)
        };
        assert_eq!(run(), run());
    }
}
