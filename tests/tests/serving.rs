//! The serving engine end-to-end: continuous batching on the windowed
//! offload runtime must serve a trained checkpoint with token streams that
//! are (a) bit-identical to the fully-resident static-batching reference,
//! (b) invariant to every scheduling knob — window size, slot count,
//! arrival interleaving — and (c) still correct when the
//! model's parameter bytes exceed the device arena.

use stronghold_baselines::{StaticBatchConfig, StaticBatchGenerator};
use stronghold_core::adam::AdamParams;
use stronghold_core::host::{HostOffloadConfig, HostOffloadTrainer, TrainingState};
use stronghold_core::serve::{GenRequest, GenResult, ServeConfig, ServeEngine};
use stronghold_core::telemetry::Telemetry;
use stronghold_integration_tests::batch_for;
use stronghold_model::block::BlockDecodeScratch;
use stronghold_model::config::tiny;
use stronghold_model::transformer::{HeadDecodeScratch, Transformer};
use stronghold_tensor::attention::KvCache;
use stronghold_tensor::{Precision, Tensor};

/// A trained SHTS blob: the serving entry point every engine under test
/// shares, so stream differences can only come from the engine itself.
fn trained_blob() -> (bytes::Bytes, stronghold_model::config::ModelConfig) {
    let cfg = tiny(3);
    let batch = batch_for(&cfg, 77);
    let mut t = HostOffloadTrainer::new(
        cfg,
        11,
        HostOffloadConfig {
            window: 2,
            optimizer_workers: 2,
            adam: AdamParams {
                lr: 1e-3,
                ..AdamParams::default()
            },
            ..HostOffloadConfig::default()
        },
    );
    for _ in 0..3 {
        t.train_step(&batch);
    }
    (t.save_training_state(), cfg)
}

fn workload() -> Vec<GenRequest> {
    let lens = [(2usize, 6usize), (5, 3), (3, 5), (4, 4), (2, 4)];
    lens.iter()
        .enumerate()
        .map(|(i, &(p, n))| GenRequest {
            id: i as u64,
            prompt: (0..p as u32)
                .map(|t| (t * 11 + 3 * i as u32) % 64)
                .collect(),
            max_new_tokens: n,
            seed: 500 + i as u64,
        })
        .collect()
}

fn by_id(mut rs: Vec<GenResult>) -> Vec<GenResult> {
    rs.sort_by_key(|r| r.id);
    rs
}

/// Prefill and token-at-a-time decode must be *bit-identical* through the
/// whole model stack (embedding → blocks → final LN → tied head): the
/// batch-stable GEMM entries make every product's bits independent of how
/// many rows ride in the run.
#[test]
fn prefill_and_decode_logits_are_bit_identical() {
    let cfg = tiny(3);
    let model = Transformer::new(cfg, 21);
    let prompt: Vec<u32> = (0..7u32).map(|t| (t * 13 + 5) % 64).collect();
    let dh = cfg.hidden / cfg.heads;

    let run = |chunks: &[&[u32]]| -> Vec<f32> {
        let mut kv: Vec<KvCache> = (0..cfg.layers)
            .map(|_| KvCache::new(cfg.heads, dh, cfg.seq))
            .collect();
        let mut ws = BlockDecodeScratch::new();
        let mut head_ws = HeadDecodeScratch::new();
        let mut x = Tensor::zeros([1]);
        let mut y = Tensor::zeros([1]);
        let mut logits = Tensor::zeros([1]);
        let mut pos = 0;
        for chunk in chunks {
            model.embed_at_into(chunk, pos, &mut x);
            for (i, cache) in kv.iter_mut().enumerate() {
                model.block_forward_decode(i, &x, cache, &mut ws, &mut y);
                std::mem::swap(&mut x, &mut y);
            }
            pos += chunk.len();
        }
        model.lm_logits_last_into(&x, &mut head_ws, &mut logits);
        logits.data().to_vec()
    };

    let full = run(&[&prompt]);
    let singles: Vec<&[u32]> = prompt.chunks(1).collect();
    let token_at_a_time = run(&singles);
    let split = run(&[&prompt[..3], &prompt[3..]]);
    assert_eq!(
        full, token_at_a_time,
        "prefill vs decode logits must match bitwise"
    );
    assert_eq!(full, split, "mid-sequence prefill must not change the bits");
}

/// The determinism matrix: one trained blob, one workload, every
/// scheduling shape — window sizes, slot counts, staggered arrivals —
/// must emit byte-identical per-request token streams within a
/// precision. (Bf16 streams differ from F32 streams — the device grid is
/// coarser — but are equally schedule-invariant.)
#[test]
fn token_streams_are_invariant_to_scheduling_shape() {
    let (blob, _cfg) = trained_blob();
    for precision in [Precision::F32, Precision::Bf16] {
        let mk = |serve: ServeConfig| {
            ServeEngine::from_state_blob(blob.clone(), serve, Telemetry::disabled()).unwrap()
        };
        let base_cfg = ServeConfig {
            precision,
            ..ServeConfig::default()
        };
        let baseline = by_id(mk(base_cfg.clone()).generate(workload()));
        assert_eq!(baseline.len(), 5);

        let shapes = [
            ServeConfig {
                window: 1,
                ..base_cfg.clone()
            },
            ServeConfig {
                window: 3,
                slots: 1,
                ..base_cfg.clone()
            },
            ServeConfig {
                slots: 3,
                ..base_cfg.clone()
            },
        ];
        for (si, cfg) in shapes.into_iter().enumerate() {
            let got = by_id(mk(cfg).generate(workload()));
            for (a, b) in baseline.iter().zip(got.iter()) {
                assert_eq!(
                    a.tokens, b.tokens,
                    "{precision:?} shape {si}: req {} stream changed with the schedule",
                    a.id
                );
            }
        }

        // Staggered arrivals: half the workload lands mid-flight.
        let mut eng = mk(base_cfg);
        let reqs = workload();
        let (first, rest) = reqs.split_at(2);
        for r in first {
            eng.submit(r.clone());
        }
        let mut got = Vec::new();
        got.extend(eng.step());
        for r in rest {
            eng.submit(r.clone());
        }
        while eng.active_slots() > 0 || eng.queue_depth() > 0 {
            got.extend(eng.step());
        }
        let got = by_id(got);
        for (a, b) in baseline.iter().zip(got.iter()) {
            assert_eq!(
                a.tokens, b.tokens,
                "{precision:?}: req {} stream changed with arrival timing",
                a.id
            );
        }
    }
}

/// The headline claim: a model whose FP32 parameter bytes exceed the
/// device arena serves end-to-end via layer streaming, never exceeding the
/// budget — and emits the same streams as an unconstrained engine.
#[test]
fn serves_a_model_larger_than_the_device_arena() {
    let (blob, _cfg) = trained_blob();
    let tel = Telemetry::enabled();
    let mut roomy =
        ServeEngine::from_state_blob(blob.clone(), ServeConfig::default(), Telemetry::disabled())
            .unwrap();
    let want = by_id(roomy.generate(workload()));

    // Budget for the KV arena plus two parameter slots: window clamps to 1
    // and only a third of the model is ever device-resident.
    let kv = roomy.kv_arena_bytes();
    let bb = roomy.block_bytes();
    let cap = kv + 2 * bb + bb / 2;
    let mut tight = ServeEngine::from_state_blob(
        blob,
        ServeConfig {
            window: 3,
            device_capacity: Some(cap),
            ..ServeConfig::default()
        },
        tel.clone(),
    )
    .unwrap();
    assert!(
        tight.param_bytes() > cap,
        "the model must not fit the arena: {} <= {}",
        tight.param_bytes(),
        cap
    );
    assert_eq!(tight.window(), 1, "budget admits exactly m = 1");
    let got = by_id(tight.generate(workload()));
    assert!(
        tight.device().peak() <= cap,
        "serving blew the device budget"
    );
    for (a, b) in want.iter().zip(got.iter()) {
        assert_eq!(
            a.tokens, b.tokens,
            "req {}: streaming changed the stream",
            a.id
        );
    }

    // The engine's telemetry tells the same story.
    let tokens: u64 = want.iter().map(|r| r.tokens.len() as u64).sum();
    assert_eq!(tel.counter("serve.tokens").get(), tokens);
    assert_eq!(tel.counter("serve.completed").get(), want.len() as u64);
    assert!(tel.counter("serve.prefill_tokens").get() > 0);
    assert!(tel.counter("serve.decode_tokens").get() > 0);
}

/// Decode lengths with 6× variance: per group of four, one long request
/// convoying three short ones.
fn convoy_workload() -> Vec<GenRequest> {
    (0..8u64)
        .map(|i| GenRequest {
            id: i,
            prompt: vec![(7 * i as u32 + 1) % 64, (3 * i as u32 + 2) % 64],
            max_new_tokens: if i % 4 == 0 { 12 } else { 2 },
            seed: 900 + i,
        })
        .collect()
}

/// Continuous batching vs the fully-resident static reference on a
/// *trained* model: the schedules differ wildly, the bits must not — and on
/// a mixed long/short workload the schedules differ the way the design
/// says, counted in engine rounds rather than on a clock. `GenResult.rounds`
/// is the number of rounds a request was *active* (its own token count on
/// both engines); the convoy shows in the round its result comes back:
/// static batches drain FIFO, each holding its slots for its longest
/// member, while a continuous slot is refilled the round after it frees.
#[test]
fn continuous_and_static_agree_on_a_trained_model() {
    let (blob, _cfg) = trained_blob();
    let st = TrainingState::decode(blob.clone()).unwrap();
    let slots = StaticBatchConfig::default().slots;
    assert_eq!(slots, ServeConfig::default().slots, "equal concurrency");
    let mut stat = StaticBatchGenerator::from_model(st.model, StaticBatchConfig::default());
    let mut cont =
        ServeEngine::from_state_blob(blob, ServeConfig::default(), Telemetry::disabled()).unwrap();
    let a = by_id(stat.generate(workload()));
    let b = by_id(cont.generate(workload()));
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(
            x.tokens, y.tokens,
            "req {}: static and continuous disagree",
            x.id
        );
    }

    let reqs = convoy_workload();
    // Static: results come back in submission order, `slots` per batch.
    let stat_out = stat.generate(reqs.clone());
    let mut stat_done = Vec::new();
    let mut stat_total = 0u64;
    for batch in stat_out.chunks(slots) {
        stat_done.extend(batch.iter().map(|r| stat_total + r.rounds));
        stat_total += batch.iter().map(|r| r.rounds).max().unwrap();
    }
    // Continuous: drive the rounds by hand and note when each result lands.
    for r in &reqs {
        cont.submit(r.clone());
    }
    let mut cont_total = 0u64;
    let mut cont_out = Vec::new();
    while cont.active_slots() > 0 || cont.queue_depth() > 0 {
        cont_total += 1;
        cont_out.extend(cont.step().into_iter().map(|r| (r, cont_total)));
    }
    assert_eq!(cont_out.len(), reqs.len());
    for (c, c_done) in cont_out {
        // Request ids are their submission index.
        let (req, s, s_done) = (
            &reqs[c.id as usize],
            &stat_out[c.id as usize],
            stat_done[c.id as usize],
        );
        assert_eq!(s.tokens, c.tokens, "req {}: engines disagree", req.id);
        assert_eq!(s.rounds, c.rounds, "req {}: active rounds", req.id);
        assert!(
            c_done <= s_done,
            "req {}: continuous finished later",
            req.id
        );
        // Every short request queued behind the first batch (which holds a
        // long one) waits out padded rounds under static batching only.
        if req.max_new_tokens == 2 && req.id as usize >= slots {
            assert!(
                c_done < s_done,
                "req {}: done in round {c_done} continuous vs {s_done} static",
                req.id
            );
        }
    }
    assert!(
        cont_total < stat_total,
        "continuous took {cont_total} rounds, static {stat_total}"
    );
}

/// Bad requests are refused at the door with a typed error — before a slot
/// is taken or a round starts — and the engine keeps serving.
#[test]
fn bad_requests_are_refused_at_submission() {
    use stronghold_core::error::RuntimeError;
    let cfg = tiny(2);
    let mut eng = ServeEngine::new(cfg, 9, ServeConfig::default());
    let req = |prompt: Vec<u32>, max_new_tokens| GenRequest {
        id: 0,
        prompt,
        max_new_tokens,
        seed: 0,
    };
    for (bad, why) in [
        (req(vec![], 2), "empty prompt"),
        (req(vec![1, 2], 0), "zero tokens"),
        (req(vec![1; cfg.seq], 1), "slot capacity"),
        (req(vec![1, cfg.vocab as u32], 2), "out of vocab"),
    ] {
        match eng.try_submit(bad) {
            Err(RuntimeError::Config(msg)) => assert!(msg.contains(why), "{msg} vs {why}"),
            other => panic!("{why}: expected a Config error, got {other:?}"),
        }
    }
    assert_eq!(eng.queue_depth(), 0, "a refused request is never queued");
    let out = eng.generate(vec![req(vec![1, 2], 3)]);
    assert_eq!(out[0].tokens.len(), 3);
}

/// The request clocks say what they measure: `queue_ns` covers submission
/// to admission, `ttft_ns`/`latency_ns` start at admission, and the engine
/// records the same wait in `serve.queue_wait_ns`.
#[test]
fn queue_wait_is_reported_separately_from_service_time() {
    let tel = Telemetry::enabled();
    let mut eng = ServeEngine::from_model(
        Transformer::new(tiny(2), 9),
        ServeConfig {
            slots: 1,
            ..ServeConfig::default()
        },
        tel.clone(),
    );
    let mut reqs = workload();
    reqs.truncate(2);
    let out = by_id(eng.generate(reqs));
    // One slot: the second request waits out the first one's whole service.
    assert!(out[0].queue_ns < out[0].latency_ns);
    assert!(
        out[1].queue_ns >= out[0].latency_ns,
        "request 1 queued {} ns behind a {} ns request",
        out[1].queue_ns,
        out[0].latency_ns
    );
    let h = tel.histogram("serve.queue_wait_ns");
    assert_eq!(h.count(), 2);
    assert_eq!(h.sum(), out[0].queue_ns + out[1].queue_ns);
}
