//! Distributed training on the 8-node A10 cluster (§VI-D2, Fig. 12):
//! converting model parallelism into data parallelism.
//!
//! Because STRONGHOLD fits the whole model in one node's GPU+CPU memory,
//! the cluster can run pure data parallelism; ZeRO-2/3 must partition state
//! and pay collective traffic plus partitioning machinery every step.
//!
//! Run with: `cargo run --release --example distributed_data_parallel`

use stronghold_cluster::{StrongholdDP, ZeroDP};
use stronghold_collective::volume::{volume_ratio, VolumeParams};
use stronghold_core::adam::AdamParams;
use stronghold_core::host::{DataParallelConfig, DataParallelTrainer, HostResidentTrainer};
use stronghold_core::method::{max_trainable_layers, TrainingMethod};
use stronghold_model::config::{tiny, ModelConfig};
use stronghold_model::data::SyntheticCorpus;
use stronghold_sim::Platform;

fn main() {
    let a10 = Platform::a10_cluster_8();
    println!("platform: 8 nodes x (24 GiB A10 + 1 TiB RAM), 800 Gbps aggregate network\n");

    // The largest model ZeRO-2 supports at batch 1 per GPU (the paper's
    // Fig. 12 setup).
    let base = ModelConfig::new(1, 2560, 16).with_batch(1);
    let cfg = max_trainable_layers(&ZeroDP::stage2(), &base, &a10, 400).expect("zero-2 cap");
    println!(
        "comparison model: {} ({} layers), batch 1 per GPU",
        cfg.size_label(),
        cfg.layers
    );

    println!("\nmethod           | global samples/s | vs ZeRO-2");
    let z2 = ZeroDP::stage2().iteration(&cfg, &a10).unwrap();
    for m in [
        Box::new(ZeroDP::stage2()) as Box<dyn TrainingMethod>,
        Box::new(ZeroDP::stage3()),
        Box::new(StrongholdDP),
    ] {
        let r = m.iteration(&cfg, &a10).unwrap();
        println!(
            "{:<16} | {:16.3} | {:.2}x",
            m.name(),
            r.throughput,
            r.throughput / z2.throughput
        );
    }

    // The analytic traffic model of §III-F for this configuration.
    let p = VolumeParams {
        w: 8,
        n: cfg.layers as u64,
        hd: cfg.hidden as u64,
        bs: 8, // global batch when each node takes one sample
        seq: cfg.seq as u64,
        vs: cfg.vocab as u64,
    };
    println!(
        "\nSection III-F traffic model: V_mp/V_dp = {:.2} at global batch {}",
        volume_ratio(&p),
        p.bs
    );
    println!("(DP wins outright once gradient volume is amortized by overlap;");
    println!(" STRONGHOLD additionally hides the all-reduce under backward compute.)");

    // And the real thing, in miniature: two windowed replicas on scoped
    // threads joined by the in-process collective, bit-identical to one
    // resident trainer on the same global batch.
    let cfg = tiny(4).with_batch(8);
    let batch = SyntheticCorpus::new(cfg.vocab, 7).next_batch(8, cfg.seq - 1);
    let mut dp = DataParallelTrainer::new(
        cfg,
        42,
        DataParallelConfig {
            replicas: 2,
            ..DataParallelConfig::default()
        },
    );
    let mut single = HostResidentTrainer::new(cfg, 42, AdamParams::default());
    println!("\nreal 2-replica run vs single-replica resident (same global batch):");
    for step in 0..3 {
        let (a, b) = (dp.train_step(&batch), single.train_step(&batch));
        println!(
            "  step {step}: dp loss {a:.6} | resident {b:.6} | bit-identical: {}",
            a.to_bits() == b.to_bits()
        );
    }
    println!(
        "  all-reduce traffic: {} bytes over {} steps (4·w·(w−1)·E per step)",
        dp.allreduce_bytes(),
        dp.replica(0).steps()
    );
}
