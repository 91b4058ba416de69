//! Hardware specifications of the paper's two evaluation platforms (§V-A).

/// One gibibyte.
pub const GIB: u64 = 1 << 30;

/// GPU device specification.
#[derive(Clone, Copy, Debug)]
pub struct GpuSpec {
    /// Device memory in bytes.
    pub mem_bytes: u64,
    /// Peak FP32 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Device memory bandwidth in bytes/s (bounds on-GPU optimizer updates).
    pub mem_bw: f64,
    /// Number of streaming multiprocessors (caps concurrent streams).
    pub sms: usize,
}

/// CPU and host-memory specification.
#[derive(Clone, Copy, Debug)]
pub struct CpuSpec {
    /// Physical cores available to the optimizer pool.
    pub cores: usize,
    /// Host RAM in bytes.
    pub ram_bytes: u64,
    /// Aggregate host memory bandwidth in bytes/s.
    pub mem_bw: f64,
}

/// PCIe link between host and device.
#[derive(Clone, Copy, Debug)]
pub struct PcieSpec {
    /// Effective bandwidth for pinned, bulk transfers (bytes/s per direction).
    pub pinned_bw: f64,
    /// Effective bandwidth for pageable / per-tensor synchronous copies.
    pub pageable_bw: f64,
}

/// NVMe secondary storage (§III-G).
#[derive(Clone, Copy, Debug)]
pub struct NvmeSpec {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Sequential read bandwidth (bytes/s).
    pub read_bw: f64,
    /// Sequential write bandwidth (bytes/s).
    pub write_bw: f64,
}

/// Inter-node network.
#[derive(Clone, Copy, Debug)]
pub struct NetSpec {
    /// Per-node network bandwidth in bytes/s.
    pub bw: f64,
}

/// A complete evaluation platform.
#[derive(Clone, Copy, Debug)]
pub struct Platform {
    /// GPU per node.
    pub gpu: GpuSpec,
    /// CPU per node.
    pub cpu: CpuSpec,
    /// Host↔device link.
    pub pcie: PcieSpec,
    /// Optional NVMe tier.
    pub nvme: Option<NvmeSpec>,
    /// Optional network (multi-node platforms).
    pub net: Option<NetSpec>,
    /// Number of nodes.
    pub nodes: usize,
}

impl Platform {
    /// The paper's main platform: one 32 GB V100, 2×24-core Xeon 8163,
    /// 755 GB DDR4, PCIe 3.0 ×16, plus a 2 TB PCIe 4.0 NVMe for §VI-C3.
    pub fn v100_server() -> Platform {
        Platform {
            gpu: GpuSpec {
                mem_bytes: 32 * GIB,
                peak_flops: 15.7e12, // V100 FP32 peak
                mem_bw: 900e9,
                sms: 80,
            },
            cpu: CpuSpec {
                cores: 48,
                ram_bytes: 755 * GIB,
                mem_bw: 120e9,
            },
            pcie: PcieSpec {
                pinned_bw: 11.0e9,  // PCIe 3.0 ×16 measured pinned bulk
                pageable_bw: 0.7e9, // per-tensor pageable synchronous copies
            },
            nvme: Some(NvmeSpec {
                capacity: 2048 * GIB,
                read_bw: 6.5e9, // PCIe 4.0 NVMe (paper: "up to 7 GB/s")
                write_bw: 4.0e9,
            }),
            net: None,
            nodes: 1,
        }
    }

    /// One node of the paper's A10 cluster: 24 GB A10 (Ampere), 2×64-core
    /// Xeon 8369B, 1 TB DDR4, 800 Gbps GPUDirect-RDMA network.
    pub fn a10_cluster(nodes: usize) -> Platform {
        Platform {
            gpu: GpuSpec {
                mem_bytes: 24 * GIB,
                peak_flops: 31.2e12, // A10 FP32 peak
                mem_bw: 600e9,
                sms: 72,
            },
            cpu: CpuSpec {
                cores: 128,
                ram_bytes: 1024 * GIB,
                mem_bw: 200e9,
            },
            pcie: PcieSpec {
                pinned_bw: 22.0e9, // PCIe 4.0 ×16
                pageable_bw: 1.5e9,
            },
            nvme: None,
            net: Some(NetSpec { bw: 12.5e9 }), // 800 Gbps aggregate = 100 Gbps/node
            nodes,
        }
    }

    /// The 8-node cluster used throughout §VI.
    pub fn a10_cluster_8() -> Platform {
        Platform::a10_cluster(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_matches_paper() {
        let p = Platform::v100_server();
        assert_eq!(p.gpu.mem_bytes, 32 * GIB);
        assert_eq!(p.cpu.ram_bytes, 755 * GIB);
        assert_eq!(p.cpu.cores, 48);
        assert_eq!(p.nodes, 1);
        assert!(p.nvme.is_some());
        assert!(p.net.is_none());
    }

    #[test]
    fn a10_cluster_matches_paper() {
        let p = Platform::a10_cluster_8();
        assert_eq!(p.nodes, 8);
        assert_eq!(p.gpu.mem_bytes, 24 * GIB);
        assert_eq!(p.cpu.ram_bytes, 1024 * GIB);
        assert_eq!(p.cpu.cores, 128);
        let net = p.net.unwrap();
        assert!((net.bw - 12.5e9).abs() < 1.0);
    }

    #[test]
    fn pinned_faster_than_pageable() {
        for p in [Platform::v100_server(), Platform::a10_cluster_8()] {
            assert!(p.pcie.pinned_bw > p.pcie.pageable_bw * 3.0);
        }
    }
}
