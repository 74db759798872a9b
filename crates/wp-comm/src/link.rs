//! The one interconnect cost model.
//!
//! A [`LinkModel`] answers one question: how long does moving `n` bytes over
//! this link take? The presets mirror the paper's three hardware settings
//! (§5.4): NVLink inside an A800 server (400 GB/s), PCIe 4.0 x16 inside a
//! server (~32 GB/s), and 10 Gb Ethernet between clusters (1.25 GB/s).
//! [`LinkModel::occupancy_s`] is what a byte costs: the runtime's pacing
//! (`p2p.rs`) and the simulator's send pricing (`wp-sim`'s `des.rs`) both
//! call it, and `wp-sim`'s cluster topologies are built from these presets,
//! so both clocks agree on what a byte costs by construction.

/// Bandwidth/latency model of a point-to-point link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Fixed per-message latency in seconds (software stack + wire).
    pub latency_s: f64,
}

impl LinkModel {
    /// A link so fast it never costs anything — the default for
    /// correctness-only runs of the thread runtime.
    pub const fn instant() -> Self {
        LinkModel {
            bandwidth_bps: f64::INFINITY,
            latency_s: 0.0,
        }
    }

    /// NVLink on an A800: capped at 400 GB/s (the paper's point that A800
    /// NVLink is cut down from the A100's 600 GB/s).
    pub const fn nvlink_a800() -> Self {
        LinkModel {
            bandwidth_bps: 400e9,
            latency_s: 5e-6,
        }
    }

    /// PCIe 4.0 x16 effective GPU-to-GPU bandwidth.
    pub const fn pcie4() -> Self {
        LinkModel {
            bandwidth_bps: 32e9,
            latency_s: 10e-6,
        }
    }

    /// 10 Gb Ethernet between clusters: 1.25 GB/s with LAN latency.
    pub const fn ethernet_10g() -> Self {
        LinkModel {
            bandwidth_bps: 1.25e9,
            latency_s: 50e-6,
        }
    }

    /// Seconds the directed link is busy moving `bytes` (bandwidth term
    /// only, no latency): how long before the next message on it can start
    /// transferring. Zero on an infinitely fast link.
    pub fn occupancy_s(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidth_bps
    }

    /// Seconds from issuing `bytes` on an idle link to their arrival: one
    /// latency plus the occupancy.
    pub fn transfer_s(&self, bytes: u64) -> f64 {
        self.latency_s + self.occupancy_s(bytes)
    }

    /// True if this link injects no delay.
    pub fn is_instant(&self) -> bool {
        self.bandwidth_bps.is_infinite() && self.latency_s == 0.0
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::instant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_costs_nothing() {
        let l = LinkModel::instant();
        assert_eq!(l.occupancy_s(1 << 30), 0.0);
        assert_eq!(l.transfer_s(1 << 30), 0.0);
        assert!(l.is_instant());
    }

    #[test]
    fn transfer_is_latency_plus_occupancy() {
        let l = LinkModel {
            bandwidth_bps: 1e9,
            latency_s: 1e-3,
        };
        assert_eq!(l.occupancy_s(1_000_000_000), 1.0);
        assert!((l.transfer_s(1_000_000_000) - 1.001).abs() < 1e-9);
    }

    #[test]
    fn preset_ordering() {
        let b = 1 << 20; // 1 MiB
        for cost in [LinkModel::occupancy_s, LinkModel::transfer_s] {
            let nv = cost(&LinkModel::nvlink_a800(), b);
            let pc = cost(&LinkModel::pcie4(), b);
            let eth = cost(&LinkModel::ethernet_10g(), b);
            assert!(nv < pc && pc < eth, "nv={nv} pcie={pc} eth={eth}");
        }
    }
}
