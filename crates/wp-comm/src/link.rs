//! Interconnect cost models.
//!
//! A [`LinkModel`] answers one question: how long does moving `n` bytes over
//! this link take? The presets mirror the paper's three hardware settings
//! (§5.4): NVLink inside an A800 server (400 GB/s), PCIe 4.0 x16 inside a
//! server (~32 GB/s), and 10 Gb Ethernet between clusters (1.25 GB/s). The
//! thread runtime uses these to (optionally) pace deliveries; the
//! discrete-event simulator uses the same numbers to charge transfer time,
//! so both clocks agree on what a byte costs.

use std::time::Duration;

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

    /// Transfer time for `bytes` bytes, in seconds.
    #[inline]
    pub fn transfer_time_s(&self, bytes: usize) -> f64 {
        if self.bandwidth_bps.is_infinite() {
            return 0.0;
        }
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }

    /// Link-occupancy time for `bytes` bytes (bandwidth term only, no
    /// latency): how long the directed link is busy before the next message
    /// can start transferring.
    pub fn occupancy_duration(&self, bytes: usize) -> Duration {
        if self.bandwidth_bps.is_infinite() {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
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
        assert_eq!(l.transfer_time_s(1 << 30), 0.0);
        assert!(l.is_instant());
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let l = LinkModel::ethernet_10g();
        // 1.25 GB at 1.25 GB/s ≈ 1 s.
        let t = l.transfer_time_s(1_250_000_000);
        assert!((t - 1.0).abs() < 0.01, "{t}");
    }

    #[test]
    fn latency_dominates_small_messages() {
        let l = LinkModel::ethernet_10g();
        let t = l.transfer_time_s(1);
        assert!((t - 50e-6).abs() < 1e-6);
    }

    #[test]
    fn preset_ordering() {
        let b = 1 << 20; // 1 MiB
        let nv = LinkModel::nvlink_a800().transfer_time_s(b);
        let pc = LinkModel::pcie4().transfer_time_s(b);
        let eth = LinkModel::ethernet_10g().transfer_time_s(b);
        assert!(nv < pc && pc < eth, "nv={nv} pcie={pc} eth={eth}");
    }
}
