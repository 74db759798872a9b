//! Cluster topology: which link connects each pair of ring neighbours.
//!
//! The cluster is hierarchical: `ranks` GPUs are grouped into nodes of
//! `node_size`, with a fast `intra` link inside every node and a slower
//! `inter` link between nodes. `node_size` must divide `ranks` exactly —
//! ragged layouts would silently miscount node crossings, so validated
//! construction rejects them (see [`ClusterSpec::validated`]).

use std::fmt;

/// A point-to-point link's performance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Sustained bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Per-message latency, seconds.
    pub latency: f64,
}

impl Link {
    /// A800 NVLink (cut to 400 GB/s — the paper's point in §5.4).
    pub const fn nvlink_a800() -> Self {
        Link {
            bandwidth: 400e9,
            latency: 5e-6,
        }
    }

    /// PCIe 4.0 ×16 effective.
    pub const fn pcie4() -> Self {
        Link {
            bandwidth: 32e9,
            latency: 10e-6,
        }
    }

    /// 10 Gb Ethernet.
    pub const fn ethernet_10g() -> Self {
        Link {
            bandwidth: 1.25e9,
            latency: 50e-6,
        }
    }

    /// Seconds to move `bytes` over this link.
    pub fn transfer_s(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// Why a [`ClusterSpec`] layout is rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// `ranks == 0`: there is no ring to simulate.
    ZeroRanks,
    /// `node_size == 0`: every `rank / node_size` in the link resolver
    /// would divide by zero.
    ZeroNodeSize,
    /// `node_size` does not divide `ranks`: the trailing partial node makes
    /// `rank / node_size` miscount boundary crossings, so ragged layouts
    /// are rejected rather than silently mispriced.
    Ragged {
        /// Total GPUs requested.
        ranks: usize,
        /// GPUs per node requested.
        node_size: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::ZeroRanks => write!(f, "cluster must have at least one rank"),
            ClusterError::ZeroNodeSize => write!(f, "node_size must be at least 1"),
            ClusterError::Ragged { ranks, node_size } => write!(
                f,
                "node_size {node_size} does not divide ranks {ranks}: \
                 ragged layouts miscount node crossings"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Representative payload for deciding which link is slower: one weight
/// chunk's worth of traffic (1 MiB) — large enough that bandwidth matters,
/// small enough that latency still registers.
const BOTTLENECK_PROBE_BYTES: u64 = 1 << 20;

/// A homogeneous-node cluster: `ranks` GPUs grouped into nodes of
/// `node_size`, fast links inside a node, slower links between nodes.
/// Ranks are ring-ordered so exactly `ranks / node_size` ring hops cross
/// node boundaries — the layout the paper's ring-based NCCL setting uses.
///
/// Contract: `node_size` divides `ranks` (every node is full). Factory
/// constructors enforce this via [`ClusterSpec::validated`]; specs built
/// with struct-literal syntax can be checked with [`ClusterSpec::validate`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Total GPUs.
    pub ranks: usize,
    /// GPUs per node.
    pub node_size: usize,
    /// Link within a node.
    pub intra: Link,
    /// Link between nodes.
    pub inter: Link,
}

impl ClusterSpec {
    /// Validated constructor: rejects `ranks == 0`, `node_size == 0` (which
    /// would divide-by-zero in the link resolver) and ragged layouts where
    /// `node_size` does not divide `ranks` (which would silently miscount
    /// node crossings). All factory constructors route through this.
    pub fn validated(
        ranks: usize,
        node_size: usize,
        intra: Link,
        inter: Link,
    ) -> Result<Self, ClusterError> {
        let spec = ClusterSpec {
            ranks,
            node_size,
            intra,
            inter,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Check the divisibility contract on an already-built spec (useful for
    /// struct-literal construction, which cannot be validated at build time).
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.ranks == 0 {
            return Err(ClusterError::ZeroRanks);
        }
        if self.node_size == 0 {
            return Err(ClusterError::ZeroNodeSize);
        }
        if !self.ranks.is_multiple_of(self.node_size) {
            return Err(ClusterError::Ragged {
                ranks: self.ranks,
                node_size: self.node_size,
            });
        }
        Ok(())
    }

    /// The paper's 16-GPU environment 1 (Table 2): "NVLink connections
    /// *within* clusters" — two 8-GPU NVLink clusters, commodity Ethernet
    /// between them (the paper never claims a fast inter-cluster link, and
    /// its FSDP/WeiPipe absolute numbers are consistent with ~10 GbE
    /// between the two halves).
    pub fn nvlink_16() -> Self {
        Self::validated(16, 8, Link::nvlink_a800(), Link::ethernet_10g())
            .expect("nvlink_16 preset is well-formed")
    }

    /// A fully NVLinked island of `ranks` GPUs (no slow hop anywhere).
    pub fn nvlink_island(ranks: usize) -> Self {
        Self::validated(ranks, ranks, Link::nvlink_a800(), Link::nvlink_a800())
            .expect("island layouts are trivially well-formed for ranks >= 1")
    }

    /// The paper's 8-GPU NVLink environment (Table 4).
    pub fn nvlink_8() -> Self {
        Self::validated(8, 8, Link::nvlink_a800(), Link::nvlink_a800())
            .expect("nvlink_8 preset is well-formed")
    }

    /// The paper's PCIe + Ethernet environment: NVLink-class PCIe inside
    /// each cluster, 10 Gb Ethernet between clusters (Table 3: 16 GPUs in
    /// 4-GPU groups).
    pub fn ethernet_16() -> Self {
        Self::validated(16, 4, Link::pcie4(), Link::ethernet_10g())
            .expect("ethernet_16 preset is well-formed")
    }

    /// Scaling-figure clusters: `ranks` GPUs, `node_size` per server, NVLink
    /// inside, Ethernet between (Figs 6–9). Panics on layouts violating the
    /// `node_size | ranks` contract; use [`ClusterSpec::validated`] to handle
    /// arbitrary shapes fallibly.
    pub fn scaling(ranks: usize, node_size: usize) -> Self {
        Self::validated(ranks, node_size, Link::nvlink_a800(), Link::ethernet_10g())
            .expect("scaling cluster layouts must satisfy node_size | ranks")
    }

    /// Number of node-sized groups (`ranks / node_size`).
    pub fn groups(&self) -> usize {
        self.ranks / self.node_size
    }

    /// The group (node) a rank belongs to.
    pub fn group_of(&self, rank: usize) -> usize {
        rank / self.node_size
    }

    /// The link a point-to-point transfer from `src` to `dst` rides: intra
    /// when both ranks share a node, inter otherwise. This is the per-hop
    /// resolver the simulators price every `Send` with — grouped schedules
    /// send between non-adjacent ranks, so pricing must depend on both
    /// endpoints, not on `src`'s ring successor.
    pub fn link_between(&self, src: usize, dst: usize) -> Link {
        if self.group_of(src) == self.group_of(dst) {
            self.intra
        } else {
            self.inter
        }
    }

    /// The slowest link present on the ring — the collective bottleneck.
    /// Compared by effective transfer time for a representative payload, not
    /// by topology shape: a multi-node cluster whose inter link is *faster*
    /// than intra (inverted links) correctly reports intra as the bottleneck.
    pub fn bottleneck(&self) -> Link {
        if self.groups() <= 1 {
            return self.intra;
        }
        let probe = BOTTLENECK_PROBE_BYTES;
        if self.inter.transfer_s(probe) >= self.intra.transfer_s(probe) {
            self.inter
        } else {
            self.intra
        }
    }

    /// Ring all-reduce time for `bytes` (NCCL ring algorithm: `2(P−1)`
    /// chunk hops of `bytes/P`, paced by the bottleneck link).
    pub fn all_reduce_s(&self, bytes: u64) -> f64 {
        let p = self.ranks as f64;
        let link = self.bottleneck();
        2.0 * (p - 1.0) * (bytes as f64 / p / link.bandwidth + link.latency)
    }

    /// Ring all-gather / reduce-scatter time for `bytes` total payload.
    pub fn gather_scatter_s(&self, bytes: u64) -> f64 {
        let p = self.ranks as f64;
        let link = self.bottleneck();
        (p - 1.0) * (bytes as f64 / p / link.bandwidth + link.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The link the ring hop out of `src` rides.
    fn ring_hop(c: &ClusterSpec, src: usize) -> Link {
        c.link_between(src, (src + 1) % c.ranks)
    }

    #[test]
    fn ring_links_cross_node_boundaries() {
        let c = ClusterSpec::ethernet_16();
        // node_size 4: hops 3→4, 7→8, 11→12, 15→0 cross nodes.
        assert_eq!(ring_hop(&c, 0), Link::pcie4());
        assert_eq!(ring_hop(&c, 3), Link::ethernet_10g());
        assert_eq!(ring_hop(&c, 7), Link::ethernet_10g());
        assert_eq!(ring_hop(&c, 15), Link::ethernet_10g());
        let crossings = (0..16)
            .filter(|&r| ring_hop(&c, r) == Link::ethernet_10g())
            .count();
        assert_eq!(crossings, 4);
    }

    #[test]
    fn single_node_is_all_fast() {
        let c = ClusterSpec::nvlink_island(16);
        assert!((0..16).all(|r| ring_hop(&c, r) == Link::nvlink_a800()));
        assert_eq!(c.bottleneck(), Link::nvlink_a800());
    }

    #[test]
    fn bottleneck_is_ethernet_when_multi_node() {
        assert_eq!(
            ClusterSpec::ethernet_16().bottleneck(),
            Link::ethernet_10g()
        );
        assert_eq!(ClusterSpec::nvlink_16().bottleneck(), Link::ethernet_10g());
        assert_eq!(
            ClusterSpec::scaling(8, 4).bottleneck(),
            Link::ethernet_10g()
        );
        assert_eq!(ClusterSpec::scaling(4, 4).bottleneck(), Link::nvlink_a800());
    }

    #[test]
    fn collective_times_scale_with_bytes_and_slowest_link() {
        let fast = ClusterSpec::nvlink_island(16);
        let slow = ClusterSpec::ethernet_16();
        let b = 100 << 20;
        assert!(slow.all_reduce_s(b) > 50.0 * fast.all_reduce_s(b));
        assert!(fast.all_reduce_s(b) > fast.gather_scatter_s(b));
    }

    #[test]
    fn bottleneck_compares_speed_not_shape() {
        // Inverted links: a multi-node cluster whose *inter* link is faster
        // than intra. The old shape-based rule returned inter purely because
        // ranks > node_size; the bottleneck must be the genuinely slower
        // intra link.
        let inverted = ClusterSpec::validated(16, 4, Link::ethernet_10g(), Link::nvlink_a800())
            .expect("valid layout");
        assert_eq!(inverted.bottleneck(), Link::ethernet_10g());
        // And the collective estimates must follow the real bottleneck: the
        // inverted cluster is exactly as slow as its all-Ethernet twin.
        let all_eth = ClusterSpec::validated(16, 4, Link::ethernet_10g(), Link::ethernet_10g())
            .expect("valid layout");
        let b = 100 << 20;
        assert_eq!(
            inverted.all_reduce_s(b).to_bits(),
            all_eth.all_reduce_s(b).to_bits()
        );
        assert_eq!(
            inverted.gather_scatter_s(b).to_bits(),
            all_eth.gather_scatter_s(b).to_bits()
        );
    }

    #[test]
    fn validated_rejects_degenerate_layouts() {
        let intra = Link::nvlink_a800();
        let inter = Link::ethernet_10g();
        assert_eq!(
            ClusterSpec::validated(0, 1, intra, inter).unwrap_err(),
            ClusterError::ZeroRanks
        );
        // node_size == 0 used to divide-by-zero in the link resolver; now it is
        // a typed error at construction time.
        assert_eq!(
            ClusterSpec::validated(8, 0, intra, inter).unwrap_err(),
            ClusterError::ZeroNodeSize
        );
        // Ragged layout: 10 ranks in nodes of 4 leaves a partial node.
        assert_eq!(
            ClusterSpec::validated(10, 4, intra, inter).unwrap_err(),
            ClusterError::Ragged {
                ranks: 10,
                node_size: 4
            }
        );
        // validate() catches the same problems on struct literals.
        let ragged = ClusterSpec {
            node_size: 3,
            ..ClusterSpec::nvlink_16()
        };
        assert!(matches!(
            ragged.validate(),
            Err(ClusterError::Ragged { .. })
        ));
        assert!(ClusterSpec::ethernet_16().validate().is_ok());
    }

    #[test]
    fn hierarchical_view_matches_layout() {
        let c = ClusterSpec::ethernet_16(); // 16 ranks, nodes of 4
        assert_eq!(c.groups(), 4);
        assert_eq!(c.group_of(0), 0);
        assert_eq!(c.group_of(3), 0);
        assert_eq!(c.group_of(4), 1);
        assert_eq!(c.group_of(15), 3);
        // Per-hop resolution depends on both endpoints, not src's successor.
        assert_eq!(c.link_between(0, 3), Link::pcie4());
        assert_eq!(c.link_between(3, 7), Link::ethernet_10g());
        assert_eq!(c.link_between(15, 0), Link::ethernet_10g());
        assert_eq!(c.link_between(13, 12), Link::pcie4());
    }

    #[test]
    fn transfer_time_formula() {
        let l = Link {
            bandwidth: 1e9,
            latency: 1e-3,
        };
        assert!((l.transfer_s(1_000_000_000) - 1.001).abs() < 1e-9);
    }
}
