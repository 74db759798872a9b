//! # wp-comm
//!
//! A thread-based stand-in for NCCL: the communication substrate the WeiPipe
//! runtime trains over.
//!
//! The paper's cluster is ranks connected by NVLink inside a server and
//! PCIe / 10 Gb Ethernet between servers, exchanging fp16/bf16 buffers via
//! NCCL P2P (`batch_isend_irecv`) and ring collectives. Here each rank is an
//! OS thread (or, over the TCP transport, an OS process) owning one
//! [`Transport`] endpoint — an in-process channel mesh by default, real
//! localhost sockets via [`TransportKind::TcpLocalhost`] — and each message
//! is packed into its declared wire dtype — the frame holds, checksums and
//! ships those two-or-four-byte elements, never a widened copy — and
//! charged byte-exactly to a shared [`TrafficMeter`]. A [`LinkModel`] reproduces the bandwidth and
//! latency of the paper's three interconnects and can pace deliveries in
//! real time, so communication-constrained behaviour is observable even in
//! the real (non-simulated) runtime.
//!
//! The [`Communicator`] offers what the weight ring runs and no more:
//!
//! * [`p2p`] — a buffered [`send`](Communicator::send), a receive posted
//!   early and redeemed later ([`irecv`](Communicator::irecv) →
//!   [`Request`] → [`wait_recv`](Communicator::wait_recv); `recv` is the
//!   two back to back), and the timeout, fault-injection and abort
//!   protocol under both;
//! * [`collectives`] — ring all-reduce / reduce-scatter / all-gather /
//!   broadcast / barrier built from those two primitives;
//! * [`world`] — [`World::builder`], which wires one communicator per rank
//!   and runs one thread per rank.
//!
//! Below them, [`transport`] is the seam a frame-moving substrate
//! implements (one send, one receive) and [`tcp`] the socket one.
//!
//! ```
//! use wp_comm::{World, LinkModel};
//! use wp_tensor::DType;
//!
//! // Sum a vector across 4 ranks with the ring all-reduce.
//! let (results, meter) = World::run(4, LinkModel::instant(), |mut comm| {
//!     let mut buf = vec![comm.rank() as f32; 8];
//!     comm.all_reduce_sum(&mut buf, DType::F32).unwrap();
//!     buf[0]
//! });
//! assert!(results.iter().all(|&x| x == 6.0)); // 0+1+2+3
//! assert!(meter.total_bytes() > 0);
//! ```

#![warn(missing_docs)]

pub mod collectives;
pub mod error;
pub mod fault;
pub mod link;
pub mod membership;
pub mod meter;
pub mod p2p;
pub mod tcp;
pub mod transport;
pub mod world;

pub use error::CommError;
pub use fault::FaultPlan;
pub use link::LinkModel;
pub use membership::{agree_membership, Membership};
pub use meter::{RankTraffic, TrafficMeter};
pub use p2p::{CommConfig, Communicator, Request};
pub use tcp::TcpTransport;
pub use transport::{AbortCell, Frame, Payload, Transport, TransportKind};
pub use world::{World, WorldBuilder};
