//! Ring collectives over the communicator's point-to-point primitives.
//!
//! Built on the ring algorithms NCCL uses in the paper's setting ("tree
//! algorithms were not adopted"): all-reduce is reduce-scatter + all-gather
//! around the ring, each rank sending `2·(P−1)/P · n` bytes — the byte count
//! the FSDP cost model charges. Every hop is one
//! [`irecv`](Communicator::irecv) from the previous rank, one collective-class
//! send to the next and one [`wait_recv`](Communicator::wait_recv), so the
//! fault, timeout and abort behaviour of a collective is exactly that of
//! [`crate::p2p`]; each call is wrapped in one outer span under which its
//! hops' `Send`/`RecvWait`/`RecvXfer` spans nest.

use crate::error::CommError;
use crate::p2p::{Communicator, COLLECTIVE_TAG_BASE};
use wp_tensor::DType;
use wp_trace::SpanKind;

impl Communicator {
    fn next_coll_tag(&mut self) -> u64 {
        let t = COLLECTIVE_TAG_BASE + self.coll_seq;
        self.coll_seq += 1;
        t
    }

    /// Wrap one collective call in an outer span charged with the collective
    /// bytes this rank sent during it; the ring hops' Send/RecvWait/RecvXfer
    /// spans nest underneath in a trace viewer.
    fn with_coll_span<T>(
        &mut self,
        kind: SpanKind,
        f: impl FnOnce(&mut Self) -> Result<T, CommError>,
    ) -> Result<T, CommError> {
        let mark = self.probe.collective_begin();
        let out = f(self)?;
        self.probe.collective(kind, mark);
        Ok(out)
    }

    /// Chunk boundaries splitting `n` elements into `world` near-equal parts.
    fn chunk_range(n: usize, world: usize, i: usize) -> std::ops::Range<usize> {
        let base = n / world;
        let rem = n % world;
        let start = i * base + i.min(rem);
        let len = base + usize::from(i < rem);
        start..start + len
    }

    /// In-place ring all-reduce (sum) over `buf`, replicated on every rank.
    ///
    /// Reduce-scatter then all-gather; each rank sends `2·(P−1)` chunks of
    /// `n/P` elements.
    ///
    /// # Errors
    /// Any error from the underlying ring sends/receives.
    pub fn all_reduce_sum(&mut self, buf: &mut [f32], dtype: DType) -> Result<(), CommError> {
        self.with_coll_span(SpanKind::AllReduce, |c| c.all_reduce_inner(buf, dtype))
    }

    /// One hop of a ring collective: post the receive from the previous
    /// rank, send `out` to the next, and wait for what the previous rank
    /// sent under the same tag.
    fn ring_step(&mut self, tag: u64, out: &[f32], dtype: DType) -> Result<Vec<f32>, CommError> {
        let req = self.irecv(self.prev_rank(), tag);
        self.send_internal(self.next_rank(), tag, out, dtype, true)?;
        self.wait_recv(req)
    }

    /// `P−1` hops over `buf` cut into `P` chunks: hop `s` sends chunk
    /// `first − s` and folds what arrives into chunk `first − s − 1` —
    /// summed in when `reduce`, copied over otherwise. Hop `s` uses `tag(s)`.
    fn ring_pass(
        &mut self,
        buf: &mut [f32],
        first: usize,
        tag: impl Fn(u64) -> u64,
        reduce: bool,
        dtype: DType,
    ) -> Result<(), CommError> {
        let (n, p) = (buf.len(), self.world);
        for s in 0..p - 1 {
            let send_idx = (first + p - s) % p;
            let sr = Self::chunk_range(n, p, send_idx);
            let incoming = self.ring_step(tag(s as u64), &buf[sr], dtype)?;
            let into = &mut buf[Self::chunk_range(n, p, (send_idx + p - 1) % p)];
            if reduce {
                for (b, x) in into.iter_mut().zip(&incoming) {
                    *b += x;
                }
            } else {
                assert_eq!(incoming.len(), into.len(), "ring chunks must match");
                into.copy_from_slice(&incoming);
            }
        }
        Ok(())
    }

    fn all_reduce_inner(&mut self, buf: &mut [f32], dtype: DType) -> Result<(), CommError> {
        if self.world == 1 {
            return Ok(());
        }
        let tag = self.next_coll_tag();
        // Reduce-scatter, then all-gather the fully reduced chunks.
        self.ring_pass(buf, self.rank, |s| tag + s * 2, true, dtype)?;
        self.ring_pass(buf, self.rank + 1, |s| tag + s * 2 + 1, false, dtype)
    }

    /// Ring reduce-scatter (sum): every rank contributes `buf` (full length)
    /// and receives the reduced chunk it owns (`chunk_range(n, P, rank)`).
    ///
    /// # Errors
    /// Any error from the underlying ring sends/receives.
    pub fn reduce_scatter_sum(&mut self, buf: &[f32], dtype: DType) -> Result<Vec<f32>, CommError> {
        self.with_coll_span(SpanKind::ReduceScatter, |c| {
            c.reduce_scatter_inner(buf, dtype)
        })
    }

    fn reduce_scatter_inner(&mut self, buf: &[f32], dtype: DType) -> Result<Vec<f32>, CommError> {
        let n = buf.len();
        let p = self.world;
        if p == 1 {
            return Ok(buf.to_vec());
        }
        let tag = self.next_coll_tag();
        let mut work = buf.to_vec();
        // Start one chunk earlier than the all-reduce phase so the final
        // reduction lands in this rank's own chunk.
        self.ring_pass(&mut work, self.rank + p - 1, |s| tag + s, true, dtype)?;
        Ok(work[Self::chunk_range(n, p, self.rank)].to_vec())
    }

    /// Ring all-gather: every rank contributes `chunk` (equal lengths
    /// required) and receives the concatenation ordered by rank.
    ///
    /// # Errors
    /// Any error from the underlying ring sends/receives.
    pub fn all_gather(&mut self, chunk: &[f32], dtype: DType) -> Result<Vec<f32>, CommError> {
        self.with_coll_span(SpanKind::AllGather, |c| c.all_gather_inner(chunk, dtype))
    }

    fn all_gather_inner(&mut self, chunk: &[f32], dtype: DType) -> Result<Vec<f32>, CommError> {
        let p = self.world;
        if p == 1 {
            return Ok(chunk.to_vec());
        }
        let tag = self.next_coll_tag();
        let m = chunk.len();
        let mut out = vec![0.0f32; m * p];
        out[self.rank * m..(self.rank + 1) * m].copy_from_slice(chunk);
        // At step s, forward the chunk originated by (rank - s); a peer that
        // contributed another length fails the chunk-size check.
        self.ring_pass(&mut out, self.rank, |s| tag + s, false, dtype)?;
        Ok(out)
    }

    /// Broadcast `buf` from `root` to every rank (ring pass-along).
    ///
    /// # Errors
    /// Any error from the underlying ring sends/receives.
    ///
    /// # Panics
    /// Panics if `root` is out of range (API misuse).
    pub fn broadcast(
        &mut self,
        root: usize,
        buf: &mut Vec<f32>,
        dtype: DType,
    ) -> Result<(), CommError> {
        assert!(root < self.world, "root {root} out of range");
        self.with_coll_span(SpanKind::Broadcast, |c| c.broadcast_inner(root, buf, dtype))
    }

    fn broadcast_inner(
        &mut self,
        root: usize,
        buf: &mut Vec<f32>,
        dtype: DType,
    ) -> Result<(), CommError> {
        let p = self.world;
        if p == 1 {
            return Ok(());
        }
        let tag = self.next_coll_tag();
        let dist = (self.rank + p - root) % p;
        if dist > 0 {
            let req = self.irecv(self.prev_rank(), tag);
            *buf = self.wait_recv(req)?;
        }
        if dist < p - 1 {
            self.send_internal(self.next_rank(), tag, buf, dtype, true)?;
        }
        Ok(())
    }

    /// Synchronise all ranks: no rank returns before every rank has entered.
    ///
    /// # Errors
    /// Any error from the underlying all-reduce.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        let mut token = [0.0f32];
        self.with_coll_span(SpanKind::Barrier, |c| {
            c.all_reduce_inner(&mut token, DType::F32)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkModel, World};
    use wp_trace::TraceCollector;

    #[test]
    fn all_reduce_sums_everywhere() {
        for p in [1usize, 2, 3, 4, 7] {
            let (vals, _) = World::run(p, LinkModel::instant(), |mut c| {
                let mut buf: Vec<f32> = (0..10).map(|i| (c.rank() * 10 + i) as f32).collect();
                c.all_reduce_sum(&mut buf, DType::F32).unwrap();
                buf
            });
            let expect: Vec<f32> = (0..10)
                .map(|i| (0..p).map(|r| (r * 10 + i) as f32).sum())
                .collect();
            for (r, v) in vals.iter().enumerate() {
                assert_eq!(v, &expect, "p={p} rank {r}");
            }
        }
    }

    #[test]
    fn all_reduce_uneven_length() {
        // n not divisible by p exercises the uneven chunking.
        let p = 4;
        let n = 13;
        let (vals, _) = World::run(p, LinkModel::instant(), |mut c| {
            let mut buf = vec![(c.rank() + 1) as f32; n];
            c.all_reduce_sum(&mut buf, DType::F32).unwrap();
            buf
        });
        for v in &vals {
            assert_eq!(v, &vec![10.0; n]);
        }
    }

    #[test]
    fn reduce_scatter_gives_owned_chunk() {
        let p = 3;
        let n = 7;
        let (vals, _) = World::run(p, LinkModel::instant(), |mut c| {
            let buf: Vec<f32> = (0..n).map(|i| (i * (c.rank() + 1)) as f32).collect();
            c.reduce_scatter_sum(&buf, DType::F32).unwrap()
        });
        // Sum over ranks of i*(r+1) = i * 6.
        let full: Vec<f32> = (0..n).map(|i| (i * 6) as f32).collect();
        assert_eq!(vals[0], full[0..3].to_vec());
        assert_eq!(vals[1], full[3..5].to_vec());
        assert_eq!(vals[2], full[5..7].to_vec());
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let p = 4;
        let (vals, _) = World::run(p, LinkModel::instant(), |mut c| {
            let chunk = vec![c.rank() as f32; 3];
            c.all_gather(&chunk, DType::F32).unwrap()
        });
        let expect = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0];
        for v in &vals {
            assert_eq!(v, &expect);
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let (vals, _) = World::run(5, LinkModel::instant(), |mut c| {
            let mut buf = if c.rank() == 2 {
                vec![42.0, 7.0]
            } else {
                vec![]
            };
            c.broadcast(2, &mut buf, DType::F32).unwrap();
            buf
        });
        for v in &vals {
            assert_eq!(v, &vec![42.0, 7.0]);
        }
    }

    #[test]
    #[should_panic(expected = "root")]
    fn broadcast_rejects_an_out_of_range_root() {
        let mut c = World::builder(2).build().remove(0);
        let _ = c.broadcast(2, &mut vec![1.0], DType::F32);
    }

    #[test]
    fn all_reduce_traffic_matches_ring_formula() {
        let p = 4;
        let n = 1024; // divisible by p
        let (_, meter) = World::run(p, LinkModel::instant(), |mut c| {
            let mut buf = vec![1.0f32; n];
            c.all_reduce_sum(&mut buf, DType::F32).unwrap();
        });
        // Each rank sends 2·(P−1) chunks of n/P f32 elements.
        let expect = (2 * (p - 1) * (n / p) * 4) as u64;
        for r in 0..p {
            assert_eq!(meter.rank(r).collective_bytes, expect, "rank {r}");
        }
    }

    #[test]
    fn barrier_orders_effects() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        let violated = AtomicUsize::new(0);
        World::run(4, LinkModel::instant(), |mut c| {
            before.fetch_add(1, Ordering::SeqCst);
            c.barrier().unwrap();
            if before.load(Ordering::SeqCst) != 4 {
                violated.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(violated.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn traced_world_records_comm_spans() {
        use wp_trace::{recv_aux_decode, send_aux_decode};
        let collector = TraceCollector::new(2, 256);
        let (_, _) = World::builder(2).trace(collector.clone()).run(|mut c| {
            if c.rank() == 0 {
                c.send(1, 7, &[1.0, 2.0], DType::F32).unwrap();
            } else {
                c.recv(0, 7).unwrap();
            }
            let mut buf = vec![1.0f32; 4];
            c.all_reduce_sum(&mut buf, DType::F32).unwrap();
        });
        let trace = collector.snapshot();
        // Rank 0: the P2P send, with dst and bytes in the record.
        let send = trace.tracks[0]
            .of_kind(SpanKind::Send)
            .find(|s| !send_aux_decode(s.aux).1)
            .expect("rank 0 recorded its P2P send");
        assert_eq!(send.bytes, 8);
        assert_eq!(send_aux_decode(send.aux).0, 1);
        // Rank 1: wait + transfer halves of the receive, with src and the
        // queue depth observed at post time.
        let wait = trace.tracks[1]
            .of_kind(SpanKind::RecvWait)
            .next()
            .expect("rank 1 recorded its blocked wait");
        assert_eq!(wait.bytes, 8);
        assert_eq!(recv_aux_decode(wait.aux), (0, 0));
        assert!(trace.tracks[1].has_kind(SpanKind::RecvXfer));
        // Both ranks: an all-reduce outer span charged with the ring bytes,
        // and its constituent hops nested within its interval.
        for track in &trace.tracks {
            let ar = track
                .of_kind(SpanKind::AllReduce)
                .next()
                .expect("all-reduce span");
            assert_eq!(ar.bytes, 2 * (4 / 2) * 4, "2·(P−1)/P·n bytes at f32");
            let hop = track
                .of_kind(SpanKind::Send)
                .find(|s| send_aux_decode(s.aux).1)
                .expect("collective hop send span");
            assert!(hop.start_ns >= ar.start_ns && hop.end_ns <= ar.end_ns);
        }
    }
}
