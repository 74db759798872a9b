//! A frame's payload, held once and in its wire representation, and what
//! moves it between f32 values and wire bytes: [`Payload::pack`] and its
//! [`Landing`]s, the staged conversion loops under both, and the frame
//! [`checksum_of`] a payload's wire bytes. A received payload's verified
//! form, [`Wire`], is what a relay ships on as it arrived.
//!
//! Each endpoint recycles its 16-bit wire buffers through one bounded
//! [`WirePool`]: a send packs into one and a TCP reader reads a frame into
//! one, each of exactly the payload's length; a TCP write that completes
//! and a [`Wire`] dropped without being relayed give theirs back. So a
//! warm ring reuses the same few buffers, and a hit neither zero-fills a
//! fresh buffer nor has the kernel map new pages under it. f32 payloads are
//! not pooled: they move into their [`Landing::Replace`] landings.

use std::sync::{Arc, Mutex};
use wp_metrics::{Counter, RankMetrics};
use wp_tensor::dtype::{pack_bf16, pack_f16, unpack_bf16, unpack_f16};
use wp_tensor::DType;

// A payload's wire bytes are its elements in little-endian order, which the
// byte views below take straight from memory.
#[cfg(not(target_endian = "little"))]
compile_error!("wp-comm frames carry the little-endian memory image of their payload");

fn f32_bytes(xs: &[f32]) -> &[u8] {
    // SAFETY: an `f32` is four initialised bytes with no padding, `u8` has
    // no alignment requirement, and the view borrows `xs`.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast(), std::mem::size_of_val(xs)) }
}

fn u16_bytes(xs: &[u16]) -> &[u8] {
    // SAFETY: as `f32_bytes`, two bytes per element.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast(), std::mem::size_of_val(xs)) }
}

/// Seeds of the checksum's four lanes (the fractional bits of √2, √3, √5
/// and √7) and its odd multiplier (of the golden ratio).
const LANE_SEEDS: [u64; 4] = [
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
];
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Absorb one 64-bit word: a bijection of the state for a fixed word and of
/// the word for a fixed state, so a change to either always shows.
#[inline(always)]
fn absorb(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(MULTIPLIER).rotate_left(29)
}

/// The end-to-end checksum carried by every [`Frame`](crate::Frame), over the payload's
/// wire bytes: little-endian 64-bit word `k` is absorbed by lane `k mod 4`
/// (four independent multiply chains, so the loop runs at memory speed, not
/// at one multiply latency per byte as a byte-wise FNV-1a does), a ragged
/// tail is zero-padded to one more round, and the four lanes are then
/// absorbed in order into the byte length. Every step is a bijection, so
/// any change confined to one word — a flipped bit above all — changes the
/// result; lanes differ in seed and are folded in a fixed order, so a word
/// moved to another lane or another round changes it too; the length
/// separates a payload from the same payload with zeros appended.
///
/// Fed in pieces, so a packing loop can hash each block while it is in L1
/// and a socket reader each piece while it is in L2: every piece but the
/// last must be a whole number of 32-byte rounds.
pub(crate) struct Checksum {
    lanes: [u64; 4],
    len: u64,
}

impl Checksum {
    pub(crate) fn new() -> Self {
        Checksum {
            lanes: LANE_SEEDS,
            len: 0,
        }
    }

    pub(crate) fn absorb(&mut self, bytes: &[u8]) {
        debug_assert!(
            self.len.is_multiple_of(32),
            "only the last piece may be ragged"
        );
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("eight bytes"));
        let mut round = |block: &[u8]| {
            for (lane, w) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = absorb(*lane, word(w));
            }
        };
        let blocks = bytes.chunks_exact(32);
        let tail = blocks.remainder();
        blocks.for_each(&mut round);
        if !tail.is_empty() {
            let mut padded = [0u8; 32];
            padded[..tail.len()].copy_from_slice(tail);
            round(&padded);
        }
        self.len += bytes.len() as u64;
    }

    pub(crate) fn finish(self) -> u64 {
        self.lanes.into_iter().fold(self.len, absorb)
    }
}

fn checksum_bytes(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.absorb(bytes);
    sum.finish()
}

/// The [`Frame`](crate::Frame) checksum of an f32 payload: [`Payload::checksum`] of
/// `Payload::F32(data)` without building one.
pub fn checksum_of(data: &[f32]) -> u64 {
    checksum_bytes(f32_bytes(data))
}

/// A frame's payload, held once and in wire representation: what the sender
/// packed is what the meter charges, what the checksum covers, what a
/// socket carries and what the receiver unpacks.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// IEEE binary32 values, as given.
    F32(Vec<f32>),
    /// IEEE binary16 bit patterns.
    F16(Vec<u16>),
    /// bfloat16 bit patterns.
    BF16(Vec<u16>),
}

/// Elements [`staged`] converts per round.
const STAGE: usize = 1024;

/// The one conversion loop between f32 values and wire elements: `src` is
/// converted a [`STAGE`]-element block at a time into a buffer on the
/// stack, and `land` consumes each block, at its element offset, while it
/// is still in L1. Packing appends the block to the payload and hashes it;
/// unpacking appends it to, overwrites, or adds it into the receiver's
/// buffer. Converting straight into a `vec![0; n]` instead writes the
/// result twice (the zero fill costs a third of an unpack at ring-chunk
/// sizes).
fn staged<S, D: Copy + Default>(
    src: &[S],
    convert: fn(&mut [D], &[S]),
    mut land: impl FnMut(usize, &[D]),
) {
    let mut stage = [D::default(); STAGE];
    for (i, block) in src.chunks(STAGE).enumerate() {
        let stage = &mut stage[..block.len()];
        convert(stage, block);
        land(i * STAGE, stage);
    }
}

/// `src` packed by `convert` into `reuse`, a recycled buffer as long as
/// `src`, or else into a new vector, and the checksum of the result's wire
/// bytes. The recycled buffer is cleared and appended to: its capacity
/// holds `src`, so it is never reallocated.
fn pack_staged(
    src: &[f32],
    convert: fn(&mut [u16], &[f32]),
    reuse: Option<Vec<u16>>,
) -> (Vec<u16>, u64) {
    let mut out = reuse.map_or_else(
        || Vec::with_capacity(src.len()),
        |mut out| {
            out.clear();
            out
        },
    );
    let mut sum = Checksum::new();
    staged(src, convert, |_, block| {
        out.extend_from_slice(block);
        sum.absorb(u16_bytes(block));
    });
    (out, sum.finish())
}

/// Where a received payload's values go ([`Payload::land`]).
#[derive(Debug)]
pub enum Landing<'a> {
    /// Become the vector's contents. An f32 payload is moved in; a 16-bit
    /// one is widened in place when the lengths agree, and otherwise into
    /// the cleared vector, appended block by block (no zero fill).
    Replace(&'a mut Vec<f32>),
    /// Be added elementwise into the slice, which must be as long as the
    /// payload: `acc[i] += value[i]`.
    Add(&'a mut [f32]),
}

/// Land the values [`staged`] converts from `src` as `landing` says.
fn land_staged<S>(src: &[S], convert: fn(&mut [f32], &[S]), landing: Landing<'_>) {
    match landing {
        Landing::Replace(buf) if buf.len() == src.len() => staged(src, convert, |at, block| {
            buf[at..at + block.len()].copy_from_slice(block)
        }),
        Landing::Replace(buf) => {
            buf.clear();
            buf.reserve(src.len());
            staged(src, convert, |_, block| buf.extend_from_slice(block));
        }
        Landing::Add(acc) => {
            assert_eq!(acc.len(), src.len(), "adding a payload of another length");
            staged(src, convert, |at, block| add(&mut acc[at..], block));
        }
    }
}

/// `acc[i] += xs[i]` over `xs`.
fn add(acc: &mut [f32], xs: &[f32]) {
    for (a, x) in acc.iter_mut().zip(xs) {
        *a += x;
    }
}

impl Payload {
    /// Convert `data` to its `dtype` wire representation — what a GPU
    /// casting to fp16 for the transfer would do to the values — and
    /// checksum the wire bytes in the same pass: the [`Frame`](crate::Frame) checksum,
    /// equal to [`checksum`](Self::checksum) of the payload returned.
    pub fn pack(data: &[f32], dtype: DType) -> (Payload, u64) {
        Self::pack_into(data, dtype, None)
    }

    /// [`pack`](Self::pack), a 16-bit result written into `reuse` when given.
    fn pack_into(data: &[f32], dtype: DType, reuse: Option<Vec<u16>>) -> (Payload, u64) {
        match dtype {
            DType::F32 => {
                let mut out = Vec::with_capacity(data.len());
                let mut sum = Checksum::new();
                for block in data.chunks(STAGE) {
                    out.extend_from_slice(block);
                    sum.absorb(f32_bytes(block));
                }
                (Payload::F32(out), sum.finish())
            }
            DType::F16 => {
                let (packed, sum) = pack_staged(data, pack_f16, reuse);
                (Payload::F16(packed), sum)
            }
            DType::BF16 => {
                let (packed, sum) = pack_staged(data, pack_bf16, reuse);
                (Payload::BF16(packed), sum)
            }
        }
    }

    /// The values the receiver computes with: an f32 payload is handed over
    /// as is, a 16-bit one widened. `unpack(pack(x, dtype))` is
    /// `quantize_slice(x, dtype)` bit for bit.
    pub fn unpack(self) -> Vec<f32> {
        let mut out = Vec::new();
        self.land(Landing::Replace(&mut out));
        out
    }

    /// Put the values the receiver computes with where `landing` says, bit
    /// for bit what [`unpack`](Self::unpack) returns (plus, for
    /// [`Landing::Add`], one elementwise add), and hand the payload back
    /// unless the landing took it: an f32 payload moves into a
    /// [`Landing::Replace`], every other landing only reads its payload.
    ///
    /// # Panics
    /// When a [`Landing::Add`] slice is not as long as the payload.
    pub fn land(self, landing: Landing<'_>) -> Option<Payload> {
        Some(match (self, landing) {
            (Payload::F32(data), Landing::Replace(buf)) => {
                *buf = data;
                return None;
            }
            (Payload::F32(data), Landing::Add(acc)) => {
                assert_eq!(acc.len(), data.len(), "adding a payload of another length");
                add(acc, &data);
                Payload::F32(data)
            }
            (Payload::F16(packed), landing) => {
                land_staged(&packed, unpack_f16, landing);
                Payload::F16(packed)
            }
            (Payload::BF16(packed), landing) => {
                land_staged(&packed, unpack_bf16, landing);
                Payload::BF16(packed)
            }
        })
    }

    /// An all-zero payload of `len` wire bytes for a decoder to fill, or
    /// `None` when that is not a whole number of `dtype` elements: what
    /// [`WirePool::for_reader`] hands out when it has no buffer to recycle.
    fn zeroed(dtype: DType, len: usize) -> Option<Payload> {
        let width = dtype.size_bytes();
        if !len.is_multiple_of(width) {
            return None;
        }
        let n = len / width;
        Some(match dtype {
            DType::F32 => Payload::F32(vec![0.0; n]),
            DType::F16 => Payload::F16(vec![0; n]),
            DType::BF16 => Payload::BF16(vec![0; n]),
        })
    }

    /// The storage format the payload is held in.
    pub fn dtype(&self) -> DType {
        match self {
            Payload::F32(_) => DType::F32,
            Payload::F16(_) => DType::F16,
            Payload::BF16(_) => DType::BF16,
        }
    }

    /// The payload exactly as it crosses a wire: element count × element
    /// width bytes, little-endian.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Payload::F32(data) => f32_bytes(data),
            Payload::F16(packed) | Payload::BF16(packed) => u16_bytes(packed),
        }
    }

    /// The size both ends are charged: the length of the wire bytes, so
    /// what is accounted is what is shipped by construction.
    pub fn wire_bytes(&self) -> u64 {
        self.as_bytes().len() as u64
    }

    /// [`as_bytes`](Self::as_bytes), writable: for a decoder filling the
    /// payload from a socket and for injected corruption.
    pub(crate) fn as_bytes_mut(&mut self) -> &mut [u8] {
        let (ptr, len) = match self {
            Payload::F32(data) => (data.as_mut_ptr().cast(), std::mem::size_of_val(&data[..])),
            Payload::F16(packed) | Payload::BF16(packed) => (
                packed.as_mut_ptr().cast(),
                std::mem::size_of_val(&packed[..]),
            ),
        };
        // SAFETY: as `f32_bytes`; every bit pattern is a valid `f32` and a
        // valid `u16`, so no write through the view can break the elements,
        // and the view borrows `self` exclusively.
        unsafe { std::slice::from_raw_parts_mut(ptr, len) }
    }

    /// The checksum of the wire bytes.
    pub fn checksum(&self) -> u64 {
        checksum_bytes(self.as_bytes())
    }
}

/// One endpoint's recycled 16-bit wire buffers, shared by its rank thread
/// and its transport's reader threads (see the module docs). A take matches
/// a payload's exact length, so a small frame never pins a ring-sized
/// buffer; past its bound (`for_world`) the smallest
/// idle buffer, the cheapest to allocate again, is dropped. Only a miss
/// allocates, and each is counted in [`Counter::WireBuffersAllocated`] when
/// the endpoint is metered.
pub struct WirePool {
    /// The most idle buffers kept.
    bound: usize,
    /// Idle buffers, the most recently given back last.
    idle: Mutex<Vec<Vec<u16>>>,
    metrics: Option<RankMetrics>,
}

impl std::fmt::Debug for WirePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WirePool")
            .field("idle", &self.idle())
            .finish()
    }
}

impl WirePool {
    /// The pool of one endpoint in a world of `world` ranks. It keeps at
    /// most `world` idle buffers: one for each peer, whose frames are read
    /// into the pool's buffers as they arrive (over TCP on that peer's
    /// reader thread, whenever the socket has one), and one for the rank
    /// thread's next pack. Every idle buffer is also held at the step's
    /// memory peak, so the pool keeps no more than those takers can use at
    /// once: at P = 2, a ring chunk each way. Misses are counted into
    /// `metrics`, when given.
    pub(crate) fn for_world(world: usize, metrics: Option<RankMetrics>) -> WirePool {
        WirePool {
            bound: world,
            idle: Mutex::default(),
            metrics,
        }
    }

    /// How many buffers are idle.
    pub(crate) fn idle(&self) -> usize {
        self.idle.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// An idle buffer of exactly `n` elements, holding whatever its last
    /// frame left in it, or `None` — a miss, counted — when there is none.
    /// An empty buffer costs nothing and is always a hit.
    fn take(&self, n: usize) -> Option<Vec<u16>> {
        if n == 0 {
            return Some(Vec::new());
        }
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(at) = idle.iter().rposition(|buf| buf.len() == n) {
            return Some(idle.remove(at));
        }
        drop(idle);
        if let Some(m) = &self.metrics {
            m.incr(Counter::WireBuffersAllocated);
        }
        None
    }

    /// [`Payload::pack`], a 16-bit payload packed into a recycled buffer.
    pub(crate) fn pack(&self, data: &[f32], dtype: DType) -> (Payload, u64) {
        let reuse = match dtype {
            DType::F32 => None,
            DType::F16 | DType::BF16 => self.take(data.len()),
        };
        Payload::pack_into(data, dtype, reuse)
    }

    /// A payload of `len` wire bytes for a reader to overwrite, or `None`
    /// when that is not a whole number of `dtype` elements: a recycled
    /// 16-bit buffer, else — an f32 payload, or a miss — a new zeroed one.
    pub(crate) fn for_reader(&self, dtype: DType, len: usize) -> Option<Payload> {
        if dtype != DType::F32 && len.is_multiple_of(2) {
            match self.take(len / 2) {
                Some(buf) if dtype == DType::F16 => return Some(Payload::F16(buf)),
                Some(buf) => return Some(Payload::BF16(buf)),
                None => {}
            }
        }
        Payload::zeroed(dtype, len)
    }

    /// Take `payload`'s buffer back for a later take, when it is a
    /// non-empty 16-bit one.
    pub(crate) fn give(&self, payload: Payload) {
        let (Payload::F16(buf) | Payload::BF16(buf)) = payload else {
            return;
        };
        if buf.is_empty() {
            return;
        }
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        idle.push(buf);
        let evicted = (idle.len() > self.bound).then(|| {
            let smallest = (0..idle.len()).min_by_key(|&i| idle[i].len());
            idle.remove(smallest.expect("the pool is not empty"))
        });
        drop(idle);
        drop(evicted);
    }
}

/// A received frame's verified wire form, as
/// [`recv_into`](crate::Communicator::recv_into) hands it back: the checksum it
/// arrived with, and its payload unless the landing took it (an f32 payload
/// moves into a [`Landing::Replace`]). [`send_wire`](crate::Communicator::send_wire)
/// relays it as it arrived; a caller that does not relay drops it, and its
/// buffer goes back to the receiving endpoint's [`WirePool`].
#[derive(Debug)]
pub struct Wire {
    pub(crate) payload: Option<Payload>,
    pub(crate) checksum: u64,
    pub(crate) pool: Arc<WirePool>,
}

impl Drop for Wire {
    fn drop(&mut self) {
        if let Some(payload) = self.payload.take() {
            self.pool.give(payload);
        }
    }
}

impl Wire {
    /// The payload as it arrived, unless its landing took it.
    pub fn payload(&self) -> Option<&Payload> {
        self.payload.as_ref()
    }

    /// The checksum the frame arrived with, verified against its payload.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// The wire dtype: only an f32 payload is ever taken by its landing.
    pub(crate) fn dtype(&self) -> DType {
        self.payload.as_ref().map_or(DType::F32, Payload::dtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_packs_to_the_wire_width_and_unpacks_to_the_quantised_values() {
        // Shorter than one staging block, exactly one, and several plus a
        // ragged tail; values that round, underflow, overflow and keep a
        // signed zero.
        let edge = [1.0 + 2f32.powi(-13), -3.7, 1e-7, 70000.0, -0.0];
        for n in [0, edge.len(), STAGE, 2 * STAGE + 5] {
            let xs: Vec<f32> = (0..n)
                .map(|i| edge[i % edge.len()] * (1 + i / 5) as f32)
                .collect();
            for dtype in [DType::F32, DType::F16, DType::BF16] {
                let (p, sum) = Payload::pack(&xs, dtype);
                assert_eq!(sum, p.checksum(), "{dtype} n={n}: fused checksum");
                assert_eq!(p.dtype(), dtype);
                assert_eq!(p.wire_bytes(), (n * dtype.size_bytes()) as u64);
                assert_eq!(p.as_bytes().len() as u64, p.wire_bytes());
                let mut want = xs.clone();
                wp_tensor::dtype::quantize_slice(&mut want, dtype);
                let got = p.unpack();
                assert_eq!(got.len(), n);
                assert!(got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits()));
            }
        }
        assert_eq!(
            Payload::F32(vec![1.0]).checksum(),
            checksum_of(&[1.0]),
            "checksum_of is the F32 payload's checksum"
        );
    }

    /// The checksum `pack` hashes block by block is the payload's, for every
    /// dtype and every ragged length: within a 32-byte round, around one,
    /// and around the staging block.
    #[test]
    fn fused_pack_checksum_is_the_payload_checksum() {
        let ragged = (0..=40).chain([STAGE - 1, STAGE + 1, 2 * STAGE + 5, 3 * STAGE + 17]);
        for n in ragged {
            let xs: Vec<f32> = (0..n).map(|i| i as f32 * -0.731 + 0.5).collect();
            for dtype in [DType::F32, DType::F16, DType::BF16] {
                let (p, sum) = Payload::pack(&xs, dtype);
                assert_eq!(sum, p.checksum(), "{dtype} n={n}");
            }
            assert_eq!(Payload::pack(&xs, DType::F32).1, checksum_of(&xs), "n={n}");
        }
    }

    /// Every landing is `unpack()`, or `unpack()` and one elementwise add,
    /// bit for bit, with the values held against their definition
    /// (`quantize_slice`): per dtype, over lengths around the staging block,
    /// into buffers as long as the payload and of other lengths.
    #[test]
    fn landings_match_unpack_bit_for_bit() {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0, 1, STAGE, 2 * STAGE + 5] {
            let xs: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 1e3).collect();
            let acc: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos() * 1e-3).collect();
            for dtype in [DType::F32, DType::F16, DType::BF16] {
                let (payload, _) = Payload::pack(&xs, dtype);
                let mut values = xs.clone();
                wp_tensor::dtype::quantize_slice(&mut values, dtype);
                let unpacked = payload.clone().unpack();
                assert_eq!(bits(&unpacked), bits(&values), "{dtype} n={n} unpack");
                for len in [n, 0, n + 3, n / 2] {
                    let mut buf = vec![-1.5f32; len];
                    payload.clone().land(Landing::Replace(&mut buf));
                    assert_eq!(
                        bits(&buf),
                        bits(&values),
                        "{dtype} n={n} replace into {len}"
                    );
                }
                let mut want = acc.clone();
                for (w, v) in want.iter_mut().zip(&values) {
                    *w += v;
                }
                let mut got = acc.clone();
                payload.land(Landing::Add(&mut got));
                assert_eq!(bits(&got), bits(&want), "{dtype} n={n} add");
            }
        }
    }

    #[test]
    #[should_panic(expected = "another length")]
    fn adding_a_payload_of_another_length_panics() {
        let (payload, _) = Payload::pack(&[1.0; 3], DType::F16);
        payload.land(Landing::Add(&mut [0.0; 4]));
    }

    #[test]
    fn checksums_accept_honest_payloads() {
        assert_eq!(checksum_of(&[]), checksum_of(&[]));
        assert_ne!(checksum_of(&[1.0]), checksum_of(&[1.0000001]));
        // -0.0 and 0.0 have different bit patterns and must hash apart.
        assert_ne!(checksum_of(&[0.0]), checksum_of(&[-0.0]));
    }

    #[test]
    fn checksum_sees_every_bit_every_position_and_the_length() {
        let bytes: Vec<u8> = (0..70u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=bytes.len() {
            let honest = checksum_bytes(&bytes[..len]);
            let mut flipped = bytes[..len].to_vec();
            for bit in 0..len * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum_bytes(&flipped), honest, "len {len} bit {bit}");
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            // Zero padding is not the payload: the length is hashed.
            let mut longer = bytes[..len].to_vec();
            for extra in 1..=33 {
                longer.push(0);
                assert_ne!(checksum_bytes(&longer), honest, "len {len} + {extra} zeros");
            }
        }
        // Positional: two words exchanged — across lanes, and within one
        // lane a round apart — hash apart.
        let honest = checksum_bytes(&bytes[..64]);
        for (a, b) in [(0, 1), (1, 3), (2, 6), (0, 4), (3, 7)] {
            let mut swapped = bytes[..64].to_vec();
            for i in 0..8 {
                swapped.swap(a * 8 + i, b * 8 + i);
            }
            assert_ne!(checksum_bytes(&swapped), honest, "words {a} and {b}");
        }
    }

    /// Packing into a recycled buffer, whatever its last frame left in it,
    /// gives the payload and checksum a fresh pack gives, in that buffer.
    #[test]
    fn a_recycled_buffer_packs_what_a_fresh_one_does() {
        for n in [1, 31, STAGE, 2 * STAGE + 5] {
            let xs: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61).cos() * 7e3).collect();
            for dtype in [DType::F16, DType::BF16] {
                let pool = WirePool::for_world(2, None);
                let stale = vec![0xAAAA; n];
                let at = stale.as_ptr();
                pool.give(Payload::F16(stale));
                let (payload, sum) = pool.pack(&xs, dtype);
                assert_eq!(
                    (payload.clone(), sum),
                    Payload::pack(&xs, dtype),
                    "{dtype} n={n}"
                );
                let (Payload::F16(got) | Payload::BF16(got)) = payload else {
                    panic!("{dtype}: not a 16-bit payload")
                };
                assert_eq!(got.as_ptr(), at, "{dtype} n={n}: the idle buffer was taken");
                assert_eq!(pool.idle(), 0);
            }
        }
    }

    /// A take matches the exact length, f32 payloads and empty buffers are
    /// never kept, and past its bound the pool drops its smallest buffer.
    #[test]
    fn a_pool_matches_lengths_and_keeps_its_bound_and_its_largest_buffers() {
        let pool = WirePool::for_world(2, None);
        pool.give(Payload::F32(vec![1.0; 8]));
        pool.give(Payload::F16(Vec::new()));
        assert_eq!(pool.idle(), 0);
        for n in [5, 3, 7, 4] {
            pool.give(Payload::BF16(vec![0x5555; n]));
        }
        assert_eq!(pool.idle(), 2);
        let lens = |pool: &WirePool| -> Vec<usize> {
            let idle = pool.idle.lock().unwrap();
            idle.iter().map(Vec::len).collect()
        };
        assert_eq!(lens(&pool), [5, 7]);
        // No idle buffer is six elements long: a new one is made, and the
        // idle ones stay.
        let (payload, _) = pool.pack(&[0.5; 6], DType::F16);
        assert_eq!(payload.wire_bytes(), 12);
        assert_eq!(lens(&pool), [5, 7]);
        assert_eq!(pool.for_reader(DType::BF16, 14).unwrap().wire_bytes(), 14);
        assert_eq!(lens(&pool), [5]);
        assert!(
            pool.for_reader(DType::F16, 9).is_none(),
            "not whole elements"
        );
        assert_eq!(pool.for_reader(DType::F32, 20).unwrap().dtype(), DType::F32);
        assert_eq!(lens(&pool), [5]);
    }
}
