//! Checkpointing: small versioned binary formats (little-endian) for model
//! parameters and for full training state.
//!
//! Two formats share one header shape:
//!
//! * `WPCKPT01` — model parameters only: magic, the nine config integers,
//!   RoPE theta and norm epsilon, then the embed / per-block / head buffers
//!   as raw `f32`s.
//! * `WPCKPT02` — full training state for elastic recovery: the same config
//!   header, then the run seed, the next iteration index, the loss scale,
//!   and one [`ComponentState`] (working weights + fp32 master + optimizer
//!   step count and state buffers) for the embed, every *layer*, and the
//!   head. Per-layer granularity is what makes re-sharding trivial: a world
//!   of any size whose rank count divides the layer count can re-chunk the
//!   snapshot by concatenating layer buffers.
//!
//! Both end with a u64 FNV-1a checksum of the byte stream, so truncation or
//! corruption is detected on load. All failures surface as the typed
//! [`CheckpointError`] — never a panic, never an allocation sized from
//! untrusted input.

use crate::config::ModelConfig;
use crate::model::Model;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC_MODEL: &[u8; 8] = b"WPCKPT01";
const MAGIC_STATE: &[u8; 8] = b"WPCKPT02";

/// Typed checkpoint load/save failure.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure (file missing, permission, disk).
    Io(io::Error),
    /// The byte stream ended before the format said it would.
    Truncated,
    /// The trailing FNV-1a checksum does not match the body.
    ChecksumMismatch,
    /// The stream does not start with the expected magic/version tag —
    /// either not a checkpoint at all, or a different format version.
    BadMagic {
        /// The magic the loader was looking for.
        expected: &'static str,
    },
    /// A config dimension is zero or absurdly large; buffer sizes derived
    /// from it would be meaningless (or overflow).
    ImplausibleConfig {
        /// Which config field failed the plausibility bound.
        field: &'static str,
        /// The stored value.
        value: u64,
    },
    /// A stored buffer length disagrees with the config-derived size.
    BufferLen {
        /// Element count the config implies.
        expected: usize,
        /// Element count the stream claims.
        found: usize,
    },
    /// The per-block section holds a different number of blocks than the
    /// config's layer count.
    BlockCount {
        /// `config.layers`.
        expected: usize,
        /// Stored block count.
        found: usize,
    },
    /// The snapshot cannot be re-sharded onto the requested world: the
    /// layer count is not divisible by the rank count.
    WorldMismatch {
        /// Layers in the snapshot.
        layers: usize,
        /// Ranks in the target world.
        ranks: usize,
    },
    /// Optimizer state has an invalid shape (wrong buffer count across
    /// components, or a buffer sized for a different parameter count).
    OptState(String),
    /// The parameter buffers do not assemble into a valid [`Model`].
    Model(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::BadMagic { expected } => {
                write!(f, "not a {expected} checkpoint (wrong magic or version)")
            }
            CheckpointError::ImplausibleConfig { field, value } => {
                write!(f, "implausible config field {field} = {value}")
            }
            CheckpointError::BufferLen { expected, found } => write!(
                f,
                "buffer length {found} does not match the {expected} elements implied by the config"
            ),
            CheckpointError::BlockCount { expected, found } => {
                write!(f, "block count {found} != config layers {expected}")
            }
            CheckpointError::WorldMismatch { layers, ranks } => write!(
                f,
                "snapshot with {layers} layers cannot shard onto {ranks} ranks \
                 (layers must divide evenly)"
            ),
            CheckpointError::OptState(s) => write!(f, "optimizer state mismatch: {s}"),
            CheckpointError::Model(s) => write!(f, "invalid model buffers: {s}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated
        } else {
            CheckpointError::Io(e)
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

struct CountingHashWriter<W: Write> {
    inner: W,
    hash: u64,
}

impl<W: Write> CountingHashWriter<W> {
    fn new(inner: W) -> Self {
        CountingHashWriter {
            inner,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl<W: Write> Write for CountingHashWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        for &b in &buf[..n] {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x1000_0000_01b3);
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f32s<W: Write>(w: &mut W, xs: &[f32]) -> io::Result<()> {
    write_u64(w, xs.len() as u64)?;
    for &x in xs {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, CheckpointError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f32(r: &mut impl Read) -> Result<f32, CheckpointError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

/// Read one length-prefixed f32 buffer, requiring the stored length to match
/// the config-derived `expected` element count exactly. A forged or corrupt
/// length field fails with [`CheckpointError::BufferLen`] *before* any
/// allocation is sized from untrusted input.
fn read_f32s<R: Read>(r: &mut R, expected: usize) -> Result<Vec<f32>, CheckpointError> {
    let n = read_u64(r)? as usize;
    if n != expected {
        return Err(CheckpointError::BufferLen { expected, found: n });
    }
    let mut bytes = vec![0u8; n * 4];
    r.read_exact(&mut bytes)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Like [`read_f32s`], but the buffer may also be empty (an optimizer with
/// no state for this component, e.g. momentum-free SGD).
fn read_f32s_maybe_empty<R: Read>(r: &mut R, expected: usize) -> Result<Vec<f32>, CheckpointError> {
    let n = read_u64(r)? as usize;
    if n != expected && n != 0 {
        return Err(CheckpointError::BufferLen { expected, found: n });
    }
    let mut bytes = vec![0u8; n * 4];
    r.read_exact(&mut bytes)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// The config slot that once chose between two attention kernels. Blocks
/// run streaming attention only, so it is always written as this; a reader
/// also accepts 0, which older snapshots of the same model may hold.
const ATTN_STREAMING: usize = 1;

fn write_config<W: Write>(w: &mut W, c: &ModelConfig) -> io::Result<()> {
    for v in [
        c.hidden,
        c.heads,
        c.kv_heads,
        c.ffn,
        c.layers,
        c.vocab,
        c.max_seq,
        ATTN_STREAMING,
    ] {
        write_u64(w, v as u64)?;
    }
    w.write_all(&c.eps.to_le_bytes())?;
    w.write_all(&c.rope_theta.to_le_bytes())
}

fn read_config<R: Read>(r: &mut R) -> Result<ModelConfig, CheckpointError> {
    let hidden = read_u64(r)? as usize;
    let heads = read_u64(r)? as usize;
    let kv_heads = read_u64(r)? as usize;
    let ffn = read_u64(r)? as usize;
    let layers = read_u64(r)? as usize;
    let vocab = read_u64(r)? as usize;
    let max_seq = read_u64(r)? as usize;
    let attn = read_u64(r)?;
    if attn > ATTN_STREAMING as u64 {
        return Err(CheckpointError::ImplausibleConfig {
            field: "attn",
            value: attn,
        });
    }
    // Bound every dimension before deriving buffer sizes from them, so the
    // expected-length products below cannot overflow.
    for (name, v) in [
        ("hidden", hidden),
        ("heads", heads),
        ("kv_heads", kv_heads),
        ("ffn", ffn),
        ("layers", layers),
        ("vocab", vocab),
        ("max_seq", max_seq),
    ] {
        if v == 0 || v > (1 << 24) {
            return Err(CheckpointError::ImplausibleConfig {
                field: name,
                value: v as u64,
            });
        }
    }
    let eps = read_f32(r)?;
    let rope_theta = read_f32(r)?;
    Ok(ModelConfig {
        hidden,
        heads,
        kv_heads,
        ffn,
        layers,
        vocab,
        max_seq,
        eps,
        rope_theta,
    })
}

/// Verify the trailing checksum and strip magic; returns the body after the
/// magic. Shared prologue of both loaders.
fn open_body<'a>(all: &'a [u8], magic: &'static [u8; 8]) -> Result<&'a [u8], CheckpointError> {
    if all.len() < magic.len() + 8 {
        return Err(CheckpointError::Truncated);
    }
    let (body, tail) = all.split_at(all.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a(body) != stored {
        return Err(CheckpointError::ChecksumMismatch);
    }
    if &body[..8] != magic {
        let expected = if magic == MAGIC_STATE {
            "WPCKPT02"
        } else {
            "WPCKPT01"
        };
        return Err(CheckpointError::BadMagic { expected });
    }
    Ok(&body[8..])
}

// ---- WPCKPT01: model parameters ---------------------------------------

/// Serialize a model into any writer.
///
/// # Errors
/// [`CheckpointError::Io`] on any write failure.
pub fn save_model_to<W: Write>(w: W, model: &Model) -> Result<(), CheckpointError> {
    let mut w = CountingHashWriter::new(w);
    w.write_all(MAGIC_MODEL)?;
    write_config(&mut w, &model.cfg)?;
    write_f32s(&mut w, &model.embed)?;
    write_u64(&mut w, model.blocks.len() as u64)?;
    for b in &model.blocks {
        write_f32s(&mut w, b)?;
    }
    write_f32s(&mut w, &model.head)?;
    let hash = w.hash;
    write_u64(&mut w, hash)?;
    w.flush()?;
    Ok(())
}

/// Save a model to a file.
///
/// # Errors
/// Same as [`save_model_to`].
pub fn save_model(path: impl AsRef<Path>, model: &Model) -> Result<(), CheckpointError> {
    let f = std::fs::File::create(path).map_err(CheckpointError::Io)?;
    save_model_to(io::BufWriter::new(f), model)
}

/// Deserialize a model from any reader.
///
/// # Errors
/// Any [`CheckpointError`] variant describing where the stream went wrong.
pub fn load_model_from<R: Read>(mut r: R) -> Result<Model, CheckpointError> {
    // Read everything so the checksum can be verified before parsing bodies.
    let mut all = Vec::new();
    r.read_to_end(&mut all).map_err(CheckpointError::Io)?;
    let mut r = open_body(&all, MAGIC_MODEL)?;
    let cfg = read_config(&mut r)?;
    let embed = read_f32s(&mut r, cfg.embed_params())?;
    let nblocks = read_u64(&mut r)? as usize;
    if nblocks != cfg.layers {
        return Err(CheckpointError::BlockCount {
            expected: cfg.layers,
            found: nblocks,
        });
    }
    let mut blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        blocks.push(read_f32s(&mut r, cfg.block_params())?);
    }
    let head = read_f32s(&mut r, cfg.head_params())?;
    Model::from_parts(cfg, embed, blocks, head).map_err(CheckpointError::Model)
}

/// Load a model from a file.
///
/// # Errors
/// Same as [`load_model_from`].
pub fn load_model(path: impl AsRef<Path>) -> Result<Model, CheckpointError> {
    let f = std::fs::File::open(path).map_err(CheckpointError::Io)?;
    load_model_from(io::BufReader::new(f))
}

// ---- WPCKPT02: full training state ------------------------------------

/// One parameter buffer's full training state: the (possibly quantized)
/// working weights, the fp32 master copy, and the optimizer's step count and
/// state buffers for it.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentState {
    /// Working copy, in wire precision.
    pub weights: Vec<f32>,
    /// fp32 master copy (same length as `weights`).
    pub master: Vec<f32>,
    /// Optimizer step count applied to this buffer.
    pub opt_t: u64,
    /// Optimizer state buffers in the optimizer's fixed order (AdamW: m, v;
    /// SGD: velocity, possibly empty). Each is empty or `weights.len()`.
    pub opt_bufs: Vec<Vec<f32>>,
}

impl ComponentState {
    fn check(&self, expected: usize, what: &str) -> Result<(), CheckpointError> {
        if self.weights.len() != expected {
            return Err(CheckpointError::BufferLen {
                expected,
                found: self.weights.len(),
            });
        }
        if self.master.len() != expected {
            return Err(CheckpointError::BufferLen {
                expected,
                found: self.master.len(),
            });
        }
        for b in &self.opt_bufs {
            if !b.is_empty() && b.len() != expected {
                return Err(CheckpointError::OptState(format!(
                    "{what}: state buffer sized {} for a {expected}-element component",
                    b.len()
                )));
            }
        }
        Ok(())
    }
}

/// Versioned full-training-state snapshot (`WPCKPT02`): everything needed to
/// resume a run deterministically — model weights and fp32 masters,
/// optimizer moments and step counts, the loss scale, the data cursor
/// (`next_iter`; batch selection is keyed on the absolute iteration index),
/// and the RNG seed all initialization derived from.
///
/// Blocks are stored per *layer*, not per rank-chunk, so the same snapshot
/// re-shards onto any world whose rank count divides the layer count.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Model architecture.
    pub config: ModelConfig,
    /// The run's base RNG seed (data order and any fresh init derive from it).
    pub seed: u64,
    /// First iteration the resumed run should execute (the data cursor).
    pub next_iter: u64,
    /// Loss scale in effect at the snapshot instant.
    pub loss_scale: f32,
    /// Embedding table state.
    pub embed: ComponentState,
    /// One entry per transformer layer, in layer order.
    pub blocks: Vec<ComponentState>,
    /// LM head state.
    pub head: ComponentState,
}

impl TrainState {
    /// Validate internal consistency: buffer lengths against the config,
    /// per-layer block count, and a uniform optimizer-state shape across
    /// all components.
    ///
    /// # Errors
    /// The first inconsistency found, as a typed [`CheckpointError`].
    pub fn validate(&self) -> Result<(), CheckpointError> {
        self.embed.check(self.config.embed_params(), "embed")?;
        if self.blocks.len() != self.config.layers {
            return Err(CheckpointError::BlockCount {
                expected: self.config.layers,
                found: self.blocks.len(),
            });
        }
        let nbufs = self.embed.opt_bufs.len();
        for (i, b) in self.blocks.iter().enumerate() {
            b.check(self.config.block_params(), "block")?;
            if b.opt_bufs.len() != nbufs {
                return Err(CheckpointError::OptState(format!(
                    "layer {i} has {} optimizer buffers, embed has {nbufs}",
                    b.opt_bufs.len()
                )));
            }
        }
        self.head.check(self.config.head_params(), "head")?;
        if self.head.opt_bufs.len() != nbufs {
            return Err(CheckpointError::OptState(format!(
                "head has {} optimizer buffers, embed has {nbufs}",
                self.head.opt_bufs.len()
            )));
        }
        Ok(())
    }

    /// Check the snapshot can shard onto a world of `ranks` ranks.
    ///
    /// # Errors
    /// [`CheckpointError::WorldMismatch`] when the layer count is not
    /// divisible by `ranks`.
    pub fn check_world(&self, ranks: usize) -> Result<(), CheckpointError> {
        if ranks == 0 || !self.config.layers.is_multiple_of(ranks) {
            return Err(CheckpointError::WorldMismatch {
                layers: self.config.layers,
                ranks,
            });
        }
        Ok(())
    }
}

fn write_component<W: Write>(w: &mut W, c: &ComponentState) -> io::Result<()> {
    write_f32s(w, &c.weights)?;
    write_f32s(w, &c.master)?;
    write_u64(w, c.opt_t)?;
    write_u64(w, c.opt_bufs.len() as u64)?;
    for b in &c.opt_bufs {
        write_f32s(w, b)?;
    }
    Ok(())
}

fn read_component<R: Read>(r: &mut R, expected: usize) -> Result<ComponentState, CheckpointError> {
    let weights = read_f32s(r, expected)?;
    let master = read_f32s(r, expected)?;
    let opt_t = read_u64(r)?;
    let nbufs = read_u64(r)? as usize;
    // An optimizer ships at most a handful of state buffers; a large count
    // here is a corrupt stream, not a real optimizer.
    if nbufs > 16 {
        return Err(CheckpointError::OptState(format!(
            "{nbufs} optimizer state buffers claimed (max 16)"
        )));
    }
    let mut opt_bufs = Vec::with_capacity(nbufs);
    for _ in 0..nbufs {
        opt_bufs.push(read_f32s_maybe_empty(r, expected)?);
    }
    Ok(ComponentState {
        weights,
        master,
        opt_t,
        opt_bufs,
    })
}

/// Serialize a training-state snapshot into any writer.
///
/// # Errors
/// [`CheckpointError::Io`] on write failure, or any validation error from
/// [`TrainState::validate`] (the state is validated before a byte is
/// written).
pub fn save_train_state_to<W: Write>(w: W, state: &TrainState) -> Result<(), CheckpointError> {
    state.validate()?;
    let mut w = CountingHashWriter::new(w);
    w.write_all(MAGIC_STATE)?;
    write_config(&mut w, &state.config)?;
    write_u64(&mut w, state.seed)?;
    write_u64(&mut w, state.next_iter)?;
    w.write_all(&state.loss_scale.to_le_bytes())?;
    write_component(&mut w, &state.embed)?;
    write_u64(&mut w, state.blocks.len() as u64)?;
    for b in &state.blocks {
        write_component(&mut w, b)?;
    }
    write_component(&mut w, &state.head)?;
    let hash = w.hash;
    write_u64(&mut w, hash)?;
    w.flush()?;
    Ok(())
}

/// Save a training-state snapshot to a file.
///
/// # Errors
/// Same as [`save_train_state_to`].
pub fn save_train_state(path: impl AsRef<Path>, state: &TrainState) -> Result<(), CheckpointError> {
    let f = std::fs::File::create(path).map_err(CheckpointError::Io)?;
    save_train_state_to(io::BufWriter::new(f), state)
}

/// Deserialize a training-state snapshot from any reader. The checksum is
/// verified before any body parsing, every buffer length is validated
/// against the config before allocation, and the result passes
/// [`TrainState::validate`].
///
/// # Errors
/// Any [`CheckpointError`] variant describing where the stream went wrong.
pub fn load_train_state_from<R: Read>(mut r: R) -> Result<TrainState, CheckpointError> {
    let mut all = Vec::new();
    r.read_to_end(&mut all).map_err(CheckpointError::Io)?;
    let mut r = open_body(&all, MAGIC_STATE)?;
    let config = read_config(&mut r)?;
    let seed = read_u64(&mut r)?;
    let next_iter = read_u64(&mut r)?;
    let loss_scale = read_f32(&mut r)?;
    let embed = read_component(&mut r, config.embed_params())?;
    let nblocks = read_u64(&mut r)? as usize;
    if nblocks != config.layers {
        return Err(CheckpointError::BlockCount {
            expected: config.layers,
            found: nblocks,
        });
    }
    let mut blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        blocks.push(read_component(&mut r, config.block_params())?);
    }
    let head = read_component(&mut r, config.head_params())?;
    let state = TrainState {
        config,
        seed,
        next_iter,
        loss_scale,
        embed,
        blocks,
        head,
    };
    state.validate()?;
    Ok(state)
}

/// Load a training-state snapshot from a file.
///
/// # Errors
/// Same as [`load_train_state_from`].
pub fn load_train_state(path: impl AsRef<Path>) -> Result<TrainState, CheckpointError> {
    let f = std::fs::File::open(path).map_err(CheckpointError::Io)?;
    load_train_state_from(io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> Model {
        Model::new(&ModelConfig::tiny(2).with_gqa(1), 77)
    }

    fn state() -> TrainState {
        let m = model();
        let comp = |w: &[f32], salt: f32| ComponentState {
            weights: w.to_vec(),
            master: w.iter().map(|x| x + salt).collect(),
            opt_t: 3,
            opt_bufs: vec![vec![salt; w.len()], vec![salt * 2.0; w.len()]],
        };
        TrainState {
            config: m.cfg.clone(),
            seed: 77,
            next_iter: 5,
            loss_scale: 1024.0,
            embed: comp(&m.embed, 0.25),
            blocks: m.blocks.iter().map(|b| comp(b, 0.5)).collect(),
            head: comp(&m.head, 0.75),
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = model();
        let mut buf = Vec::new();
        save_model_to(&mut buf, &m).expect("save");
        let loaded = load_model_from(&buf[..]).expect("load");
        assert_eq!(loaded.embed, m.embed);
        assert_eq!(loaded.blocks, m.blocks);
        assert_eq!(loaded.head, m.head);
        assert_eq!(loaded.cfg.hidden, m.cfg.hidden);
        assert_eq!(loaded.cfg.kv_heads, m.cfg.kv_heads);
        // Loaded model computes identically.
        let ids = [1u32, 2, 3, 4];
        let a = m.forward(&ids, 1, 4);
        let b = loaded.forward(&ids, 1, 4);
        assert_eq!(a.logits(), b.logits());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("wp_ckpt_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("m.wpckpt");
        let m = model();
        save_model(&path, &m).expect("save");
        let loaded = load_model(&path).expect("load");
        assert_eq!(loaded.head, m.head);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let m = model();
        let mut buf = Vec::new();
        save_model_to(&mut buf, &m).expect("save");
        // Flip one parameter byte mid-stream.
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        let err = load_model_from(&buf[..]).expect_err("must fail");
        assert!(matches!(err, CheckpointError::ChecksumMismatch), "{err}");
    }

    #[test]
    fn truncation_is_detected() {
        let m = model();
        let mut buf = Vec::new();
        save_model_to(&mut buf, &m).expect("save");
        buf.truncate(buf.len() - 100);
        assert!(load_model_from(&buf[..]).is_err());
    }

    /// Offset of the embed buffer's u64 length field: magic (8) + eight
    /// config u64s (64) + eps (4) + rope_theta (4).
    const EMBED_LEN_OFF: usize = 8 + 8 * 8 + 4 + 4;

    #[test]
    fn forged_length_field_rejected_before_allocating() {
        let m = model();
        let mut buf = Vec::new();
        save_model_to(&mut buf, &m).expect("save");
        // Claim an absurd 2^32-element embed buffer (a 16 GiB allocation if
        // believed), then re-append a valid checksum over the edited body.
        buf[EMBED_LEN_OFF..EMBED_LEN_OFF + 8].copy_from_slice(&(1u64 << 32).to_le_bytes());
        let body_end = buf.len() - 8;
        let h = super::fnv1a(&buf[..body_end]);
        buf[body_end..].copy_from_slice(&h.to_le_bytes());
        let err = load_model_from(&buf[..]).expect_err("must fail");
        assert!(matches!(err, CheckpointError::BufferLen { .. }), "{err}");
    }

    #[test]
    fn off_by_one_length_rejected() {
        let m = model();
        let expected = m.cfg.embed_params() as u64;
        let mut buf = Vec::new();
        save_model_to(&mut buf, &m).expect("save");
        buf[EMBED_LEN_OFF..EMBED_LEN_OFF + 8].copy_from_slice(&(expected + 1).to_le_bytes());
        let body_end = buf.len() - 8;
        let h = super::fnv1a(&buf[..body_end]);
        buf[body_end..].copy_from_slice(&h.to_le_bytes());
        let err = load_model_from(&buf[..]).expect_err("must fail");
        assert!(matches!(err, CheckpointError::BufferLen { .. }), "{err}");
    }

    #[test]
    fn implausible_config_field_rejected() {
        let m = model();
        let mut buf = Vec::new();
        save_model_to(&mut buf, &m).expect("save");
        // Claim 2^40 hidden units (first config u64, right after the magic).
        buf[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let body_end = buf.len() - 8;
        let h = super::fnv1a(&buf[..body_end]);
        buf[body_end..].copy_from_slice(&h.to_le_bytes());
        let err = load_model_from(&buf[..]).expect_err("must fail");
        assert!(
            matches!(
                err,
                CheckpointError::ImplausibleConfig {
                    field: "hidden",
                    ..
                }
            ),
            "{err}"
        );
    }

    /// The eighth config u64 is the retired attention-kernel slot: written
    /// as 1, read back as 0 or 1 (either loads the same config), anything
    /// else is not a snapshot this code wrote.
    #[test]
    fn attn_slot_accepts_zero_or_one_only() {
        const ATTN_OFF: usize = 8 + 7 * 8;
        let m = model();
        let mut saved = Vec::new();
        save_model_to(&mut saved, &m).expect("save");
        assert_eq!(saved[ATTN_OFF..ATTN_OFF + 8], 1u64.to_le_bytes());
        let with_slot = |v: u64| {
            let mut buf = saved.clone();
            buf[ATTN_OFF..ATTN_OFF + 8].copy_from_slice(&v.to_le_bytes());
            let body_end = buf.len() - 8;
            let h = super::fnv1a(&buf[..body_end]);
            buf[body_end..].copy_from_slice(&h.to_le_bytes());
            load_model_from(&buf[..])
        };
        assert_eq!(with_slot(0).expect("old naive snapshot").cfg, m.cfg);
        assert_eq!(with_slot(1).expect("streaming snapshot").cfg, m.cfg);
        let err = with_slot(2).expect_err("must fail");
        assert!(
            matches!(
                err,
                CheckpointError::ImplausibleConfig {
                    field: "attn",
                    value: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut buf = b"NOTACKPT".to_vec();
        buf.extend_from_slice(&[0u8; 64]);
        // Append a valid checksum so the magic check is what fires.
        let h = super::fnv1a(&buf);
        buf.extend_from_slice(&h.to_le_bytes());
        let err = load_model_from(&buf[..]).expect_err("must fail");
        assert!(
            matches!(
                err,
                CheckpointError::BadMagic {
                    expected: "WPCKPT01"
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn train_state_roundtrip_is_bit_exact() {
        let s = state();
        let mut buf = Vec::new();
        save_train_state_to(&mut buf, &s).expect("save");
        let loaded = load_train_state_from(&buf[..]).expect("load");
        assert_eq!(loaded, s);
    }

    #[test]
    fn train_state_file_roundtrip() {
        let dir = std::env::temp_dir().join("wp_ckpt_state_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("s.wpckpt");
        let s = state();
        save_train_state(&path, &s).expect("save");
        let loaded = load_train_state(&path).expect("load");
        assert_eq!(loaded, s);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_is_typed() {
        // A WPCKPT01 model file is not a WPCKPT02 train state, and vice versa.
        let m = model();
        let mut buf = Vec::new();
        save_model_to(&mut buf, &m).expect("save");
        let err = load_train_state_from(&buf[..]).expect_err("must fail");
        assert!(
            matches!(
                err,
                CheckpointError::BadMagic {
                    expected: "WPCKPT02"
                }
            ),
            "{err}"
        );
        let s = state();
        let mut buf = Vec::new();
        save_train_state_to(&mut buf, &s).expect("save");
        let err = load_model_from(&buf[..]).expect_err("must fail");
        assert!(
            matches!(
                err,
                CheckpointError::BadMagic {
                    expected: "WPCKPT01"
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn world_mismatch_is_typed() {
        let s = state(); // 2 layers
        s.check_world(1).expect("1 divides 2");
        s.check_world(2).expect("2 divides 2");
        let err = s.check_world(3).expect_err("3 does not divide 2");
        assert!(
            matches!(
                err,
                CheckpointError::WorldMismatch {
                    layers: 2,
                    ranks: 3
                }
            ),
            "{err}"
        );
        assert!(s.check_world(0).is_err());
    }

    #[test]
    fn non_uniform_opt_state_rejected() {
        let mut s = state();
        s.blocks[1].opt_bufs.pop();
        let err = s.validate().expect_err("must fail");
        assert!(matches!(err, CheckpointError::OptState(_)), "{err}");
        let mut buf = Vec::new();
        assert!(save_train_state_to(&mut buf, &state()).is_ok());
        assert!(save_train_state_to(&mut buf, &s).is_err());
    }

    #[test]
    fn oversized_opt_buffer_count_rejected() {
        let s = state();
        let mut buf = Vec::new();
        save_train_state_to(&mut buf, &s).expect("save");
        // The embed component's opt-buffer count lives after its two
        // length-prefixed buffers and the opt_t u64.
        let embed_n = s.config.embed_params();
        let off = EMBED_LEN_OFF + 8 + 8 // seed + next_iter
            + 4 // loss_scale
            + (8 + 4 * embed_n) * 2 // weights + master
            + 8; // opt_t
        buf[off..off + 8].copy_from_slice(&(1u64 << 32).to_le_bytes());
        let body_end = buf.len() - 8;
        let h = super::fnv1a(&buf[..body_end]);
        buf[body_end..].copy_from_slice(&h.to_le_bytes());
        let err = load_train_state_from(&buf[..]).expect_err("must fail");
        assert!(matches!(err, CheckpointError::OptState(_)), "{err}");
    }

    proptest! {
        /// Fuzz the header/stream: any single-byte corruption of a valid
        /// snapshot loads as a typed error (never a panic, never success).
        #[test]
        fn corrupted_byte_never_panics(idx in 0usize..10_000, flip in 1u8..=255) {
            let s = state();
            let mut buf = Vec::new();
            save_train_state_to(&mut buf, &s).expect("save");
            let i = idx % buf.len();
            buf[i] ^= flip;
            prop_assert!(load_train_state_from(&buf[..]).is_err());
        }

        /// Any truncation of a valid snapshot is a typed error.
        #[test]
        fn truncation_never_panics(keep in 0usize..10_000) {
            let s = state();
            let mut buf = Vec::new();
            save_train_state_to(&mut buf, &s).expect("save");
            let keep = keep % buf.len();
            buf.truncate(keep);
            prop_assert!(load_train_state_from(&buf[..]).is_err());
        }

        /// Arbitrary garbage prefixed with the right magic still fails
        /// typed instead of panicking or over-allocating.
        #[test]
        fn garbage_body_never_panics(len in 0usize..256, seed in 0u64..u64::MAX) {
            let mut buf = b"WPCKPT02".to_vec();
            let mut x = seed | 1;
            for _ in 0..len {
                // xorshift64 byte stream — deterministic per proptest case.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                buf.push(x as u8);
            }
            let h = super::fnv1a(&buf);
            buf.extend_from_slice(&h.to_le_bytes());
            prop_assert!(load_train_state_from(&buf[..]).is_err());
        }
    }
}
