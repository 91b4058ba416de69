//! Model checkpoint serialization.
//!
//! Production fine-tuning (the paper's primary use case for the NVMe tier,
//! §III-G) starts from a *pre-trained checkpoint*. This module defines a
//! compact binary container for a [`Transformer`]'s configuration and
//! parameters — magic + version + config header followed by per-group f32
//! little-endian payloads — built on the `bytes` crate for zero-copy
//! parsing.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::config::ModelConfig;
use crate::transformer::Transformer;

/// File magic: `SHCK`.
pub const MAGIC: u32 = 0x5348_434B;
/// Container format version.
pub const VERSION: u16 = 1;

/// Serialization / deserialization errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Magic or version mismatch.
    BadHeader(String),
    /// Payload ended early or sizes disagree with the embedded config.
    Truncated(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadHeader(m) => write!(f, "bad checkpoint header: {m}"),
            CheckpointError::Truncated(m) => write!(f, "truncated checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn put_f32s(buf: &mut BytesMut, data: &[f32]) {
    buf.reserve(data.len() * 4);
    for v in data {
        buf.put_f32_le(*v);
    }
}

fn get_f32s(buf: &mut Bytes, n: usize, what: &str) -> Result<Vec<f32>, CheckpointError> {
    if buf.remaining() < n * 4 {
        return Err(CheckpointError::Truncated(format!(
            "{what}: need {} bytes, have {}",
            n * 4,
            buf.remaining()
        )));
    }
    Ok((0..n).map(|_| buf.get_f32_le()).collect())
}

/// Serializes a model (config + all parameters) into a checkpoint blob.
pub fn save(model: &Transformer) -> Bytes {
    let cfg = model.cfg;
    let mut buf = BytesMut::new();
    buf.put_u32(MAGIC);
    buf.put_u16(VERSION);
    for v in [
        cfg.layers as u64,
        cfg.hidden as u64,
        cfg.heads as u64,
        cfg.seq as u64,
        cfg.vocab as u64,
        cfg.batch as u64,
        cfg.mp_degree as u64,
    ] {
        buf.put_u64_le(v);
    }
    put_f32s(&mut buf, model.embedding.token.data());
    put_f32s(&mut buf, model.embedding.position.data());
    for b in &model.blocks {
        put_f32s(&mut buf, &b.flatten_params());
    }
    put_f32s(&mut buf, model.lnf_g.data());
    put_f32s(&mut buf, model.lnf_b.data());
    buf.freeze()
}

/// The header's configuration fields, in file order.
const FIELDS: [&str; 7] = [
    "layers",
    "hidden",
    "heads",
    "seq",
    "vocab",
    "batch",
    "mp_degree",
];

/// Checks a header's configuration fields (in [`FIELDS`] order) before
/// anything is built from them: every field non-zero, `hidden` divisible by
/// `heads`, and a parameter total — in checked arithmetic — whose f32 bytes
/// are exactly the `payload` that follows the header. A header that passes describes the model the blob
/// holds, so loading it allocates no more than the blob's size.
fn validate(fields: [usize; 7], payload: usize) -> Result<(), CheckpointError> {
    if let Some((name, _)) = FIELDS.iter().zip(fields).find(|(_, v)| *v == 0) {
        return Err(CheckpointError::BadHeader(format!("{name} is 0")));
    }
    let [layers, hidden, heads, seq, vocab, ..] = fields;
    if !hidden.is_multiple_of(heads) {
        return Err(CheckpointError::BadHeader(format!(
            "hidden {hidden} not divisible by heads {heads}"
        )));
    }
    // `ModelConfig::total_params`, without overflow.
    let [l, h, s, v] = [layers, hidden, seq, vocab].map(|x| x as u64);
    let block = h
        .checked_mul(h)
        .and_then(|hh| hh.checked_mul(12))
        .and_then(|w| w.checked_add(13 * h));
    let bytes = block
        .and_then(|b| l.checked_mul(b))
        .and_then(|p| p.checked_add(v.checked_add(s)?.checked_mul(h)?))
        .and_then(|p| p.checked_add(2 * h))
        .and_then(|p| p.checked_mul(4));
    match bytes {
        Some(bytes) if bytes == payload as u64 => Ok(()),
        Some(bytes) => Err(CheckpointError::Truncated(format!(
            "header describes {bytes} parameter bytes, blob holds {payload}"
        ))),
        None => Err(CheckpointError::BadHeader(
            "parameter count overflows u64".into(),
        )),
    }
}

/// Deserializes a checkpoint blob into a model. Every malformed blob —
/// including a hostile header (zero or inconsistent fields, a parameter
/// count the payload does not hold) — is a [`CheckpointError`] returned
/// before the model is built, never a panic or an oversized allocation.
pub fn load(mut blob: Bytes) -> Result<Transformer, CheckpointError> {
    if blob.remaining() < 4 + 2 + 7 * 8 {
        return Err(CheckpointError::Truncated("header".into()));
    }
    let magic = blob.get_u32();
    if magic != MAGIC {
        return Err(CheckpointError::BadHeader(format!("magic {magic:#x}")));
    }
    let version = blob.get_u16();
    if version != VERSION {
        return Err(CheckpointError::BadHeader(format!("version {version}")));
    }
    let mut fields = [0usize; 7];
    for (name, field) in FIELDS.iter().zip(&mut fields) {
        let v = blob.get_u64_le();
        *field = usize::try_from(v)
            .map_err(|_| CheckpointError::BadHeader(format!("{name} {v} overflows usize")))?;
    }
    validate(fields, blob.remaining())?;
    let [layers, hidden, heads, seq, vocab, batch, mp_degree] = fields;
    let cfg = ModelConfig {
        layers,
        hidden,
        heads,
        seq,
        vocab,
        batch,
        mp_degree,
    };
    // Rebuild structure (seed irrelevant; weights are overwritten).
    let mut model = Transformer::new(cfg, 0);
    let tok = get_f32s(&mut blob, model.embedding.token.numel(), "token table")?;
    model.embedding.token.data_mut().copy_from_slice(&tok);
    let pos = get_f32s(
        &mut blob,
        model.embedding.position.numel(),
        "position table",
    )?;
    model.embedding.position.data_mut().copy_from_slice(&pos);
    for (i, b) in model.blocks.iter_mut().enumerate() {
        let flat = get_f32s(&mut blob, b.param_count(), &format!("block {i}"))?;
        b.load_flat_params(&flat);
    }
    let g = get_f32s(&mut blob, model.lnf_g.numel(), "lnf gain")?;
    model.lnf_g.data_mut().copy_from_slice(&g);
    let bb = get_f32s(&mut blob, model.lnf_b.numel(), "lnf bias")?;
    model.lnf_b.data_mut().copy_from_slice(&bb);
    if blob.has_remaining() {
        return Err(CheckpointError::Truncated(format!(
            "{} trailing bytes",
            blob.remaining()
        )));
    }
    Ok(model)
}

/// Saves a checkpoint to a file.
pub fn save_to_file(model: &Transformer, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, save(model))
}

/// Loads a checkpoint from a file.
pub fn load_from_file(path: &std::path::Path) -> std::io::Result<Transformer> {
    let data = std::fs::read(path)?;
    load(Bytes::from(data)).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tiny;

    #[test]
    fn round_trip_is_exact() {
        let m1 = Transformer::new(tiny(3), 77);
        let blob = save(&m1);
        let m2 = load(blob).unwrap();
        assert_eq!(m1.cfg, m2.cfg);
        assert_eq!(m1.embedding.token, m2.embedding.token);
        assert_eq!(m1.embedding.position, m2.embedding.position);
        for (a, b) in m1.blocks.iter().zip(m2.blocks.iter()) {
            assert_eq!(a.flatten_params(), b.flatten_params());
        }
        assert_eq!(m1.lnf_g, m2.lnf_g);
        assert_eq!(m1.lnf_b, m2.lnf_b);
    }

    #[test]
    fn loaded_model_computes_identically() {
        let m1 = Transformer::new(tiny(2), 3);
        let m2 = load(save(&m1)).unwrap();
        let tokens: Vec<u32> = (0..10).collect();
        assert_eq!(
            m1.forward_loss(&tokens, &tokens),
            m2.forward_loss(&tokens, &tokens)
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let m = Transformer::new(tiny(1), 1);
        let mut raw = save(&m).to_vec();
        raw[0] ^= 0xFF;
        assert!(matches!(
            load(Bytes::from(raw)),
            Err(CheckpointError::BadHeader(_))
        ));
    }

    #[test]
    fn truncated_payload_rejected() {
        let m = Transformer::new(tiny(1), 1);
        let raw = save(&m);
        let cut = raw.slice(0..raw.len() - 16);
        assert!(matches!(load(cut), Err(CheckpointError::Truncated(_))));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let m = Transformer::new(tiny(1), 1);
        let mut raw = save(&m).to_vec();
        raw.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            load(Bytes::from(raw)),
            Err(CheckpointError::Truncated(_))
        ));
    }

    #[test]
    fn hostile_header_fields_are_refused_before_anything_is_built() {
        let raw = save(&Transformer::new(tiny(1), 1)).to_vec();
        // (field, value): zero heads, heads not dividing hidden 32, 2^40
        // layers, an overflowing hidden, zero seq.
        for (field, value) in [(2, 0u64), (2, 5), (0, 1 << 40), (1, u64::MAX), (3, 0)] {
            let mut bad = raw.clone();
            let at = 6 + 8 * field;
            bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
            assert!(
                load(Bytes::from(bad)).is_err(),
                "{} = {value}",
                FIELDS[field]
            );
        }
    }

    #[test]
    fn file_round_trip() {
        let m = Transformer::new(tiny(2), 9);
        let path = std::env::temp_dir().join(format!("shck-test-{}.bin", std::process::id()));
        save_to_file(&m, &path).unwrap();
        let m2 = load_from_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(m.blocks[0].flatten_params(), m2.blocks[0].flatten_params());
    }
}
