//! Persisting a built routing scheme to bytes and loading it back.
//!
//! Preprocessing is the expensive phase; deployments compute the scheme once
//! and ship each vertex its table and label. This module provides a compact,
//! versioned wire format (varint-based, reusing
//! [`tree_routing::encode`]'s primitives) for whole schemes built in the
//! paper's modes ([`Mode::Centralized`] / [`Mode::DistributedLowMemory`]);
//! the prior-baseline mode exists for comparison only and is not
//! serialized.

use graphs::VertexId;
use tree_routing::encode::{read_varint, write_varint};
use tree_routing::types::{TreeLabel, TreeTable};

use crate::scheme::{
    LabelEntry, Mode, RoutingLabel, RoutingScheme, RoutingTable, TableEntry, TreeLabelKind,
    TreeTableKind,
};

const MAGIC: &[u8; 4] = b"DRS1";

/// Magic for the checksummed file container wrapping [`encode_scheme`] bytes.
const CONTAINER_MAGIC: &[u8; 4] = b"DRSC";
/// Current container format version.
const CONTAINER_VERSION: u64 = 1;

/// Why decoding failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// Missing or wrong magic/version header.
    BadHeader,
    /// Truncated or malformed varint stream.
    Malformed,
    /// The scheme used the prior-baseline tree family.
    UnsupportedMode,
    /// The container declares more payload bytes than the file holds.
    Truncated {
        /// Payload bytes the header promised.
        expected: usize,
        /// Payload bytes actually present.
        found: usize,
    },
    /// The payload does not match the stored CRC32 — bit rot or tampering.
    ChecksumMismatch {
        /// CRC32 recorded in the container header.
        stored: u32,
        /// CRC32 computed over the payload that was read.
        computed: u32,
    },
    /// Filesystem error while saving or loading (message from the OS).
    Io(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadHeader => write!(f, "bad magic or version header"),
            PersistError::Malformed => write!(f, "malformed scheme bytes"),
            PersistError::UnsupportedMode => {
                write!(f, "prior-baseline schemes are not serializable")
            }
            PersistError::Truncated { expected, found } => write!(
                f,
                "truncated container: header promises {expected} payload bytes, found {found}"
            ),
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "payload checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            PersistError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// CRC32 (IEEE 802.3 polynomial, reflected) lookup table, built at compile
/// time so the container needs no external checksum crate.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the checksum guarding container payloads.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Wrap a scheme in the checksummed file container: magic, version, payload
/// length, CRC32 over the payload, then the [`encode_scheme`] payload itself.
///
/// # Errors
///
/// [`PersistError::UnsupportedMode`] for prior-baseline schemes.
pub fn encode_container(s: &RoutingScheme) -> Result<Vec<u8>, PersistError> {
    let payload = encode_scheme(s)?;
    let mut buf = Vec::with_capacity(payload.len() + 16);
    buf.extend_from_slice(CONTAINER_MAGIC);
    write_varint(&mut buf, CONTAINER_VERSION);
    write_varint(&mut buf, payload.len() as u64);
    buf.extend_from_slice(&crc32(&payload).to_le_bytes());
    buf.extend_from_slice(&payload);
    Ok(buf)
}

/// Unwrap and verify a checksummed container produced by
/// [`encode_container`].
///
/// # Errors
///
/// [`PersistError::BadHeader`] on wrong magic or unknown version,
/// [`PersistError::Truncated`] when the file is shorter than the declared
/// payload, [`PersistError::ChecksumMismatch`] on CRC failure, and any
/// [`decode_scheme`] error for a corrupt payload that still checksums (only
/// possible if the header itself was damaged consistently).
pub fn decode_container(buf: &[u8]) -> Result<RoutingScheme, PersistError> {
    if buf.len() < 4 || &buf[..4] != CONTAINER_MAGIC {
        return Err(PersistError::BadHeader);
    }
    let mut pos = 4;
    if rv(buf, &mut pos)? != CONTAINER_VERSION {
        return Err(PersistError::BadHeader);
    }
    let len = rv(buf, &mut pos)? as usize;
    if buf.len() < pos + 4 {
        return Err(PersistError::Malformed);
    }
    let stored = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes checked"));
    pos += 4;
    let found = buf.len() - pos;
    if found < len {
        return Err(PersistError::Truncated {
            expected: len,
            found,
        });
    }
    if found > len {
        return Err(PersistError::Malformed);
    }
    let payload = &buf[pos..];
    let computed = crc32(payload);
    if computed != stored {
        return Err(PersistError::ChecksumMismatch { stored, computed });
    }
    decode_scheme(payload)
}

/// Write `scheme` to `path` inside the checksummed container.
///
/// # Errors
///
/// [`PersistError::UnsupportedMode`] for prior-baseline schemes and
/// [`PersistError::Io`] on filesystem failures.
pub fn save_scheme_to(
    path: impl AsRef<std::path::Path>,
    scheme: &RoutingScheme,
) -> Result<(), PersistError> {
    let bytes = encode_container(scheme)?;
    std::fs::write(path, bytes).map_err(|e| PersistError::Io(e.to_string()))
}

/// Read a scheme back from `path`.
///
/// Accepts both the checksummed container and legacy raw [`encode_scheme`]
/// files (magic `DRS1`) written before the container existed.
///
/// # Errors
///
/// [`PersistError::Io`] on filesystem failures, otherwise any
/// [`decode_container`] / [`decode_scheme`] error.
pub fn load_scheme_from(path: impl AsRef<std::path::Path>) -> Result<RoutingScheme, PersistError> {
    let bytes = std::fs::read(path).map_err(|e| PersistError::Io(e.to_string()))?;
    if bytes.len() >= 4 && &bytes[..4] == CONTAINER_MAGIC {
        decode_container(&bytes)
    } else {
        decode_scheme(&bytes)
    }
}

fn write_opt(buf: &mut Vec<u8>, v: Option<VertexId>) {
    write_varint(buf, v.map_or(0, |x| u64::from(x.0) + 1));
}

fn read_opt(buf: &[u8], pos: &mut usize) -> Result<Option<VertexId>, PersistError> {
    let raw = read_varint(buf, pos).ok_or(PersistError::Malformed)?;
    Ok(if raw == 0 {
        None
    } else {
        Some(VertexId((raw - 1) as u32))
    })
}

fn rv(buf: &[u8], pos: &mut usize) -> Result<u64, PersistError> {
    read_varint(buf, pos).ok_or(PersistError::Malformed)
}

fn write_tree_table(buf: &mut Vec<u8>, t: &TreeTable) {
    write_varint(buf, t.enter);
    write_varint(buf, t.exit - t.enter);
    write_opt(buf, t.parent);
    write_opt(buf, t.heavy);
}

fn read_tree_table(buf: &[u8], pos: &mut usize) -> Result<TreeTable, PersistError> {
    let enter = rv(buf, pos)?;
    let span = rv(buf, pos)?;
    let parent = read_opt(buf, pos)?;
    let heavy = read_opt(buf, pos)?;
    Ok(TreeTable {
        enter,
        exit: enter + span,
        parent,
        heavy,
    })
}

fn write_tree_label(buf: &mut Vec<u8>, l: &TreeLabel) {
    write_varint(buf, l.enter);
    write_varint(buf, l.light.len() as u64);
    for &(p, c) in &l.light {
        write_varint(buf, u64::from(p.0));
        write_varint(buf, u64::from(c.0));
    }
}

fn read_tree_label(buf: &[u8], pos: &mut usize) -> Result<TreeLabel, PersistError> {
    let enter = rv(buf, pos)?;
    let count = rv(buf, pos)? as usize;
    if count > buf.len() {
        return Err(PersistError::Malformed);
    }
    let mut light = Vec::with_capacity(count);
    for _ in 0..count {
        let p = VertexId(rv(buf, pos)? as u32);
        let c = VertexId(rv(buf, pos)? as u32);
        light.push((p, c));
    }
    Ok(TreeLabel { enter, light })
}

/// Serialize a scheme.
///
/// # Errors
///
/// [`PersistError::UnsupportedMode`] for prior-baseline schemes.
pub fn encode_scheme(s: &RoutingScheme) -> Result<Vec<u8>, PersistError> {
    if s.mode == Mode::DistributedPrior {
        return Err(PersistError::UnsupportedMode);
    }
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    write_varint(&mut buf, s.k as u64);
    write_varint(
        &mut buf,
        match s.mode {
            Mode::Centralized => 0,
            Mode::DistributedLowMemory => 1,
            Mode::DistributedPrior => unreachable!("rejected above"),
        },
    );
    write_varint(&mut buf, s.num_vertices() as u64);
    for v in s.vertices() {
        let rows = s.table(v).rows();
        write_varint(&mut buf, rows.len() as u64);
        for e in rows {
            let TreeTableKind::Ours(t) = &e.table else {
                return Err(PersistError::UnsupportedMode);
            };
            write_varint(&mut buf, u64::from(e.root.0));
            write_varint(&mut buf, e.level as u64);
            write_varint(&mut buf, e.dist);
            write_tree_table(&mut buf, t);
        }
    }
    for v in s.vertices() {
        let rows = s.label(v).rows();
        write_varint(&mut buf, rows.len() as u64);
        for e in rows {
            let TreeLabelKind::Ours(l) = &e.tree_label else {
                return Err(PersistError::UnsupportedMode);
            };
            write_varint(&mut buf, e.level as u64);
            write_varint(&mut buf, u64::from(e.pivot.0));
            write_varint(&mut buf, e.dist);
            write_tree_label(&mut buf, l);
        }
    }
    for v in s.vertices() {
        let pivots = s.pivots(v);
        write_varint(&mut buf, pivots.len() as u64);
        for &(p, d) in pivots {
            write_varint(&mut buf, u64::from(p.0));
            write_varint(&mut buf, d);
        }
    }
    Ok(buf)
}

/// Deserialize a scheme.
///
/// # Errors
///
/// [`PersistError`] on any malformed input.
pub fn decode_scheme(buf: &[u8]) -> Result<RoutingScheme, PersistError> {
    if buf.len() < 4 || &buf[..4] != MAGIC {
        return Err(PersistError::BadHeader);
    }
    let mut pos = 4;
    let k = rv(buf, &mut pos)? as usize;
    let mode = match rv(buf, &mut pos)? {
        0 => Mode::Centralized,
        1 => Mode::DistributedLowMemory,
        _ => return Err(PersistError::BadHeader),
    };
    let n = rv(buf, &mut pos)? as usize;
    if n > buf.len() {
        return Err(PersistError::Malformed);
    }
    let mut tables = Vec::with_capacity(n);
    for _ in 0..n {
        let count = rv(buf, &mut pos)? as usize;
        if count > buf.len() {
            return Err(PersistError::Malformed);
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let root = VertexId(rv(buf, &mut pos)? as u32);
            let level = rv(buf, &mut pos)? as usize;
            let dist = rv(buf, &mut pos)?;
            let t = read_tree_table(buf, &mut pos)?;
            entries.push(TableEntry {
                root,
                level,
                dist,
                table: TreeTableKind::Ours(t),
            });
        }
        tables.push(RoutingTable::from_rows(entries));
    }
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let count = rv(buf, &mut pos)? as usize;
        if count > buf.len() {
            return Err(PersistError::Malformed);
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let level = rv(buf, &mut pos)? as usize;
            let pivot = VertexId(rv(buf, &mut pos)? as u32);
            let dist = rv(buf, &mut pos)?;
            let l = read_tree_label(buf, &mut pos)?;
            entries.push(LabelEntry {
                level,
                pivot,
                dist,
                tree_label: TreeLabelKind::Ours(l),
            });
        }
        labels.push(RoutingLabel::from_rows(entries));
    }
    let mut pivot_info = Vec::with_capacity(n);
    for _ in 0..n {
        let count = rv(buf, &mut pos)? as usize;
        if count > buf.len() {
            return Err(PersistError::Malformed);
        }
        let mut pivots = Vec::with_capacity(count);
        for _ in 0..count {
            let p = VertexId(rv(buf, &mut pos)? as u32);
            let d = rv(buf, &mut pos)?;
            pivots.push((p, d));
        }
        pivot_info.push(pivots);
    }
    if pos != buf.len() {
        return Err(PersistError::Malformed);
    }
    Ok(RoutingScheme::from_parts(
        k, mode, tables, labels, pivot_info,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router;
    use crate::scheme::{build, BuildParams};
    use graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn scheme(n: usize, seed: u64) -> (graphs::Graph, RoutingScheme) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        (g, built.scheme)
    }

    #[test]
    fn round_trips_and_routes_identically() {
        let (g, s) = scheme(60, 1101);
        let bytes = encode_scheme(&s).unwrap();
        let back = decode_scheme(&bytes).unwrap();
        assert_eq!(back.k, s.k);
        assert_eq!(back.mode, s.mode);
        for v in g.vertices() {
            assert_eq!(back.table(v).rows(), s.table(v).rows());
            assert_eq!(back.pivots(v), s.pivots(v));
        }
        // Routing through the reloaded scheme gives identical traces.
        for (a, b) in [(0u32, 59u32), (17, 33)] {
            let t1 = router::route(&g, &s, VertexId(a), VertexId(b)).unwrap();
            let t2 = router::route(&g, &back, VertexId(a), VertexId(b)).unwrap();
            assert_eq!(t1.path, t2.path);
            assert_eq!(t1.weight, t2.weight);
        }
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let (_, s) = scheme(30, 1102);
        let mut bytes = encode_scheme(&s).unwrap();
        assert!(matches!(
            decode_scheme(b"nope"),
            Err(PersistError::BadHeader)
        ));
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(
            decode_scheme(&bytes),
            Err(PersistError::Malformed)
        ));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let (_, s) = scheme(30, 1103);
        let mut bytes = encode_scheme(&s).unwrap();
        bytes.push(7);
        assert!(matches!(
            decode_scheme(&bytes),
            Err(PersistError::Malformed)
        ));
    }

    #[test]
    fn prior_mode_is_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(1104);
        let g = generators::erdos_renyi_connected(40, 0.08, 1..=9, &mut rng);
        let built = build(
            &g,
            &BuildParams::new(2).with_mode(crate::scheme::Mode::DistributedPrior),
            &mut rng,
        );
        assert_eq!(
            encode_scheme(&built.scheme),
            Err(PersistError::UnsupportedMode)
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check values ("123456789" is the canonical one).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn container_round_trips_through_disk() {
        let (g, s) = scheme(50, 1106);
        let path = std::env::temp_dir().join("drt-persist-roundtrip.drsc");
        save_scheme_to(&path, &s).unwrap();
        let back = load_scheme_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.k, s.k);
        assert_eq!(back.mode, s.mode);
        for v in g.vertices() {
            assert_eq!(back.table(v).rows(), s.table(v).rows());
            assert_eq!(back.label(v).rows(), s.label(v).rows());
            assert_eq!(back.pivots(v), s.pivots(v));
        }
    }

    #[test]
    fn load_accepts_legacy_raw_scheme_files() {
        let (_, s) = scheme(30, 1107);
        let path = std::env::temp_dir().join("drt-persist-legacy.bin");
        std::fs::write(&path, encode_scheme(&s).unwrap()).unwrap();
        let back = load_scheme_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.num_vertices(), s.num_vertices());
    }

    #[test]
    fn container_truncation_is_typed() {
        let (_, s) = scheme(30, 1108);
        let full = encode_container(&s).unwrap();
        let mut cut = full.clone();
        cut.truncate(full.len() - 10);
        match decode_container(&cut) {
            Err(PersistError::Truncated { expected, found }) => {
                assert_eq!(found + 10, expected, "10 payload bytes were removed");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Cutting into the fixed header before the CRC is Malformed, not Truncated.
        assert!(matches!(
            decode_container(&full[..6]),
            Err(PersistError::Malformed)
        ));
    }

    #[test]
    fn container_corruption_is_typed() {
        let (_, s) = scheme(30, 1109);
        let mut bytes = encode_container(&s).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip a payload bit
        assert!(matches!(
            decode_container(&bytes),
            Err(PersistError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            decode_container(b"DRSX-----"),
            Err(PersistError::BadHeader)
        ));
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_scheme_from("/nonexistent/drt-no-such-scheme.drsc"),
            Err(PersistError::Io(_))
        ));
    }

    #[test]
    fn encoding_is_compact() {
        let (_, s) = scheme(100, 1105);
        let bytes = encode_scheme(&s).unwrap();
        let words: usize = s.vertices().map(|v| s.resident_words(v)).sum();
        assert!(
            bytes.len() < 8 * words,
            "varint encoding ({} bytes) should beat raw words ({} bytes)",
            bytes.len(),
            8 * words
        );
    }
}
