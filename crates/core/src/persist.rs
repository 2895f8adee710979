//! Persisting a built routing scheme to bytes and loading it back.
//!
//! Preprocessing is the expensive phase; deployments compute the scheme once
//! and ship each vertex its table and label. This module provides a compact,
//! versioned wire format (varint-based, reusing
//! [`tree_routing::encode`]'s primitives) for whole schemes, in either
//! [`Mode`]. It holds the one codec for tree-routing rows:
//! [`write_tree_table`] / [`write_tree_label`] write the bytes a scheme file
//! holds for a [`TreeTable`] / [`TreeLabel`] (the bit-complexity figure
//! measures exactly these), and their private readers check each row as
//! they read it. Decoding validates as it reads: a payload that checksums
//! but names a vertex outside the scheme, overflows a DFS interval, or
//! breaks the row order lookups rely on is [`PersistError::Malformed`].

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;
use std::{panic, thread};

use graphs::VertexId;
use tree_routing::encode::{read_varint, skip_varints, write_varint, write_varints};
use tree_routing::types::{TreeLabel, TreeTable};

use crate::scheme::{LabelEntry, Mode, RoutingLabel, RoutingScheme, RoutingTable, TableEntry};

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
    /// Truncated or malformed varint stream, or a payload that is not a
    /// well-formed scheme.
    Malformed,
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

/// The CRC32 (IEEE 802.3) polynomial, reflected.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// CRC32 (IEEE 802.3 polynomial, reflected) slicing-by-16 tables, built at
/// compile time so the container needs no external checksum crate.
/// `CRC32_TABLES[0]` is the classic byte table; `CRC32_TABLES[s][b]` is the
/// CRC of byte `b` followed by `s` zero bytes, so sixteen lookups advance the
/// CRC over sixteen bytes at once.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut s = 1;
        while s < 16 {
            let prev = tables[s - 1][i];
            tables[s][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            s += 1;
        }
        i += 1;
    }
    tables
};

/// CRC32 (IEEE) of `bytes` — the checksum guarding container payloads.
///
/// Slicing-by-16: each step folds the running CRC into the first four bytes
/// of a 16-byte chunk and looks all sixteen bytes up in their own table; the
/// tail shorter than a chunk goes byte at a time. The value is the standard
/// CRC-32 (`crc32(b"123456789") == 0xCBF4_3926`).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        let a = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// `a · b` modulo the CRC32 polynomial, both reflected (bit 31 is x⁰).
/// `a` must not be zero.
const fn multiply_mod_poly(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut product = 0;
    loop {
        if a & m != 0 {
            product ^= b;
            if a & (m - 1) == 0 {
                return product;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC32_POLY
        } else {
            b >> 1
        };
    }
}

/// `X_POW_2_POW[i]` is x^(2^i) modulo the CRC32 polynomial, reflected.
const X_POW_2_POW: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x¹
    let mut i = 0;
    while i < 32 {
        table[i] = p;
        p = multiply_mod_poly(p, p);
        i += 1;
    }
    table
};

/// The CRC32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and `b`'s length:
/// `crc_a` shifted past `len_b` zero bytes, that is times x^(8·len_b), plus
/// `crc_b`. With `crc_a = 0`, the CRC of no bytes, it is `crc_b`.
fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    let mut shift = 1u32 << 31; // x⁰
    let mut bits = len_b as u64 * 8;
    let mut i = 0;
    while bits != 0 {
        if bits & 1 != 0 {
            shift = multiply_mod_poly(X_POW_2_POW[i % 32], shift);
        }
        bits >>= 1;
        i += 1;
    }
    multiply_mod_poly(shift, crc_a) ^ crc_b
}

/// Bytes the container header leaves for the payload length while the
/// payload is written: a four-byte length varint (payloads of 2²¹ up to
/// 2²⁸ bytes) fills them exactly.
const LEN_ROOM: usize = 4;

/// Wrap a scheme in the checksummed file container: magic, version, payload
/// length, CRC32 over the payload, then the [`encode_scheme`] payload itself.
///
/// The payload is written in parts (see [`write_in_parts`]), the first
/// behind room for its length and CRC; a length of another width than
/// [`LEN_ROOM`] bytes moves it once.
///
/// # Errors
///
/// None today; the `Result` is kept for callers that already handle it.
pub fn encode_container(s: &RoutingScheme) -> Result<Vec<u8>, PersistError> {
    Ok(encode_container_in(s, part_count))
}

/// [`encode_container`] in the number of parts `parts` picks for a payload
/// of at least the given bytes.
fn encode_container_in(s: &RoutingScheme, parts: impl FnOnce(usize) -> usize) -> Vec<u8> {
    let mut lead = CONTAINER_MAGIC.to_vec();
    write_varint(&mut lead, CONTAINER_VERSION);
    let head = lead.len();
    lead.resize(head + LEN_ROOM + 4, 0);
    let (mut buf, crc) = write_in_parts(s, &lead, parts);
    seal(&mut buf, head, crc);
    buf
}

/// Fill the `LEN_ROOM + 4` bytes at `head` with the length of the payload
/// behind them and its CRC32 `crc`, moving the payload once when its length
/// varint is not [`LEN_ROOM`] bytes wide.
fn seal(buf: &mut Vec<u8>, head: usize, crc: u32) {
    let start = head + LEN_ROOM + 4;
    let mut fields = Vec::with_capacity(LEN_ROOM + 4);
    write_varint(&mut fields, (buf.len() - start) as u64);
    fields.extend_from_slice(&crc.to_le_bytes());
    buf.splice(head..start, fields);
}

/// Unwrap and verify a checksummed container produced by
/// [`encode_container`].
///
/// The payload is checked and decoded in parts (see [`decode_in_parts`]);
/// the errors and their order are those of one pass over it.
///
/// # Errors
///
/// [`PersistError::BadHeader`] on wrong magic or unknown version,
/// [`PersistError::Truncated`] when the file is shorter than the declared
/// payload, [`PersistError::ChecksumMismatch`] on CRC failure, and any
/// [`decode_scheme`] error for a corrupt payload that still checksums (only
/// possible if the header itself was damaged consistently).
pub fn decode_container(buf: &[u8]) -> Result<RoutingScheme, PersistError> {
    decode_container_in(buf, part_count(buf.len()))
}

/// [`decode_container`] in at most `parts` parts.
fn decode_container_in(buf: &[u8], parts: usize) -> Result<RoutingScheme, PersistError> {
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
    decode_in_parts(&buf[pos..], Some(stored), parts)
}

/// Write `scheme` to `path` inside the checksummed container (the
/// [`encode_container`] bytes) and return how many bytes that is.
///
/// # Errors
///
/// [`PersistError::Io`] on filesystem failures.
pub fn save_scheme_to(
    path: impl AsRef<std::path::Path>,
    scheme: &RoutingScheme,
) -> Result<usize, PersistError> {
    let bytes = encode_container(scheme)?;
    std::fs::write(path, &bytes).map_err(|e| PersistError::Io(e.to_string()))?;
    Ok(bytes.len())
}

/// Read a scheme back from the checksummed container at `path`.
///
/// # Errors
///
/// [`PersistError::Io`] on filesystem failures, otherwise any
/// [`decode_container`] error.
pub fn load_scheme_from(path: impl AsRef<std::path::Path>) -> Result<RoutingScheme, PersistError> {
    let bytes = std::fs::read(path).map_err(|e| PersistError::Io(e.to_string()))?;
    decode_container(&bytes)
}

/// An optional vertex as written: `id + 1`, or 0 for none.
fn opt(v: Option<VertexId>) -> u64 {
    v.map_or(0, |x| u64::from(x.0) + 1)
}

fn rv(buf: &[u8], pos: &mut usize) -> Result<u64, PersistError> {
    read_varint(buf, pos).ok_or(PersistError::Malformed)
}

// Fewest bytes one encoded item of each kind takes: a vertex's three row
// counts, a table row's seven varints, a label row's five, and a light
// pair's or pivot pair's two.
const VERTEX_BYTES: usize = 3;
const TABLE_ROW_BYTES: usize = 7;
const LABEL_ROW_BYTES: usize = 5;
const PAIR_BYTES: usize = 2;

/// A count of items that take at least `min_bytes` each, so never more than
/// the rest of the payload can hold. A larger count is `Malformed` before
/// anything is reserved for it: a payload cannot make the decoder ask for
/// more memory than its own bytes justify.
fn read_count(buf: &[u8], pos: &mut usize, min_bytes: usize) -> Result<usize, PersistError> {
    let count = rv(buf, pos)?;
    let room = (buf.len() - *pos) / min_bytes;
    usize::try_from(count)
        .ok()
        .filter(|&c| c <= room)
        .ok_or(PersistError::Malformed)
}

/// A hierarchy level of a `k`-level scheme: below `k`, so it fits the `u32`
/// a table row stores it in.
fn read_level(buf: &[u8], pos: &mut usize, k: usize) -> Result<u32, PersistError> {
    u32::try_from(rv(buf, pos)?)
        .ok()
        .filter(|&level| (level as usize) < k)
        .ok_or(PersistError::Malformed)
}

/// A vertex id `raw` of an `n`-vertex scheme.
fn vertex(raw: u64, n: usize) -> Result<VertexId, PersistError> {
    match u32::try_from(raw) {
        Ok(id) if (id as usize) < n => Ok(VertexId(id)),
        _ => Err(PersistError::Malformed),
    }
}

fn read_vertex(buf: &[u8], pos: &mut usize, n: usize) -> Result<VertexId, PersistError> {
    vertex(rv(buf, pos)?, n)
}

fn read_opt(buf: &[u8], pos: &mut usize, n: usize) -> Result<Option<VertexId>, PersistError> {
    match rv(buf, pos)? {
        0 => Ok(None),
        raw => vertex(raw - 1, n).map(Some),
    }
}

/// Append a tree-routing table row: the DFS entry time, the interval's span
/// `exit − enter`, then the parent and the heavy child, each as `id + 1`
/// (0 for none). These are the bytes a scheme file holds for the row.
pub fn write_tree_table(buf: &mut Vec<u8>, t: &TreeTable) {
    write_varints(
        buf,
        &[t.enter, t.exit - t.enter, opt(t.parent), opt(t.heavy)],
    );
}

/// Read a [`write_tree_table`] row of an `n`-vertex scheme at `*pos`:
/// `Malformed` when `enter + span` overflows or an id is not below `n`.
fn read_tree_table(buf: &[u8], pos: &mut usize, n: usize) -> Result<TreeTable, PersistError> {
    let enter = rv(buf, pos)?;
    let exit = enter
        .checked_add(rv(buf, pos)?)
        .ok_or(PersistError::Malformed)?;
    Ok(TreeTable {
        enter,
        exit,
        parent: read_opt(buf, pos, n)?,
        heavy: read_opt(buf, pos, n)?,
    })
}

/// Append a tree-routing label row: the DFS entry time, the light-edge
/// count, then each light edge as its parent and child ids. These are the
/// bytes a scheme file holds for the row.
pub fn write_tree_label(buf: &mut Vec<u8>, l: &TreeLabel) {
    write_varints(buf, &[l.enter, l.light.len() as u64]);
    for &(p, c) in &l.light {
        write_varints(buf, &[u64::from(p.0), u64::from(c.0)]);
    }
}

/// Read a [`write_tree_label`] row of an `n`-vertex scheme at `*pos`:
/// `Malformed` when an id is not below `n` (ids of 2³² and up included) or
/// the light-edge count is more than the remaining bytes can hold.
fn read_tree_label(buf: &[u8], pos: &mut usize, n: usize) -> Result<TreeLabel, PersistError> {
    let enter = rv(buf, pos)?;
    let count = read_count(buf, pos, PAIR_BYTES)?;
    let mut light = Vec::with_capacity(count);
    for _ in 0..count {
        light.push((read_vertex(buf, pos, n)?, read_vertex(buf, pos, n)?));
    }
    Ok(TreeLabel { enter, light })
}

/// Serialize a scheme, in parts as [`encode_container`] writes its payload.
pub fn encode_scheme(s: &RoutingScheme) -> Vec<u8> {
    write_in_parts(s, &[], part_count).0
}

/// Append the [`encode_scheme`] bytes of `vertices`' tables to `buf`, a row
/// at a time: the payload header first when the run starts at vertex 0, and
/// every label and pivot list last when it ends at the last vertex.
fn write_part(buf: &mut Vec<u8>, s: &RoutingScheme, vertices: Range<usize>) {
    let n = s.num_vertices();
    if vertices.start == 0 {
        buf.extend_from_slice(MAGIC);
        let mode = match s.mode {
            Mode::Centralized => 0,
            Mode::DistributedLowMemory => 1,
        };
        write_varints(buf, &[s.k as u64, mode, n as u64]);
    }
    let tail = vertices.end == n;
    for v in vertices.map(|v| VertexId(v as u32)) {
        let rows = s.table(v).rows();
        write_varint(buf, rows.len() as u64);
        for e in rows {
            write_varints(buf, &[u64::from(e.root.0), u64::from(e.level), e.dist]);
            write_tree_table(buf, &e.table);
        }
    }
    if !tail {
        return;
    }
    for v in s.vertices() {
        let rows = s.label(v).rows();
        write_varint(buf, rows.len() as u64);
        for e in rows {
            write_varints(buf, &[e.level as u64, u64::from(e.pivot.0), e.dist]);
            write_tree_label(buf, &e.tree_label);
        }
    }
    for v in s.vertices() {
        let pivots = s.pivots(v);
        write_varint(buf, pivots.len() as u64);
        for &(p, d) in pivots {
            write_varints(buf, &[u64::from(p.0), d]);
        }
    }
}

/// Write `s`'s payload behind `lead` in the number of parts `parts` picks
/// for its fewest bytes, and return the bytes with the payload's CRC32.
///
/// [`split_vertices`] cuts the tables at vertex boundaries; each part
/// writes its run with [`write_part`] into its own buffer (the first behind
/// `lead`) and CRCs what it wrote. The buffers are appended in order and
/// their CRCs combined, so the bytes and the CRC are those of one pass.
/// Each buffer is reserved up front, the first for the whole payload, so
/// no part's writing reallocates while another part writes.
fn write_in_parts(
    s: &RoutingScheme,
    lead: &[u8],
    parts: impl FnOnce(usize) -> usize,
) -> (Vec<u8>, u32) {
    let (plan, total) = split_vertices(s, parts);
    let mut written = on_parts(&plan, |(vertices, fewest)| {
        let mut out = Vec::new();
        if vertices.start == 0 {
            out.reserve_exact(lead.len() + total * RESERVE_PER_BYTE);
            out.extend_from_slice(lead);
        } else {
            out.reserve_exact(fewest * RESERVE_PER_BYTE);
        }
        let from = out.len();
        write_part(&mut out, s, vertices.clone());
        let crc = crc32(&out[from..]);
        (out, crc)
    })
    .into_iter();
    let (mut buf, mut crc) = written.next().expect("a scheme is one part at least");
    for (out, part_crc) in written {
        crc = crc32_combine(crc, part_crc, out.len());
        buf.extend_from_slice(&out);
    }
    (buf, crc)
}

/// Bytes reserved for a part per fewest byte its rows can take: built
/// schemes' rows take about 1.5 times their fewest bytes.
const RESERVE_PER_BYTE: usize = 2;

/// Cut `s`'s vertices into the runs [`write_in_parts`] writes, each with
/// the fewest bytes it can take, and return them with the payload's fewest
/// bytes: as many runs as `parts` picks for those, each ending where its
/// share of them does. The last run also carries every label and pivot
/// list, so it ends earlier. Never an empty run, bar the one run of a
/// vertexless scheme.
fn split_vertices(
    s: &RoutingScheme,
    parts: impl FnOnce(usize) -> usize,
) -> (Vec<(Range<usize>, usize)>, usize) {
    let n = s.num_vertices();
    let table = |v: VertexId| VERTEX_BYTES + s.table(v).rows().len() * TABLE_ROW_BYTES;
    let tail =
        |v: VertexId| s.label(v).rows().len() * LABEL_ROW_BYTES + s.pivots(v).len() * PAIR_BYTES;
    let tails: usize = s.vertices().map(tail).sum();
    let total = tails + s.vertices().map(table).sum::<usize>();
    let parts = parts(total).max(1);
    let mut plan = Vec::with_capacity(parts);
    let (mut start, mut sum, mut cut) = (0, 0, 0);
    for v in s.vertices() {
        if plan.len() + 1 == parts {
            break;
        }
        sum += table(v);
        let end = v.index() + 1;
        if sum - cut >= total / parts && end < n {
            plan.push((start..end, sum - cut));
            (start, cut) = (end, sum);
        }
    }
    plan.push((start..n, total - cut));
    (plan, total)
}

/// Deserialize a scheme, in parts as [`decode_container`] reads its
/// payload.
///
/// # Errors
///
/// [`PersistError`] on any malformed input: besides a broken varint stream,
/// a `k` outside `2..=u32::MAX`, a vertex id outside the scheme, a level not
/// below `k`, a DFS interval whose end overflows, table roots that do not
/// strictly ascend, label levels that do not strictly ascend, or a row count
/// the remaining bytes cannot hold.
pub fn decode_scheme(buf: &[u8]) -> Result<RoutingScheme, PersistError> {
    decode_in_parts(buf, None, part_count(buf.len()))
}

/// What a payload's header says, and where its tables start.
struct Header {
    k: usize,
    mode: Mode,
    n: usize,
    tables_at: usize,
}

/// Read the payload header: magic, `k`, mode and vertex count.
fn read_header(buf: &[u8]) -> Result<Header, PersistError> {
    if buf.len() < 4 || &buf[..4] != MAGIC {
        return Err(PersistError::BadHeader);
    }
    let mut pos = 4;
    // `BuildParams` wants k >= 2 and a table row stores its level as `u32`.
    let k = u32::try_from(rv(buf, &mut pos)?)
        .ok()
        .filter(|&k| k >= 2)
        .ok_or(PersistError::Malformed)? as usize;
    let mode = match rv(buf, &mut pos)? {
        0 => Mode::Centralized,
        1 => Mode::DistributedLowMemory,
        _ => return Err(PersistError::BadHeader),
    };
    let n = read_count(buf, &mut pos, VERTEX_BYTES)?;
    Ok(Header {
        k,
        mode,
        n,
        tables_at: pos,
    })
}

/// One part of a payload: a run of vertices of its tables section and the
/// bytes that hold them. The first part's bytes start with the header; the
/// last part's run ends at the last vertex, and its bytes hold every label
/// and pivot list after it.
struct Part {
    vertices: Range<usize>,
    bytes: Range<usize>,
}

/// A part's share of a decoded scheme: its run's tables and, in the last
/// part, every label and pivot list.
type Rows = (
    Vec<RoutingTable>,
    Vec<RoutingLabel>,
    Vec<Vec<(VertexId, u64)>>,
);

/// Decode `payload` in at most `parts` parts, checking it against the
/// container's `stored` CRC32 when there is one.
///
/// [`split_payload`] cuts the tables at vertex boundaries. Each part CRCs
/// its own bytes and decodes its own run with the one-pass checks, at the
/// same absolute positions and with [`read_count`]'s room bound over the
/// whole payload, and must end exactly where the next part starts. The
/// part CRCs combine to the payload's, so the result and the error —
/// header, then [`PersistError::ChecksumMismatch`] with the whole payload's
/// CRC, then [`PersistError::Malformed`] — are those of one pass.
fn decode_in_parts(
    payload: &[u8],
    stored: Option<u32>,
    parts: usize,
) -> Result<RoutingScheme, PersistError> {
    let head = read_header(payload);
    let plan = match &head {
        Ok(head) => split_payload(payload, head, parts),
        Err(_) => vec![Part {
            vertices: 0..0,
            bytes: 0..payload.len(),
        }],
    };
    let decoded = on_parts(&plan, |part| {
        let crc = stored.map(|_| crc32(&payload[part.bytes.clone()]));
        let rows = head
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|head| decode_part(payload, head, part));
        (crc, rows)
    });
    if let Some(stored) = stored {
        let computed = plan
            .iter()
            .zip(&decoded)
            .fold(0, |crc, (part, (part_crc, _))| {
                crc32_combine(crc, part_crc.unwrap_or_default(), part.bytes.len())
            });
        if computed != stored {
            return Err(PersistError::ChecksumMismatch { stored, computed });
        }
    }
    let head = head?;
    let mut decoded = decoded.into_iter().map(|(_, rows)| rows);
    let (mut tables, mut labels, mut pivots) = decoded.next().expect("one part at least")?;
    tables.reserve_exact(head.n - tables.len());
    for rows in decoded {
        let (run, l, p) = rows?;
        tables.extend(run);
        (labels, pivots) = (l, p);
    }
    Ok(RoutingScheme::from_parts(
        head.k, head.mode, tables, labels, pivots,
    ))
}

/// Varints in one encoded table row: root, level, distance and the four of
/// its tree row.
const TABLE_ROW_VARINTS: usize = 7;

/// Cut `payload`'s tables section into at most `parts` runs of vertices
/// whose bytes end near equal shares of the payload, found by skipping
/// tables without decoding them (a row count, then [`skip_varints`]). The
/// skip does not validate, so on a malformed payload the cuts may fall
/// anywhere; a skip that fails stops the cutting, and the last part takes
/// the rest. Never an empty run, bar the one run of a vertexless payload.
fn split_payload(payload: &[u8], head: &Header, parts: usize) -> Vec<Part> {
    let skip_table = |mut at: usize| {
        let rows = usize::try_from(read_varint(payload, &mut at)?).ok()?;
        skip_varints(payload, at, rows.checked_mul(TABLE_ROW_VARINTS)?)
    };
    let mut plan = Vec::with_capacity(parts);
    let (mut v, mut at) = (0, head.tables_at);
    let (mut first, mut start) = (0, 0);
    for cut in 1..parts {
        let target = payload.len() / parts * cut;
        while at < target && v < head.n {
            match skip_table(at) {
                Some(end) => (v, at) = (v + 1, end),
                None => break,
            }
        }
        if at < target || v == head.n {
            break;
        }
        if v > first {
            plan.push(Part {
                vertices: first..v,
                bytes: start..at,
            });
            (first, start) = (v, at);
        }
    }
    plan.push(Part {
        vertices: first..head.n,
        bytes: start..payload.len(),
    });
    plan
}

/// Decode `part`'s run of tables and, if it is the last part, every label
/// and pivot list, with the checks of one pass: `Malformed` on any bad row,
/// and unless the part ends exactly at its last byte.
fn decode_part(buf: &[u8], head: &Header, part: &Part) -> Result<Rows, PersistError> {
    let Header { k, n, .. } = *head;
    // The first part's bytes start with the header, read already.
    let mut pos = part.bytes.start.max(head.tables_at);
    let mut tables = Vec::with_capacity(part.vertices.len());
    for _ in part.vertices.clone() {
        let count = read_count(buf, &mut pos, TABLE_ROW_BYTES)?;
        let mut entries: Vec<TableEntry> = Vec::with_capacity(count);
        for _ in 0..count {
            let root = read_vertex(buf, &mut pos, n)?;
            if entries.last().is_some_and(|prev| prev.root >= root) {
                return Err(PersistError::Malformed); // lookups binary-search roots
            }
            entries.push(TableEntry {
                root,
                level: read_level(buf, &mut pos, k)?,
                dist: rv(buf, &mut pos)?,
                table: read_tree_table(buf, &mut pos, n)?,
            });
        }
        tables.push(RoutingTable::from_rows(entries));
    }
    let (mut labels, mut pivot_info) = (Vec::new(), Vec::new());
    if part.vertices.end == n {
        labels.reserve_exact(n);
        for _ in 0..n {
            let count = read_count(buf, &mut pos, LABEL_ROW_BYTES)?;
            let mut entries: Vec<LabelEntry> = Vec::with_capacity(count);
            for _ in 0..count {
                let level = read_level(buf, &mut pos, k)? as usize;
                if entries.last().is_some_and(|prev| prev.level >= level) {
                    return Err(PersistError::Malformed);
                }
                entries.push(LabelEntry {
                    level,
                    pivot: read_vertex(buf, &mut pos, n)?,
                    dist: rv(buf, &mut pos)?,
                    tree_label: read_tree_label(buf, &mut pos, n)?,
                });
            }
            labels.push(RoutingLabel::from_rows(entries));
        }
        pivot_info.reserve_exact(n);
        for _ in 0..n {
            let count = read_count(buf, &mut pos, PAIR_BYTES)?;
            let mut pivots = Vec::with_capacity(count);
            for _ in 0..count {
                pivots.push((read_vertex(buf, &mut pos, n)?, rv(buf, &mut pos)?));
            }
            pivot_info.push(pivots);
        }
    }
    if pos != part.bytes.end {
        return Err(PersistError::Malformed);
    }
    Ok((tables, labels, pivot_info))
}

/// The most parts a payload is cut into, whatever the host's parallelism.
const MAX_PARTS: usize = 4;

/// The fewest payload bytes worth a part of their own: a thread's spawn and
/// join cost about what decoding this many bytes does.
const MIN_PART_BYTES: usize = 64 << 10;

/// How many parts a payload of `bytes` is saved or loaded in: the host's
/// parallelism, capped by [`MAX_PARTS`] and by one part per
/// [`MIN_PART_BYTES`]. A payload too small for two parts asks the host
/// nothing.
fn part_count(bytes: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let by_size = bytes / MIN_PART_BYTES;
    if by_size < 2 {
        return 1;
    }
    let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get));
    by_size.min(cores).min(MAX_PARTS)
}

/// Run `work` on every part and return the results in part order: the
/// first part on the calling thread, every other on a scoped thread of its
/// own. A part whose thread cannot be spawned runs on the calling thread
/// after the first, so a failed spawn means fewer threads, never a panic;
/// one part spawns nothing.
fn on_parts<P: Sync, R: Send>(parts: &[P], work: impl Fn(&P) -> R + Sync) -> Vec<R> {
    let work = &work;
    thread::scope(|scope| {
        let helpers: Vec<_> = parts
            .iter()
            .skip(1)
            .map(|part| {
                thread::Builder::new()
                    .spawn_scoped(scope, move || work(part))
                    .map_err(|_| part)
            })
            .collect();
        let mut results = Vec::with_capacity(parts.len());
        results.extend(parts.first().map(work));
        for helper in helpers {
            results.push(match helper {
                Ok(handle) => handle.join().unwrap_or_else(|e| panic::resume_unwind(e)),
                Err(part) => work(part),
            });
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router;
    use crate::scheme::{build, BuildParams};
    use graphs::generators;
    use graphs::tree::{random_recursive_tree, shortest_path_tree};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use tree_routing::tz;

    /// Verbatim copies of the writer as it was before it went a row at a
    /// time, kept to pin the current one byte for byte: one `Vec::push` per
    /// byte, one varint per call, and a container that copies the finished
    /// payload in behind its header. Below them, verbatim copies of the
    /// one-pass decoder as it was before it went in parts, kept to pin the
    /// split one to the same schemes and the same errors.
    mod reference {
        use graphs::VertexId;
        use tree_routing::types::{TreeLabel, TreeTable};

        use super::super::{
            crc32, read_count, read_level, read_tree_label, read_tree_table, read_vertex, rv,
            PersistError, CONTAINER_MAGIC, CONTAINER_VERSION, LABEL_ROW_BYTES, MAGIC, PAIR_BYTES,
            TABLE_ROW_BYTES, VERTEX_BYTES,
        };
        use crate::scheme::{
            LabelEntry, Mode, RoutingLabel, RoutingScheme, RoutingTable, TableEntry,
        };

        fn write_varint(buf: &mut Vec<u8>, mut value: u64) {
            loop {
                let byte = (value & 0x7f) as u8;
                value >>= 7;
                if value == 0 {
                    buf.push(byte);
                    return;
                }
                buf.push(byte | 0x80);
            }
        }

        fn write_opt(buf: &mut Vec<u8>, v: Option<VertexId>) {
            write_varint(buf, v.map_or(0, |x| u64::from(x.0) + 1));
        }

        fn write_tree_table(buf: &mut Vec<u8>, t: &TreeTable) {
            write_varint(buf, t.enter);
            write_varint(buf, t.exit - t.enter);
            write_opt(buf, t.parent);
            write_opt(buf, t.heavy);
        }

        fn write_tree_label(buf: &mut Vec<u8>, l: &TreeLabel) {
            write_varint(buf, l.enter);
            write_varint(buf, l.light.len() as u64);
            for &(p, c) in &l.light {
                write_varint(buf, u64::from(p.0));
                write_varint(buf, u64::from(c.0));
            }
        }

        pub fn encode_scheme(s: &RoutingScheme) -> Vec<u8> {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            write_varint(&mut buf, s.k as u64);
            write_varint(
                &mut buf,
                match s.mode {
                    Mode::Centralized => 0,
                    Mode::DistributedLowMemory => 1,
                },
            );
            write_varint(&mut buf, s.num_vertices() as u64);
            for v in s.vertices() {
                let rows = s.table(v).rows();
                write_varint(&mut buf, rows.len() as u64);
                for e in rows {
                    write_varint(&mut buf, u64::from(e.root.0));
                    write_varint(&mut buf, u64::from(e.level));
                    write_varint(&mut buf, e.dist);
                    write_tree_table(&mut buf, &e.table);
                }
            }
            for v in s.vertices() {
                let rows = s.label(v).rows();
                write_varint(&mut buf, rows.len() as u64);
                for e in rows {
                    write_varint(&mut buf, e.level as u64);
                    write_varint(&mut buf, u64::from(e.pivot.0));
                    write_varint(&mut buf, e.dist);
                    write_tree_label(&mut buf, &e.tree_label);
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
            buf
        }

        pub fn encode_container(s: &RoutingScheme) -> Vec<u8> {
            let payload = encode_scheme(s);
            let mut buf = Vec::with_capacity(payload.len() + 16);
            buf.extend_from_slice(CONTAINER_MAGIC);
            write_varint(&mut buf, CONTAINER_VERSION);
            write_varint(&mut buf, payload.len() as u64);
            buf.extend_from_slice(&crc32(&payload).to_le_bytes());
            buf.extend_from_slice(&payload);
            buf
        }

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

        pub fn decode_scheme(buf: &[u8]) -> Result<RoutingScheme, PersistError> {
            if buf.len() < 4 || &buf[..4] != MAGIC {
                return Err(PersistError::BadHeader);
            }
            let mut pos = 4;
            // `BuildParams` wants k >= 2 and a table row stores its level as `u32`.
            let k = u32::try_from(rv(buf, &mut pos)?)
                .ok()
                .filter(|&k| k >= 2)
                .ok_or(PersistError::Malformed)? as usize;
            let mode = match rv(buf, &mut pos)? {
                0 => Mode::Centralized,
                1 => Mode::DistributedLowMemory,
                _ => return Err(PersistError::BadHeader),
            };
            let n = read_count(buf, &mut pos, VERTEX_BYTES)?;
            let mut tables = Vec::with_capacity(n);
            for _ in 0..n {
                let count = read_count(buf, &mut pos, TABLE_ROW_BYTES)?;
                let mut entries: Vec<TableEntry> = Vec::with_capacity(count);
                for _ in 0..count {
                    let root = read_vertex(buf, &mut pos, n)?;
                    if entries.last().is_some_and(|prev| prev.root >= root) {
                        return Err(PersistError::Malformed); // lookups binary-search roots
                    }
                    entries.push(TableEntry {
                        root,
                        level: read_level(buf, &mut pos, k)?,
                        dist: rv(buf, &mut pos)?,
                        table: read_tree_table(buf, &mut pos, n)?,
                    });
                }
                tables.push(RoutingTable::from_rows(entries));
            }
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                let count = read_count(buf, &mut pos, LABEL_ROW_BYTES)?;
                let mut entries: Vec<LabelEntry> = Vec::with_capacity(count);
                for _ in 0..count {
                    let level = read_level(buf, &mut pos, k)? as usize;
                    if entries.last().is_some_and(|prev| prev.level >= level) {
                        return Err(PersistError::Malformed);
                    }
                    entries.push(LabelEntry {
                        level,
                        pivot: read_vertex(buf, &mut pos, n)?,
                        dist: rv(buf, &mut pos)?,
                        tree_label: read_tree_label(buf, &mut pos, n)?,
                    });
                }
                labels.push(RoutingLabel::from_rows(entries));
            }
            let mut pivot_info = Vec::with_capacity(n);
            for _ in 0..n {
                let count = read_count(buf, &mut pos, PAIR_BYTES)?;
                let mut pivots = Vec::with_capacity(count);
                for _ in 0..count {
                    pivots.push((read_vertex(buf, &mut pos, n)?, rv(buf, &mut pos)?));
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
    }

    fn scheme(n: usize, seed: u64) -> (graphs::Graph, RoutingScheme) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        (g, built.scheme)
    }

    #[test]
    fn round_trips_and_routes_identically() {
        let (g, s) = scheme(60, 1101);
        let bytes = encode_scheme(&s);
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
        let mut bytes = encode_scheme(&s);
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
        let mut bytes = encode_scheme(&s);
        bytes.push(7);
        assert!(matches!(
            decode_scheme(&bytes),
            Err(PersistError::Malformed)
        ));
    }

    fn table_bytes(t: &TreeTable) -> Vec<u8> {
        let mut buf = Vec::new();
        write_tree_table(&mut buf, t);
        buf
    }

    fn label_bytes(l: &TreeLabel) -> Vec<u8> {
        let mut buf = Vec::new();
        write_tree_label(&mut buf, l);
        buf
    }

    /// Read one row from the start of `buf` with `read`, and where it ended.
    fn read_row<T>(
        buf: &[u8],
        read: fn(&[u8], &mut usize, usize) -> Result<T, PersistError>,
        n: usize,
    ) -> (Result<T, PersistError>, usize) {
        let mut pos = 0;
        let row = read(buf, &mut pos, n);
        (row, pos)
    }

    #[test]
    fn tables_and_labels_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(801);
        let ids: Vec<VertexId> = (0..100).map(VertexId).collect();
        let t = random_recursive_tree(100, &ids, 9, &mut rng);
        let scheme = tz::build(&t);
        for v in t.vertices() {
            let table = scheme.table(v).unwrap();
            let bytes = table_bytes(table);
            let (back, end) = read_row(&bytes, read_tree_table, 100);
            assert_eq!(back.as_ref(), Ok(table));
            assert_eq!(end, bytes.len());
            let label = scheme.label(v).unwrap();
            let bytes = label_bytes(label);
            let (back, end) = read_row(&bytes, read_tree_label, 100);
            assert_eq!(back.as_ref(), Ok(label));
            assert_eq!(end, bytes.len());
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let t = TreeTable {
            enter: 3,
            exit: 9,
            parent: Some(VertexId(1)),
            heavy: None,
        };
        let mut buf = table_bytes(&t);
        buf.push(0);
        // The row reader stops at the row's end and leaves the extra byte
        // unread; `decode_scheme` rejects whatever is left over at the end
        // of the payload (`rejects_trailing_bytes`).
        let (back, end) = read_row(&buf, read_tree_table, 2);
        assert_eq!(back, Ok(t));
        assert_eq!(end, buf.len() - 1);
    }

    #[test]
    fn encoded_label_is_compact() {
        // A label with 8 light edges on small ids fits well under the naive
        // 8-byte-per-word budget.
        let label = TreeLabel {
            enter: 500,
            light: (0..8)
                .map(|i| (VertexId(i * 2), VertexId(i * 2 + 1)))
                .collect(),
        };
        let bytes = label_bytes(&label);
        let naive = 8 * (1 + 2 * 8);
        assert!(bytes.len() * 4 < naive, "{} vs naive {naive}", bytes.len());
        assert_eq!(read_row(&bytes, read_tree_label, 16).0, Ok(label));
    }

    #[test]
    fn empty_label_is_two_bytes() {
        let label = TreeLabel {
            enter: 1,
            light: vec![],
        };
        assert_eq!(label_bytes(&label).len(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn label_encoding_round_trips(
            n in 3usize..50,
            seed in 0..u64::MAX,
            root_sel in 0..u32::MAX,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = generators::erdos_renyi_connected(n, 2.0 / n as f64, 1..=49, &mut rng);
            let root = VertexId(root_sel % n as u32);
            let t = shortest_path_tree(&g, root);
            let s = tz::build(&t);
            for v in t.vertices() {
                let label = s.label(v).unwrap();
                let (decoded, _) = read_row(&label_bytes(label), read_tree_label, n);
                prop_assert_eq!(decoded.as_ref(), Ok(label));
                let table = s.table(v).unwrap();
                let (decoded, _) = read_row(&table_bytes(table), read_tree_table, n);
                prop_assert_eq!(decoded.as_ref(), Ok(table));
            }
        }
    }

    #[test]
    fn decode_rejects_random_bytes() {
        let mut rng = ChaCha8Rng::seed_from_u64(3004);
        let mut rejected = 0;
        for _ in 0..100 {
            let len = rng.gen_range(0..20);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            // Must never panic; often rejects.
            if read_row(&bytes, read_tree_table, 64).0.is_err() {
                rejected += 1;
            }
            let _ = read_row(&bytes, read_tree_label, 64);
        }
        assert!(rejected > 0);
        // An interval end past u64::MAX, and a light-edge id that a narrowing
        // cast would alias to vertex 1: both rejected, even for the largest n.
        let mut overflow = Vec::new();
        for w in [u64::MAX, 1, 0, 0] {
            write_varint(&mut overflow, w);
        }
        let (row, _) = read_row(&overflow, read_tree_table, usize::MAX);
        assert_eq!(row, Err(PersistError::Malformed));
        let mut wide = Vec::new();
        for w in [0, 1, 0, (1 << 32) + 1] {
            write_varint(&mut wide, w);
        }
        let (row, _) = read_row(&wide, read_tree_label, usize::MAX);
        assert_eq!(row, Err(PersistError::Malformed));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check values ("123456789" is the canonical one).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC the sliced loop must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_bytewise_at_every_length_and_alignment() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 167 + 13) as u8).collect();
        for start in 0..16 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, len {len}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn crc32_matches_bytewise_on_random_buffers(
            bytes in proptest::collection::vec(0u8..=255, 0..4096)
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }

    #[test]
    fn container_round_trips_through_disk() {
        let (g, s) = scheme(50, 1106);
        let path = std::env::temp_dir().join("drt-persist-roundtrip.drsc");
        let saved = save_scheme_to(&path, &s).unwrap();
        let file = std::fs::read(&path).unwrap();
        let back = load_scheme_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(file, encode_container(&s).unwrap());
        assert_eq!(saved, file.len());
        assert_eq!(back.k, s.k);
        assert_eq!(back.mode, s.mode);
        for v in g.vertices() {
            assert_eq!(back.table(v).rows(), s.table(v).rows());
            assert_eq!(back.label(v).rows(), s.label(v).rows());
            assert_eq!(back.pivots(v), s.pivots(v));
        }
    }

    #[test]
    fn load_rejects_raw_scheme_files() {
        let (_, s) = scheme(30, 1107);
        let path = std::env::temp_dir().join("drt-persist-raw.bin");
        std::fs::write(&path, encode_scheme(&s)).unwrap();
        let loaded = load_scheme_from(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.err(), Some(PersistError::BadHeader));
    }

    /// A hand-written two-vertex payload (k = 2, low-memory mode). Vertex 1
    /// is well formed; vertex 0 holds the given table, label and pivot
    /// words, each led by its row count.
    fn two_vertex_payload(table: &[u64], label: &[u64], pivots: &[u64]) -> Vec<u8> {
        let mut words = vec![2, 1, 2];
        words.extend(table);
        words.extend([1, 1, 0, 0, 0, 0, 0, 0]); // its own tree, one vertex
        words.extend(label);
        words.extend([1, 0, 1, 0, 0, 0]); // level 0, pivot 1, no light edges
        words.extend(pivots);
        words.extend([1, 1, 0]);
        let mut buf = MAGIC.to_vec();
        for w in words {
            write_varint(&mut buf, w);
        }
        buf
    }

    /// An `n`-vertex payload with the given `k` and no rows at all, so the
    /// header is the only thing that can be wrong with it.
    fn rowless_payload(k: u64, n: u64) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        for w in [k, 1, n] {
            write_varint(&mut buf, w);
        }
        buf.resize(buf.len() + 3 * n as usize, 0);
        buf
    }

    #[test]
    fn payloads_that_checksum_but_are_not_schemes_are_malformed() {
        // Vertex 0's well-formed words: row (root 0, level 0, dist 0, enter 0,
        // span 0, no parent, no heavy child), label row (level 0, pivot 0,
        // dist 0, enter 0, no light edges), pivot pair (0, 0).
        let table = [1, 0, 0, 0, 0, 0, 0, 0];
        let label = [1, 0, 0, 0, 0, 0];
        let pivots = [1, 0, 0];
        assert!(decode_scheme(&two_vertex_payload(&table, &label, &pivots)).is_ok());
        assert!(decode_scheme(&rowless_payload(2, 2)).is_ok());
        let alias = (1u64 << 32) + 1; // vertex 1 once narrowed to 32 bits
        let cases: [(&str, Vec<u8>); 15] = [
            (
                "table root id aliases a vertex",
                two_vertex_payload(&[1, alias, 0, 0, 0, 0, 0, 0], &label, &pivots),
            ),
            (
                "tree parent id >= n",
                two_vertex_payload(&[1, 0, 0, 0, 0, 0, 9, 0], &label, &pivots),
            ),
            (
                "enter + span overflows",
                two_vertex_payload(&[1, 0, 0, 0, u64::MAX, 1, 0, 0], &label, &pivots),
            ),
            (
                "table roots descend",
                two_vertex_payload(
                    &[2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                    &label,
                    &pivots,
                ),
            ),
            (
                "table roots repeat",
                two_vertex_payload(
                    &[2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                    &label,
                    &pivots,
                ),
            ),
            (
                "label pivot id >= n",
                two_vertex_payload(&table, &[1, 0, 5, 0, 0, 0], &pivots),
            ),
            (
                "light edge id >= n",
                two_vertex_payload(&table, &[1, 0, 0, 0, 0, 1, 0, 7], &pivots),
            ),
            (
                "label levels descend",
                two_vertex_payload(&table, &[2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0], &pivots),
            ),
            (
                "pivot id aliases a vertex",
                two_vertex_payload(&table, &label, &[1, alias, 0]),
            ),
            (
                "table level = k",
                two_vertex_payload(&[1, 0, 2, 0, 0, 0, 0, 0], &label, &pivots),
            ),
            (
                "label level = k",
                two_vertex_payload(&table, &[1, 2, 0, 0, 0, 0], &pivots),
            ),
            (
                "table level = 2^32",
                two_vertex_payload(&[1, 0, 1 << 32, 0, 0, 0, 0, 0], &label, &pivots),
            ),
            ("k = 0", rowless_payload(0, 2)),
            ("k = 1", rowless_payload(1, 2)),
            ("k = 2^32", rowless_payload(1 << 32, 2)),
        ];
        for (case, bytes) in cases {
            assert_eq!(
                decode_scheme(&bytes).err(),
                Some(PersistError::Malformed),
                "{case}"
            );
            for parts in 1..=4 {
                assert!(splits_agree(&bytes, &wrap(&bytes), parts), "{case}");
            }
        }
        // The same through a well-formed container: the CRC vouches only
        // for the bytes, not for the scheme they spell.
        let (g, s) = scheme(30, 1110);
        let n = g.num_vertices();
        let mut tables: Vec<RoutingTable> = s.vertices().map(|v| s.table(v).clone()).collect();
        let mut rows = tables[0].rows().to_vec();
        rows.push(TableEntry {
            root: VertexId(n as u32 + 3),
            ..rows[0].clone()
        });
        tables[0] = RoutingTable::from_rows(rows);
        let forged = RoutingScheme::from_parts(
            s.k,
            s.mode,
            tables,
            s.vertices().map(|v| s.label(v).clone()).collect(),
            s.vertices().map(|v| s.pivots(v).to_vec()).collect(),
        );
        let bytes = encode_container(&forged).unwrap();
        assert_eq!(
            decode_container(&bytes).err(),
            Some(PersistError::Malformed),
            "table root n + 3"
        );
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
        let bytes = encode_scheme(&s);
        let words: usize = s.vertices().map(|v| s.resident_words(v)).sum();
        assert!(
            bytes.len() < 8 * words,
            "varint encoding ({} bytes) should beat raw words ({} bytes)",
            bytes.len(),
            8 * words
        );
    }

    /// `g` with every edge reweighted from `1..=cap`, where `cap` is
    /// [`MAX_TOTAL_WEIGHT`](graphs::MAX_TOTAL_WEIGHT) shared over the edges
    /// and shifted right by `shift`: from tie-heavy weights to the largest
    /// a graph may hold, so distances cross every varint width.
    fn reweighted(g: &graphs::Graph, shift: u32, rng: &mut ChaCha8Rng) -> graphs::Graph {
        let share = graphs::MAX_TOTAL_WEIGHT / g.num_edges().max(1) as u64;
        let cap = (share >> shift).max(1);
        let mut b = graphs::GraphBuilder::new(g.num_vertices());
        for (u, v, _) in g.edges() {
            b.add_edge(u, v, rng.gen_range(1..=cap));
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn writer_matches_the_byte_loop_on_built_schemes(
            n in 1usize..=200,
            k in 2usize..=4,
            mode in 0usize..2,
            shift in 0u32..=56,
            seed in 0..u64::MAX,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let p = (4.0 / n as f64).min(1.0);
            let g = generators::erdos_renyi_connected(n, p, 1..=1, &mut rng);
            let g = reweighted(&g, shift, &mut rng);
            let mode = [Mode::Centralized, Mode::DistributedLowMemory][mode];
            let s = build(&g, &BuildParams::new(k).with_mode(mode), &mut rng).scheme;
            let payload = reference::encode_scheme(&s);
            let container = reference::encode_container(&s);
            prop_assert_eq!(&encode_scheme(&s), &payload);
            prop_assert_eq!(&encode_container(&s).unwrap(), &container);
            for parts in 1..=4 {
                let (bytes, crc) = write_in_parts(&s, &[], |_| parts);
                prop_assert_eq!(&bytes, &payload);
                prop_assert_eq!(crc, crc32(&payload));
                prop_assert_eq!(&encode_container_in(&s, |_| parts), &container);
            }
        }

        #[test]
        fn split_decode_matches_the_one_pass_decoder(
            n in 1usize..=200,
            k in 2usize..=4,
            mode in 0usize..2,
            shift in 0u32..=56,
            seed in 0..u64::MAX,
            cuts in proptest::collection::vec(0u64..1 << 16, 8),
            flips in proptest::collection::vec((0u64..1 << 16, 0u8..8), 8),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let p = (4.0 / n as f64).min(1.0);
            let g = generators::erdos_renyi_connected(n, p, 1..=1, &mut rng);
            let g = reweighted(&g, shift, &mut rng);
            let mode = [Mode::Centralized, Mode::DistributedLowMemory][mode];
            let s = build(&g, &BuildParams::new(k).with_mode(mode), &mut rng).scheme;
            let payload = reference::encode_scheme(&s);
            let container = reference::encode_container(&s);
            // A point `f / 2^16` of the way into `len` bytes.
            let at = |f: u64, len: usize| ((f * len as u64) >> 16) as usize;
            let mut inputs = vec![(payload.clone(), container.clone())];
            for &f in &cuts {
                inputs.push((
                    payload[..at(f, payload.len())].to_vec(),
                    container[..at(f, container.len())].to_vec(),
                ));
            }
            for &(f, bit) in &flips {
                let (mut p, mut c) = (payload.clone(), container.clone());
                let i = at(f, p.len() - 1);
                p[i] ^= 1 << bit;
                let j = at(f, c.len() - 1);
                c[j] ^= 1 << bit;
                inputs.push((p.clone(), c));
                // The same flip under a repaired CRC: the checks behind it.
                inputs.push((p.clone(), wrap(&p)));
            }
            for (payload, container) in &inputs {
                for parts in 1..=4 {
                    prop_assert!(
                        splits_agree(payload, container, parts),
                        "{} parts, {} payload bytes", parts, payload.len()
                    );
                }
            }
        }
    }

    /// `payload` in a container with its length and a correct CRC.
    fn wrap(payload: &[u8]) -> Vec<u8> {
        let mut buf = CONTAINER_MAGIC.to_vec();
        write_varint(&mut buf, CONTAINER_VERSION);
        write_varint(&mut buf, payload.len() as u64);
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    /// A decoded scheme as its bytes, so that two outcomes compare.
    fn outcome(r: Result<RoutingScheme, PersistError>) -> Result<Vec<u8>, PersistError> {
        r.map(|s| reference::encode_scheme(&s))
    }

    /// Whether the split decoder in `parts` parts gives what the one-pass
    /// decoder gives on `payload` and on `container`: the same scheme, or
    /// the same error with the same fields.
    fn splits_agree(payload: &[u8], container: &[u8], parts: usize) -> bool {
        outcome(decode_in_parts(payload, None, parts)) == outcome(reference::decode_scheme(payload))
            && outcome(decode_container_in(container, parts))
                == outcome(reference::decode_container(container))
    }

    #[test]
    fn split_decode_matches_at_every_truncation() {
        let (_, s) = scheme(40, 1111);
        let payload = encode_scheme(&s);
        let container = encode_container(&s).unwrap();
        for cut in 0..=container.len() {
            let p = &payload[..cut.min(payload.len())];
            for parts in 1..=4 {
                assert!(
                    splits_agree(p, &container[..cut], parts),
                    "cut {cut}, {parts} parts"
                );
            }
        }
    }

    #[test]
    fn payloads_split_at_vertex_boundaries_into_the_parts_asked_for() {
        let (_, s) = scheme(200, 1112);
        let payload = encode_scheme(&s);
        let head = read_header(&payload).unwrap();
        for parts in 1..=4 {
            let plan = split_payload(&payload, &head, parts);
            assert_eq!(plan.len(), parts);
            assert_eq!(plan[0].bytes.start, 0);
            assert_eq!(plan[0].vertices.start, 0);
            for pair in plan.windows(2) {
                assert_eq!(pair[0].bytes.end, pair[1].bytes.start);
                assert_eq!(pair[0].vertices.end, pair[1].vertices.start);
            }
            let last = plan.last().unwrap();
            assert_eq!((last.vertices.end, last.bytes.end), (200, payload.len()));
            for part in &plan {
                let (tables, ..) = decode_part(&payload, &head, part).unwrap();
                assert_eq!(tables.len(), part.vertices.len());
            }
            let (runs, total) = split_vertices(&s, |_| parts);
            assert_eq!(runs.len(), parts);
            assert!(runs.iter().all(|(run, _)| !run.is_empty()));
            assert_eq!(runs.iter().map(|&(_, fewest)| fewest).sum::<usize>(), total);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn crc32_combine_matches_the_crc_of_the_whole(
            bytes in proptest::collection::vec(0u8..=255, 0..300)
        ) {
            let whole = crc32(&bytes);
            for cut in 0..=bytes.len() {
                let (a, b) = bytes.split_at(cut);
                prop_assert_eq!(crc32_combine(crc32(a), crc32(b), b.len()), whole);
            }
        }
    }

    #[test]
    fn seal_fits_the_header_to_every_length_width() {
        // Payload lengths at each width boundary of the length varint: one
        // to three bytes move the payload left, four fill the room exactly.
        let lens = [
            0,
            1,
            127,
            128,
            (1 << 14) - 1,
            1 << 14,
            (1 << 21) - 1,
            1 << 21,
        ];
        for len in lens {
            let payload: Vec<u8> = (0..len).map(|i| (i * 167 + 13) as u8).collect();
            let mut buf = CONTAINER_MAGIC.to_vec();
            buf.push(1);
            let head = buf.len();
            buf.resize(head + LEN_ROOM + 4, 0xAA);
            buf.extend_from_slice(&payload);
            seal(&mut buf, head, crc32(&payload));
            let mut want = CONTAINER_MAGIC.to_vec();
            write_varint(&mut want, CONTAINER_VERSION);
            write_varint(&mut want, len as u64);
            want.extend_from_slice(&crc32(&payload).to_le_bytes());
            want.extend_from_slice(&payload);
            assert!(buf == want, "payload of {len} bytes");
        }
    }
}
