//! Bit-level encoding of tables and labels.
//!
//! The paper counts sizes in machine words; actual deployments ship labels
//! inside packet headers, where *bits* matter. This module provides a
//! canonical varint (LEB128) wire format for [`TreeTable`] and
//! [`TreeLabel`], used by the bit-complexity figure to show that a label of
//! `O(log n)` words is `O(log² n)` bits — and typically far less, because
//! DFS times and vertex ids are small integers.

use graphs::VertexId;

use crate::types::{TreeLabel, TreeTable};

/// Append `value` as LEB128.
pub fn write_varint(buf: &mut Vec<u8>, mut value: u64) {
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

/// Read a LEB128 value at `*pos`, advancing it. `None` on truncation or
/// overlong input (> 10 bytes).
///
/// Values below 2¹⁴ — one or two bytes, nearly every id, level and DFS time
/// in a scheme — are read inline; longer ones, and every `None`, go through
/// the general loop from the same start.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let at = *pos;
    if let Some(&b0) = buf.get(at) {
        if b0 < 0x80 {
            *pos = at + 1;
            return Some(u64::from(b0));
        }
        if let Some(&b1) = buf.get(at + 1) {
            if b1 < 0x80 {
                *pos = at + 2;
                return Some(u64::from(b0 & 0x7f) | u64::from(b1) << 7);
            }
        }
    }
    read_varint_long(buf, pos)
}

/// The general LEB128 loop behind [`read_varint`].
#[inline(never)]
fn read_varint_long(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

fn write_opt_vertex(buf: &mut Vec<u8>, v: Option<VertexId>) {
    // 0 = None; ids shifted by one.
    write_varint(buf, v.map_or(0, |x| u64::from(x.0) + 1));
}

fn read_opt_vertex(buf: &[u8], pos: &mut usize) -> Option<Option<VertexId>> {
    let raw = read_varint(buf, pos)?;
    Some(if raw == 0 {
        None
    } else {
        Some(VertexId((raw - 1) as u32))
    })
}

/// Serialize a table (4 varints).
pub fn encode_table(t: &TreeTable) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12);
    write_varint(&mut buf, t.enter);
    write_varint(&mut buf, t.exit - t.enter); // delta: subtree size − 1
    write_opt_vertex(&mut buf, t.parent);
    write_opt_vertex(&mut buf, t.heavy);
    buf
}

/// Deserialize a table. `None` on malformed input.
pub fn decode_table(buf: &[u8]) -> Option<TreeTable> {
    let mut pos = 0;
    let enter = read_varint(buf, &mut pos)?;
    let span = read_varint(buf, &mut pos)?;
    let parent = read_opt_vertex(buf, &mut pos)?;
    let heavy = read_opt_vertex(buf, &mut pos)?;
    (pos == buf.len()).then_some(TreeTable {
        enter,
        exit: enter + span,
        parent,
        heavy,
    })
}

/// Serialize a label: entry time, light-edge count, then the edges.
pub fn encode_label(l: &TreeLabel) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 4 * l.light.len());
    write_varint(&mut buf, l.enter);
    write_varint(&mut buf, l.light.len() as u64);
    for &(p, c) in &l.light {
        write_varint(&mut buf, u64::from(p.0));
        write_varint(&mut buf, u64::from(c.0));
    }
    buf
}

/// Deserialize a label. `None` on malformed input.
pub fn decode_label(buf: &[u8]) -> Option<TreeLabel> {
    let mut pos = 0;
    let enter = read_varint(buf, &mut pos)?;
    let count = read_varint(buf, &mut pos)? as usize;
    if count > buf.len() {
        return None; // cheap sanity bound before allocating
    }
    let mut light = Vec::with_capacity(count);
    for _ in 0..count {
        let p = VertexId(read_varint(buf, &mut pos)? as u32);
        let c = VertexId(read_varint(buf, &mut pos)? as u32);
        light.push((p, c));
    }
    (pos == buf.len()).then_some(TreeLabel { enter, light })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tz;
    use graphs::tree::random_recursive_tree;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The plain LEB128 loop the fast path must agree with.
    fn read_varint_reference(buf: &[u8], pos: &mut usize) -> Option<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let &byte = buf.get(*pos)?;
            *pos += 1;
            if shift >= 64 {
                return None;
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(value);
            }
            shift += 7;
        }
    }

    /// Every width boundary of the fast path and of the general loop.
    const EDGES: [u64; 13] = [
        0,
        1,
        (1 << 7) - 1,
        1 << 7,
        300,
        (1 << 14) - 1,
        1 << 14,
        (1 << 21) - 1,
        1 << 21,
        1_000_000,
        u32::MAX as u64,
        u64::MAX - 1,
        u64::MAX,
    ];

    #[test]
    fn varint_round_trips() {
        for v in EDGES {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
            // The same value after another one, and followed by more bytes.
            let mut framed = vec![0x05];
            framed.extend(&buf);
            framed.push(0x7f);
            let mut pos = 1;
            assert_eq!(read_varint(&framed, &mut pos), Some(v), "{v} framed");
            assert_eq!(pos, buf.len() + 1);
        }
    }

    #[test]
    fn varint_rejects_truncation() {
        for v in EDGES {
            let mut full = Vec::new();
            write_varint(&mut full, v);
            // Every proper prefix, alone and at the end of a longer buffer:
            // a two-byte value cut after its first byte included.
            for cut in 0..full.len() {
                for lead in [&[][..], &[0x05][..]] {
                    let mut buf = lead.to_vec();
                    buf.extend(&full[..cut]);
                    let mut pos = lead.len();
                    assert_eq!(read_varint(&buf, &mut pos), None, "{v} cut at {cut}");
                    let mut ref_pos = lead.len();
                    assert_eq!(read_varint_reference(&buf, &mut ref_pos), None);
                    assert_eq!(pos, ref_pos, "{v} cut at {cut}");
                }
            }
        }
        // Eleven bytes: ten continuations and a terminator is overlong.
        let mut overlong = vec![0x80; 10];
        overlong.push(0x00);
        let mut pos = 0;
        assert_eq!(read_varint(&overlong, &mut pos), None);
        assert_eq!(pos, 11);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn read_varint_agrees_with_the_reference_loop(
            bytes in proptest::collection::vec(0u8..=255, 0..24),
            at in 0usize..26,
        ) {
            let (mut pos, mut ref_pos) = (at, at);
            prop_assert_eq!(
                read_varint(&bytes, &mut pos),
                read_varint_reference(&bytes, &mut ref_pos)
            );
            prop_assert_eq!(pos, ref_pos);
        }
    }

    #[test]
    fn tables_and_labels_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(801);
        let ids: Vec<VertexId> = (0..100).map(VertexId).collect();
        let t = random_recursive_tree(100, &ids, 9, &mut rng);
        let scheme = tz::build(&t);
        for v in t.vertices() {
            let table = scheme.table(v).unwrap();
            assert_eq!(decode_table(&encode_table(table)).as_ref(), Some(table));
            let label = scheme.label(v).unwrap();
            assert_eq!(decode_label(&encode_label(label)).as_ref(), Some(label));
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
        let mut buf = encode_table(&t);
        buf.push(0);
        assert_eq!(decode_table(&buf), None);
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
        let bytes = encode_label(&label);
        let naive = 8 * (1 + 2 * 8);
        assert!(bytes.len() * 4 < naive, "{} vs naive {naive}", bytes.len());
        assert_eq!(decode_label(&bytes), Some(label));
    }

    #[test]
    fn empty_label_is_two_bytes() {
        let label = TreeLabel {
            enter: 1,
            light: vec![],
        };
        assert_eq!(encode_label(&label).len(), 2);
    }
}
