//! The LEB128 varint codec.
//!
//! The paper counts sizes in machine words; actual deployments ship labels
//! inside packet headers, where *bits* matter. Scheme files
//! (`routing::persist`) write every id, level, distance and DFS time as one
//! varint, so small integers — nearly all of them — take one or two bytes.
//! The rows of a [`TreeTable`](crate::types::TreeTable) and a
//! [`TreeLabel`](crate::types::TreeLabel) are written by `persist`'s row
//! codec on top of this one, and the bit-complexity figure measures those
//! exact bytes.

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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
}
