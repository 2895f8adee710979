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

/// Values [`write_varints`] packs into one 16-byte row: at most two bytes
/// each when all are below 2¹⁴.
const ROW_VALUES: usize = 8;

/// Append `value` as LEB128.
pub fn write_varint(buf: &mut Vec<u8>, value: u64) {
    write_varints(buf, &[value]);
}

/// Append each of `values` as LEB128: the bytes of one [`write_varint`] per
/// value, in order.
///
/// Values go a row of up to eight at a time. When every value of a row is
/// below 2¹⁴ — one or two bytes, nearly every id, level, DFS time and
/// distance in a scheme — the row's bytes are packed branch-free into one
/// 16-byte word, appended whole with one copy and cut back to their length,
/// so `buf` may briefly hold up to 16 bytes past the row. Any other row goes
/// through the general LEB128 loop, value by value.
#[inline]
pub fn write_varints(buf: &mut Vec<u8>, values: &[u64]) {
    for row in values.chunks(ROW_VALUES) {
        if row.iter().all(|&v| v < 1 << 14) {
            let mut packed = 0u128;
            let mut len = 0;
            for &v in row {
                let two = u64::from(v >= 0x80);
                let bytes = v & 0x7f | two << 7 | (v >> 7) << 8;
                packed |= u128::from(bytes) << (8 * len);
                len += 1 + two as usize;
            }
            let end = buf.len() + len;
            buf.extend_from_slice(&packed.to_le_bytes());
            buf.truncate(end);
        } else {
            for &v in row {
                write_varint_long(buf, v);
            }
        }
    }
}

/// The general LEB128 loop behind [`write_varints`].
#[inline(never)]
fn write_varint_long(buf: &mut Vec<u8>, mut value: u64) {
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

/// Continuation bytes at which [`read_varint`] gives up: a value is at most
/// ten bytes, nine continuations and a terminator.
const OVERLONG: usize = 10;

/// The position after `count` LEB128 values that start at `pos`, found
/// without decoding them: where `count` calls of [`read_varint`] from `pos`
/// would end, and `None` exactly where one of them would fail (too few
/// bytes, or a value longer than ten).
///
/// Eight bytes go at a time: a value ends at each byte whose top bit is
/// clear, so a word's terminators are the sum of its bytes' flags (one
/// multiply gathers it into the top byte), and the run of continuation
/// bytes since the last one is carried across words to catch an overlong
/// value. The word holding the last terminator goes byte by byte.
#[must_use]
pub fn skip_varints(buf: &[u8], mut pos: usize, mut count: usize) -> Option<usize> {
    const TOPS: u64 = 0x8080_8080_8080_8080;
    const BYTES: u64 = 0x0101_0101_0101_0101;
    let mut run = 0; // continuation bytes since the last terminator
    for word in buf.get(pos..).unwrap_or_default().chunks_exact(8) {
        let ends = !u64::from_le_bytes(word.try_into().expect("eight bytes")) & TOPS;
        let found = ((ends >> 7).wrapping_mul(BYTES) >> 56) as usize;
        if found >= count {
            break;
        }
        if ends == 0 {
            run += 8;
        } else {
            if run + ends.trailing_zeros() as usize / 8 >= OVERLONG {
                return None;
            }
            run = ends.leading_zeros() as usize / 8;
        }
        if run >= OVERLONG {
            return None;
        }
        count -= found;
        pos += 8;
    }
    while count > 0 {
        let &byte = buf.get(pos)?;
        pos += 1;
        if byte & 0x80 == 0 {
            count -= 1;
            run = 0;
        } else {
            run += 1;
            if run >= OVERLONG {
                return None;
            }
        }
    }
    Some(pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time LEB128 writer the row writer must agree with.
    fn write_varint_reference(buf: &mut Vec<u8>, mut value: u64) {
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

    /// Width boundaries of the writer's fast path and of LEB128.
    const WRITER_EDGES: [u64; 8] = [
        0,
        (1 << 7) - 1,
        1 << 7,
        (1 << 14) - 1,
        1 << 14,
        1 << 21,
        1 << 32,
        u64::MAX,
    ];

    /// Half the time a [`WRITER_EDGES`] value, else a random `u64` shifted
    /// right by a random amount, so every width turns up.
    fn any_value() -> impl Strategy<Value = u64> {
        (0usize..16, 0u32..64, 0u64..=u64::MAX)
            .prop_map(|(pick, shift, raw)| WRITER_EDGES.get(pick).copied().unwrap_or(raw >> shift))
    }

    /// Up to 20 values: half the time of any width, else all two-byte, so
    /// that packed rows fill all 16 bytes.
    fn any_row() -> impl Strategy<Value = Vec<u64>> {
        let pairs = proptest::collection::vec((any_value(), 0x80u64..1 << 14), 0..20);
        (pairs, 0u8..2).prop_map(|(pairs, dense)| {
            let pick = |(any, two): (u64, u64)| if dense == 1 { two } else { any };
            pairs.into_iter().map(pick).collect()
        })
    }

    #[test]
    fn write_varint_matches_the_byte_loop_at_every_edge() {
        for v in EDGES.into_iter().chain(WRITER_EDGES) {
            let (mut buf, mut want) = (vec![0x05], vec![0x05]);
            write_varint(&mut buf, v);
            write_varint_reference(&mut want, v);
            assert_eq!(buf, want, "{v}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn write_varints_matches_the_byte_loop(
            prefix in proptest::collection::vec(0u8..=255, 0..20),
            values in any_row(),
        ) {
            let mut buf = prefix.clone();
            write_varints(&mut buf, &values);
            let mut want = prefix;
            for &v in &values {
                write_varint_reference(&mut want, v);
            }
            prop_assert_eq!(buf, want);
        }

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

        #[test]
        fn skip_varints_ends_where_the_read_loop_ends(
            bytes in proptest::collection::vec(any_byte(), 0..64),
            at in 0usize..66,
            count in 0usize..24,
        ) {
            let mut pos = at;
            let want = (0..count)
                .try_for_each(|_| read_varint(&bytes, &mut pos).map(drop))
                .map(|()| pos);
            prop_assert_eq!(skip_varints(&bytes, at, count), want);
        }
    }

    /// Mostly continuation bytes, so that runs of ten and more, overlong
    /// values, straddle the eight-byte words `skip_varints` counts in.
    fn any_byte() -> impl Strategy<Value = u8> {
        (0u8..4, 0u8..=255).prop_map(|(pick, b)| if pick == 0 { b & 0x7f } else { b | 0x80 })
    }

    #[test]
    fn skip_varints_finds_runs_across_words() {
        // An overlong value starting at every offset of a word, then a
        // ten-byte value (nine continuations) that is not overlong.
        for lead in 0..8 {
            let mut buf = vec![0u8; lead];
            buf.extend([0x80; OVERLONG]);
            buf.extend([0x00; 9]);
            assert_eq!(skip_varints(&buf, 0, lead + 1), None, "lead {lead}");
            assert_eq!(skip_varints(&buf, 0, lead), Some(lead), "lead {lead}");
            buf[lead] = 0x00;
            assert_eq!(
                skip_varints(&buf, 0, lead + 2),
                Some(lead + OVERLONG + 1),
                "lead {lead}"
            );
        }
    }
}
