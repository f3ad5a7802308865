//! Wire codec for [`SparseRows`] blocks.
//!
//! Intermediate activation rows are shipped between workers as byte strings
//! (pub-sub messages or object-store files). The codec uses delta + LEB128
//! varint encoding for ids and column indices — the dominant cost in sparse
//! payloads — followed by raw little-endian `f32` values, written and read
//! through the shared [`crate::bytes`] reader. The encoded buffer is
//! typically further shrunk by [`crate::compress`].
//!
//! **The `_into` forms.** [`encode`] and [`decode`] allocate their result;
//! [`encode_into`] appends to a buffer the caller owns and [`decode_into`]
//! replaces the content of a block the caller owns, so a sender that frames
//! many blocks serializes each into the same buffer. The channel engine
//! (`fsd_core`'s carriers) keeps such buffers in a per-service pool and
//! takes one per frame. [`decode_into`] sizes the block once, to what the bytes left
//! in the buffer can hold — every row takes at least 2 of them and every
//! entry at least 5 — so the row count the header claims is believed only
//! up to that bound; it then appends each row's columns and values
//! straight onto the block's buffers.

use crate::bytes::{
    ascending_len, put_ascending, put_f32s, put_varint, varint_len, DecodeError, Reader,
};
use crate::rows::SparseRows;

/// Serializes a block. Layout:
/// `width, n_rows, { id_delta, nnz, { col_delta }, { f32le } }*`
/// where `id_delta` is the gap from the previous id (first id raw) and
/// the `col_delta`s are the row's columns as one ascending run.
pub fn encode(block: &SparseRows) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(block, &mut out);
    out
}

/// [`encode`], appended to `out` (whose capacity is reused).
pub fn encode_into(block: &SparseRows, out: &mut Vec<u8>) {
    // Ids/cols are strictly increasing, so deltas (minus 1 for subsequent
    // entries) stay small; estimate ~2.5 bytes/entry + 4 bytes/value.
    out.reserve(16 + block.nnz() * 7 + block.n_rows() * 4);
    put_varint(out, block.width() as u64);
    put_varint(out, block.n_rows() as u64);
    let mut prev_id = 0u32;
    for (i, (id, cols, vals)) in block.iter().enumerate() {
        put_varint(out, u64::from(if i == 0 { id } else { id - prev_id - 1 }));
        prev_id = id;
        put_varint(out, cols.len() as u64);
        put_ascending(out, cols);
        put_f32s(out, vals);
    }
}

/// Deserializes a buffer produced by [`encode`].
pub fn decode(buf: &[u8]) -> Result<SparseRows, DecodeError> {
    let mut block = SparseRows::default();
    decode_into(buf, &mut block)?;
    Ok(block)
}

/// [`decode`] into a caller-owned block, whose buffers are reused (its
/// previous content is dropped; after an error it holds the rows decoded
/// up to the fault).
pub fn decode_into(buf: &[u8], block: &mut SparseRows) -> Result<(), DecodeError> {
    let mut r = Reader::new(buf);
    let width = r.varint_u32()? as usize;
    let n_rows = r.varint_u32()?;
    // The header is untrusted: room is reserved for what the bytes left
    // can hold — a row takes ≥ 2 (id delta, count), an entry ≥ 5 (column,
    // value) — so a claim of 2^32 rows reserves nothing it cannot fill.
    let rows = (n_rows as usize).min(r.remaining() / 2);
    block.clear_for(width, rows, (r.remaining() - 2 * rows) / 5);
    let mut prev_id: Option<u32> = None;
    for _ in 0..n_rows {
        let delta = r.varint_u32()?;
        let id = match prev_id {
            None => delta,
            Some(p) => p
                .checked_add(delta)
                .and_then(|v| v.checked_add(1))
                .ok_or(DecodeError::Overflow)?,
        };
        prev_id = Some(id);
        // Each nonzero still needs ≥ 1 column byte and 4 value bytes.
        let nnz = r.count(5)?;
        block.try_push_row(id, |cols, vals| {
            r.ascending_into(nnz, cols)?;
            // Earlier rows' columns passed this check already.
            if cols.last().is_some_and(|&c| c as usize >= width) {
                return Err(DecodeError::Corrupt("column out of range"));
            }
            r.f32s_into(nnz, vals)
        })?;
    }
    r.finish()
}

/// Exact encoded size without materializing the buffer; used to pack
/// payloads against channel quotas.
pub fn encoded_size(block: &SparseRows) -> usize {
    let mut n = varint_len(block.width() as u64) + varint_len(block.n_rows() as u64);
    let mut prev_id = 0u32;
    for (i, (id, cols, _)) in block.iter().enumerate() {
        n += varint_len(u64::from(if i == 0 { id } else { id - prev_id - 1 }));
        prev_id = id;
        n += varint_len(cols.len() as u64) + ascending_len(cols) + 4 * cols.len();
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::SparseRows;
    use crate::testkit::{fnv1a, Rng};

    fn block() -> SparseRows {
        SparseRows::from_rows(
            300,
            [
                (0u32, vec![0u32, 1, 299], vec![0.5f32, -2.0, 32.0]),
                (17, vec![128], vec![1.0]),
                (1000, vec![5, 6, 7, 250], vec![1.0, 2.0, 3.0, 4.0]),
            ],
        )
    }

    /// A seeded block whose ids, columns and counts need multi-byte
    /// varints and whose values cover every bit pattern.
    fn wide_block() -> SparseRows {
        let mut rng = Rng::new(0x10C);
        let mut block = SparseRows::new(1 << 20);
        let mut id = 0u32;
        for _ in 0..60 {
            id += 1 + rng.below(100_000) as u32;
            let mut cols: Vec<u32> = (0..1 + rng.below(300))
                .map(|_| rng.below(1 << 20) as u32)
                .collect();
            cols.sort_unstable();
            cols.dedup();
            let vals: Vec<f32> = cols
                .iter()
                .map(|_| f32::from_bits(rng.next() as u32))
                .collect();
            block.push_row(id, &cols, &vals);
        }
        block
    }

    /// The exact bytes [`encode`] writes for fixed blocks. Every staged
    /// input share and every activation frame is one of these encodings,
    /// so a changed byte would move artifact sizes, GET and publish times.
    #[test]
    fn format_is_locked() {
        assert_eq!(
            encode(&block()),
            vec![
                172, 2, 3, 0, 3, 0, 0, 169, 2, 0, 0, 0, 63, 0, 0, 0, 192, 0, 0, 0, 66, 16, 1, 128,
                1, 0, 0, 128, 63, 214, 7, 4, 5, 0, 0, 242, 1, 0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64,
                64, 0, 0, 128, 64
            ]
        );
        let wide = encode(&wide_block());
        assert_eq!((wide.len(), fnv1a(&wide)), (52472, 0x53c660667a8c913c));
    }

    #[test]
    fn roundtrip_basic() {
        let b = block();
        let buf = encode(&b);
        let back = decode(&buf).expect("decodes");
        assert_eq!(back, b);
    }

    #[test]
    fn decode_into_reuses_a_block_of_any_shape() {
        let mut into = SparseRows::from_rows(9, [(4u32, vec![1u32, 8], vec![1.0f32, 2.0])]);
        for b in [block(), SparseRows::new(64), block()] {
            decode_into(&encode(&b), &mut into).expect("decodes");
            assert_eq!(into, b);
        }
    }

    #[test]
    fn roundtrip_empty_block() {
        let b = SparseRows::new(64);
        let back = decode(&encode(&b)).expect("decodes");
        assert_eq!(back, b);
        assert!(back.is_empty());
    }

    #[test]
    fn encoded_size_is_exact() {
        for b in [
            block(),
            wide_block(),
            SparseRows::new(1),
            SparseRows::new(1 << 20),
        ] {
            assert_eq!(encoded_size(&b), encode(&b).len());
        }
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let buf = encode(&block());
        for cut in 0..buf.len() {
            let r = decode(&buf[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut buf = encode(&block());
        buf.push(0);
        assert_eq!(decode(&buf), Err(DecodeError::Corrupt("trailing bytes")));
    }

    #[test]
    fn decode_rejects_column_out_of_range() {
        // width=1, one row id 0 with nnz=1, col=5 -> out of range
        let mut buf = Vec::new();
        put_varint(&mut buf, 1); // width
        put_varint(&mut buf, 1); // n_rows
        put_varint(&mut buf, 0); // id
        put_varint(&mut buf, 1); // nnz
        put_varint(&mut buf, 5); // col 5 >= width 1
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        assert_eq!(
            decode(&buf),
            Err(DecodeError::Corrupt("column out of range"))
        );
    }

    #[test]
    fn decode_rejects_a_row_count_the_buffer_cannot_hold() {
        // width 4, one row, id 0, claiming 2^32 - 1 nonzeros in no bytes:
        // refused before 2 × 16 GiB are reserved for it.
        let mut buf = vec![4, 1, 0];
        put_varint(&mut buf, u64::from(u32::MAX));
        assert_eq!(decode(&buf), Err(DecodeError::Truncated));
        // One nonzero's worth of bytes does not cover a claim of two.
        assert_eq!(
            decode(&[4, 1, 0, 2, 0, 0, 0, 0, 0]),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn a_hostile_header_cannot_size_an_allocation() {
        // A real 3-row block whose header claims u32::MAX rows.
        let mut lying = vec![172, 2];
        put_varint(&mut lying, u64::from(u32::MAX));
        lying.extend_from_slice(&encode(&block())[3..]);
        let mut claims_max_nnz = vec![4, 1, 0];
        put_varint(&mut claims_max_nnz, u64::from(u32::MAX));
        let mut rows_of_nothing = vec![4];
        put_varint(&mut rows_of_nothing, u64::from(u32::MAX));
        rows_of_nothing.extend([0; 64]);
        for (buf, err) in [
            (lying, DecodeError::Truncated),
            (claims_max_nnz, DecodeError::Truncated),
            (vec![4, 1, 0, 2, 0, 0, 0, 0, 0], DecodeError::Truncated),
            (rows_of_nothing, DecodeError::Truncated),
        ] {
            let mut into = SparseRows::default();
            assert_eq!(decode_into(&buf, &mut into), Err(err), "{buf:?}");
            // Every row is ≥ 2 bytes and every entry ≥ 5, so the block
            // reserves at most ~8 bytes per frame byte.
            assert!(
                into.capacity_bytes() <= 8 * buf.len() + 64,
                "{} B reserved for a {}-byte frame",
                into.capacity_bytes(),
                buf.len()
            );
        }
    }

    #[test]
    fn encode_into_appends() {
        let mut out = vec![0xEE];
        encode_into(&block(), &mut out);
        assert_eq!((out[0], &out[1..]), (0xEE, &encode(&block())[..]));
    }

    #[test]
    fn decode_rejects_varint_overflow() {
        let buf = [0xff, 0xff, 0xff, 0xff, 0x7f, 0x00];
        assert_eq!(decode(&buf), Err(DecodeError::Overflow));
    }

    #[test]
    fn special_float_values_survive() {
        let b = SparseRows::from_rows(
            4,
            [(
                0u32,
                vec![0u32, 1, 2],
                vec![f32::MIN_POSITIVE, f32::MAX, -0.0f32],
            )],
        );
        let back = decode(&encode(&b)).expect("decodes");
        assert_eq!(back, b);
    }

    #[test]
    fn dense_ids_compress_well() {
        // Consecutive ids and columns should encode near 1 byte per index.
        let rows: Vec<(u32, Vec<u32>, Vec<f32>)> = (0..100u32)
            .map(|i| (i, vec![0u32, 1, 2], vec![1.0f32; 3]))
            .collect();
        let b = SparseRows::from_rows(16, rows);
        let buf = encode(&b);
        // 300 values * 4B = 1200; index overhead should be ~500, not ~2400.
        assert!(buf.len() < 1800, "encoded size {} too large", buf.len());
    }
}
