//! Wire codec for [`SparseRows`] blocks.
//!
//! Intermediate activation rows are shipped between workers as byte strings
//! (pub-sub messages or object-store files). The codec uses delta + LEB128
//! varint encoding for ids and column indices — the dominant cost in sparse
//! payloads — followed by raw little-endian `f32` values, written and read
//! through the shared [`crate::bytes`] reader. The encoded buffer is
//! typically further shrunk by [`crate::compress`].

use crate::bytes::{
    ascending_len, put_ascending, put_f32s, put_varint, varint_len, DecodeError, Reader,
};
use crate::rows::SparseRows;

/// Serializes a block. Layout:
/// `width, n_rows, { id_delta, nnz, { col_delta }, { f32le } }*`
/// where `id_delta` is the gap from the previous id (first id raw) and
/// the `col_delta`s are the row's columns as one ascending run.
pub fn encode(block: &SparseRows) -> Vec<u8> {
    // Ids/cols are strictly increasing, so deltas (minus 1 for subsequent
    // entries) stay small; estimate ~2.5 bytes/entry + 4 bytes/value.
    let mut out = Vec::with_capacity(16 + block.nnz() * 7 + block.n_rows() * 4);
    put_varint(&mut out, block.width() as u64);
    put_varint(&mut out, block.n_rows() as u64);
    let mut prev_id = 0u32;
    for (i, (id, cols, vals)) in block.iter().enumerate() {
        put_varint(
            &mut out,
            u64::from(if i == 0 { id } else { id - prev_id - 1 }),
        );
        prev_id = id;
        put_varint(&mut out, cols.len() as u64);
        put_ascending(&mut out, cols);
        put_f32s(&mut out, vals);
    }
    out
}

/// Deserializes a buffer produced by [`encode`].
pub fn decode(buf: &[u8]) -> Result<SparseRows, DecodeError> {
    let mut block = SparseRows::new(0);
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
    block.clear(width);
    let mut prev_id: Option<u32> = None;
    let mut cols: Vec<u32> = Vec::new();
    let mut vals: Vec<f32> = Vec::new();
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
        cols.clear();
        r.ascending_into(nnz, &mut cols)?;
        if cols.last().is_some_and(|&c| c as usize >= width) {
            return Err(DecodeError::Corrupt("column out of range"));
        }
        vals.clear();
        r.f32s_into(nnz, &mut vals)?;
        block.push_row(id, &cols, &vals);
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
