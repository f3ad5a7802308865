//! Wire formats for staged model artifacts.
//!
//! Weight blocks, communication maps and input shares are staged in the
//! object store offline and fetched by workers at start-up. Formats mirror
//! the activation codec (`fsd_sparse::codec`) and share its reader and
//! writers (`fsd_sparse::bytes`): LEB128 varints for structure, ascending
//! id runs for rows and columns, raw little-endian `f32` for values.

use fsd_sparse::bytes::{put_ascending, put_f32s, put_varint, DecodeError, Reader};
use fsd_sparse::CsrMatrix;

/// Serializes a CSR matrix (weight block: local rows, global columns).
pub fn encode_csr(m: &CsrMatrix) -> Vec<u8> {
    let (indptr, indices, values) = m.parts();
    let mut out = Vec::with_capacity(16 + m.nnz() * 6);
    put_varint(&mut out, m.rows() as u64);
    put_varint(&mut out, m.cols() as u64);
    for r in 0..m.rows() {
        put_varint(&mut out, (indptr[r + 1] - indptr[r]) as u64);
    }
    for r in 0..m.rows() {
        put_ascending(&mut out, &indices[indptr[r]..indptr[r + 1]]);
    }
    put_f32s(&mut out, values);
    out
}

/// Deserializes a buffer from [`encode_csr`].
pub fn decode_csr(buf: &[u8]) -> Result<CsrMatrix, DecodeError> {
    let mut r = Reader::new(buf);
    let rows = r.count(1)?;
    let cols = usize::try_from(r.varint()?).map_err(|_| DecodeError::Overflow)?;
    let mut indptr = Vec::with_capacity(rows + 1);
    indptr.push(0usize);
    let mut nnz = 0usize;
    for _ in 0..rows {
        // Every nonzero still owes a column byte and 4 value bytes.
        nnz += r.count(5)?;
        if nnz > r.remaining() / 5 {
            return Err(DecodeError::Truncated);
        }
        indptr.push(nnz);
    }
    let mut indices = Vec::with_capacity(nnz);
    for w in indptr.windows(2) {
        r.ascending_into(w[1] - w[0], &mut indices)?;
    }
    let mut values = Vec::with_capacity(nnz);
    r.f32s_into(nnz, &mut values)?;
    r.finish()?;
    CsrMatrix::new(rows, cols, indptr, indices, values)
        .map_err(|_| DecodeError::Corrupt("invalid CSR"))
}

/// One worker's per-layer communication map: `[(peer, rows)]` per layer.
pub type LayerMaps = Vec<Vec<(u32, Vec<u32>)>>;

/// Serializes one worker's per-layer map: `[(peer, rows)]` per layer.
pub fn encode_maps(maps: &[Vec<(u32, Vec<u32>)>]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, maps.len() as u64);
    for layer in maps {
        put_varint(&mut out, layer.len() as u64);
        for (peer, rows) in layer {
            put_varint(&mut out, u64::from(*peer));
            put_varint(&mut out, rows.len() as u64);
            put_ascending(&mut out, rows);
        }
    }
    out
}

/// Deserializes a buffer from [`encode_maps`].
pub fn decode_maps(buf: &[u8]) -> Result<LayerMaps, DecodeError> {
    let mut r = Reader::new(buf);
    let n_layers = r.count(1)?;
    let mut maps = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let n_peers = r.count(2)?;
        let mut layer = Vec::with_capacity(n_peers);
        for _ in 0..n_peers {
            let peer = r.varint_u32()?;
            let n_rows = r.count(1)?;
            let mut rows = Vec::new();
            r.ascending_into(n_rows, &mut rows)?;
            layer.push((peer, rows));
        }
        maps.push(layer);
    }
    r.finish()?;
    Ok(maps)
}

/// Serializes a sorted id list (owned rows).
pub fn encode_ids(ids: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + ids.len() * 2);
    put_varint(&mut out, ids.len() as u64);
    put_ascending(&mut out, ids);
    out
}

/// Deserializes a buffer from [`encode_ids`].
pub fn decode_ids(buf: &[u8]) -> Result<Vec<u32>, DecodeError> {
    let mut r = Reader::new(buf);
    let n = r.count(1)?;
    let mut ids = Vec::new();
    r.ascending_into(n, &mut ids)?;
    r.finish()?;
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 64-bit FNV-1a of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// The exact bytes each encoder writes for fixed inputs. Staged
    /// artifacts are these encodings, and their sizes drive every GET
    /// time and bill, so a changed byte moves the cold-start numbers.
    #[test]
    fn formats_are_locked() {
        let m = CsrMatrix::from_triplets(
            3,
            70_000,
            [(0, 5, 1.5), (0, 69_999, -2.0), (2, 0, 3.25), (2, 200, 0.5)],
        )
        .expect("valid");
        assert_eq!(
            encode_csr(&m),
            vec![
                3, 240, 162, 4, 2, 0, 2, 5, 233, 162, 4, 0, 199, 1, 0, 0, 192, 63, 0, 0, 0, 192, 0,
                0, 80, 64, 0, 0, 0, 63
            ]
        );
        let big = CsrMatrix::from_triplets(
            64,
            1 << 20,
            (0..64u32).flat_map(|r| {
                (0..r % 9).map(move |k| {
                    (
                        r,
                        (r * 7919 + k * 104_729) % (1 << 20),
                        r as f32 - k as f32 * 0.5,
                    )
                })
            }),
        )
        .expect("valid");
        let big = encode_csr(&big);
        assert_eq!((big.len(), fnv1a(&big)), (1830, 0xce30256152fa4d0e));
        let maps = vec![
            vec![(1u32, vec![0u32, 5, 9]), (300, vec![2, 20_000])],
            vec![],
        ];
        assert_eq!(
            encode_maps(&maps),
            vec![2, 2, 1, 3, 0, 4, 3, 172, 2, 2, 2, 157, 156, 1, 0]
        );
        assert_eq!(
            encode_ids(&[5, 6, 7, 1000, 4_000_000]),
            vec![5, 5, 0, 0, 224, 7, 151, 138, 244, 1]
        );
    }

    #[test]
    fn csr_roundtrip() {
        let m = CsrMatrix::from_triplets(
            4,
            100,
            [
                (0, 5, 1.5),
                (0, 99, -2.0),
                (2, 0, 3.25),
                (3, 50, 0.5),
                (3, 51, 4.0),
            ],
        )
        .expect("valid");
        let back = decode_csr(&encode_csr(&m)).expect("decodes");
        assert_eq!(back, m);
    }

    #[test]
    fn csr_roundtrip_empty() {
        let m = CsrMatrix::from_triplets(3, 7, []).expect("valid");
        assert_eq!(decode_csr(&encode_csr(&m)).expect("decodes"), m);
    }

    #[test]
    fn csr_rejects_truncation() {
        let buf =
            encode_csr(&CsrMatrix::from_triplets(2, 4, [(0, 1, 1.0), (1, 2, 2.0)]).expect("valid"));
        for cut in 0..buf.len() {
            assert!(decode_csr(&buf[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn counts_the_buffer_cannot_hold_are_refused_before_allocating() {
        // 2^60 rows, then 2^60 nonzeros in one row, from a few bytes.
        let mut rows = Vec::new();
        put_varint(&mut rows, 1 << 60);
        rows.push(1);
        assert_eq!(decode_csr(&rows).err(), Some(DecodeError::Truncated));
        let mut nnz = vec![1, 1];
        put_varint(&mut nnz, 1 << 60);
        assert_eq!(decode_csr(&nnz).err(), Some(DecodeError::Truncated));
        // The same prefix opens the map and id-list decoders.
        assert_eq!(decode_maps(&rows).err(), Some(DecodeError::Truncated));
        assert_eq!(decode_ids(&rows).err(), Some(DecodeError::Truncated));
    }

    #[test]
    fn deltas_past_u32_are_refused_not_wrapped() {
        // One id whose delta is 2^32 + 3.
        assert!(decode_ids(&[0x01, 0x83, 0x80, 0x80, 0x80, 0x10]).is_err());
        // One id whose 10-byte varint sets bit 64.
        let mut bit_64 = vec![0x01, 0x85];
        bit_64.extend([0x80; 8]);
        bit_64.push(0x02);
        assert!(decode_ids(&bit_64).is_err());
    }

    #[test]
    fn maps_roundtrip() {
        let maps = vec![
            vec![(1u32, vec![0u32, 5, 9]), (3, vec![2])],
            vec![],
            vec![(0, vec![100, 200, 300])],
        ];
        let back = decode_maps(&encode_maps(&maps)).expect("decodes");
        assert_eq!(back, maps);
    }

    #[test]
    fn maps_roundtrip_empty() {
        let maps: Vec<Vec<(u32, Vec<u32>)>> = Vec::new();
        assert_eq!(decode_maps(&encode_maps(&maps)).expect("decodes"), maps);
    }

    #[test]
    fn ids_roundtrip() {
        for ids in [vec![], vec![0u32], vec![5, 6, 7, 1000, 4_000_000]] {
            assert_eq!(decode_ids(&encode_ids(&ids)).expect("decodes"), ids);
        }
    }

    #[test]
    fn ids_reject_trailing_garbage() {
        let mut buf = encode_ids(&[1, 2, 3]);
        buf.push(7);
        assert!(decode_ids(&buf).is_err());
    }
}
