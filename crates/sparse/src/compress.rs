//! Byte-level compression for wire payloads.
//!
//! The paper compresses serialized intermediate results with ZLIB before
//! publishing them (reducing `S`, `Z` and `Q` in the cost model). We cannot
//! link zlib here, so this module implements an LZ77-style compressor
//! ("LZV"): greedy longest-match search over a 64 KiB window with a
//! hash-chain index, emitting varint-framed literal runs and matches. It is
//! deterministic, lossless, and effective on the repetitive varint/f32
//! payloads produced by [`crate::codec`] — which is all the role zlib plays
//! in FSD-Inference.
//!
//! Frame format:
//! `magic 'L','Z' | raw_len varint | { token }*` where a token is either
//! `0x00, len varint, bytes` (literal run) or `0x01, len-4 varint, dist
//! varint` (match of `len >= 4` bytes at `dist >= 1` back).

const MAGIC: [u8; 2] = [b'L', b'Z'];
const WINDOW: usize = 1 << 16;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1 << 12;
const HASH_BITS: u32 = 15;
const CHAIN_LIMIT: usize = 32;
/// Empty `head` slot. Positions are stored as `u32`, so one that would
/// equal it must never be indexed.
const EMPTY: u32 = u32::MAX;
/// First position [`compress`] does not index or search: at or past it a
/// `u32` position would wrap or alias [`EMPTY`].
const POSITION_LIMIT: usize = u32::MAX as usize;

/// Errors produced while decompressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Input ended mid-token.
    Truncated,
    /// A match referenced data before the start of the output.
    BadMatch,
    /// Decompressed length disagrees with the header.
    LengthMismatch,
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::BadMagic => write!(f, "bad magic"),
            CompressError::Truncated => write!(f, "compressed buffer truncated"),
            CompressError::BadMatch => write!(f, "match distance out of range"),
            CompressError::LengthMismatch => write!(f, "decompressed length mismatch"),
        }
    }
}

impl std::error::Error for CompressError {}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[inline]
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CompressError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or(CompressError::Truncated)?;
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CompressError::Truncated);
        }
    }
}

#[inline]
fn hash4(data: &[u8]) -> usize {
    // Fibonacci hashing of the next 4 bytes.
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[c..]` and `data[i..]` (`c < i`),
/// up to `max_len`, compared eight bytes at a time.
#[inline]
fn match_len(data: &[u8], c: usize, i: usize, max_len: usize) -> usize {
    let (a, b) = (&data[c..c + max_len], &data[i..i + max_len]);
    let mut l = 0usize;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if x != y {
            return l + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max_len && a[l] == b[l] {
        l += 1;
    }
    l
}

/// Compresses `data`. The output is never more than a few bytes per 2^12
/// input bytes larger than `data` (incompressible input degrades to literal
/// runs with varint framing).
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_below(data, POSITION_LIMIT)
}

/// [`compress`], indexing and searching only positions below `limit`:
/// whatever lies at or past it (and is not covered by a match that started
/// before it) goes out as literals. Frames shorter than `limit` do not
/// depend on it.
fn compress_below(data: &[u8], limit: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(&MAGIC);
    put_varint(&mut out, data.len() as u64);

    let mut head = vec![EMPTY; 1 << HASH_BITS];
    // `chain[p & mask]` is the previous position with `p`'s hash, kept in
    // a ring of `WINDOW` entries. The ring is exact, not a heuristic: the
    // search at `i` follows `chain[c]` only for candidates that passed the
    // `i - c > WINDOW` test, those positions `i - WINDOW .. i` fall into
    // `WINDOW` distinct slots, and the one position that shares a slot with
    // the oldest of them is `i` itself, indexed after the search. A
    // candidate is always an indexed position, so its slot was written
    // before it is read, whatever it held at first.
    let mask = data.len().next_power_of_two().min(WINDOW) - 1;
    let mut chain = vec![0u32; mask + 1];
    // One past the last position that has MIN_MATCH bytes to hash and a
    // `u32` form that cannot alias `EMPTY`.
    let indexable = (data.len() + 1).saturating_sub(MIN_MATCH).min(limit);

    let mut lit_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        if to > from {
            out.push(0x00);
            put_varint(out, (to - from) as u64);
            out.extend_from_slice(&data[from..to]);
        }
    };

    while i < indexable {
        let h = hash4(&data[i..]);
        let max_len = (data.len() - i).min(MAX_MATCH);
        let mut candidate = head[h];
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut steps = 0usize;
        // Greedy longest match, first found wins ties. Once `best_len` is
        // `max_len` no later candidate can beat it.
        while candidate != EMPTY && steps < CHAIN_LIMIT && best_len < max_len {
            let c = candidate as usize;
            if i - c > WINDOW {
                break;
            }
            // Only a longer match replaces the best one, and a longer match
            // agrees with `data[i..]` at offset `best_len`.
            if data[c + best_len] == data[i + best_len] {
                let l = match_len(data, c, i, max_len);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                }
            }
            candidate = chain[c & mask];
            steps += 1;
        }
        chain[i & mask] = head[h];
        head[h] = i as u32;
        if best_len >= MIN_MATCH {
            flush_literals(&mut out, lit_start, i);
            out.push(0x01);
            put_varint(&mut out, (best_len - MIN_MATCH) as u64);
            put_varint(&mut out, best_dist as u64);
            // Index the skipped positions so later matches can reference them.
            for j in i + 1..(i + best_len).min(indexable) {
                let h = hash4(&data[j..]);
                chain[j & mask] = head[h];
                head[h] = j as u32;
            }
            i += best_len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, lit_start, data.len());
    out
}

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(buf: &[u8]) -> Result<Vec<u8>, CompressError> {
    if buf.len() < 2 || buf[..2] != MAGIC {
        return Err(CompressError::BadMagic);
    }
    let mut pos = 2usize;
    // The header is untrusted: no frame `compress` emits expands a byte of
    // input into more than one maximal match, so a larger claim is
    // rejected before anything is allocated for it.
    let raw_len = usize::try_from(get_varint(buf, &mut pos)?)
        .ok()
        .filter(|&n| n <= (buf.len() - pos).saturating_mul(MAX_MATCH))
        .ok_or(CompressError::LengthMismatch)?;
    let mut out = Vec::with_capacity(raw_len);
    // A token's length, refused as soon as it would carry the output past
    // the declared `raw_len` — before a single byte of it is expanded.
    let token_len = |out: &Vec<u8>, len: u64, extra: usize| {
        usize::try_from(len)
            .ok()
            .and_then(|len| len.checked_add(extra))
            .filter(|&len| len <= raw_len - out.len())
            .ok_or(CompressError::LengthMismatch)
    };
    while pos < buf.len() {
        let tag = buf[pos];
        pos += 1;
        match tag {
            0x00 => {
                let len = token_len(&out, get_varint(buf, &mut pos)?, 0)?;
                let end = pos.checked_add(len).ok_or(CompressError::Truncated)?;
                let bytes = buf.get(pos..end).ok_or(CompressError::Truncated)?;
                out.extend_from_slice(bytes);
                pos = end;
            }
            0x01 => {
                let len = token_len(&out, get_varint(buf, &mut pos)?, MIN_MATCH)?;
                let dist = get_varint(buf, &mut pos)? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(CompressError::BadMatch);
                }
                let start = out.len() - dist;
                // Overlapping copies are the LZ77 RLE idiom; copy byte-wise.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            _ => return Err(CompressError::Truncated),
        }
    }
    if out.len() != raw_len {
        return Err(CompressError::LengthMismatch);
    }
    Ok(out)
}

/// The compressor this module shipped before its match search was
/// rewritten — byte-wise match measurement, a `4 × len`-byte chain — kept
/// as the oracle [`compress`] must equal byte for byte.
#[cfg(test)]
fn compress_reference(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(&MAGIC);
    put_varint(&mut out, data.len() as u64);

    let mut head = vec![u32::MAX; 1 << HASH_BITS];
    let mut chain = vec![u32::MAX; data.len()];

    let mut lit_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        if to > from {
            out.push(0x00);
            put_varint(out, (to - from) as u64);
            out.extend_from_slice(&data[from..to]);
        }
    };

    while i + MIN_MATCH <= data.len() {
        let h = hash4(&data[i..]);
        let mut candidate = head[h];
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut steps = 0usize;
        while candidate != u32::MAX && steps < CHAIN_LIMIT {
            let c = candidate as usize;
            if i - c > WINDOW {
                break;
            }
            let max_len = (data.len() - i).min(MAX_MATCH);
            let mut l = 0usize;
            while l < max_len && data[c + l] == data[i + l] {
                l += 1;
            }
            if l > best_len {
                best_len = l;
                best_dist = i - c;
                if l >= MAX_MATCH {
                    break;
                }
            }
            candidate = chain[c];
            steps += 1;
        }
        chain[i] = head[h];
        head[h] = i as u32;
        if best_len >= MIN_MATCH {
            flush_literals(&mut out, lit_start, i);
            out.push(0x01);
            put_varint(&mut out, (best_len - MIN_MATCH) as u64);
            put_varint(&mut out, best_dist as u64);
            let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            let mut j = i + 1;
            while j < end {
                let h = hash4(&data[j..]);
                chain[j] = head[h];
                head[h] = j as u32;
                j += 1;
            }
            i += best_len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, lit_start, data.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::Rng;

    /// A seeded input mixing what frames are made of and what stresses the
    /// search: byte runs, back-references (up to 140 000 bytes back, so
    /// beyond the window and around the ring), f32-like words and noise.
    fn mixed_input(rng: &mut Rng, len: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(len + 4096);
        while data.len() < len {
            let longest = if rng.below(8) == 0 { 6000 } else { 300 };
            let n = 1 + rng.below(longest);
            match rng.below(4) {
                0 => {
                    let b = rng.below(256) as u8;
                    data.extend(std::iter::repeat_n(b, n));
                }
                1 if !data.is_empty() => {
                    let back = 1 + rng.below(data.len().min(140_000));
                    let from = data.len() - back;
                    for k in 0..n {
                        data.push(data[from + k]);
                    }
                }
                2 => {
                    for _ in 0..n.div_ceil(4) {
                        let v = (rng.below(6) as f32) * 0.25 + 1.0;
                        data.extend_from_slice(&v.to_le_bytes());
                    }
                }
                _ => data.extend((0..n).map(|_| rng.below(256) as u8)),
            }
        }
        data.truncate(len);
        data
    }

    #[test]
    fn equals_the_reference_compressor_byte_for_byte() {
        let mut rng = Rng::new(0xC0DEC);
        // Every short length, then 420 seeded ones up to 500 000 bytes:
        // past 2^16 the chain ring wraps, several times over at the top.
        let mut lengths: Vec<usize> = (0..=40).collect();
        lengths.extend((0..400).map(|_| rng.below(6000)));
        lengths.extend((0..14).map(|_| 60_000 + rng.below(240_000)));
        lengths.extend([65_535, 65_536, 65_537, 131_072, 400_000, 500_000]);
        for len in lengths {
            let data = mixed_input(&mut rng, len);
            let frame = compress(&data);
            assert!(
                frame == compress_reference(&data),
                "frame differs at len {len}"
            );
            assert!(decompress(&frame).expect("ok") == data, "len {len}");
        }
    }

    #[test]
    fn equals_the_reference_on_encoded_row_blocks() {
        use crate::{codec, SparseRows};
        let mut rng = Rng::new(7);
        for (width, rows, density) in [(8, 40, 90), (32, 400, 30), (256, 300, 55), (256, 900, 8)] {
            let mut block = SparseRows::new(width);
            for id in 0..rows as u32 {
                let cols: Vec<u32> = (0..width as u32)
                    .filter(|_| rng.below(100) < density)
                    .collect();
                let vals: Vec<f32> = cols
                    .iter()
                    .map(|_| (1 + rng.below(128)) as f32 * 0.25)
                    .collect();
                block.push_row(id * 3 + rng.below(3) as u32, &cols, &vals);
            }
            let encoded = codec::encode(&block);
            let frame = compress(&encoded);
            assert!(frame == compress_reference(&encoded), "width {width}");
            assert_eq!(decompress(&frame).expect("ok"), encoded);
        }
    }

    #[test]
    fn positions_at_the_limit_are_neither_indexed_nor_searched() {
        // In production the limit is u32::MAX — the first position whose
        // `u32` form would alias `EMPTY` — and only a ≥ 4 GiB input reaches
        // it; a small limit shows the same cut.
        let data: Vec<u8> = b"0123456789abcdef".repeat(64);
        assert_eq!(compress_below(&data, usize::MAX), compress(&data));
        assert_eq!(compress_below(&data, data.len()), compress(&data));
        for limit in [0, 1, 16, 17, 40, 500, data.len() - 2] {
            let frame = compress_below(&data, limit);
            assert_eq!(decompress(&frame).expect("ok"), data, "limit {limit}");
            // Nothing at or past the limit starts a match or is matched
            // against.
            let mut pos = 2;
            get_varint(&frame, &mut pos).expect("raw length");
            let mut produced = 0usize;
            while pos < frame.len() {
                let tag = frame[pos];
                pos += 1;
                let len = get_varint(&frame, &mut pos).expect("len") as usize;
                if tag == 0x00 {
                    pos += len;
                    produced += len;
                } else {
                    let dist = get_varint(&frame, &mut pos).expect("dist") as usize;
                    assert!(produced < limit, "match starts at {produced} ≥ {limit}");
                    assert!(produced - dist < limit, "match source ≥ {limit}");
                    produced += len + MIN_MATCH;
                }
            }
        }
        // With nothing indexable the frame is one literal run.
        let literal = compress_below(&data, 0);
        assert_eq!(literal.len(), 2 + 2 + 1 + 2 + data.len());
    }

    #[test]
    fn roundtrip_empty() {
        let c = compress(&[]);
        assert_eq!(decompress(&c).expect("ok"), Vec::<u8>::new());
    }

    #[test]
    fn roundtrip_short() {
        for data in [&b"a"[..], b"ab", b"abc", b"abcd"] {
            assert_eq!(decompress(&compress(data)).expect("ok"), data);
        }
    }

    #[test]
    fn roundtrip_repetitive_and_shrinks() {
        let data: Vec<u8> = b"hello world, ".repeat(500).to_vec();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 4,
            "compressed {} of {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).expect("ok"), data);
    }

    #[test]
    fn roundtrip_runs() {
        // Pure runs exercise overlapping matches (dist < len).
        let data = vec![7u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < 200);
        assert_eq!(decompress(&c).expect("ok"), data);
    }

    #[test]
    fn roundtrip_incompressible_bounded_expansion() {
        // Pseudo-random bytes: no matches, output must stay near input size.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() < data.len() + data.len() / 100 + 32);
        assert_eq!(decompress(&c).expect("ok"), data);
    }

    #[test]
    fn roundtrip_sparse_payloadlike() {
        // Mimic codec output: varint-ish small ints then f32 blocks.
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.push((i % 7) as u8);
            data.extend_from_slice(&(1.5f32 + (i % 3) as f32).to_le_bytes());
        }
        let c = compress(&data);
        assert!(c.len() < data.len(), "payload-like data should shrink");
        assert_eq!(decompress(&c).expect("ok"), data);
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(decompress(b"XY\x00"), Err(CompressError::BadMagic));
        assert_eq!(decompress(b""), Err(CompressError::BadMagic));
    }

    #[test]
    fn rejects_truncation() {
        let c = compress(&b"hello world, ".repeat(100));
        for cut in 3..c.len() {
            assert!(decompress(&c[..cut]).is_err(), "prefix {cut} should fail");
        }
    }

    #[test]
    fn rejects_bad_match_distance() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        put_varint(&mut buf, 10);
        buf.push(0x01); // match token with nothing in the window
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 5);
        assert_eq!(decompress(&buf), Err(CompressError::BadMatch));
    }

    #[test]
    fn rejects_length_mismatch() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        put_varint(&mut buf, 99); // claims 99 bytes
        buf.push(0x00);
        put_varint(&mut buf, 2);
        buf.extend_from_slice(b"ab");
        assert_eq!(decompress(&buf), Err(CompressError::LengthMismatch));
    }

    #[test]
    fn rejects_lengths_the_frame_cannot_hold_before_acting_on_them() {
        // A header claiming 2^64 - 1 bytes: refused, not allocated.
        let mut huge = MAGIC.to_vec();
        put_varint(&mut huge, u64::MAX);
        assert_eq!(decompress(&huge), Err(CompressError::LengthMismatch));
        // A match of 2^62 bytes against a 5-byte header — or one whose
        // length overflows `usize` once MIN_MATCH is added: refused, not
        // expanded byte by byte until memory runs out.
        for match_len in [1 << 62, u64::MAX] {
            let mut bomb = MAGIC.to_vec();
            put_varint(&mut bomb, 5);
            bomb.extend_from_slice(&[0x00, 1, b'a', 0x01]);
            put_varint(&mut bomb, match_len);
            put_varint(&mut bomb, 1);
            assert_eq!(decompress(&bomb), Err(CompressError::LengthMismatch));
        }
    }
}
