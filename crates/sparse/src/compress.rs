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
//! **The frame-sized index.** The head table has `2^bits` buckets, `bits =
//! clamp(ceil_log2(len), 4, HASH_BITS)`, so a frame of a few hundred bytes
//! fills a table of about its own size instead of 2^`HASH_BITS` slots. A
//! position whose full hash is `h` goes in bucket `h >> (HASH_BITS -
//! bits)`. The search from a position with hash `h` walks its bucket's
//! chain and passes every bucket-mate whose full hash is not `h` without
//! counting it against `CHAIN_LIMIT`. What remains is exactly the chain a
//! 2^`HASH_BITS` table holds for `h`, in the same order, so the search
//! compares the same candidates, stops at the same step and writes the
//! same frame. A bucket chain, like a hash chain, only goes back in
//! position, so the `i - c > WINDOW` cut stays valid whichever candidate
//! meets it first, and the chain ring's argument (at its definition)
//! holds for bucket chains unchanged. Frames of more than 2^14 bytes
//! take the full table, whose search has no bucket-mate check at all.
//! (A 2^`HASH_BITS` table is 128 KiB to allocate and fill for every
//! frame; on the sub-2 KB frames of a cold launch that cost more than the
//! search.)
//!
//! **The `_into` forms.** [`compress`] and [`decompress`] allocate their
//! output and, for [`compress`], its index. [`compress_into`] appends the
//! frame to a buffer the caller owns (the hybrid carrier writes its tag
//! byte first) and indexes in [`LzTables`] the caller owns;
//! [`decompress_into`] replaces the content of a buffer the caller owns.
//! The channel engine (`fsd_core`'s carriers) keeps such sets in a
//! per-service pool and takes one per frame, so a frame allocates no index
//! and no scratch output. A reused head table is refilled to the frame's own bucket count.
//! A reused chain ring is not cleared at all, and need not be: it is
//! indexed with the frame's own mask, and the ring argument (at the
//! search) shows that no slot is read before this frame has written it,
//! so what an earlier frame left there is never seen. Either way the frame
//! is byte-identical to [`compress`]'s.
//!
//! Frame format:
//! `magic 'L','Z' | raw_len varint | { token }*` where a token is either
//! `0x00, len varint, bytes` (literal run) or `0x01, len-4 varint, dist
//! varint` (match of `len >= 4` bytes at `dist >= 1` back). Varints are
//! written by [`crate::bytes::put_varint`] and every frame is read through
//! the shared [`crate::bytes::Reader`].

use crate::bytes::{put_varint, DecodeError, Reader};

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

#[inline]
fn hash4(data: &[u8]) -> usize {
    // Fibonacci hashing of the next 4 bytes.
    // fsd_lint::allow(byte-reader): hashes the compressor's own input
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
        // fsd_lint::allow(byte-reader): compares the compressor's own input
        let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
        // fsd_lint::allow(byte-reader): compares the compressor's own input
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

/// The match index [`compress_into`] builds a frame's search in: the head
/// table and the chain ring. Kept across frames, it is refilled or
/// overwritten rather than allocated per frame (module doc).
#[derive(Default)]
pub struct LzTables {
    head: Vec<u32>,
    chain: Vec<u32>,
}

/// Compresses `data`. The output is never more than a few bytes per 2^12
/// input bytes larger than `data` (incompressible input degrades to literal
/// runs with varint framing).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(data, &mut out, &mut LzTables::default());
    out
}

/// [`compress`], appended to `out`, searching through `tables` (both
/// reused across calls; the frame does not depend on what they held).
pub fn compress_into(data: &[u8], out: &mut Vec<u8>, tables: &mut LzTables) {
    compress_below(data, POSITION_LIMIT, out, tables);
}

/// [`compress_into`], indexing and searching only positions below `limit`:
/// whatever lies at or past it (and is not covered by a match that started
/// before it) goes out as literals. Frames shorter than `limit` do not
/// depend on it.
fn compress_below(data: &[u8], limit: usize, out: &mut Vec<u8>, tables: &mut LzTables) {
    // The frame-sized index (module doc): at least one bucket per input
    // byte, up to 2^HASH_BITS. A full-size table shares no bucket, so it
    // gets a copy of the search without the bucket-mate check.
    let bits = data
        .len()
        .next_power_of_two()
        .trailing_zeros()
        .clamp(4, HASH_BITS);
    match HASH_BITS - bits {
        0 => lz::<false>(data, limit, 0, out, tables),
        shift => lz::<true>(data, limit, shift, out, tables),
    }
}

/// The LZ pass of [`compress_below`] over a head table of
/// `2^(HASH_BITS - shift)` buckets, each shared by `2^shift` hashes when
/// `SHARED`.
fn lz<const SHARED: bool>(
    data: &[u8],
    limit: usize,
    shift: u32,
    out: &mut Vec<u8>,
    tables: &mut LzTables,
) {
    out.reserve(data.len() / 2 + 16);
    out.extend_from_slice(&MAGIC);
    put_varint(out, data.len() as u64);

    let head = &mut tables.head;
    head.clear();
    head.resize(1 << (HASH_BITS - shift), EMPTY);
    // `chain[p & mask]` is the previous position in `p`'s bucket, kept in
    // a ring of `WINDOW` entries. The ring is exact, not a heuristic: the
    // search at `i` follows `chain[c]` only for candidates that passed the
    // `i - c > WINDOW` test, those positions `i - WINDOW .. i` fall into
    // `WINDOW` distinct slots, and the one position that shares a slot with
    // the oldest of them is `i` itself, indexed after the search. A
    // candidate is always an indexed position, so its slot was written
    // before it is read, whatever it held at first — an earlier frame's
    // positions included, so a reused ring is never cleared.
    let mask = data.len().next_power_of_two().min(WINDOW) - 1;
    if tables.chain.len() <= mask {
        tables.chain.resize(mask + 1, 0);
    }
    let chain = &mut tables.chain[..=mask];
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
        let mut candidate = head[h >> shift];
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
            // A bucket-mate with another hash is no candidate of a
            // 2^HASH_BITS table: pass it without counting a step. (Equal
            // bytes mean an equal hash, and comparing them is cheaper.)
            if SHARED && data[c..c + 4] != data[i..i + 4] && hash4(&data[c..]) != h {
                candidate = chain[c & mask];
                continue;
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
        chain[i & mask] = head[h >> shift];
        head[h >> shift] = i as u32;
        if best_len >= MIN_MATCH {
            flush_literals(out, lit_start, i);
            out.push(0x01);
            put_varint(out, (best_len - MIN_MATCH) as u64);
            put_varint(out, best_dist as u64);
            // Index the skipped positions so later matches can reference them.
            for j in i + 1..(i + best_len).min(indexable) {
                let b = hash4(&data[j..]) >> shift;
                chain[j & mask] = head[b];
                head[b] = j as u32;
            }
            i += best_len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(out, lit_start, data.len());
}

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(buf: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let mut out = Vec::new();
    decompress_into(buf, &mut out)?;
    Ok(out)
}

/// [`decompress`] into `out`, whose content it replaces and whose capacity
/// it reuses (after an error `out` holds a prefix of the output).
pub fn decompress_into(buf: &[u8], out: &mut Vec<u8>) -> Result<(), DecodeError> {
    const LENGTH_MISMATCH: DecodeError = DecodeError::Corrupt("length mismatch");
    out.clear();
    let mut r = Reader::new(buf);
    if r.take(2) != Ok(&MAGIC[..]) {
        return Err(DecodeError::Corrupt("bad magic"));
    }
    // The header is untrusted: no frame `compress` emits expands a byte of
    // input into more than one maximal match, so a larger claim is
    // rejected before anything is allocated for it.
    let raw_len = r.varint()?;
    let raw_len = usize::try_from(raw_len)
        .ok()
        .filter(|&n| n <= r.remaining().saturating_mul(MAX_MATCH))
        .ok_or(LENGTH_MISMATCH)?;
    out.reserve(raw_len);
    // A token's length, refused as soon as it would carry the output past
    // the declared `raw_len` — before a single byte of it is expanded.
    let token_len = |out: &Vec<u8>, len: u64, extra: usize| {
        usize::try_from(len)
            .ok()
            .and_then(|len| len.checked_add(extra))
            .filter(|&len| len <= raw_len - out.len())
            .ok_or(LENGTH_MISMATCH)
    };
    while r.remaining() > 0 {
        match r.u8()? {
            0x00 => {
                let len = token_len(out, r.varint()?, 0)?;
                out.extend_from_slice(r.take(len)?);
            }
            0x01 => {
                let len = token_len(out, r.varint()?, MIN_MATCH)?;
                let dist = usize::try_from(r.varint()?)
                    .ok()
                    .filter(|&d| d != 0 && d <= out.len())
                    .ok_or(DecodeError::Corrupt("match distance out of range"))?;
                // An overlapping match (`dist < len`) is the LZ77 RLE
                // idiom: its source repeats with period `dist`, so it is
                // copied in runs of a whole number of periods, each as
                // long as what is already written from `start` on.
                let (start, end) = (out.len() - dist, out.len() + len);
                while out.len() < end {
                    let run = (end - out.len()).min(out.len() - start);
                    out.extend_from_within(start..start + run);
                }
            }
            _ => return Err(DecodeError::Corrupt("unknown token")),
        }
    }
    if out.len() != raw_len {
        return Err(LENGTH_MISMATCH);
    }
    Ok(())
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
    use crate::testkit::{fnv1a, Rng};

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
    fn equals_the_reference_where_the_head_table_changes_size() {
        // Both sides of every head-table size step (16 to 2^15 buckets),
        // and of the window and ring sizes 2^16 and 2^17.
        let mut rng = Rng::new(0x2B175);
        for k in 2..=17 {
            for len in [(1usize << k) - 1, 1 << k, (1 << k) + 1] {
                let data = mixed_input(&mut rng, len);
                assert!(compress(&data) == compress_reference(&data), "len {len}");
            }
        }
    }

    #[test]
    fn reused_tables_and_buffers_equal_the_reference_frame_for_frame() {
        // One table set, one output buffer and one inflate buffer for 250
        // frames: a sweep up across both sides of every head-table size
        // step (2^4 … 2^15 buckets) and of the 2^16 window and ring size,
        // the same sweep down, then seeded lengths from 16 B to 128 KiB.
        // Some frames are written behind a tag byte or two.
        let mut rng = Rng::new(0x2E05E);
        let sweep: Vec<usize> = (3..=17)
            .flat_map(|k| [(1usize << k) - 1, 1 << k, (1 << k) + 1])
            .collect();
        let mut lengths = sweep.clone();
        lengths.extend(sweep.iter().rev());
        lengths.extend((0..160).map(|_| {
            let k = 4 + rng.below(13);
            (1 << k) + rng.below(1 << k)
        }));
        let (mut tables, mut out, mut inflated) = (LzTables::default(), Vec::new(), Vec::new());
        let mut dirty = 0;
        for (n, len) in lengths.into_iter().enumerate() {
            let data = mixed_input(&mut rng, len);
            let prefix = n % 3;
            out.clear();
            out.extend(std::iter::repeat_n(0xA5, prefix));
            compress_into(&data, &mut out, &mut tables);
            assert!(
                out[prefix..] == compress_reference(&data)[..],
                "frame {n} (len {len}) differs"
            );
            dirty += usize::from(inflated.len() > len);
            decompress_into(&out[prefix..], &mut inflated).expect("ok");
            assert!(inflated == data, "frame {n} (len {len})");
        }
        assert!(
            dirty > 100,
            "only {dirty} frames inflated over a larger one"
        );
    }

    #[test]
    fn a_hostile_raw_length_sizes_no_allocation() {
        // A frame of `n` bytes after its header expands to at most
        // `n × MAX_MATCH`: a claim past that is refused as today, before
        // anything is reserved, and one at the bound reserves only that.
        let body = [0x00, 1, b'a'];
        let bound = (body.len() * MAX_MATCH) as u64;
        for (claim, reserved) in [(u64::MAX, false), (bound + 1, false), (bound, true)] {
            let mut frame = MAGIC.to_vec();
            put_varint(&mut frame, claim);
            frame.extend(body);
            let mut out = Vec::new();
            assert_eq!(
                decompress_into(&frame, &mut out),
                Err(DecodeError::Corrupt("length mismatch")),
                "claim {claim}"
            );
            assert_eq!(out.capacity() > 0, reserved, "claim {claim}");
            assert!(out.capacity() <= MAX_MATCH * frame.len(), "claim {claim}");
        }
    }

    #[test]
    fn bucket_mates_with_another_hash_do_not_use_up_the_chain() {
        // `[T][w1]…[w40][T]`, 168 bytes, so a 2^8-bucket head table. Every
        // `w` shares T's bucket but not its full hash: the search from the
        // second T passes all 40 before it reaches the first — more than
        // CHAIN_LIMIT, were they counted as steps.
        let t = *b"Tmrk";
        let h = hash4(&t);
        let shift = HASH_BITS - 8;
        let mut rng = Rng::new(0xB0C4E7);
        let mut data = t.to_vec();
        let mut mates = 0;
        while mates < 40 {
            let w = (rng.next() as u32).to_le_bytes();
            if hash4(&w) != h && hash4(&w) >> shift == h >> shift {
                data.extend_from_slice(&w);
                mates += 1;
            }
        }
        data.extend_from_slice(&t);
        assert_eq!(data.len().next_power_of_two(), 1 << 8);
        let frame = compress(&data);
        assert_eq!(frame, compress_reference(&data));
        // The frame ends with the second T as a match: 4 bytes, 164 back.
        let mut tail = vec![0x01, 0];
        put_varint(&mut tail, 164);
        assert!(frame.ends_with(&tail), "{frame:?}");
    }

    fn frame_below(data: &[u8], limit: usize) -> Vec<u8> {
        let mut out = Vec::new();
        compress_below(data, limit, &mut out, &mut LzTables::default());
        out
    }

    #[test]
    fn positions_at_the_limit_are_neither_indexed_nor_searched() {
        // In production the limit is u32::MAX — the first position whose
        // `u32` form would alias `EMPTY` — and only a ≥ 4 GiB input reaches
        // it; a small limit shows the same cut.
        let data: Vec<u8> = b"0123456789abcdef".repeat(64);
        assert_eq!(frame_below(&data, usize::MAX), compress(&data));
        assert_eq!(frame_below(&data, data.len()), compress(&data));
        for limit in [0, 1, 16, 17, 40, 500, data.len() - 2] {
            let frame = frame_below(&data, limit);
            assert_eq!(decompress(&frame).expect("ok"), data, "limit {limit}");
            // Nothing at or past the limit starts a match or is matched
            // against.
            let mut r = Reader::new(&frame[2..]);
            r.varint().expect("raw length");
            let mut produced = 0usize;
            while r.remaining() > 0 {
                let tag = r.u8().expect("tag");
                let len = r.varint().expect("len") as usize;
                if tag == 0x00 {
                    r.take(len).expect("literal run");
                    produced += len;
                } else {
                    let dist = r.varint().expect("dist") as usize;
                    assert!(produced < limit, "match starts at {produced} ≥ {limit}");
                    assert!(produced - dist < limit, "match source ≥ {limit}");
                    produced += len + MIN_MATCH;
                }
            }
        }
        // With nothing indexable the frame is one literal run.
        let literal = frame_below(&data, 0);
        assert_eq!(literal.len(), 2 + 2 + 1 + 2 + data.len());
    }

    /// The exact frames [`compress`] writes for fixed inputs: literal runs,
    /// overlapping and windowed matches, multi-byte lengths and distances.
    #[test]
    fn format_is_locked() {
        assert_eq!(compress(b""), vec![76, 90, 0]);
        assert_eq!(
            compress(b"abcabcabcabcabc-xyzxyzxyz!"),
            vec![76, 90, 26, 0, 3, 97, 98, 99, 1, 8, 3, 0, 4, 45, 120, 121, 122, 1, 2, 3, 0, 1, 33]
        );
        let mixed = compress(&mixed_input(&mut Rng::new(0x10C), 200_000));
        assert_eq!((mixed.len(), fnv1a(&mixed)), (92215, 0x349919abf63bf1a4));
    }

    #[test]
    fn rejects_a_raw_length_past_64_bits() {
        // A raw length of 2^64 + 5 over a frame that inflates to 5 bytes.
        let mut frame = MAGIC.to_vec();
        frame.push(0x85);
        frame.extend([0x80; 8]);
        frame.push(0x02);
        frame.extend([0x00, 0x05, 1, 2, 3, 4, 5]);
        assert!(decompress(&frame).is_err());
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
        assert_eq!(
            decompress(b"XY\x00"),
            Err(DecodeError::Corrupt("bad magic"))
        );
        assert_eq!(decompress(b""), Err(DecodeError::Corrupt("bad magic")));
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
        assert_eq!(
            decompress(&buf),
            Err(DecodeError::Corrupt("match distance out of range"))
        );
    }

    #[test]
    fn rejects_length_mismatch() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        put_varint(&mut buf, 99); // claims 99 bytes
        buf.push(0x00);
        put_varint(&mut buf, 2);
        buf.extend_from_slice(b"ab");
        assert_eq!(
            decompress(&buf),
            Err(DecodeError::Corrupt("length mismatch"))
        );
    }

    #[test]
    fn rejects_lengths_the_frame_cannot_hold_before_acting_on_them() {
        // A header claiming 2^64 - 1 bytes: refused, not allocated.
        let mut huge = MAGIC.to_vec();
        put_varint(&mut huge, u64::MAX);
        assert_eq!(
            decompress(&huge),
            Err(DecodeError::Corrupt("length mismatch"))
        );
        // A match of 2^62 bytes against a 5-byte header — or one whose
        // length overflows `usize` once MIN_MATCH is added: refused, not
        // expanded byte by byte until memory runs out.
        for match_len in [1 << 62, u64::MAX] {
            let mut bomb = MAGIC.to_vec();
            put_varint(&mut bomb, 5);
            bomb.extend_from_slice(&[0x00, 1, b'a', 0x01]);
            put_varint(&mut bomb, match_len);
            put_varint(&mut bomb, 1);
            assert_eq!(
                decompress(&bomb),
                Err(DecodeError::Corrupt("length mismatch"))
            );
        }
    }
}
