//! The one byte reader and the writers behind every wire format.
//!
//! Activation blocks ([`crate::codec`]), LZ frames ([`crate::compress`]),
//! staged model artifacts and hybrid pointer records all write LEB128
//! varints, ascending id runs and little-endian scalars through the
//! functions here, and decode through one bounds-checked [`Reader`]. Every
//! read is checked against what the buffer still holds, so a malformed
//! input is a [`DecodeError`], never a panic, a wrapped value or an
//! allocation its bytes could not fill.

use std::fmt;

/// Why a buffer failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended mid-field, or is too short to hold a count it
    /// declares.
    Truncated,
    /// A varint set a bit past 64, or a value past the field it fills.
    Overflow,
    /// The bytes parse but break the format's invariants.
    Corrupt(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::Overflow => write!(f, "value overflows its field"),
            DecodeError::Corrupt(what) => write!(f, "corrupt buffer: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends `v` as a LEB128 varint: seven bits a byte, low bits first.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bytes [`put_varint`] writes for `v`.
#[inline]
pub fn varint_len(v: u64) -> usize {
    1 + (63u32.saturating_sub(v.leading_zeros()) / 7) as usize
}

/// Appends a strictly increasing id run: the first id raw, each later one
/// as its gap to the previous id minus one.
#[inline]
pub fn put_ascending(out: &mut Vec<u8>, ids: &[u32]) {
    let mut prev = 0u32;
    for (i, &id) in ids.iter().enumerate() {
        put_varint(out, u64::from(if i == 0 { id } else { id - prev - 1 }));
        prev = id;
    }
}

/// Bytes [`put_ascending`] writes for `ids`.
pub fn ascending_len(ids: &[u32]) -> usize {
    let mut prev = 0u32;
    let mut n = 0;
    for (i, &id) in ids.iter().enumerate() {
        n += varint_len(u64::from(if i == 0 { id } else { id - prev - 1 }));
        prev = id;
    }
    n
}

/// Appends each value as four little-endian bytes.
#[inline]
pub fn put_f32s(out: &mut Vec<u8>, vals: &[f32]) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// A cursor over an untrusted buffer; every read is bounds-checked.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let &byte = self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(byte)
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// A little-endian `u32`.
    pub fn u32_le(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64_le(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A LEB128 varint as [`put_varint`] writes it. Refuses more than ten
    /// bytes or a bit past bit 63 ([`DecodeError::Overflow`]), and an
    /// overlong encoding — a zero last byte after the first — so each value
    /// has exactly one accepted form.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let byte = self.u8()?;
        if byte < 0x80 {
            return Ok(u64::from(byte));
        }
        let mut v = u64::from(byte & 0x7f);
        for shift in (7..64).step_by(7) {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(DecodeError::Overflow);
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return match byte {
                    0 => Err(DecodeError::Corrupt("overlong varint")),
                    _ => Ok(v),
                };
            }
        }
        Err(DecodeError::Overflow)
    }

    /// A [`varint`](Reader::varint) that must fit a `u32`.
    #[inline]
    pub fn varint_u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.varint()?).map_err(|_| DecodeError::Overflow)
    }

    /// An untrusted element count, refused as [`DecodeError::Truncated`]
    /// before anything is allocated for it unless the rest of the buffer
    /// can still hold that many elements of at least `min_bytes` each.
    #[inline]
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.remaining() / min_bytes)
            .ok_or(DecodeError::Truncated)
    }

    /// Appends an `n`-id run written by [`put_ascending`] to `out`.
    pub fn ascending_into(&mut self, n: usize, out: &mut Vec<u32>) -> Result<(), DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        out.reserve(n);
        let mut prev = 0u32;
        for i in 0..n {
            let d = self.varint_u32()?;
            prev = if i == 0 {
                d
            } else {
                prev.checked_add(d)
                    .and_then(|v| v.checked_add(1))
                    .ok_or(DecodeError::Overflow)?
            };
            out.push(prev);
        }
        Ok(())
    }

    /// Appends `n` values written by [`put_f32s`] to `out`.
    pub fn f32s_into(&mut self, n: usize, out: &mut Vec<f32>) -> Result<(), DecodeError> {
        let bytes = self.take(n.checked_mul(4).ok_or(DecodeError::Truncated)?)?;
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        Ok(())
    }

    /// Ends the read: bytes left over are [`DecodeError::Corrupt`].
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(DecodeError::Corrupt("trailing bytes")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_roundtrip_at_every_length_boundary() {
        let mut out = Vec::new();
        for shift in 0..64 {
            for v in [(1u64 << shift) - 1, 1 << shift, (1 << shift) + 1, u64::MAX] {
                out.clear();
                put_varint(&mut out, v);
                assert_eq!(out.len(), varint_len(v), "{v}");
                let mut r = Reader::new(&out);
                assert_eq!(r.varint(), Ok(v));
                assert_eq!(r.finish(), Ok(()));
            }
        }
    }

    #[test]
    fn varints_refuse_overflow_overlong_and_truncation() {
        let read = |bytes: &[u8]| Reader::new(bytes).varint();
        // Bit 64, and an eleventh byte.
        let mut bit_64 = vec![0x80; 9];
        bit_64.push(0x02);
        assert_eq!(read(&bit_64), Err(DecodeError::Overflow));
        let mut eleven = vec![0x80; 10];
        eleven.push(0x00);
        assert_eq!(read(&eleven), Err(DecodeError::Overflow));
        // Zero in two bytes, and 1 in three.
        assert_eq!(
            read(&[0x80, 0x00]),
            Err(DecodeError::Corrupt("overlong varint"))
        );
        assert_eq!(
            read(&[0x81, 0x80, 0x00]),
            Err(DecodeError::Corrupt("overlong varint"))
        );
        assert_eq!(read(&[0x80]), Err(DecodeError::Truncated));
        assert_eq!(read(&[]), Err(DecodeError::Truncated));
        // `varint_u32` refuses exactly what passes `u32::MAX`.
        for (v, ok) in [
            (u64::from(u32::MAX), true),
            (u64::from(u32::MAX) + 1, false),
        ] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let got = Reader::new(&out).varint_u32();
            assert_eq!(got.is_ok(), ok, "{v}");
        }
    }

    #[test]
    fn ascending_runs_roundtrip_and_refuse_overflow() {
        for ids in [vec![], vec![0u32], vec![7, 8, 300, 70_000, u32::MAX]] {
            let mut out = Vec::new();
            put_ascending(&mut out, &ids);
            assert_eq!(out.len(), ascending_len(&ids));
            let mut back = vec![9];
            let mut r = Reader::new(&out);
            r.ascending_into(ids.len(), &mut back).expect("decodes");
            r.finish().expect("consumed");
            assert_eq!(back[1..], ids[..], "appends after what was there");
        }
        // u32::MAX, then a gap past it.
        let mut out = Vec::new();
        put_varint(&mut out, u64::from(u32::MAX));
        put_varint(&mut out, 0);
        let got = Reader::new(&out).ascending_into(2, &mut Vec::new());
        assert_eq!(got, Err(DecodeError::Overflow));
    }

    #[test]
    fn counts_and_fixed_width_reads_stay_inside_the_buffer() {
        // A count of 3 needs 3 × min_bytes bytes after it.
        assert_eq!(Reader::new(&[3, 0, 0, 0]).count(1), Ok(3));
        assert_eq!(
            Reader::new(&[3, 0, 0]).count(1),
            Err(DecodeError::Truncated)
        );
        assert_eq!(
            Reader::new(&[1, 0, 0, 0]).count(5),
            Err(DecodeError::Truncated)
        );
        let mut r = Reader::new(&[1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9]);
        assert_eq!(r.u32_le(), Ok(1));
        assert_eq!(r.u64_le(), Ok(2));
        assert_eq!(r.u64_le(), Err(DecodeError::Truncated));
        assert_eq!(r.take(2), Err(DecodeError::Truncated));
        assert_eq!(
            r.clone().finish(),
            Err(DecodeError::Corrupt("trailing bytes"))
        );
        assert_eq!(r.u8(), Ok(9));
        assert_eq!(r.finish(), Ok(()));
        let mut vals = Vec::new();
        assert_eq!(
            Reader::new(&[0; 7]).f32s_into(2, &mut vals),
            Err(DecodeError::Truncated)
        );
        assert_eq!(
            Reader::new(&[]).f32s_into(usize::MAX, &mut vals),
            Err(DecodeError::Truncated)
        );
        assert!(vals.is_empty());
    }
}
