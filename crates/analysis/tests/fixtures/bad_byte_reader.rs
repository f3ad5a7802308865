// A second varint reader, free to wrap.
fn get_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    while let Some(&b) = buf.get(*pos) {
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            break;
        }
        shift += 7;
    }
    v
}

fn key_len(rest: &[u8]) -> usize {
    u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize
}

#[cfg(test)]
mod tests {
    fn put_varint_by_hand(out: &mut Vec<u8>, v: u8) {
        out.push(v);
    }

    #[test]
    fn tests_may_read_bytes_by_hand() {
        assert_eq!(u16::from_le_bytes([1, 0]), 1);
    }
}
