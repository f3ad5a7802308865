use fsd_sparse::bytes::{put_varint, DecodeError, Reader};

fn parse_record(body: &[u8]) -> Result<(u32, u64), DecodeError> {
    // Every read goes through the shared, bounds-checked reader.
    let mut r = Reader::new(body);
    let key_len = r.u32_le()?;
    let payload_len = r.varint()?;
    r.finish()?;
    Ok((key_len, payload_len))
}

fn write_record(out: &mut Vec<u8>, key_len: u32, payload_len: u64) {
    // Calling the shared writers, and writing bytes, is fine.
    out.extend_from_slice(&key_len.to_le_bytes());
    put_varint(out, payload_len);
}

fn hash4(data: &[u8]) -> u32 {
    // fsd_lint::allow(byte-reader): hashes the caller's own input
    u32::from_le_bytes([data[0], data[1], data[2], data[3]])
}
