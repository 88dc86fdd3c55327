//! Binary record codec for shard files.
//!
//! Records are stored as length-prefixed frames:
//!
//! ```text
//! [payload_len: varint u64][crc32(payload): u32 LE][payload bytes]
//! ```
//!
//! The CRC-32 (IEEE 802.3) checksum over the payload lets readers detect
//! torn writes and corruption — the failure-injection tests rely on it.
//! Field-level encoding helpers (varints, primitives, strings) read from a
//! `&mut &[u8]` cursor and append to a `Vec<u8>`, so record types can
//! implement [`Record`] without hand-rolling byte juggling. Every read goes
//! through a checked split: short input is [`CodecError::UnexpectedEof`],
//! never a panic.

use std::fmt;

/// Errors from decoding a record or frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// A varint ran past 64 bits (not a valid u64).
    VarintOverflow,
    /// The frame checksum did not match the payload.
    ChecksumMismatch {
        /// CRC recorded in the frame header.
        expected: u32,
        /// CRC computed over the payload read.
        actual: u32,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// An enum tag or similar discriminant was out of range.
    InvalidTag(u8),
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
    /// The shard commit footer was absent or malformed — the file is
    /// torn, truncated, or still being written.
    MissingFooter,
    /// The footer's committed record count disagreed with the records
    /// actually framed in the file.
    RecordCountMismatch {
        /// Count recorded in the commit footer.
        expected: u64,
        /// Records actually decoded from the frames.
        actual: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            CodecError::VarintOverflow => write!(f, "varint overflows u64"),
            CodecError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: {expected:#010x} vs {actual:#010x}"
                )
            }
            CodecError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::InvalidTag(t) => write!(f, "invalid discriminant tag {t}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after record"),
            CodecError::MissingFooter => {
                write!(f, "missing or malformed shard commit footer (torn file?)")
            }
            CodecError::RecordCountMismatch { expected, actual } => {
                write!(
                    f,
                    "shard footer promises {expected} records but {actual} were framed"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A type that can be serialized into (and out of) a shard-file frame.
pub trait Record: Sized + Send + 'static {
    /// Append this record's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode a record from exactly the bytes of `buf`.
    ///
    /// Implementations should consume the whole buffer; the shard reader
    /// treats leftover bytes as corruption.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError>;
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE) — slicing-by-16, tables computed once on first use.
// ---------------------------------------------------------------------------

/// The sixteen CRC-32 tables: `tables[k][b]` is the register after byte
/// `b` and then `k` zero bytes have been shifted through it, i.e. after
/// `8 (k + 1)` steps of the bitwise division. `tables[0]` is the classic
/// byte-at-a-time table.
fn crc32_tables() -> &'static [[u32; 256]; 16] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 16];
        for (k, table) in tables.iter_mut().enumerate() {
            for (i, slot) in table.iter_mut().enumerate() {
                let mut c = i as u32;
                for _ in 0..8 * (k + 1) {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
                *slot = c;
            }
        }
        tables
    })
}

/// CRC-32 (IEEE 802.3) of `data`, sixteen bytes a step (slicing-by-16):
/// each byte of a block is looked up in the table of the distance it has
/// left to travel, so the sixteen lookups are independent of each other
/// and only their XOR waits on the register.
#[expect(
    clippy::indexing_slicing,
    reason = "every index is a byte, into 256-entry tables; per-byte hot loop"
)]
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut rest = data;
    while let Some((block, tail)) = rest.split_first_chunk::<16>() {
        // The register overlaps the block's first four bytes; byte `i`
        // then has `15 - i` bytes left to travel.
        let mut bytes = *block;
        for (b, r) in bytes.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= r;
        }
        crc = bytes
            .iter()
            .zip(t.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)]);
        rest = tail;
    }
    for &b in rest {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Cursor reads
// ---------------------------------------------------------------------------

/// Take the next `len` bytes off the front of `buf`.
fn take<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8], CodecError> {
    let (head, tail) = buf.split_at_checked(len).ok_or(CodecError::UnexpectedEof)?;
    *buf = tail;
    Ok(head)
}

/// Take the next `N` bytes off the front of `buf` (a little-endian
/// primitive's worth).
fn take_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (head, tail) = buf
        .split_first_chunk::<N>()
        .ok_or(CodecError::UnexpectedEof)?;
    *buf = tail;
    Ok(*head)
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

/// Append a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 varint.
pub fn get_varint(buf: &mut &[u8]) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some((&byte, tail)) = buf.split_first() else {
            return Err(CodecError::UnexpectedEof);
        };
        // The tenth byte holds bit 63 alone: more than that is past u64.
        if shift == 63 && byte > 1 {
            return Err(CodecError::VarintOverflow);
        }
        *buf = tail;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------------

/// Append a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
pub fn get_string(buf: &mut &[u8]) -> Result<String, CodecError> {
    let len = get_varint(buf)? as usize;
    let s = std::str::from_utf8(take(buf, len)?).map_err(|_| CodecError::InvalidUtf8)?;
    Ok(s.to_owned())
}

/// Append an `f64` as little-endian bits.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `f64`.
pub fn get_f64(buf: &mut &[u8]) -> Result<f64, CodecError> {
    Ok(f64::from_le_bytes(take_array(buf)?))
}

/// ZigZag-encode a signed integer into a varint.
pub(crate) fn put_varint_i64(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Read a ZigZag-encoded signed varint.
pub(crate) fn get_varint_i64(buf: &mut &[u8]) -> Result<i64, CodecError> {
    let raw = get_varint(buf)?;
    Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Append a checksummed frame containing `payload`.
pub(crate) fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Read one frame; returns the verified payload slice, advancing `buf`.
pub(crate) fn get_frame<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], CodecError> {
    let len = get_varint(buf)? as usize;
    let expected = u32::from_le_bytes(take_array(buf)?);
    let payload = take(buf, len)?;
    let actual = crc32(payload);
    if actual != expected {
        return Err(CodecError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Commit footer
// ---------------------------------------------------------------------------

/// Total size in bytes of the commit footer a committed shard ends with:
/// an 8-byte magic, an 8-byte record count, and a 4-byte CRC-32 over
/// both.
pub const FOOTER_LEN: usize = 20;

/// Magic marking a committed shard file (`b"DRYBELLF"` little-endian).
const FOOTER_MAGIC: u64 = u64::from_le_bytes(*b"DRYBELLF");

/// Append the shard commit footer: magic, `record_count`, and a CRC-32
/// over both. `ShardWriter::finish` writes this as the last bytes of a
/// shard before the atomic rename; its absence marks a torn or
/// in-progress file that readers must reject.
pub(crate) fn put_footer(out: &mut Vec<u8>, record_count: u64) {
    let mut body = Vec::with_capacity(16);
    body.extend_from_slice(&FOOTER_MAGIC.to_le_bytes());
    body.extend_from_slice(&record_count.to_le_bytes());
    let crc = crc32(&body);
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Split a fully-buffered shard image into its frame bytes and the
/// committed record count, validating the footer's magic and checksum.
pub(crate) fn split_footer(buf: &[u8]) -> Result<(&[u8], u64), CodecError> {
    let Some(frames_len) = buf.len().checked_sub(FOOTER_LEN) else {
        return Err(CodecError::MissingFooter);
    };
    let (frames, footer) = buf.split_at(frames_len);
    let (body, mut crc_bytes) = footer.split_at(16);
    let mut cursor = body;
    let magic = u64::from_le_bytes(take_array(&mut cursor)?);
    let count = u64::from_le_bytes(take_array(&mut cursor)?);
    let stored = u32::from_le_bytes(take_array(&mut crc_bytes)?);
    if magic != FOOTER_MAGIC {
        return Err(CodecError::MissingFooter);
    }
    let actual = crc32(body);
    if actual != stored {
        return Err(CodecError::ChecksumMismatch {
            expected: stored,
            actual,
        });
    }
    Ok((frames, count))
}

// ---------------------------------------------------------------------------
// Record impls for common types
// ---------------------------------------------------------------------------

impl Record for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<u64, CodecError> {
        get_varint(buf)
    }
}

impl Record for i64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint_i64(buf, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<i64, CodecError> {
        get_varint_i64(buf)
    }
}

impl Record for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_f64(buf, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<f64, CodecError> {
        get_f64(buf)
    }
}

impl Record for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_string(buf, self);
    }
    fn decode(buf: &mut &[u8]) -> Result<String, CodecError> {
        get_string(buf)
    }
}

impl<A: Record, B: Record> Record for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<(A, B), CodecError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<T: Record> Record for Vec<T>
where
    T: Record,
{
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Vec<T>, CodecError> {
        let len = get_varint(buf)? as usize;
        // Guard against absurd lengths from corrupt data: each element
        // needs at least one byte.
        if len > buf.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

/// Encode a record to a standalone byte vector.
pub fn encode_record<R: Record>(r: &R) -> Vec<u8> {
    let mut buf = Vec::new();
    r.encode(&mut buf);
    buf
}

/// Decode a record from a byte slice, requiring full consumption.
pub fn decode_record<R: Record>(mut buf: &[u8]) -> Result<R, CodecError> {
    let r = R::decode(&mut buf)?;
    if !buf.is_empty() {
        return Err(CodecError::TrailingBytes(buf.len()));
    }
    Ok(r)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn footer_roundtrips() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"payload");
        let frames_len = buf.len();
        put_footer(&mut buf, 7);
        assert_eq!(buf.len(), frames_len + FOOTER_LEN);
        let (frames, count) = split_footer(&buf).unwrap();
        assert_eq!(frames.len(), frames_len);
        assert_eq!(count, 7);
    }

    #[test]
    fn footer_missing_or_short_is_rejected() {
        // Too short to even hold a footer.
        assert_eq!(split_footer(b"abc"), Err(CodecError::MissingFooter));
        // Long enough but no magic: a torn file of well-formed frames.
        let mut buf = Vec::new();
        for _ in 0..8 {
            put_frame(&mut buf, b"frame without any commit marker");
        }
        assert_eq!(split_footer(&buf), Err(CodecError::MissingFooter));
    }

    #[test]
    fn footer_crc_corruption_is_detected() {
        let mut buf = Vec::new();
        put_footer(&mut buf, 3);
        // Flip a bit inside the count field: magic still matches, CRC no.
        buf[10] ^= 0x01;
        assert!(matches!(
            split_footer(&buf),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: "123456789" -> 0xCBF43926.
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
        }
    }

    /// The byte-at-a-time CRC-32 the sliced one replaced, with its own
    /// table: the oracle for `crc32`.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_slices_agree_with_the_byte_table() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut buf = vec![0u8; 1 << 20];
        rng.fill_bytes(&mut buf);
        // Every length around the 16-byte block, from every alignment.
        for offset in 0..16 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "offset {offset}, length {len}"
                );
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf), "1 MB");
        // Bytes that set every bit of every lane.
        let ones = [0xFFu8; 47];
        assert_eq!(crc32(&ones), crc32_bytewise(&ones));
    }

    #[test]
    fn varint_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut s = buf.as_slice();
            assert_eq!(get_varint(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn varint_overflow_detected() {
        // Eleven bytes, and ten whose last one carries bits past 63:
        // 2^64 and 2^64 + 2^63 - 1 must not wrap to 0 and 2^63 - 1.
        let mut two_to_64 = [0x80u8; 10];
        two_to_64[9] = 0x02;
        let mut past_max = [0xFFu8; 10];
        past_max[9] = 0x02;
        for buf in [&[0xFFu8; 11][..], &two_to_64, &past_max] {
            let mut s = buf;
            assert_eq!(get_varint(&mut s), Err(CodecError::VarintOverflow));
        }
        let mut max = [0xFFu8; 10];
        max[9] = 0x01;
        assert_eq!(get_varint(&mut max.as_slice()), Ok(u64::MAX));
    }

    #[test]
    fn truncated_inputs_error() {
        let mut buf = Vec::new();
        put_string(&mut buf, "hello");
        let mut s = &buf[..3];
        assert_eq!(get_string(&mut s), Err(CodecError::UnexpectedEof));
        let mut s: &[u8] = &[];
        assert_eq!(get_varint(&mut s), Err(CodecError::UnexpectedEof));
        assert_eq!(get_f64(&mut s), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn frame_detects_corruption() {
        let mut out = Vec::new();
        put_frame(&mut out, b"payload-bytes");
        // Flip a payload bit.
        let idx = out.len() - 2;
        out[idx] ^= 0x01;
        let mut s = out.as_slice();
        assert!(matches!(
            get_frame(&mut s),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn frame_length_near_usize_max_is_eof_not_overflow() {
        // `4 + len` used to be computed unchecked before the bounds test.
        let mut out = Vec::new();
        put_varint(&mut out, u64::MAX - 1);
        out.extend_from_slice(&[0; 8]);
        let mut s = out.as_slice();
        assert_eq!(get_frame(&mut s), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn frame_roundtrip_multiple() {
        let mut out = Vec::new();
        put_frame(&mut out, b"one");
        put_frame(&mut out, b"");
        put_frame(&mut out, b"three");
        let mut s = out.as_slice();
        assert_eq!(get_frame(&mut s).unwrap(), b"one");
        assert_eq!(get_frame(&mut s).unwrap(), b"");
        assert_eq!(get_frame(&mut s).unwrap(), b"three");
        assert!(s.is_empty());
    }

    #[test]
    fn decode_record_rejects_trailing() {
        let mut buf = Vec::new();
        42u64.encode(&mut buf);
        buf.push(0);
        assert_eq!(
            decode_record::<u64>(&buf),
            Err(CodecError::TrailingBytes(1))
        );
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut s = buf.as_slice();
        assert_eq!(get_string(&mut s), Err(CodecError::InvalidUtf8));
    }

    /// Every length boundary of a varint (`2^7k - 1`, `2^7k`, `2^7k + 1`),
    /// the ends of `u64`, then `seeded` draws.
    fn varints(seeded: usize) -> Vec<u64> {
        let mut values = vec![0, 1, u64::MAX - 1, u64::MAX];
        for k in 1..=9 {
            let edge = 1u64 << (7 * k);
            values.extend([edge - 1, edge, edge + 1]);
        }
        let mut rng = StdRng::seed_from_u64(1);
        values.extend((0..seeded).map(|_| rng.gen::<u64>()));
        values
    }

    /// A string of at most `max` characters drawn the way a `.` pattern
    /// is: mostly printable ASCII, with control and multi-byte characters
    /// mixed in so byte-level code sees them.
    pub(crate) fn any_text(rng: &mut StdRng, max: usize) -> String {
        const WIDE: [char; 8] = ['é', 'ß', 'Ω', '雪', 'д', '☃', '😀', char::MAX];
        let len = rng.gen_range(0..=max);
        (0..len)
            .map(|_| match rng.gen_range(0..10) {
                0 => char::from(rng.gen_range(0..0x20u8)),
                1 | 2 => WIDE[rng.gen_range(0..WIDE.len())],
                _ => char::from(rng.gen_range(0x20..0x7Fu8)),
            })
            .collect()
    }

    #[test]
    fn prop_varint_roundtrip() {
        for v in varints(64) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut s = buf.as_slice();
            assert_eq!(get_varint(&mut s), Ok(v));
            assert!(s.is_empty());
        }
    }

    #[test]
    fn prop_zigzag_roundtrip() {
        // Each signed value whose ZigZag code is a varint boundary, which
        // includes `i64::MIN` and `i64::MAX`.
        for raw in varints(64) {
            let v = ((raw >> 1) as i64) ^ -((raw & 1) as i64);
            let mut buf = Vec::new();
            put_varint_i64(&mut buf, v);
            assert_eq!(get_varint(&mut buf.as_slice()), Ok(raw));
            assert_eq!(get_varint_i64(&mut buf.as_slice()), Ok(v));
        }
    }

    #[test]
    fn prop_string_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..64 {
            let text = any_text(&mut rng, 32);
            let mut buf = Vec::new();
            put_string(&mut buf, &text);
            let mut r = buf.as_slice();
            assert_eq!(get_string(&mut r), Ok(text));
        }
    }

    #[test]
    fn prop_tuple_record_roundtrip() {
        let special = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
        ];
        let mut rng = StdRng::seed_from_u64(3);
        for case in 0..64 {
            let a = rng.gen::<u64>();
            let b = any_text(&mut rng, 32);
            // The special values, then a sign and mantissa over 2^-64..2^64.
            let c = special.get(case).copied().unwrap_or_else(|| {
                let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
                sign * rng.gen::<f64>() * f64::from(rng.gen_range(-64..=64)).exp2()
            });
            let rec = (a, (b.clone(), c));
            let (a_back, (b_back, c_back)): (u64, (String, f64)) =
                decode_record(&encode_record(&rec)).unwrap();
            assert_eq!((a_back, b_back), (a, b));
            assert_eq!(c_back.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn prop_vec_record_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..64 {
            let xs: Vec<i64> = (0..rng.gen_range(0..50)).map(|_| rng.gen()).collect();
            let back: Vec<i64> = decode_record(&encode_record(&xs)).unwrap();
            assert_eq!(back, xs);
        }
    }

    #[test]
    fn prop_frame_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..64 {
            let payload: Vec<u8> = (0..rng.gen_range(0..200)).map(|_| rng.gen()).collect();
            let mut out = Vec::new();
            put_frame(&mut out, &payload);
            let mut s = out.as_slice();
            assert_eq!(get_frame(&mut s), Ok(payload.as_slice()));
        }
    }

    #[test]
    fn prop_random_bytes_never_panic() {
        // Decoding arbitrary garbage must error, never panic.
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..64 {
            let bytes: Vec<u8> = (0..rng.gen_range(0..100)).map(|_| rng.gen()).collect();
            let _ = decode_record::<(u64, String)>(&bytes);
            let mut s = bytes.as_slice();
            let _ = get_frame(&mut s);
        }
    }
}
