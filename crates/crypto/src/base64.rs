//! Standard (RFC 4648) base64 encoding and decoding.
//!
//! Used to embed binary image payloads inside XML text nodes. Encoding
//! always pads with `=`; decoding accepts padded input and ignores ASCII
//! whitespace (XML pretty-printers may wrap long payload lines).

/// Errors produced by [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Base64Error {
    /// A byte that is neither a base64 alphabet character, padding, nor
    /// whitespace was encountered.
    InvalidByte {
        /// Offset of the offending byte in the input.
        position: usize,
        /// The offending byte.
        byte: u8,
    },
    /// The input (after stripping whitespace) is not a multiple of four
    /// characters, or padding appears in an impossible position.
    InvalidLength,
}

impl std::fmt::Display for Base64Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Base64Error::InvalidByte { position, byte } => {
                write!(f, "invalid base64 byte 0x{byte:02x} at offset {position}")
            }
            Base64Error::InvalidLength => write!(f, "invalid base64 length or padding"),
        }
    }
}

impl std::error::Error for Base64Error {}

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks bytes outside the alphabet in [`DECODE`]. Every alphabet value
/// fits in six bits, so any of the top two bits set means "invalid".
const INVALID: u8 = 0xff;

/// Byte → six-bit value, or [`INVALID`].
const DECODE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < ALPHABET.len() {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

fn decode_char(c: u8) -> Option<u8> {
    match DECODE[usize::from(c)] {
        INVALID => None,
        v => Some(v),
    }
}

/// Encodes `data` as padded base64.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    let mut chunks = data.chunks_exact(3);
    for chunk in &mut chunks {
        let n = (u32::from(chunk[0]) << 16) | (u32::from(chunk[1]) << 8) | u32::from(chunk[2]);
        out.push(ALPHABET[(n >> 18) as usize & 0x3f] as char);
        out.push(ALPHABET[(n >> 12) as usize & 0x3f] as char);
        out.push(ALPHABET[(n >> 6) as usize & 0x3f] as char);
        out.push(ALPHABET[n as usize & 0x3f] as char);
    }
    match chunks.remainder() {
        [] => {}
        [a] => {
            let n = u32::from(*a) << 16;
            out.push(ALPHABET[(n >> 18) as usize & 0x3f] as char);
            out.push(ALPHABET[(n >> 12) as usize & 0x3f] as char);
            out.push('=');
            out.push('=');
        }
        [a, b] => {
            let n = (u32::from(*a) << 16) | (u32::from(*b) << 8);
            out.push(ALPHABET[(n >> 18) as usize & 0x3f] as char);
            out.push(ALPHABET[(n >> 12) as usize & 0x3f] as char);
            out.push(ALPHABET[(n >> 6) as usize & 0x3f] as char);
            out.push('=');
        }
        _ => unreachable!("chunks_exact(3) remainder has at most 2 elements"),
    }
    out
}

/// Decodes padded base64, ignoring ASCII whitespace.
///
/// Whole quads of alphabet characters are decoded by table lookup;
/// from the first quad holding anything else (whitespace, padding, an
/// invalid byte) the per-byte state machine takes over, starting with
/// an empty quad at that byte's offset, so error positions are those of
/// the input.
pub fn decode(text: &str) -> Result<Vec<u8>, Base64Error> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    let mut done = 0usize;
    for quad in bytes.chunks_exact(4) {
        let [a, b, c, d] = [quad[0], quad[1], quad[2], quad[3]].map(|x| DECODE[usize::from(x)]);
        if (a | b | c | d) & 0xc0 != 0 {
            break;
        }
        let n = (u32::from(a) << 18) | (u32::from(b) << 12) | (u32::from(c) << 6) | u32::from(d);
        out.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
        done += 4;
    }
    decode_tail(text, done, out)
}

/// The per-byte decoder for `text[start..]`, entered at a quad
/// boundary with no padding seen; appends to `out`.
fn decode_tail(text: &str, start: usize, mut out: Vec<u8>) -> Result<Vec<u8>, Base64Error> {
    let mut quad = [0u8; 4];
    let mut quad_len = 0usize;
    let mut pad = 0usize;

    for (position, &byte) in text.as_bytes().iter().enumerate().skip(start) {
        if byte.is_ascii_whitespace() {
            continue;
        }
        if byte == b'=' {
            if quad_len < 2 {
                return Err(Base64Error::InvalidLength);
            }
            pad += 1;
            quad[quad_len] = 0;
            quad_len += 1;
            if pad > 2 {
                return Err(Base64Error::InvalidLength);
            }
        } else {
            if pad > 0 {
                // Data after padding is malformed.
                return Err(Base64Error::InvalidByte { position, byte });
            }
            match decode_char(byte) {
                Some(v) => {
                    quad[quad_len] = v;
                    quad_len += 1;
                }
                None => return Err(Base64Error::InvalidByte { position, byte }),
            }
        }
        if quad_len == 4 {
            let n = (u32::from(quad[0]) << 18)
                | (u32::from(quad[1]) << 12)
                | (u32::from(quad[2]) << 6)
                | u32::from(quad[3]);
            out.push((n >> 16) as u8);
            if pad < 2 {
                out.push((n >> 8) as u8);
            }
            if pad < 1 {
                out.push(n as u8);
            }
            if pad > 0 {
                // Padding closes the payload; only whitespace may follow.
                return finish_after_padding(text, position, out);
            }
            quad_len = 0;
        }
    }

    if quad_len != 0 {
        return Err(Base64Error::InvalidLength);
    }
    Ok(out)
}

/// After a padded quad, only whitespace may follow.
fn finish_after_padding(
    text: &str,
    end_position: usize,
    out: Vec<u8>,
) -> Result<Vec<u8>, Base64Error> {
    for (offset, byte) in text.bytes().enumerate().skip(end_position + 1) {
        if !byte.is_ascii_whitespace() {
            return Err(Base64Error::InvalidByte {
                position: offset,
                byte,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rfc4648_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", ""),
            (b"f", "Zg=="),
            (b"fo", "Zm8="),
            (b"foo", "Zm9v"),
            (b"foob", "Zm9vYg=="),
            (b"fooba", "Zm9vYmE="),
            (b"foobar", "Zm9vYmFy"),
        ];
        for (raw, enc) in cases {
            assert_eq!(encode(raw), *enc);
            assert_eq!(decode(enc).unwrap(), raw.to_vec());
        }
    }

    #[test]
    fn whitespace_is_ignored() {
        assert_eq!(decode("Zm9v\nYmFy").unwrap(), b"foobar".to_vec());
        assert_eq!(decode("  Zm9v YmE=\n").unwrap(), b"fooba".to_vec());
    }

    #[test]
    fn rejects_invalid_bytes() {
        assert!(matches!(
            decode("Zm9v!"),
            Err(Base64Error::InvalidByte { byte: b'!', .. })
        ));
    }

    #[test]
    fn rejects_bad_lengths() {
        assert_eq!(decode("Zm9"), Err(Base64Error::InvalidLength));
        assert_eq!(decode("Z==="), Err(Base64Error::InvalidLength));
        assert_eq!(decode("===="), Err(Base64Error::InvalidLength));
    }

    #[test]
    fn rejects_data_after_padding() {
        assert!(matches!(
            decode("Zm8=Zm8="),
            Err(Base64Error::InvalidByte { .. })
        ));
    }

    proptest! {
        #[test]
        fn roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let enc = encode(&data);
            prop_assert_eq!(decode(&enc).unwrap(), data);
        }

        #[test]
        fn encoded_alphabet_is_clean(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let enc = encode(&data);
            prop_assert!(enc.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'+' || b == b'/' || b == b'='));
        }
    }
}
