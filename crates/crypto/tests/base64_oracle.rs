//! Differential tests: the table-driven base64 decoder against the
//! per-byte state machine it replaced.
//!
//! `oracle_decode` below is the original decoder, kept verbatim. The
//! fast decoder must accept exactly the same inputs, produce the same
//! bytes, and reject everything else with the same error — variant,
//! position and byte included — because image payloads that failed to
//! decode before must still fail, and at the same place.

use proptest::prelude::*;
use wmx_crypto::base64::{decode, encode, Base64Error};

fn decode_char(c: u8) -> Option<u8> {
    match c {
        b'A'..=b'Z' => Some(c - b'A'),
        b'a'..=b'z' => Some(c - b'a' + 26),
        b'0'..=b'9' => Some(c - b'0' + 52),
        b'+' => Some(62),
        b'/' => Some(63),
        _ => None,
    }
}

/// Decodes padded base64, ignoring ASCII whitespace.
fn oracle_decode(text: &str) -> Result<Vec<u8>, Base64Error> {
    let mut quad = [0u8; 4];
    let mut quad_len = 0usize;
    let mut pad = 0usize;
    let mut out = Vec::with_capacity(text.len() / 4 * 3);

    for (position, byte) in text.bytes().enumerate() {
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

fn agree(text: &str) {
    assert_eq!(decode(text), oracle_decode(text), "input {text:?}");
}

/// Characters the generated inputs draw from: the alphabet, padding,
/// the four ASCII whitespace bytes XML may wrap with, ASCII bytes
/// outside the alphabet, and multi-byte characters (leading bytes
/// `0x80`..).
fn any_char() -> impl Strategy<Value = char> {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    prop_oneof![
        (0..ALPHABET.len()).prop_map(|i| char::from(ALPHABET[i])),
        (0..ALPHABET.len()).prop_map(|i| char::from(ALPHABET[i])),
        (0..ALPHABET.len()).prop_map(|i| char::from(ALPHABET[i])),
        prop::sample::select(vec!['=', ' ', '\n', '\t', '\r']),
        prop::sample::select(vec!['!', '-', '_', '.', '\0', '\u{80}', 'é', '€', '\u{ff}']),
    ]
}

/// A valid encoding with a few characters replaced or inserted, so most
/// inputs run the fast loop for a while before meeting the edit.
fn edited_encoding() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(any::<u8>(), 0..220),
        prop::collection::vec((any::<usize>(), any_char(), any::<bool>()), 0..4),
    )
        .prop_map(|(data, edits)| {
            let mut chars: Vec<char> = encode(&data).chars().collect();
            for (at, c, insert) in edits {
                if chars.is_empty() || insert {
                    let at = at % (chars.len() + 1);
                    chars.insert(at, c);
                } else {
                    let at = at % chars.len();
                    chars[at] = c;
                }
            }
            chars.into_iter().collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn agrees_with_oracle_on_mixed_strings(chars in prop::collection::vec(any_char(), 0..301)) {
        let text: String = chars.into_iter().collect();
        agree(&text);
    }

    #[test]
    fn agrees_with_oracle_on_edited_encodings(text in edited_encoding()) {
        agree(&text);
    }

    #[test]
    fn agrees_with_oracle_on_clean_encodings(data in prop::collection::vec(any::<u8>(), 0..226)) {
        let text = encode(&data);
        prop_assert_eq!(decode(&text), Ok(data));
        agree(&text);
    }
}

#[test]
fn fast_loop_stops_at_whitespace_in_every_quad_slot() {
    for slot in 0..4 {
        for ws in [' ', '\n', '\t', '\r'] {
            let mut text = String::from("Zm9vYmFyYmF6");
            text.insert(4 + slot, ws);
            agree(&text);
            assert_eq!(decode(&text).unwrap(), b"foobarbaz");
        }
    }
}

#[test]
fn fast_loop_stops_at_padding_in_every_quad_slot() {
    // Padding in slots 0 and 1 is a length error; in slots 2 and 3 it
    // closes the payload, so anything after is data after padding.
    for slot in 0..4 {
        let mut bytes = b"Zm9vYmFyYmF6".to_vec();
        bytes[4 + slot] = b'=';
        agree(std::str::from_utf8(&bytes).unwrap());
        agree(std::str::from_utf8(&bytes[..8]).unwrap());
    }
    agree("Zm9vYg==");
    agree("Zm9vYmE=");
}

#[test]
fn fast_loop_stops_at_invalid_byte_in_every_quad_slot() {
    for slot in 0..4 {
        for bad in ['!', '-', '_', '\0', 'é', '€'] {
            let mut chars: Vec<char> = "Zm9vYmFyYmF6".chars().collect();
            chars[4 + slot] = bad;
            let text: String = chars.into_iter().collect();
            agree(&text);
            assert!(matches!(
                decode(&text),
                Err(Base64Error::InvalidByte { position, .. }) if position == 4 + slot
            ));
        }
    }
}

#[test]
fn excess_padding_and_data_after_padding() {
    for text in [
        "Zm9v====",
        "Zm9vYg===",
        "Zm8=Zm8=",
        "Zm8= Zm8=",
        "Zg==\n",
        "Zg== x",
        "Zg=a",
        "Zm9vYmFy=",
        "=",
        "Z=",
        "Zm=",
    ] {
        agree(text);
    }
    assert_eq!(decode("Zm9v===="), Err(Base64Error::InvalidLength));
    assert_eq!(
        decode("Zm8=Zm8="),
        Err(Base64Error::InvalidByte {
            position: 4,
            byte: b'Z'
        })
    );
}

#[test]
fn wrapped_payload_lines() {
    let data: Vec<u8> = (0u8..=255).collect();
    let enc = encode(&data);
    for width in [1, 3, 4, 5, 64, 76] {
        let wrapped: String = enc
            .as_bytes()
            .chunks(width)
            .map(|line| std::str::from_utf8(line).unwrap())
            .collect::<Vec<_>>()
            .join("\r\n");
        agree(&wrapped);
        assert_eq!(decode(&wrapped).unwrap(), data);
    }
}
