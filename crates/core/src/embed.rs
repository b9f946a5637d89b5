//! Embedding plug-ins — the `WA_i` boxes of the paper's Fig. 4.
//!
//! "As XML could contain various types of data, the system prepares
//! various plug-in watermarking algorithms for different data types."
//! Each plug-in writes one bit into a value (and can read it back):
//!
//! * [`NumericPlugin`] — integers and decimals: the bit becomes the
//!   parity of the value (of the scaled value for decimals), moved by at
//!   most the declared tolerance; a keyed nonce picks the perturbation
//!   direction so marks do not bias values systematically.
//! * [`TextPlugin`] — free text: the bit lives in a trailing space,
//!   invisible to whitespace-normalized comparison.
//! * [`ImagePlugin`] — base64 raster images: the bit is written into the
//!   LSBs of a keyed pseudo-random pixel subset and read back by
//!   majority, a spatial-domain LSB scheme in the spirit of the image
//!   watermarking literature the paper cites.

use wmx_crypto::base64;
use wmx_schema::DataType;

/// A type-specific embedding algorithm.
pub trait EmbedAlgorithm {
    /// Plug-in name (for reports).
    fn name(&self) -> &'static str;

    /// Embeds `bit` into `value`, using `nonce` as keyed randomness.
    /// Returns `None` when the value cannot carry a mark (e.g. not a
    /// number for the numeric plug-in).
    fn embed(&self, value: &str, bit: bool, nonce: u64) -> Option<String>;

    /// Extracts the bit from `value` (requires the same `nonce` for
    /// position-keyed plug-ins). `None` when unreadable.
    fn extract(&self, value: &str, nonce: u64) -> Option<bool>;
}

/// Returns the plug-in registered for `data_type`. The plug-ins are
/// stateless, so one static instance per type serves every unit.
pub fn plugin_for(data_type: DataType) -> &'static dyn EmbedAlgorithm {
    static INTEGER: NumericPlugin = NumericPlugin::integer();
    static DECIMAL: NumericPlugin = NumericPlugin::decimal(2);
    static IMAGE: ImagePlugin = ImagePlugin {
        samples: DEFAULT_IMAGE_SAMPLES,
    };
    match data_type {
        DataType::Integer => &INTEGER,
        DataType::Decimal => &DECIMAL,
        DataType::Text => &TextPlugin,
        DataType::Base64Image => &IMAGE,
    }
}

// ---------------------------------------------------------------------
// Numeric
// ---------------------------------------------------------------------

/// Parity-based numeric embedding.
#[derive(Debug, Clone)]
pub struct NumericPlugin {
    /// Decimal places to scale into the integer domain (0 = integers).
    pub scale_digits: u32,
}

impl NumericPlugin {
    /// Integer plug-in.
    pub const fn integer() -> Self {
        NumericPlugin { scale_digits: 0 }
    }

    /// Decimal plug-in embedding into the `scale_digits`-th decimal
    /// place (2 = cents).
    pub const fn decimal(scale_digits: u32) -> Self {
        NumericPlugin { scale_digits }
    }

    fn scale(&self) -> f64 {
        10f64.powi(self.scale_digits as i32)
    }

    fn to_scaled(&self, value: &str) -> Option<i64> {
        let v: f64 = value.trim().parse().ok()?;
        let scaled = (v * self.scale()).round();
        // The `f64` parser also accepts "NaN" and "inf"; neither has a
        // parity to carry a bit (NaN would otherwise cast to 0).
        if !scaled.is_finite() || scaled.abs() > 9e15 {
            return None;
        }
        Some(scaled as i64)
    }

    fn render(&self, scaled: i64) -> String {
        if self.scale_digits == 0 {
            scaled.to_string()
        } else {
            let denom = 10i64.pow(self.scale_digits);
            let sign = if scaled < 0 { "-" } else { "" };
            let abs = scaled.abs();
            format!(
                "{sign}{}.{:0width$}",
                abs / denom,
                abs % denom,
                width = self.scale_digits as usize
            )
        }
    }
}

impl EmbedAlgorithm for NumericPlugin {
    fn name(&self) -> &'static str {
        "numeric-parity"
    }

    fn embed(&self, value: &str, bit: bool, nonce: u64) -> Option<String> {
        let scaled = self.to_scaled(value)?;
        let want = i64::from(bit);
        let adjusted = if scaled.rem_euclid(2) == want {
            scaled
        } else {
            // Nonce picks the direction, keeping the expected perturbation
            // zero-mean across units.
            if nonce.is_multiple_of(2) {
                scaled + 1
            } else {
                scaled - 1
            }
        };
        Some(self.render(adjusted))
    }

    fn extract(&self, value: &str, _nonce: u64) -> Option<bool> {
        let scaled = self.to_scaled(value)?;
        Some(scaled.rem_euclid(2) == 1)
    }
}

// ---------------------------------------------------------------------
// Text
// ---------------------------------------------------------------------

/// Trailing-whitespace text embedding.
#[derive(Debug, Clone, Default)]
pub struct TextPlugin;

impl EmbedAlgorithm for TextPlugin {
    fn name(&self) -> &'static str {
        "text-trailing-space"
    }

    fn embed(&self, value: &str, bit: bool, _nonce: u64) -> Option<String> {
        let trimmed = value.trim_end_matches(' ');
        if trimmed.is_empty() {
            return None; // an all-space value cannot carry a reliable mark
        }
        Some(if bit {
            format!("{trimmed} ")
        } else {
            trimmed.to_string()
        })
    }

    fn extract(&self, value: &str, _nonce: u64) -> Option<bool> {
        if value.trim_end_matches(' ').is_empty() {
            return None;
        }
        Some(value.ends_with(' '))
    }
}

// ---------------------------------------------------------------------
// Image
// ---------------------------------------------------------------------

/// LSB-plane image embedding over base64 raster payloads.
///
/// The payload layout (produced by `wmx-data::image`) is
/// `WMIMG;<width>;<height>;` followed by `width*height` raw gray bytes,
/// all base64-encoded. The plug-in writes the bit into the LSBs of
/// `samples` pixels chosen by a nonce-seeded splitmix64 sequence, and
/// reads it back by majority vote over the same positions.
#[derive(Debug, Clone)]
pub struct ImagePlugin {
    /// Number of pixel positions carrying the bit.
    pub samples: usize,
}

/// Pixel positions per image mark unless configured otherwise.
const DEFAULT_IMAGE_SAMPLES: usize = 32;

impl Default for ImagePlugin {
    fn default() -> Self {
        ImagePlugin {
            samples: DEFAULT_IMAGE_SAMPLES,
        }
    }
}

/// The header magic of the raster payload format.
pub const IMAGE_MAGIC: &[u8] = b"WMIMG;";

/// Splits a decoded payload into (header length, pixel region).
fn pixel_region(data: &[u8]) -> Option<std::ops::Range<usize>> {
    if !data.starts_with(IMAGE_MAGIC) {
        return None;
    }
    // Header: WMIMG;<w>;<h>;
    let mut semis = 0usize;
    for (i, &b) in data.iter().enumerate() {
        if b == b';' {
            semis += 1;
            if semis == 3 {
                let start = i + 1;
                if start >= data.len() {
                    return None;
                }
                return Some(start..data.len());
            }
        }
    }
    None
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ImagePlugin {
    /// The first `min(samples, len)` distinct pixel offsets of a
    /// nonce-seeded splitmix64 sequence, in draw order.
    fn positions(&self, nonce: u64, len: usize) -> Vec<usize> {
        let mut state = nonce ^ 0x574d_494d_4721_1005; // domain-separate
        let count = self.samples.min(len);
        let mut out = Vec::with_capacity(count);
        // Dedup by scanning the positions drawn so far: for the few dozen
        // samples a mark uses this beats hashing every draw.
        while out.len() < count {
            let pos = (splitmix64(&mut state) % len as u64) as usize;
            if !out.contains(&pos) {
                out.push(pos);
            }
        }
        out
    }
}

impl EmbedAlgorithm for ImagePlugin {
    fn name(&self) -> &'static str {
        "image-lsb"
    }

    fn embed(&self, value: &str, bit: bool, nonce: u64) -> Option<String> {
        let mut data = base64::decode(value).ok()?;
        let region = pixel_region(&data)?;
        if region.is_empty() {
            return None;
        }
        let offset = region.start;
        let len = region.len();
        for pos in self.positions(nonce, len) {
            let b = &mut data[offset + pos];
            *b = (*b & !1) | u8::from(bit);
        }
        Some(base64::encode(&data))
    }

    fn extract(&self, value: &str, nonce: u64) -> Option<bool> {
        let data = base64::decode(value).ok()?;
        let region = pixel_region(&data)?;
        if region.is_empty() {
            return None;
        }
        let offset = region.start;
        let len = region.len();
        let positions = self.positions(nonce, len);
        let ones = positions
            .iter()
            .filter(|&&pos| data[offset + pos] & 1 == 1)
            .count();
        Some(ones * 2 > positions.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_integer_roundtrip_and_tolerance() {
        let p = NumericPlugin::integer();
        for (value, bit, nonce) in [("1998", true, 0), ("1998", false, 1), ("1997", true, 5)] {
            let marked = p.embed(value, bit, nonce).unwrap();
            assert_eq!(p.extract(&marked, nonce), Some(bit), "{value} bit={bit}");
            let before: i64 = value.parse().unwrap();
            let after: i64 = marked.parse().unwrap();
            assert!((before - after).abs() <= 1, "perturbation exceeds ±1");
        }
    }

    #[test]
    fn numeric_no_change_when_parity_matches() {
        let p = NumericPlugin::integer();
        assert_eq!(p.embed("1998", false, 0).unwrap(), "1998");
        assert_eq!(p.embed("1999", true, 0).unwrap(), "1999");
    }

    #[test]
    fn numeric_negative_values() {
        let p = NumericPlugin::integer();
        let marked = p.embed("-7", false, 0).unwrap();
        assert_eq!(p.extract(&marked, 0), Some(false));
        // rem_euclid keeps parity sensible for negatives.
        assert_eq!(p.extract("-7", 0), Some(true));
        assert_eq!(p.extract("-8", 0), Some(false));
    }

    #[test]
    fn numeric_rejects_non_numbers() {
        let p = NumericPlugin::integer();
        assert_eq!(p.embed("n/a", true, 0), None);
        assert_eq!(p.extract("n/a", 0), None);
    }

    #[test]
    fn numeric_rejects_non_finite_values() {
        // Rust's f64 parser accepts these spellings; none is a number
        // whose parity can carry a bit.
        for p in [NumericPlugin::integer(), NumericPlugin::decimal(2)] {
            for value in ["NaN", "nan", " NaN ", "-nan", "inf", "-inf", "infinity"] {
                for (bit, nonce) in [(true, 0), (false, 0), (true, 3), (false, 3)] {
                    assert_eq!(p.embed(value, bit, nonce), None, "{value:?}");
                }
                assert_eq!(p.extract(value, 0), None, "{value:?}");
            }
        }
    }

    #[test]
    fn decimal_scaling() {
        let p = NumericPlugin::decimal(2);
        let marked = p.embed("9.99", false, 0).unwrap();
        assert_eq!(marked, "10.00");
        assert_eq!(p.extract(&marked, 0), Some(false));
        let marked = p.embed("9.99", true, 0).unwrap();
        assert_eq!(marked, "9.99");
        // Render pads cents.
        let marked = p.embed("12.1", true, 0).unwrap();
        assert_eq!(p.extract(&marked, 0), Some(true));
        assert!(marked.contains('.'));
    }

    #[test]
    fn text_roundtrip() {
        let p = TextPlugin;
        let marked1 = p.embed("Database Systems", true, 0).unwrap();
        assert_eq!(marked1, "Database Systems ");
        assert_eq!(p.extract(&marked1, 0), Some(true));
        let marked0 = p.embed("Database Systems ", false, 0).unwrap();
        assert_eq!(marked0, "Database Systems");
        assert_eq!(p.extract(&marked0, 0), Some(false));
    }

    #[test]
    fn text_rejects_empty() {
        let p = TextPlugin;
        assert_eq!(p.embed("   ", true, 0), None);
        assert_eq!(p.extract("", 0), None);
    }

    fn sample_image() -> String {
        let mut payload = b"WMIMG;8;8;".to_vec();
        payload.extend((0..64u8).map(|i| i.wrapping_mul(3)));
        base64::encode(&payload)
    }

    #[test]
    fn image_roundtrip_both_bits() {
        let p = ImagePlugin::default();
        let img = sample_image();
        for bit in [true, false] {
            for nonce in [1u64, 42, 9999] {
                let marked = p.embed(&img, bit, nonce).unwrap();
                assert_eq!(p.extract(&marked, nonce), Some(bit));
            }
        }
    }

    #[test]
    fn image_perturbs_only_lsbs() {
        let p = ImagePlugin::default();
        let img = sample_image();
        let marked = p.embed(&img, true, 7).unwrap();
        let a = base64::decode(&img).unwrap();
        let b = base64::decode(&marked).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x >> 1, y >> 1, "non-LSB bits changed");
        }
        // Header untouched.
        assert_eq!(&a[..10], &b[..10]);
    }

    #[test]
    fn image_rejects_malformed_payloads() {
        let p = ImagePlugin::default();
        assert_eq!(p.embed("not base64!!", true, 0), None);
        assert_eq!(p.embed(&base64::encode(b"JPEG..."), true, 0), None);
        assert_eq!(p.embed(&base64::encode(b"WMIMG;1;1;"), true, 0), None); // no pixels
    }

    #[test]
    fn image_wrong_nonce_degrades_extraction() {
        // With the wrong nonce the positions differ; extraction still
        // returns *a* bit but it is no longer reliably the embedded one.
        // (This is what makes the secret key matter for images.)
        let p = ImagePlugin { samples: 8 };
        let img = sample_image();
        let marked = p.embed(&img, true, 1234).unwrap();
        let agreements = (0..64u64)
            .filter(|&n| p.extract(&marked, n) == Some(true))
            .count();
        assert!(agreements < 64, "wrong nonces should not always agree");
    }

    /// A 44×44 `WMIMG` cover, the size the library dataset uses, with
    /// pixels drawn from a fixed splitmix64 sequence.
    fn cover_44() -> String {
        let mut payload = b"WMIMG;44;44;".to_vec();
        let mut state = 0x1234_5678_9abc_def0;
        payload.extend((0..44 * 44).map(|_| splitmix64(&mut state) as u8));
        base64::encode(&payload)
    }

    #[test]
    fn image_embed_output_is_pinned() {
        // SHA-256 of the marked payload for both bits and two nonces,
        // recorded from the HashSet-deduplicating sampler: the pixel
        // positions (and their order) must never drift, or published
        // image marks stop being detectable.
        let p = ImagePlugin::default();
        let cover = cover_44();
        let mut got = Vec::new();
        for (bit, nonce) in [
            (true, 7u64),
            (false, 7),
            (true, 0xdead_beef_f00d),
            (false, 0xdead_beef_f00d),
        ] {
            let marked = p.embed(&cover, bit, nonce).unwrap();
            assert_eq!(p.extract(&marked, nonce), Some(bit));
            got.push(wmx_crypto::hex::encode(&wmx_crypto::sha256(
                marked.as_bytes(),
            )));
        }
        assert_eq!(
            got,
            [
                "2ba07e40d1c77896b6bcca28ee9ab4b8015893d1a994dcab8a3fb2c3be150d06",
                "0f892b3ad74bf41c56d2e0865e2af4e76683cc4b01050d2c9ca5981c0b0ba43b",
                "e45683e9a3645809b9ff34387dff9a4f6e87dc6550fd8f204b9abcc1dc7b4a0d",
                "92ee679a8982a21a43a9ea13738853c5375f9a981692d0b4cf582ead3e4774dd",
            ]
        );
    }

    #[test]
    fn image_positions_are_pinned_when_draws_collide() {
        // 32 samples over a 40-pixel region: most later draws hit a pixel
        // already taken, so this pins the dedup order, not just the draws.
        let p = ImagePlugin::default();
        let got = p.positions(42, 40);
        assert_eq!(
            got,
            [
                8, 18, 25, 5, 35, 4, 32, 3, 9, 13, 31, 33, 37, 17, 1, 28, 24, 12, 23, 7, 2, 21, 30,
                10, 20, 38, 34, 29, 0, 22, 26, 15
            ]
        );
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32);
        // Every pixel of a region no larger than `samples` is taken.
        let mut all = p.positions(9, 20);
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn plugin_registry_covers_all_types() {
        for dt in [
            DataType::Integer,
            DataType::Decimal,
            DataType::Text,
            DataType::Base64Image,
        ] {
            let _ = plugin_for(dt);
        }
    }
}
