//! The `WMIMG` raster payload: a minimal grayscale image format for the
//! image watermarking plug-in.
//!
//! Layout (before base64): `WMIMG;<width>;<height>;` followed by
//! `width × height` raw gray bytes, row-major. The header is ASCII so a
//! schema validator can recognize payloads, and the pixel region is
//! byte-addressable for LSB embedding.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wmx_crypto::base64;

/// A decoded grayscale raster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Row-major gray bytes (`width * height` of them).
    pub pixels: Vec<u8>,
}

impl GrayImage {
    /// Synthesizes a deterministic cover image: a diagonal gradient with
    /// seeded speckle noise (so LSBs start out varied, like photographs).
    pub fn synthetic(width: u32, height: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pixels = Vec::with_capacity((width * height) as usize);
        for y in 0..height {
            for x in 0..width {
                let base = ((x + y) * 255 / (width + height).max(1)) as u8;
                let noise: i16 = rng.random_range(-12..=12);
                pixels.push((i16::from(base) + noise).clamp(0, 255) as u8);
            }
        }
        GrayImage {
            width,
            height,
            pixels,
        }
    }

    /// Encodes to the base64 `WMIMG` payload.
    pub fn to_payload(&self) -> String {
        let mut data = format!("WMIMG;{};{};", self.width, self.height).into_bytes();
        data.extend_from_slice(&self.pixels);
        base64::encode(&data)
    }

    /// Decodes a base64 `WMIMG` payload.
    pub fn from_payload(payload: &str) -> Option<Self> {
        let data = base64::decode(payload).ok()?;
        let text = &data;
        if !text.starts_with(b"WMIMG;") {
            return None;
        }
        // Parse WMIMG;<w>;<h>;
        let mut parts = text.splitn(4, |&b| b == b';');
        parts.next()?; // magic
        let width: u32 = std::str::from_utf8(parts.next()?).ok()?.parse().ok()?;
        let height: u32 = std::str::from_utf8(parts.next()?).ok()?.parse().ok()?;
        let pixels = parts.next()?.to_vec();
        if pixels.len() != (width as usize) * (height as usize) {
            return None;
        }
        Some(GrayImage {
            width,
            height,
            pixels,
        })
    }

    /// Peak signal-to-noise ratio against another image of the same
    /// dimensions (∞ for identical images). Used by experiments to show
    /// image marks are imperceptible.
    pub fn psnr(&self, other: &GrayImage) -> Option<f64> {
        if self.width != other.width || self.height != other.height {
            return None;
        }
        let mse: f64 = self
            .pixels
            .iter()
            .zip(&other.pixels)
            .map(|(a, b)| {
                let d = f64::from(*a) - f64::from(*b);
                d * d
            })
            .sum::<f64>()
            / self.pixels.len() as f64;
        if mse == 0.0 {
            return Some(f64::INFINITY);
        }
        Some(10.0 * (255.0f64 * 255.0 / mse).log10())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip() {
        let img = GrayImage::synthetic(16, 12, 42);
        let payload = img.to_payload();
        let back = GrayImage::from_payload(&payload).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn synthesis_is_deterministic() {
        assert_eq!(
            GrayImage::synthetic(8, 8, 1).pixels,
            GrayImage::synthetic(8, 8, 1).pixels
        );
        assert_ne!(
            GrayImage::synthetic(8, 8, 1).pixels,
            GrayImage::synthetic(8, 8, 2).pixels
        );
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert!(GrayImage::from_payload("!!!").is_none());
        assert!(GrayImage::from_payload(&base64::encode(b"PNG...")).is_none());
        // Wrong pixel count.
        assert!(GrayImage::from_payload(&base64::encode(b"WMIMG;4;4;abc")).is_none());
    }

    #[test]
    fn psnr_behaviour() {
        let a = GrayImage::synthetic(16, 16, 7);
        assert_eq!(a.psnr(&a), Some(f64::INFINITY));
        let mut b = a.clone();
        for p in b.pixels.iter_mut() {
            *p ^= 1; // flip every LSB: worst-case LSB damage
        }
        let psnr = a.psnr(&b).unwrap();
        assert!(
            psnr > 45.0,
            "LSB-only damage should keep PSNR high, got {psnr}"
        );
        let c = GrayImage::synthetic(8, 8, 7);
        assert_eq!(a.psnr(&c), None);
    }

    #[test]
    fn image_plugin_output_on_synthetic_cover_is_pinned() {
        // SHA-256 of the image plug-in's marked payload on the 44×44
        // cover size the library dataset uses, for both bits and two
        // nonces. Recorded from the original sampler; a change here
        // means published image marks no longer read back.
        use wmx_core::embed::{EmbedAlgorithm, ImagePlugin};
        let cover = GrayImage::synthetic(44, 44, 2005).to_payload();
        let plugin = ImagePlugin::default();
        let mut got = Vec::new();
        for (bit, nonce) in [
            (true, 7u64),
            (false, 7),
            (true, 0xdead_beef_f00d),
            (false, 0xdead_beef_f00d),
        ] {
            let marked = plugin.embed(&cover, bit, nonce).unwrap();
            got.push(wmx_crypto::hex::encode(&wmx_crypto::sha256(
                marked.as_bytes(),
            )));
        }
        assert_eq!(
            got,
            [
                "397aec973fae784eee51bd4985641915ff9a962e364b8e3db76334b295ddc642",
                "08b23b72244e510fd628517ed2990e8381866fd32def747793374828932e033c",
                "b751122f33154880e5579e3c4ed9be960953a82206b207b8f0782e7fb051c42d",
                "1ace9939f105ea12ef5e7ff04c33a0ce1a180f9192f3cbbfb4980d8023993df1",
            ]
        );
    }

    #[test]
    fn image_plugin_compatibility() {
        // The payload format must be accepted by the core image plug-in.
        use wmx_core::embed::{EmbedAlgorithm, ImagePlugin};
        let img = GrayImage::synthetic(24, 24, 3);
        let plugin = ImagePlugin::default();
        let marked = plugin.embed(&img.to_payload(), true, 99).unwrap();
        assert_eq!(plugin.extract(&marked, 99), Some(true));
        let decoded = GrayImage::from_payload(&marked).unwrap();
        assert_eq!(decoded.width, 24);
        let psnr = img.psnr(&decoded).unwrap();
        assert!(psnr > 45.0);
    }
}
