//! The keyed pseudo-random function that drives watermark decisions.
//!
//! Every watermarkable unit in a document has a stable textual identity
//! (derived from keys and functional dependencies — see
//! `wmx-core::identifier`). For a secret key `K`, the encoder and decoder
//! must *independently* and *deterministically* agree on:
//!
//! 1. whether the unit is selected to carry a mark (one in γ units is,
//!    following the Agrawal–Kiernan selection discipline the paper cites);
//! 2. which bit index of the multi-bit watermark the unit carries;
//! 3. an unbounded stream of keyed pseudo-random bytes used by the
//!    embedding plug-ins (e.g. which low-order digit to perturb).
//!
//! All three are derived from `HMAC(K, domain || unit-id)` with distinct
//! domain-separation tags, so that e.g. the selection decision and the
//! bit-index assignment are statistically independent.

use crate::hmac::HmacSha256;
use crate::sha256::DIGEST_LEN;
use std::fmt;

/// A watermarking secret key.
///
/// Wraps arbitrary bytes; in the demo the user types a passphrase. The
/// wrapper exists so keys do not get confused with other byte-strings in
/// APIs, and so `Debug` does not leak the key material into logs.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SecretKey(Vec<u8>);

impl SecretKey {
    /// Creates a key from raw bytes.
    pub fn new(bytes: impl Into<Vec<u8>>) -> Self {
        SecretKey(bytes.into())
    }

    /// Creates a key from a passphrase string.
    pub fn from_passphrase(passphrase: &str) -> Self {
        SecretKey(passphrase.as_bytes().to_vec())
    }

    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecretKey(<{} bytes>)", self.0.len())
    }
}

impl From<&str> for SecretKey {
    fn from(s: &str) -> Self {
        SecretKey::from_passphrase(s)
    }
}

/// Domain-separation tags for the PRF uses.
const DOMAIN_SELECT: &[u8] = b"wmxml/select/v1";
const DOMAIN_BIT_INDEX: &[u8] = b"wmxml/bit-index/v1";
const DOMAIN_STREAM: &[u8] = b"wmxml/stream/v1";
const DOMAIN_VALUE: &[u8] = b"wmxml/value/v1";
const DOMAIN_WHITEN: &[u8] = b"wmxml/whiten/v1";

/// A unit identity that can feed its bytes into an HMAC incrementally.
///
/// The PRF is defined over the unit id's *bytes*, not over any
/// particular container: a composite key (entity symbol, key value,
/// attribute symbol) that feeds the same byte sequence as its textual
/// rendering produces the same MAC as the rendered `String` — without
/// ever materializing it. That is the contract the symbol-native
/// selection pipeline in `wmx-core` relies on: `&str` unit ids (the
/// persisted form in safeguarded query files) and compact `UnitKey`s
/// (the in-memory form on the embed/detect hot path) are
/// interchangeable PRF inputs as long as their byte streams agree.
pub trait PrfInput {
    /// Feeds the identity's bytes into `mac`, in order.
    fn feed(&self, mac: &mut HmacSha256);
}

impl PrfInput for str {
    fn feed(&self, mac: &mut HmacSha256) {
        mac.update(self.as_bytes());
    }
}

impl PrfInput for [u8] {
    fn feed(&self, mac: &mut HmacSha256) {
        mac.update(self);
    }
}

impl PrfInput for String {
    fn feed(&self, mac: &mut HmacSha256) {
        mac.update(self.as_bytes());
    }
}

impl<T: PrfInput + ?Sized> PrfInput for &T {
    fn feed(&self, mac: &mut HmacSha256) {
        (**self).feed(mac);
    }
}

/// Keyed PRF bound to one secret key.
///
/// The HMAC context is keyed once, here, and cloned per call: every
/// decision then costs the message blocks and one outer block instead
/// of re-absorbing both pad blocks. The keyed context is as secret as
/// the key, so `Debug` prints neither.
#[derive(Clone)]
pub struct Prf {
    key: SecretKey,
    keyed: HmacSha256,
}

impl fmt::Debug for Prf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Prf")
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

impl Prf {
    /// Creates the PRF for `key`.
    pub fn new(key: SecretKey) -> Self {
        let keyed = HmacSha256::new(key.as_bytes());
        Prf { key, keyed }
    }

    /// The underlying secret key.
    pub fn key(&self) -> &SecretKey {
        &self.key
    }

    fn mac<I: PrfInput + ?Sized>(&self, domain: &[u8], unit_id: &I) -> [u8; DIGEST_LEN] {
        let mut mac = self.keyed.clone();
        mac.update(domain);
        mac.update(&[0u8]);
        unit_id.feed(&mut mac);
        mac.finalize()
    }

    fn mac_u64<I: PrfInput + ?Sized>(&self, domain: &[u8], unit_id: &I) -> u64 {
        let digest = self.mac(domain, unit_id);
        u64::from_be_bytes(digest[..8].try_into().expect("digest >= 8 bytes"))
    }

    /// Selection decision: is the unit identified by `unit_id` selected
    /// when one in `gamma` units should carry a mark?
    ///
    /// `gamma == 0` is treated as "select nothing"; `gamma == 1` selects
    /// every unit.
    pub fn is_selected<I: PrfInput + ?Sized>(&self, unit_id: &I, gamma: u32) -> bool {
        if gamma == 0 {
            return false;
        }
        self.mac_u64(DOMAIN_SELECT, unit_id)
            .is_multiple_of(u64::from(gamma))
    }

    /// The watermark bit index (in `0..wm_len`) carried by the unit.
    ///
    /// # Panics
    /// Panics if `wm_len == 0`; a zero-length watermark cannot be embedded.
    pub fn bit_index<I: PrfInput + ?Sized>(&self, unit_id: &I, wm_len: usize) -> usize {
        assert!(wm_len > 0, "watermark length must be positive");
        (self.mac_u64(DOMAIN_BIT_INDEX, unit_id) % wm_len as u64) as usize
    }

    /// A keyed pseudo-random `u64` used by embedding plug-ins to vary
    /// *how* a mark is written into a value (e.g. perturbation direction).
    pub fn value_nonce<I: PrfInput + ?Sized>(&self, unit_id: &I) -> u64 {
        self.mac_u64(DOMAIN_VALUE, unit_id)
    }

    /// The whitening bit for a unit. The encoder embeds
    /// `watermark_bit XOR whiten_bit`, so the physically stored bit
    /// stream is balanced and key-dependent even when the watermark
    /// itself is biased; without this, a heavily biased watermark would
    /// let *wrong* keys reach match fractions near the bias (the
    /// majority-vote degeneracy).
    pub fn whiten_bit<I: PrfInput + ?Sized>(&self, unit_id: &I) -> bool {
        self.mac_u64(DOMAIN_WHITEN, unit_id) & 1 == 1
    }

    /// An iterator of keyed pseudo-random bytes for `unit_id`, generated
    /// in counter mode: `HMAC(K, stream-domain || unit-id || counter)`.
    pub fn byte_stream<'a, I: PrfInput + ?Sized>(&'a self, unit_id: &'a I) -> PrfStream<'a, I> {
        PrfStream {
            prf: self,
            unit_id,
            counter: 0,
            block: [0u8; DIGEST_LEN],
            pos: DIGEST_LEN,
        }
    }
}

/// Counter-mode byte stream produced by [`Prf::byte_stream`].
pub struct PrfStream<'a, I: PrfInput + ?Sized = str> {
    prf: &'a Prf,
    unit_id: &'a I,
    counter: u64,
    block: [u8; DIGEST_LEN],
    pos: usize,
}

impl<I: PrfInput + ?Sized> PrfStream<'_, I> {
    fn refill(&mut self) {
        let mut mac = self.prf.keyed.clone();
        mac.update(DOMAIN_STREAM);
        mac.update(&[0u8]);
        self.unit_id.feed(&mut mac);
        mac.update(&[0u8]);
        mac.update(&self.counter.to_be_bytes());
        self.block = mac.finalize();
        self.counter += 1;
        self.pos = 0;
    }
}

impl<I: PrfInput + ?Sized> Iterator for PrfStream<'_, I> {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        if self.pos >= DIGEST_LEN {
            self.refill();
        }
        let b = self.block[self.pos];
        self.pos += 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prf() -> Prf {
        Prf::new(SecretKey::from_passphrase("vldb-2005"))
    }

    #[test]
    fn selection_is_deterministic() {
        let p = prf();
        for id in ["book:DB Design", "book:Readings", "job:1234"] {
            assert_eq!(p.is_selected(id, 10), p.is_selected(id, 10));
        }
    }

    #[test]
    fn selection_rate_approximates_one_over_gamma() {
        let p = prf();
        for gamma in [2u32, 5, 10] {
            let n = 20_000;
            let selected = (0..n)
                .filter(|i| p.is_selected(&format!("unit-{i}"), gamma))
                .count();
            let expect = n as f64 / f64::from(gamma);
            let sd = (n as f64 * (1.0 / f64::from(gamma)) * (1.0 - 1.0 / f64::from(gamma))).sqrt();
            let delta = (selected as f64 - expect).abs();
            assert!(
                delta < 5.0 * sd,
                "gamma {gamma}: selected {selected}, expected {expect} ± {sd}"
            );
        }
    }

    #[test]
    fn gamma_edge_cases() {
        let p = prf();
        assert!(!p.is_selected("x", 0));
        assert!(p.is_selected("x", 1));
    }

    #[test]
    fn bit_index_in_range_and_roughly_uniform() {
        let p = prf();
        let wm_len = 8;
        let mut counts = vec![0usize; wm_len];
        let n = 16_000;
        for i in 0..n {
            let idx = p.bit_index(&format!("unit-{i}"), wm_len);
            counts[idx] += 1;
        }
        let expect = n as f64 / wm_len as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < expect * 0.2,
                "bit {i} count {c} far from {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "watermark length must be positive")]
    fn bit_index_rejects_empty_watermark() {
        prf().bit_index("x", 0);
    }

    #[test]
    fn different_keys_disagree() {
        let p1 = Prf::new(SecretKey::from_passphrase("k1"));
        let p2 = Prf::new(SecretKey::from_passphrase("k2"));
        let disagreements = (0..1000)
            .filter(|i| {
                let id = format!("unit-{i}");
                p1.is_selected(&id, 2) != p2.is_selected(&id, 2)
            })
            .count();
        // Two independent fair coins disagree half the time.
        assert!(disagreements > 350 && disagreements < 650);
    }

    #[test]
    fn domains_are_separated() {
        let p = prf();
        // The select decision and bit index for the same id must come from
        // different MACs; check that they are not trivially correlated by
        // ensuring the raw MACs differ.
        let a = p.mac(super::DOMAIN_SELECT, "id");
        let b = p.mac(super::DOMAIN_BIT_INDEX, "id");
        let c = p.mac(super::DOMAIN_VALUE, "id");
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn byte_stream_is_deterministic_and_long() {
        let p = prf();
        let a: Vec<u8> = p.byte_stream("unit").take(100).collect();
        let b: Vec<u8> = p.byte_stream("unit").take(100).collect();
        assert_eq!(a, b);
        let c: Vec<u8> = p.byte_stream("other-unit").take(100).collect();
        assert_ne!(a, c);
        // Stream crosses block boundaries (32-byte HMAC blocks).
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let k = SecretKey::from_passphrase("hunter2");
        let dbg = format!("{k:?}");
        assert!(!dbg.contains("hunter2"));
    }
}
