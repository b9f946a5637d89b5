//! Golden vectors pinning every keyed PRF output across versions.
//!
//! A watermark published under one version of the crate must stay
//! detectable under every later one, so the selection decision, bit
//! index, whitening bit, value nonce and counter-mode byte stream are
//! frozen here for a grid of keys (empty, a passphrase, and a 100-byte
//! key that takes HMAC's hashed-key path) and unit ids (empty, 26, 64
//! and 200 bytes, so the message spans zero to four SHA-256 blocks).
//! The table was recorded from the straightforward per-call HMAC
//! implementation; any optimisation of the PRF must reproduce it.

use wmx_crypto::{hex_encode, Prf, PrfInput, SecretKey};

fn keys() -> [Vec<u8>; 3] {
    [
        Vec::new(),
        b"vldb-2005".to_vec(),
        (0u8..100)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect(),
    ]
}

fn ids() -> [String; 4] {
    let letters = |len: usize, stride: usize| -> String {
        (0..len)
            .map(|i| char::from(b'a' + ((i * stride) % 26) as u8))
            .collect()
    };
    [
        String::new(),
        letters(26, 1),
        letters(64, 7),
        letters(200, 11),
    ]
}

/// Renders every PRF output for one (key, id) pair on one line:
/// selection at γ = 2, 3, 10; bit index at 24; whitening bit; value
/// nonce; the first 64 stream bytes.
fn render<I: PrfInput + ?Sized>(prf: &Prf, id: &I) -> String {
    let sel: String = [2u32, 3, 10]
        .iter()
        .map(|&g| if prf.is_selected(id, g) { '1' } else { '0' })
        .collect();
    let stream: Vec<u8> = prf.byte_stream(id).take(64).collect();
    format!(
        "{sel} {} {} {:016x} {}",
        prf.bit_index(id, 24),
        u8::from(prf.whiten_bit(id)),
        prf.value_nonce(id),
        hex_encode(&stream)
    )
}

/// One line per (key, id), keys outer, ids inner.
const GOLDEN: [&str; 12] = [
    "010 4 1 bc1acf2d4c2d3f5f 87ca9213b91724485c2a596b42a0859732890b4cac604ab415b3893141e46c88ce54ea9f817f48f0068a52e38802370998d79194b831f87d7113c6d4702c3d7b",
    "111 23 0 9427c2958a15c856 64b26d54cd114f6f76293f8f36506cea6a8039ab1aeb4cdd7aa094c0aa015e5bff64518db0110a124924db2e8d170bd7aba69c1b23322da9bf8ebdff2c2ec3d8",
    "101 9 0 8ae313a195c801cf a7a3268beec7d037e1a96e260db53b743f7687604dede34f4931222d2a02663d2d0d78717faef1f7aa3f108fa22cfe2f7035ee4b8d2497ca4ef7dc69df127c2b",
    "000 6 1 008981ba19825589 4434607228c2591b537b4b17155e705199869061f2d4efa9a2a995edb015473511a27e661556ef5e8528a4ced08e088c9dbfbbaca68ff0a8831c5eb83f23faba",
    "111 2 0 b8349767cbe64e32 c10973502a25d4ecd06067e94ebcdb17bb5c99f35106ae3e265b2949338bd05560e0c32db6a6b39f5afe49fa6681f12e678f9715421668b76eba0c16f930605c",
    "010 20 1 bdd19d896f30dd0f 7461b26c79676e194dc0a55b845d90a1c5531fd59f24c2e445cd3fe3e3594731fa57e196ac11cad1b91a52784fbda1cda28a3ecf2450804339801d0a847167c5",
    "110 10 1 87543b2b890a8117 4019f78b84c14f166533d09282a1f14296fa9f0eeb7ad57b15b3324663451eeaf9642db83228a84ca47fedbe3cd6034bcc3f3abff53f559b4d7596fb85761082",
    "100 4 1 e6bb6a59b1f54256 e8c45487bfdc7bb12f3b806eb1e75d837975e13795ed47b89e337ae63191e69fd379f51b289062bec7ba2691fe51c5545bee228e9165ced30a7c8a93933ea110",
    "110 18 1 34e90e975a1b0ee7 2fee1218eda1c41e960d2704d445077139f7a28421ff382378f0469ed10cea5965d3603c5a669e03c357d4a5acb707266b45bd6a294b1c6d8ed7fb81ecf18280",
    "110 8 0 2b84e78a255fb6d9 7676ee291adb2dbf04e9092bb97a5d56c96d6845aeddea3156e01b12ce99e39ee583d38d863605c4c151fe5c09e7e5842c4274a52b78ba003fcfd8611a9a9b91",
    "000 15 1 a6189213488bcc82 34455781d027eba00f5d72557fee3f367d5727904eecbb8e399b36e5addb73673cef7bda4919541067dab48157bfd971c9231cfb95fa3a28ced3a71a0f2636d5",
    "110 0 1 0983152ebbcaee19 bf5dbd50822b0666fc82ff49711edbeda15ad586b2a6689b5bfde435284bd1449f9ad95f47f6ddc8fbe9762e18af09eed85fdd6a0abc67f1cfe450c4784e4faa",
];

fn all_lines(prfs: &[Prf]) -> Vec<String> {
    let ids = ids();
    prfs.iter()
        .flat_map(|prf| ids.iter().map(move |id| render(prf, id.as_str())))
        .collect()
}

fn prfs() -> Vec<Prf> {
    keys()
        .into_iter()
        .map(|k| Prf::new(SecretKey::new(k)))
        .collect()
}

#[test]
fn prf_outputs_match_golden_vectors() {
    assert_eq!(all_lines(&prfs()), GOLDEN);
}

/// Feeds an id one byte at a time, the way a composite unit key feeds
/// its parts: the MAC is over the byte stream, not over the chunking.
struct Bytewise<'a>(&'a [u8]);

impl PrfInput for Bytewise<'_> {
    fn feed(&self, mac: &mut wmx_crypto::HmacSha256) {
        for b in self.0 {
            mac.update(std::slice::from_ref(b));
        }
    }
}

#[test]
fn chunked_input_matches_golden_vectors() {
    let ids = ids();
    let lines: Vec<String> = prfs()
        .iter()
        .flat_map(|prf| {
            ids.iter()
                .map(move |id| render(prf, &Bytewise(id.as_bytes())))
        })
        .collect();
    assert_eq!(lines, GOLDEN);
}

#[test]
fn clone_on_another_thread_matches_golden_vectors() {
    let prfs = prfs();
    let cloned = prfs.clone();
    let lines = std::thread::spawn(move || all_lines(&cloned))
        .join()
        .expect("worker thread");
    assert_eq!(lines, GOLDEN);
    // The original is still usable after the clone moved away.
    assert_eq!(all_lines(&prfs), GOLDEN);
}

/// Longest run of characters satisfying `pred` in `s`.
fn longest_run(s: &str, pred: impl Fn(char) -> bool) -> usize {
    s.split(|c: char| !pred(c)).map(str::len).max().unwrap_or(0)
}

#[test]
fn debug_prints_neither_key_nor_keyed_state() {
    for (key, prf) in keys().iter().zip(prfs()) {
        let dbg = format!("{prf:?}");
        assert!(dbg.starts_with("Prf"), "{dbg}");
        if !key.is_empty() {
            assert!(
                !dbg.contains(&String::from_utf8_lossy(key).into_owned()),
                "{dbg}"
            );
            assert!(!dbg.contains(&hex_encode(key)), "{dbg}");
        }
        // A keyed SHA-256 midstate is eight 32-bit words; rendered in
        // decimal or hex, any of them is a long digit run.
        assert!(longest_run(&dbg, |c| c.is_ascii_digit()) < 5, "{dbg}");
        assert!(longest_run(&dbg, |c| c.is_ascii_hexdigit()) < 8, "{dbg}");
    }
}
