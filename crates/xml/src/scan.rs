//! Byte-slice scanning primitives for the zero-copy lexer.
//!
//! Everything here operates on raw `&[u8]` slices so the hot scan loops
//! in [`crate::lexer`] and [`crate::escape`] never decode UTF-8 just to
//! skip over it. The delimiter hunts ([`memchr`], [`memchr2`],
//! [`memchr3`]) are hand-rolled SWAR loops over `usize` words — no
//! external dependencies — using the carry-free zero-byte test
//! `!((x & !HI) + !HI | x) & HI`, which marks exactly the zero bytes of
//! `x` with no inter-byte borrow, so it is exact for both first-match
//! *and* popcount-style counting.
//!
//! UTF-8 only ever matters at validation boundaries: the lexer consumes
//! whole spans bytewise and then calls [`advance_position`] once per
//! span to restore the line/column bookkeeping the old char-at-a-time
//! loop maintained (columns count *characters*, so multibyte runs are
//! tallied by skipping continuation bytes). The `char`-level helpers at
//! the bottom ([`char_at`], [`prefix_chars`]) exist so the
//! lexer's rare non-ASCII paths can decode a single scalar without the
//! scan files themselves touching `str::chars` — CI denies char
//! iteration there.
//!
//! `ElementScan` puts the searches together into a resumable scan for
//! where an element ends, by counting depth: the pull parser hands
//! whole elements to its caller with it, without lexing them.

const W: usize = std::mem::size_of::<usize>();
/// `0x7F` in every byte lane.
const LO7: usize = usize::from_ne_bytes([0x7F; W]);
/// `0x80` in every byte lane.
const HI: usize = usize::from_ne_bytes([0x80; W]);

#[inline]
fn broadcast(b: u8) -> usize {
    usize::from_ne_bytes([b; W])
}

/// Returns a word whose per-byte high bit is set exactly where the
/// corresponding byte of `x` is zero. Carry-free: each lane is decided
/// independently, so the result is exact everywhere in the word (unlike
/// the classic `(x - LO) & !x & HI`, whose borrows corrupt lanes above
/// the first zero).
#[inline]
fn zero_byte_mask(x: usize) -> usize {
    !(((x & LO7) + LO7) | x) & HI
}

#[inline]
fn load(chunk: &[u8]) -> usize {
    usize::from_le_bytes(chunk.try_into().expect("chunk is word-sized"))
}

/// Byte index of the first match inside a nonzero lane mask. Lane order
/// follows `from_le_bytes`, so the lowest set bit names the earliest
/// byte regardless of host endianness.
#[inline]
fn first_lane(mask: usize) -> usize {
    (mask.trailing_zeros() as usize) / 8
}

/// Finds the first occurrence of `needle` in `hay`.
#[inline]
pub fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
    let n = broadcast(needle);
    let mut chunks = hay.chunks_exact(W);
    let mut base = 0;
    for chunk in &mut chunks {
        let mask = zero_byte_mask(load(chunk) ^ n);
        if mask != 0 {
            return Some(base + first_lane(mask));
        }
        base += W;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|p| base + p)
}

/// Finds the first occurrence of either needle in `hay`.
#[inline]
pub fn memchr2(n1: u8, n2: u8, hay: &[u8]) -> Option<usize> {
    let b1 = broadcast(n1);
    let b2 = broadcast(n2);
    let mut chunks = hay.chunks_exact(W);
    let mut base = 0;
    for chunk in &mut chunks {
        let w = load(chunk);
        let mask = zero_byte_mask(w ^ b1) | zero_byte_mask(w ^ b2);
        if mask != 0 {
            return Some(base + first_lane(mask));
        }
        base += W;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == n1 || b == n2)
        .map(|p| base + p)
}

/// Finds the first occurrence of any of three needles in `hay`.
#[inline]
pub fn memchr3(n1: u8, n2: u8, n3: u8, hay: &[u8]) -> Option<usize> {
    let b1 = broadcast(n1);
    let b2 = broadcast(n2);
    let b3 = broadcast(n3);
    let mut chunks = hay.chunks_exact(W);
    let mut base = 0;
    for chunk in &mut chunks {
        let w = load(chunk);
        let mask = zero_byte_mask(w ^ b1) | zero_byte_mask(w ^ b2) | zero_byte_mask(w ^ b3);
        if mask != 0 {
            return Some(base + first_lane(mask));
        }
        base += W;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == n1 || b == n2 || b == n3)
        .map(|p| base + p)
}

/// Counts occurrences of `needle` in `hay` — SWAR popcount over the
/// exact zero-byte mask, one `count_ones` per word.
#[inline]
pub fn count_byte(needle: u8, hay: &[u8]) -> usize {
    let n = broadcast(needle);
    let mut chunks = hay.chunks_exact(W);
    let mut count = 0usize;
    for chunk in &mut chunks {
        count += zero_byte_mask(load(chunk) ^ n).count_ones() as usize;
    }
    count + chunks.remainder().iter().filter(|&&b| b == needle).count()
}

/// Counts the UTF-8 scalar values in `bytes` (which must be valid
/// UTF-8): total bytes minus continuation bytes, the latter counted by
/// a SWAR test for the `10xxxxxx` bit pattern.
#[inline]
pub fn char_count(bytes: &[u8]) -> usize {
    // A byte is a continuation byte iff (b & 0xC0) == 0x80, i.e. the
    // masked byte XOR 0x80 is zero.
    const C0: usize = usize::from_ne_bytes([0xC0; W]);
    let mut chunks = bytes.chunks_exact(W);
    let mut cont = 0usize;
    for chunk in &mut chunks {
        cont += zero_byte_mask((load(chunk) & C0) ^ HI).count_ones() as usize;
    }
    cont += chunks
        .remainder()
        .iter()
        .filter(|&&b| (b & 0xC0) == 0x80)
        .count();
    bytes.len() - cont
}

/// Advances a 1-based `line`/`column` pair over a consumed span, in one
/// fused SWAR pass (newline count, last-newline tracking, and the
/// character count since it) instead of one update per character.
/// Columns count characters (not bytes), matching the per-`char`
/// bookkeeping the lexer historically did.
#[inline]
pub fn advance_position(bytes: &[u8], line: &mut u32, column: &mut u32) {
    const C0: usize = usize::from_ne_bytes([0xC0; W]);
    const NL: usize = usize::from_ne_bytes([b'\n'; W]);
    const LO: usize = usize::from_ne_bytes([0x01; W]);
    let mut chunks = bytes.chunks_exact(W);
    let mut lines = 0u32;
    // Characters seen since the last newline (the whole span if none).
    let mut col_chars = 0u32;
    let mut saw_nl = false;
    for chunk in &mut chunks {
        let w = load(chunk);
        // Most words are ASCII with no newline: W more characters. The
        // borrowing zero test is exact about whether a zero lane exists
        // (only which lanes it marks can be wrong), and a word with any
        // high bit set takes the exact path below anyway.
        let x = w ^ NL;
        if ((x.wrapping_sub(LO) & !x) | w) & HI == 0 {
            col_chars += W as u32;
            continue;
        }
        let nl_mask = zero_byte_mask(x);
        let cont_mask = zero_byte_mask((w & C0) ^ HI);
        if nl_mask == 0 {
            col_chars += W as u32 - cont_mask.count_ones();
        } else {
            lines += nl_mask.count_ones();
            saw_nl = true;
            // Restart the column count after this word's last newline.
            // Lane order follows `from_le_bytes`: higher lanes (later
            // bytes) sit at higher bit positions, so the highest set
            // bit names the last newline and a right shift isolates
            // the continuation markers of the bytes after it.
            let last = (usize::BITS - 1 - nl_mask.leading_zeros()) as usize / 8;
            let after = W - 1 - last;
            let after_cont = if after == 0 {
                0
            } else {
                (cont_mask >> (8 * (last + 1))).count_ones()
            };
            col_chars = after as u32 - after_cont;
        }
    }
    for &b in chunks.remainder() {
        if b == b'\n' {
            lines += 1;
            saw_nl = true;
            col_chars = 0;
        } else if (b & 0xC0) != 0x80 {
            col_chars += 1;
        }
    }
    *line += lines;
    if saw_nl {
        *column = 1 + col_chars;
    } else {
        *column += col_chars;
    }
}

/// Whether `s` consists entirely of whitespace. ASCII-only inputs (the
/// hot case: indentation between elements) are answered bytewise;
/// the first byte ≥ 0x80 falls back to the full Unicode
/// `char::is_whitespace` test so NBSP and friends keep their old
/// semantics.
#[inline]
pub fn is_all_whitespace(s: &str) -> bool {
    let bytes = s.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            0x09..=0x0D | b' ' => {}
            0x00..=0x7F => return false,
            // First non-ASCII byte is always a lead byte (we scan from
            // the start), so `i` is a char boundary.
            _ => return s[i..].chars().all(char::is_whitespace),
        }
    }
    true
}

/// Whether `b` is one of the ASCII whitespace bytes `char::is_whitespace`
/// accepts (TAB, LF, VT, FF, CR, SPACE).
#[inline]
pub fn is_ascii_whitespace_byte(b: u8) -> bool {
    matches!(b, 0x09..=0x0D | b' ')
}

/// Whether the ASCII byte `b` may start an XML name (`[A-Za-z_:]`).
/// Non-ASCII bytes return false — callers decode and use the `char`
/// predicate for those.
#[inline]
pub fn is_ascii_name_start_byte(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':'
}

/// Whether the ASCII byte `b` may continue an XML name.
#[inline]
pub fn is_ascii_name_byte(b: u8) -> bool {
    is_ascii_name_start_byte(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

/// Decodes the scalar starting at byte offset `i` of `s` (must be a
/// char boundary). Lives here so the lexer's non-ASCII fallbacks can
/// decode one scalar without char-iterating in a scan file.
#[inline]
pub fn char_at(s: &str, i: usize) -> Option<char> {
    s[i..].chars().next()
}

/// The longest prefix of `s` holding at most `n` characters — used for
/// truncating error payloads without char-indexing at the call site.
pub fn prefix_chars(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((end, _)) => &s[..end],
        None => s,
    }
}

/// What the `<` that starts some markup opens.
#[derive(Debug, Clone, Copy)]
enum Markup {
    StartTag,
    EndTag,
    /// A comment, CDATA section or PI: an `open`-byte opener, then
    /// content up to `closer`, which cannot occur inside it.
    Delimited {
        open: usize,
        closer: &'static [u8],
    },
    /// A DOCTYPE declaration (the lexer accepts one anywhere).
    Doctype,
    /// Markup no token starts with: the lexer rejects it.
    Invalid,
}

/// The markups that start with `<!`. A buffer that ends inside one of
/// these openers cannot be classified yet.
const BANG_OPENERS: [(&str, Markup); 4] = [
    (
        "<!--",
        Markup::Delimited {
            open: 4,
            closer: b"-->",
        },
    ),
    (
        "<![CDATA[",
        Markup::Delimited {
            open: 9,
            closer: b"]]>",
        },
    ),
    ("<!DOCTYPE", Markup::Doctype),
    ("<!doctype", Markup::Doctype),
];

/// Classifies the markup `rest` starts with (`rest` starts with `<`), or
/// `None` when `rest` ends before that can be told. Start tags are told
/// by the same name-start test the lexer applies.
fn markup(rest: &str) -> Option<Markup> {
    let markup = match *rest.as_bytes().get(1)? {
        b'/' => Markup::EndTag,
        b'?' => Markup::Delimited {
            open: 2,
            closer: b"?>",
        },
        b'!' => {
            for (opener, markup) in BANG_OPENERS {
                if rest.starts_with(opener) {
                    return Some(markup);
                }
                if opener.starts_with(rest) {
                    return None;
                }
            }
            Markup::Invalid
        }
        b if is_ascii_name_start_byte(b) => Markup::StartTag,
        b if !b.is_ascii() && char_at(rest, 1).is_some_and(crate::lexer::is_name_start) => {
            Markup::StartTag
        }
        _ => Markup::Invalid,
    };
    Some(markup)
}

/// What the next byte an [`ElementScan`] examines is inside of.
#[derive(Debug, Clone, Copy, Default)]
enum Inside {
    /// Whitespace ahead of whatever comes next.
    #[default]
    Lead,
    /// The element's content.
    Content,
    /// A start tag, and the quote of the attribute value it is in.
    StartTag {
        quote: Option<u8>,
    },
    EndTag,
    /// A comment, CDATA section or PI whose content starts at `from`.
    Delimited {
        from: usize,
        closer: &'static [u8],
    },
    /// A DOCTYPE declaration: `depth` angle brackets open, and whether
    /// the scan is inside its `[...]` subset.
    Doctype {
        depth: usize,
        subset: bool,
    },
}

/// What an [`ElementScan`] of the unconsumed input found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Found {
    /// The input ends before the scan can tell.
    NeedMore,
    /// `ws` bytes of whitespace, then an element of `len` bytes.
    Element { ws: usize, len: usize },
    /// `ws` bytes of whitespace to drop, then content for the lexer:
    /// text, a comment, CDATA or PI, an end tag, markup the lexer
    /// rejects, or an element the scan cannot bound.
    Tokens { ws: usize },
}

/// A resumable element-boundary scan over unconsumed input that sits
/// in element content: leading whitespace, then, if an element starts
/// there, its bytes up to the `>` that closes it, found by counting
/// element depth over the SWAR searches above. It builds no token and
/// checks nothing the lexer checks; it only agrees with the lexer on
/// where every construct the lexer accepts ends. Offsets are relative
/// to the start of the input, which must not move until the scan is
/// done, so each byte is examined once however many pushes an element
/// spans.
#[derive(Debug, Default)]
pub(crate) struct ElementScan {
    /// Offset of the next byte to examine.
    at: usize,
    /// Where the element starts, once its start tag is seen.
    start: usize,
    /// Elements open inside it.
    depth: usize,
    inside: Inside,
    /// Bytes the searches examined over the scan's life, restarts
    /// included: a work count showing that resumption is linear.
    examined: u64,
}

impl ElementScan {
    /// Scans `text`, the unconsumed input, on from where the last call
    /// stopped. With `finished` no more input comes, so the scan decides.
    pub(crate) fn step(&mut self, text: &str, finished: bool) -> Found {
        match self.advance(text) {
            Found::NeedMore if finished => Found::Tokens {
                ws: match self.inside {
                    Inside::Lead => self.at,
                    _ => self.start,
                },
            },
            found => found,
        }
    }

    /// The first byte from `at` on that `find` picks out; on a miss the
    /// scan moves to the end of `bytes`.
    fn seek(
        &mut self,
        bytes: &[u8],
        mut find: impl FnMut(&[u8]) -> Option<usize>,
    ) -> Option<usize> {
        let hay = &bytes[self.at..];
        let hit = find(hay);
        self.examined += hit.map_or(hay.len(), |i| i + 1) as u64;
        match hit {
            Some(i) => Some(self.at + i),
            None => {
                self.at = bytes.len();
                None
            }
        }
    }

    fn advance(&mut self, text: &str) -> Found {
        let bytes = text.as_bytes();
        loop {
            match self.inside {
                Inside::Lead => {
                    let not_space = |h: &[u8]| h.iter().position(|&b| !is_ascii_whitespace_byte(b));
                    let Some(i) = self.seek(bytes, not_space) else {
                        return Found::NeedMore;
                    };
                    self.at = i;
                    if bytes[i] != b'<' {
                        // Text, and the whitespace is part of it.
                        return Found::Tokens { ws: 0 };
                    }
                    match markup(&text[i..]) {
                        None => return Found::NeedMore,
                        Some(Markup::StartTag) => {
                            self.start = i;
                            self.inside = Inside::StartTag { quote: None };
                            self.at = i + 1;
                        }
                        Some(_) => return Found::Tokens { ws: i },
                    }
                }
                Inside::Content => {
                    let Some(i) = self.seek(bytes, |h| memchr(b'<', h)) else {
                        return Found::NeedMore;
                    };
                    self.at = i;
                    let (inside, open) = match markup(&text[i..]) {
                        None => return Found::NeedMore,
                        Some(Markup::StartTag) => (Inside::StartTag { quote: None }, 1),
                        Some(Markup::EndTag) => (Inside::EndTag, 2),
                        Some(Markup::Delimited { open, closer }) => {
                            let from = i + open;
                            (Inside::Delimited { from, closer }, open)
                        }
                        Some(Markup::Doctype) => {
                            let open = "<!DOCTYPE".len();
                            (
                                Inside::Doctype {
                                    depth: 1,
                                    subset: false,
                                },
                                open,
                            )
                        }
                        Some(Markup::Invalid) => return Found::Tokens { ws: self.start },
                    };
                    self.inside = inside;
                    self.at = i + open;
                }
                Inside::StartTag { quote: Some(q) } => {
                    let Some(i) = self.seek(bytes, |h| memchr(q, h)) else {
                        return Found::NeedMore;
                    };
                    self.inside = Inside::StartTag { quote: None };
                    self.at = i + 1;
                }
                Inside::StartTag { quote: None } => {
                    let tag_end = |h: &[u8]| memchr3(b'"', b'\'', b'>', h);
                    let Some(i) = self.seek(bytes, tag_end) else {
                        return Found::NeedMore;
                    };
                    self.at = i + 1;
                    if bytes[i] != b'>' {
                        self.inside = Inside::StartTag {
                            quote: Some(bytes[i]),
                        };
                        continue;
                    }
                    // `/>` opens nothing. The tag's `<` precedes, so
                    // `i > 0`, and a `/` there is outside any quote.
                    if bytes[i - 1] != b'/' {
                        self.depth += 1;
                    }
                    if let Some(found) = self.after_tag() {
                        return found;
                    }
                }
                Inside::EndTag => {
                    let Some(i) = self.seek(bytes, |h| memchr(b'>', h)) else {
                        return Found::NeedMore;
                    };
                    self.at = i + 1;
                    self.depth -= 1;
                    if let Some(found) = self.after_tag() {
                        return found;
                    }
                }
                Inside::Delimited { from, closer } => {
                    // Every closer ends in `>`: test the bytes before each.
                    let Some(i) = self.seek(bytes, |h| memchr(b'>', h)) else {
                        return Found::NeedMore;
                    };
                    self.at = i + 1;
                    if self.at >= from + closer.len() && bytes[..self.at].ends_with(closer) {
                        self.inside = Inside::Content;
                    }
                }
                Inside::Doctype { depth, subset } => {
                    // The lexer's DOCTYPE extent: nested angle brackets,
                    // ignored inside the `[...]` subset.
                    let (mut depth, mut subset) = (depth, subset);
                    let end = self.seek(bytes, |h| {
                        h.iter().position(|&b| {
                            match b {
                                b'[' => subset = true,
                                b']' => subset = false,
                                b'<' if !subset => depth += 1,
                                b'>' if !subset => depth -= 1,
                                _ => return false,
                            }
                            depth == 0
                        })
                    });
                    let Some(i) = end else {
                        self.inside = Inside::Doctype { depth, subset };
                        return Found::NeedMore;
                    };
                    self.inside = Inside::Content;
                    self.at = i + 1;
                }
            }
        }
    }

    /// Starts over at a new start of input, after the caller consumed
    /// some.
    pub(crate) fn restart(&mut self) {
        *self = ElementScan {
            examined: self.examined,
            ..ElementScan::default()
        };
    }

    /// Bytes the searches examined over the scan's life.
    pub(crate) fn examined(&self) -> u64 {
        self.examined
    }

    /// After a tag's `>`: the element, if that tag closed it.
    fn after_tag(&mut self) -> Option<Found> {
        if self.depth == 0 {
            return Some(Found::Element {
                ws: self.start,
                len: self.at - self.start,
            });
        }
        self.inside = Inside::Content;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn memchr_matches_naive() {
        let hay = b"abcdefgh<ijklmnopq&rstuvwx\"yz'1234>5678";
        for needle in [b'<', b'&', b'"', b'\'', b'>', b'z', b'!'] {
            assert_eq!(
                memchr(needle, hay),
                hay.iter().position(|&b| b == needle),
                "needle {:?}",
                needle as char
            );
        }
    }

    #[test]
    fn memchr_finds_match_in_every_lane() {
        for len in 0..40 {
            for at in 0..len {
                let mut hay = vec![b'x'; len];
                hay[at] = b'<';
                assert_eq!(memchr(b'<', &hay), Some(at), "len {len} at {at}");
            }
        }
    }

    #[test]
    fn memchr_handles_high_bytes_without_false_positives() {
        // 0x80-adjacent lanes are where inexact SWAR formulas break.
        let hay = [0x80u8, 0xFF, 0x00, 0x7F, 0x81, b'<'];
        assert_eq!(memchr(b'<', &hay), Some(5));
        assert_eq!(memchr(0x00, &hay), Some(2));
        assert_eq!(memchr(0x80, &hay), Some(0));
    }

    #[test]
    fn memchr23_match_naive() {
        let hay = b"no specials here until a quote ' then \" and more text after";
        assert_eq!(
            memchr2(b'"', b'\'', hay),
            hay.iter().position(|&b| b == b'"' || b == b'\'')
        );
        assert_eq!(memchr3(b'<', b'>', b'&', b"plain"), None);
        assert_eq!(memchr3(b'<', b'>', b'&', b"01234567&plain"), Some(8));
    }

    #[test]
    fn count_byte_exact_after_first_match() {
        // Counting must stay exact past the first zero lane.
        let hay = b"\n\nabc\ndef\n\n";
        assert_eq!(count_byte(b'\n', hay), 5);
        assert_eq!(count_byte(b'\n', b""), 0);
        assert_eq!(count_byte(b'x', b"xxxxxxxxxxxxxxxxx"), 17);
    }

    #[test]
    fn char_count_multibyte() {
        for s in ["", "abc", "München", "中文字", "a\u{10348}b", "é"] {
            assert_eq!(char_count(s.as_bytes()), s.chars().count(), "{s:?}");
        }
    }

    #[test]
    fn advance_position_matches_per_char_walk() {
        for s in ["", "abc", "a\nb", "\n\n", "Mü\nnchen – x", "中\n文"] {
            let (mut line, mut column) = (3u32, 7u32);
            advance_position(s.as_bytes(), &mut line, &mut column);
            let (mut rl, mut rc) = (3u32, 7u32);
            for c in s.chars() {
                if c == '\n' {
                    rl += 1;
                    rc = 1;
                } else {
                    rc += 1;
                }
            }
            assert_eq!((line, column), (rl, rc), "{s:?}");
        }
    }

    #[test]
    fn whitespace_checks() {
        assert!(is_all_whitespace(""));
        assert!(is_all_whitespace(" \t\r\n"));
        assert!(is_all_whitespace("\u{a0}\u{2003} ")); // Unicode spaces
        assert!(!is_all_whitespace(" x "));
        assert!(!is_all_whitespace("中"));
    }

    #[test]
    fn prefix_chars_truncates_on_boundaries() {
        assert_eq!(prefix_chars("abcdef", 3), "abc");
        assert_eq!(prefix_chars("ab", 12), "ab");
        assert_eq!(prefix_chars("中文字", 2), "中文");
    }

    fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..64)
    }

    proptest! {
        #[test]
        fn memchr_equals_position(hay in arb_bytes(), needle in any::<u8>()) {
            prop_assert_eq!(memchr(needle, &hay), hay.iter().position(|&b| b == needle));
        }

        #[test]
        fn memchr3_equals_position(hay in arb_bytes()) {
            let (a, b, c) = (b'<', b'&', b'>');
            prop_assert_eq!(
                memchr3(a, b, c, &hay),
                hay.iter().position(|&x| x == a || x == b || x == c)
            );
        }

        #[test]
        fn count_byte_equals_filter(hay in arb_bytes(), needle in any::<u8>()) {
            prop_assert_eq!(count_byte(needle, &hay), hay.iter().filter(|&&b| b == needle).count());
        }

        #[test]
        fn char_count_equals_chars(s in "\\PC*") {
            prop_assert_eq!(char_count(s.as_bytes()), s.chars().count());
        }

        #[test]
        fn advance_position_equals_char_walk(s in "[a\n\t\r\x7f\0 <>üé中]{0,64}", col in 1u32..9) {
            let (mut line, mut column) = (1u32, col);
            advance_position(s.as_bytes(), &mut line, &mut column);
            let (mut rl, mut rc) = (1u32, col);
            for c in s.chars() {
                if c == '\n' {
                    rl += 1;
                    rc = 1;
                } else {
                    rc += 1;
                }
            }
            prop_assert_eq!((line, column), (rl, rc));
        }

        #[test]
        fn is_all_whitespace_equals_chars(s in "[ \\t\\r\\nxé中\\u{a0}]*") {
            prop_assert_eq!(is_all_whitespace(&s), s.chars().all(char::is_whitespace));
        }
    }
}
