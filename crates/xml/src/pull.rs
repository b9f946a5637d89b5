//! Resumable pull-based token stream.
//!
//! [`PullParser`] wraps the [lexer](crate::lexer) behind a push/pull
//! interface: callers *push* input chunks of any size (`push_str`) and
//! *pull* complete tokens (`next`). When the buffered input ends in the
//! middle of a token the parser answers [`Pulled::NeedMore`] instead of
//! failing, and lexing resumes exactly where it stopped once more input
//! arrives — no token is ever split or re-ordered relative to lexing the
//! whole document at once. This is the substrate of the `wmx-stream`
//! single-pass engine, which must tokenize documents larger than memory.
//!
//! Consumed input is discarded incrementally (amortized compaction), so
//! memory use is bounded by the unconsumed input plus one compaction
//! window — not by the document size.
//!
//! A caller that wants whole elements rather than their tokens (the
//! `wmx-stream` record splitter) asks [`PullParser::scan_element`]: it
//! finds where the element at the parser's position ends with a byte
//! scan that builds no token, keeps its place across pushes, and hands
//! the element's raw text over with its line and column, keeping the
//! parser's position exact.
//!
//! # Example
//!
//! ```
//! use wmx_xml::pull::{PullParser, Pulled};
//! use wmx_xml::token::Token;
//!
//! let mut pull = PullParser::new();
//! pull.push_str("<a>hel");
//! let tok = match pull.next().unwrap() {
//!     Pulled::Token(t) => t.token,
//!     other => panic!("expected a token, got {other:?}"),
//! };
//! assert!(matches!(tok, Token::StartTag { .. }));
//! // "hel" may continue in the next chunk: the parser waits.
//! assert!(matches!(pull.next().unwrap(), Pulled::NeedMore));
//! pull.push_str("lo</a>");
//! pull.finish();
//! assert!(matches!(
//!     pull.next().unwrap(),
//!     Pulled::Token(t) if t.token == Token::Text { content: "hello".into() }
//! ));
//! ```

use crate::error::{Position, XmlError, XmlErrorKind};
use crate::intern::Interner;
use crate::lexer::Lexer;
use crate::scan::{ElementScan, Found};
use crate::token::{SpannedToken, Token};

/// Consumed bytes are dropped from the front of the buffer once at least
/// this many are reclaimable (amortizes the memmove).
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Markup openers long enough that a buffer ending mid-opener would
/// otherwise mislex (e.g. `"<!-"` is not yet distinguishable from a
/// comment or a DOCTYPE).
const MARKUP_OPENERS: &[&str] = &["<!--", "<![CDATA[", "<!DOCTYPE", "<!doctype"];

/// The fixed closing delimiter of a construct whose content cannot
/// contain it (so "delimiter present" ⇔ "token complete"). Tags and
/// DOCTYPEs are excluded: their `>` may legally occur earlier (inside a
/// quoted attribute value or an internal subset).
fn unambiguous_closer(rest: &str) -> Option<&'static str> {
    if rest.starts_with("<!--") {
        Some("-->")
    } else if rest.starts_with("<![CDATA[") {
        Some("]]>")
    } else if rest.starts_with("<?") {
        Some("?>")
    } else {
        None
    }
}

/// One pull outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pulled {
    /// A complete token (with its stream position).
    Token(SpannedToken),
    /// The buffered input ends mid-token; push more input (or call
    /// [`PullParser::finish`]) and pull again.
    NeedMore,
    /// All input was consumed and [`PullParser::finish`] was called.
    End,
}

/// What [`PullParser::scan_element`] found at the parser's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scanned<'a> {
    /// The buffered input ends before the scan can tell: push more input
    /// (or finish) and scan again. The scan resumes where it stopped.
    NeedMore,
    /// An element, consumed without lexing, after any whitespace before
    /// it was dropped: its raw text and where it starts in the input.
    Element {
        /// The element's bytes, from its `<` to the `>` that closes it.
        text: &'a str,
        /// Line and column of its `<`.
        at: Position,
    },
    /// Pull what comes next with [`PullParser::next`]: no element starts
    /// here, or one the scan cannot bound starts here (it holds markup no
    /// token starts with, or the input ends inside it), whose tokens lead
    /// to the lexer's error. Whitespace before markup was dropped; before
    /// a text run it is part of the text.
    Tokens,
}

/// A resumable, incrementally-fed XML tokenizer.
#[derive(Debug)]
pub struct PullParser {
    /// Unconsumed tail of the stream, after consumed bytes not yet
    /// compacted away.
    buf: String,
    /// Stream offset of `buf[0]`.
    base: u64,
    /// Consumed offset within `buf`.
    pos: usize,
    line: u32,
    column: u32,
    finished: bool,
    /// Bytes past `pos` already probed for the current incomplete
    /// token's terminator. Makes repeated NeedMore→push→retry cycles on
    /// one large token scan only the newly pushed bytes (linear total)
    /// instead of re-scanning the whole run each time.
    probed: usize,
    /// Name table shared by every resumed lexing step, so the symbols in
    /// pulled tokens stay stable across chunk boundaries.
    interner: Interner,
    /// The element scan in progress at `pos`, kept across pushes.
    scan: ElementScan,
    /// Accumulated lexer span counters for *accepted* tokens (rolled-back
    /// NeedMore attempts are excluded); flushed to telemetry on drop.
    spans_zero_copy: u64,
    spans_materialized: u64,
}

impl Drop for PullParser {
    fn drop(&mut self) {
        crate::lexer::record_span_stats(self.spans_zero_copy, self.spans_materialized);
    }
}

impl Default for PullParser {
    fn default() -> Self {
        PullParser::new()
    }
}

impl PullParser {
    /// Creates an empty parser; push input with [`PullParser::push_str`].
    pub fn new() -> Self {
        PullParser {
            buf: String::new(),
            base: 0,
            pos: 0,
            line: 1,
            column: 1,
            finished: false,
            probed: 0,
            interner: Interner::new(),
            scan: ElementScan::default(),
            spans_zero_copy: 0,
            spans_materialized: 0,
        }
    }

    /// The name table the pulled tokens' symbols point into.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Creates a parser over a complete input (pushed and finished).
    /// Offsets reported by [`PullParser::stream_offset`] then index
    /// directly into `input` (one-shot parsers never compact).
    pub fn from_complete(input: &str) -> Self {
        let mut pull = PullParser::new();
        pull.buf.push_str(input);
        pull.finish();
        pull
    }

    /// Appends the next input chunk. Chunks may split tokens anywhere —
    /// only UTF-8 character boundaries must be respected (which `&str`
    /// guarantees by construction).
    ///
    /// # Panics
    /// Panics if called after [`PullParser::finish`].
    pub fn push_str(&mut self, chunk: &str) {
        assert!(!self.finished, "push_str after finish");
        self.compact();
        self.buf.push_str(chunk);
    }

    /// Declares end of input: pending `NeedMore` states become either
    /// final tokens or real errors on the next pull.
    pub fn finish(&mut self) {
        self.finished = true;
    }

    /// Stream offset (bytes since the start of input) of the next
    /// unconsumed character — i.e. where the next token will start.
    pub fn stream_offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    fn position(&self) -> Position {
        Position {
            line: self.line,
            column: self.column,
        }
    }

    /// Consumes the next `len` bytes without lexing them, keeping line
    /// and column exact, and returns them. `len` always ends on an ASCII
    /// delimiter the scan found.
    fn skip_raw(&mut self, len: usize) -> &str {
        let start = self.pos;
        self.pos += len;
        self.probed = 0;
        self.scan.restart();
        let skipped = &self.buf[start..self.pos];
        crate::scan::advance_position(skipped.as_bytes(), &mut self.line, &mut self.column);
        skipped
    }

    /// Reads the element at the parser's position whole, for a caller
    /// that handles an element's bytes itself: the scan finds where the
    /// element ends without building tokens, so the caller's own parse
    /// of those bytes is their only lex. The parser must be in element
    /// content. See [`Scanned`] for the outcomes.
    pub fn scan_element(&mut self) -> Scanned<'_> {
        match self.scan.step(&self.buf[self.pos..], self.finished) {
            Found::NeedMore => Scanned::NeedMore,
            Found::Element { ws, len } => {
                self.skip_raw(ws);
                let at = self.position();
                let text = self.skip_raw(len);
                Scanned::Element { text, at }
            }
            // The scan keeps its place until something is consumed.
            Found::Tokens { ws: 0 } => Scanned::Tokens,
            Found::Tokens { ws } => {
                self.skip_raw(ws);
                Scanned::Tokens
            }
        }
    }

    /// Bytes [`PullParser::scan_element`] has examined so far: a work
    /// count that grows with the input scanned, not with the number of
    /// pushes an element spans.
    pub fn scanned_bytes(&self) -> u64 {
        self.scan.examined()
    }

    /// Drops consumed bytes once enough have piled up. Unconsumed bytes
    /// always stay, so the element scan keeps its offsets across pushes.
    fn compact(&mut self) {
        if self.pos >= COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.base += self.pos as u64;
            self.pos = 0;
        }
    }

    /// Pulls the next token.
    ///
    /// Returns [`Pulled::NeedMore`] when the remaining buffer could be a
    /// prefix of a longer token (text that may continue, markup whose
    /// closing delimiter has not arrived). After [`PullParser::finish`],
    /// the same states resolve to tokens, [`Pulled::End`], or the same
    /// errors batch lexing would report.
    // Not `Iterator::next`: pulling is fallible and three-valued
    // (token / need-more / end), which `Option<Item>` cannot express.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Pulled, XmlError> {
        let rest = &self.buf[self.pos..];
        if rest.is_empty() {
            return Ok(if self.finished {
                Pulled::End
            } else {
                Pulled::NeedMore
            });
        }
        if !self.finished {
            if !rest.starts_with('<') {
                // A text run is only complete once the next '<' arrives:
                // both its extent and any trailing `&...;` reference may
                // continue in the next chunk. Only bytes that arrived
                // since the last probe need scanning.
                if !rest[self.probed..].contains('<') {
                    self.probed = rest.len();
                    return Ok(Pulled::NeedMore);
                }
                self.probed = 0;
            } else if MARKUP_OPENERS
                .iter()
                .any(|opener| opener.len() > rest.len() && opener.starts_with(rest))
            {
                // E.g. "<!-" — not yet distinguishable from "<!--" vs
                // "<!DOCTYPE"; lexing now would misparse.
                return Ok(Pulled::NeedMore);
            } else if let Some(delim) = unambiguous_closer(rest) {
                // Comments/CDATA/PIs end at a fixed delimiter that
                // cannot occur earlier in their content: don't re-lex
                // (and re-scan) the whole construct on every chunk —
                // probe only the newly arrived bytes for the closer.
                let mut from = self.probed.saturating_sub(delim.len() - 1);
                while !rest.is_char_boundary(from) {
                    from -= 1;
                }
                if !rest[from..].contains(delim) {
                    self.probed = rest.len();
                    return Ok(Pulled::NeedMore);
                }
                self.probed = 0;
            }
        }
        // Names interned while lexing a token that turns out to be
        // incomplete must be rolled back, or a truncated tag name would
        // occupy a symbol and chunked/batch lexing would diverge.
        let checkpoint = self.interner.len();
        let mut lexer = Lexer::with_position(rest, self.line, self.column);
        lexer.set_interner(std::mem::take(&mut self.interner));
        let outcome = lexer.next_token();
        self.interner = lexer.take_interner();
        match outcome {
            Ok(Some(spanned)) => {
                let consumed = lexer.byte_offset();
                if !self.finished
                    && consumed == rest.len()
                    && matches!(spanned.token, Token::Text { .. })
                {
                    // The text ran to the end of the buffer; it may
                    // continue in the next chunk.
                    return Ok(Pulled::NeedMore);
                }
                let (zero_copy, materialized) = lexer.span_stats();
                self.spans_zero_copy += zero_copy;
                self.spans_materialized += materialized;
                self.pos += consumed;
                self.probed = 0;
                self.scan.restart();
                let after = lexer.position();
                self.line = after.line;
                self.column = after.column;
                Ok(Pulled::Token(spanned))
            }
            Ok(None) => Ok(if self.finished {
                Pulled::End
            } else {
                Pulled::NeedMore
            }),
            Err(e) if !self.finished && matches!(e.kind, XmlErrorKind::UnexpectedEof { .. }) => {
                self.interner.truncate(checkpoint);
                Ok(Pulled::NeedMore)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    /// Pulls every token, pushing `input` in `chunk`-byte pieces
    /// (respecting UTF-8 boundaries) as NeedMore demands.
    fn pull_chunked(input: &str, chunk: usize) -> Result<Vec<Token>, XmlError> {
        let mut pull = PullParser::new();
        let mut out = Vec::new();
        let mut fed = 0usize;
        loop {
            match pull.next()? {
                Pulled::Token(t) => out.push(t.token),
                Pulled::End => return Ok(out),
                Pulled::NeedMore => {
                    if fed >= input.len() {
                        pull.finish();
                        continue;
                    }
                    let mut end = (fed + chunk).min(input.len());
                    while !input.is_char_boundary(end) {
                        end += 1;
                    }
                    pull.push_str(&input[fed..end]);
                    fed = end;
                }
            }
        }
    }

    const TRICKY: &str = "<?xml version=\"1.0\"?><!DOCTYPE db [<!ELEMENT db (#PCDATA)>]>\
         <!-- head --><db owner=\"a&amp;b\"><item id='1'>x &lt; y</item>\
         <![CDATA[1<2 && 3>2]]><?app run fast?><empty/>tail \u{4e2d}\u{6587}</db>";

    #[test]
    fn chunked_pulls_equal_batch_tokenize() {
        let batch = tokenize(TRICKY).unwrap();
        for chunk in [1, 2, 3, 5, 7, 16, 64, TRICKY.len()] {
            let pulled = pull_chunked(TRICKY, chunk).unwrap();
            assert_eq!(pulled, batch, "chunk size {chunk}");
        }
    }

    #[test]
    fn multibyte_content_in_probed_constructs() {
        // The incremental terminator probe must back off to char
        // boundaries when comment/CDATA content is multibyte.
        let input = "<a><!--\u{4e2d}\u{6587}--><![CDATA[\u{65e5}\u{672c}]]>\u{d55c}\u{ad6d}</a>";
        let batch = tokenize(input).unwrap();
        for chunk in [1, 2, 3, 4, 5] {
            assert_eq!(pull_chunked(input, chunk).unwrap(), batch, "chunk {chunk}");
        }
    }

    #[test]
    fn text_waits_for_the_next_tag() {
        let mut pull = PullParser::new();
        pull.push_str("<a>part");
        assert!(matches!(pull.next().unwrap(), Pulled::Token(_))); // <a>
        assert_eq!(pull.next().unwrap(), Pulled::NeedMore);
        pull.push_str("ial</a>");
        match pull.next().unwrap() {
            Pulled::Token(t) => assert_eq!(
                t.token,
                Token::Text {
                    content: "partial".into()
                }
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn entity_split_across_chunks() {
        let tokens = pull_chunked("<a>x &am", 8); // incomplete entity at EOF
        assert!(tokens.is_err(), "unterminated entity must error at finish");
        let ok = pull_chunked("<a>x &amp; y</a>", 4).unwrap();
        assert_eq!(
            ok[1],
            Token::Text {
                content: "x & y".into()
            }
        );
    }

    #[test]
    fn comment_opener_split_is_not_misparsed() {
        // "<!-" alone must not be lexed as a bad start tag.
        let mut pull = PullParser::new();
        pull.push_str("<a/><!-");
        assert!(matches!(pull.next().unwrap(), Pulled::Token(_)));
        assert_eq!(pull.next().unwrap(), Pulled::NeedMore);
        pull.push_str("- c --><b/>");
        pull.finish();
        match pull.next().unwrap() {
            Pulled::Token(t) => assert_eq!(
                t.token,
                Token::Comment {
                    content: " c ".into()
                }
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn positions_continue_across_chunks() {
        let mut pull = PullParser::new();
        pull.push_str("<a>\n");
        pull.push_str("  <b>");
        pull.finish();
        pull.next().unwrap(); // <a>
        pull.next().unwrap(); // "\n  "
        match pull.next().unwrap() {
            Pulled::Token(t) => {
                assert_eq!(t.position.line, 2);
                assert_eq!(t.position.column, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_match_batch_lexing_after_finish() {
        let err = pull_chunked("<a><!-- oops", 3).unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnexpectedEof { .. }));
        let err = pull_chunked("<a x=\"1\" x=\"2\"/>", 2).unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::DuplicateAttribute { .. }));
    }

    #[test]
    fn scanned_elements_keep_offsets_and_positions() {
        let input = "<db>\n  <a k=\"中\">x</a><b/>\n</db>";
        let mut pull = PullParser::from_complete(input);
        pull.next().unwrap(); // <db>
        let Scanned::Element { text, at } = pull.scan_element() else {
            panic!("expected an element");
        };
        assert_eq!(
            (text, at),
            ("<a k=\"中\">x</a>", Position { line: 2, column: 3 })
        );
        // Columns count characters, as the lexer's do.
        let Scanned::Element { text, at } = pull.scan_element() else {
            panic!("expected an element");
        };
        assert_eq!(
            (text, at),
            (
                "<b/>",
                Position {
                    line: 2,
                    column: 17
                }
            )
        );
        assert_eq!(pull.stream_offset(), 27);
        // Whitespace before markup is dropped; the end tag is lexed.
        assert_eq!(pull.scan_element(), Scanned::Tokens);
        match pull.next().unwrap() {
            Pulled::Token(t) => assert_eq!(t.position, Position { line: 3, column: 1 }),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn element_scan_resumes_across_pushes_and_compaction() {
        let mut pull = PullParser::new();
        let filler = format!("<filler>{}</filler>", "y".repeat(2 * COMPACT_THRESHOLD));
        pull.push_str("<db>");
        pull.push_str(&filler);
        // Consume <db>, <filler>, text, </filler> so the filler bytes
        // become reclaimable.
        for _ in 0..4 {
            assert!(matches!(pull.next().unwrap(), Pulled::Token(_)));
        }
        let start = pull.stream_offset();
        assert_eq!(pull.scan_element(), Scanned::NeedMore);
        pull.push_str("<a>ke"); // compacts: only consumed bytes go
        assert_eq!(pull.scan_element(), Scanned::NeedMore);
        pull.push_str("pt</a></db>");
        assert!(pull.buf.len() < COMPACT_THRESHOLD);
        assert!(matches!(
            pull.scan_element(),
            Scanned::Element {
                text: "<a>kept</a>",
                ..
            }
        ));
        assert_eq!(pull.stream_offset(), start + 11);
        // Each byte was examined once, not once per push.
        assert!(pull.scanned_bytes() <= 11, "{}", pull.scanned_bytes());
    }

    #[test]
    fn compaction_bounds_memory() {
        let mut pull = PullParser::new();
        let record = "<r>0123456789</r>";
        for _ in 0..20_000 {
            pull.push_str(record);
            loop {
                match pull.next().unwrap() {
                    Pulled::Token(_) => {}
                    Pulled::NeedMore => break,
                    Pulled::End => unreachable!(),
                }
            }
        }
        assert!(
            pull.buf.capacity() < 4 * COMPACT_THRESHOLD,
            "buffer grew unbounded: {}",
            pull.buf.capacity()
        );
    }

    #[test]
    fn end_is_sticky() {
        let mut pull = PullParser::from_complete("<a/>");
        assert!(matches!(pull.next().unwrap(), Pulled::Token(_)));
        assert_eq!(pull.next().unwrap(), Pulled::End);
        assert_eq!(pull.next().unwrap(), Pulled::End);
    }
}
