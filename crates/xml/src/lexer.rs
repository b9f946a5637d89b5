//! Streaming XML tokenizer.
//!
//! Converts input text into a stream of [`Token`]s, tracking line/column
//! positions for error reporting. The lexer performs attribute-value and
//! text unescaping so downstream stages see logical strings.
//!
//! The scan loop is byte-level: structural delimiters (`<`, `&`, quotes,
//! `>`) are hunted with the SWAR skip loops in [`crate::scan`], whole
//! text/attr-value/name runs are consumed as `&[u8]` spans, and UTF-8 is
//! decoded only at validation boundaries (non-ASCII name characters,
//! non-ASCII whitespace). Line/column bookkeeping is restored lazily —
//! one [`scan::advance_position`] call per consumed span instead of one
//! update per character.
//!
//! Tag and attribute names are interned into the lexer's [`Interner`] as
//! they are read — one hash per occurrence, no per-name `String`
//! allocation — and tokens carry [`crate::intern::Sym`] handles. The
//! tree parser moves the lexer's table into the finished
//! [`Document`](crate::Document); the pull parser threads one table
//! across resumed lexing so symbols stay stable over chunk boundaries.
//!
//! When constructed over a shared input buffer ([`Lexer::from_shared`]),
//! escape-free text runs, CDATA sections, and attribute values come out
//! as zero-copy [`XmlText::Shared`] spans into that buffer; the
//! `lexer.text_spans_zero_copy` / `lexer.text_spans_materialized`
//! telemetry counters record the hit rate.

use crate::error::{Position, XmlError, XmlErrorKind};
use crate::escape::unescape;
use crate::intern::{Interner, Sym};
use crate::scan;
use crate::text::XmlText;
use crate::token::{SpannedToken, SymAttribute, Token};
use std::sync::Arc;

/// Returns whether `c` may start an XML name.
pub fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == ':'
}

/// Returns whether `c` may continue an XML name.
pub fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit() || c == '-' || c == '.'
}

/// Validates a complete XML name. Bytewise over the ASCII name set,
/// decoding only non-ASCII scalars.
pub fn is_valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    if bytes.is_empty() {
        return false;
    }
    let mut i = 0;
    let mut first = true;
    while i < bytes.len() {
        let b = bytes[i];
        if b < 0x80 {
            let ok = if first {
                scan::is_ascii_name_start_byte(b)
            } else {
                scan::is_ascii_name_byte(b)
            };
            if !ok {
                return false;
            }
            i += 1;
        } else {
            let Some(c) = scan::char_at(name, i) else {
                return false;
            };
            let ok = if first {
                is_name_start(c)
            } else {
                is_name_char(c)
            };
            if !ok {
                return false;
            }
            i += c.len_utf8();
        }
        first = false;
    }
    true
}

/// Flushes accumulated span counters onto the process-wide telemetry
/// registry. Called once per completed parse (and on pull-parser drop),
/// never per token. Both counters register on the first call, zero or
/// not, so a rare kind of span showing up later costs no allocation.
pub(crate) fn record_span_stats(zero_copy: u64, materialized: u64) {
    use std::sync::OnceLock;
    static ZERO_COPY: OnceLock<Arc<wmx_telemetry::Counter>> = OnceLock::new();
    static MATERIALIZED: OnceLock<Arc<wmx_telemetry::Counter>> = OnceLock::new();
    ZERO_COPY
        .get_or_init(|| wmx_telemetry::global().counter("lexer.text_spans_zero_copy"))
        .add(zero_copy);
    MATERIALIZED
        .get_or_init(|| wmx_telemetry::global().counter("lexer.text_spans_materialized"))
        .add(materialized);
}

/// The streaming tokenizer. Iterate with [`Lexer::next_token`].
pub struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the next unread byte.
    offset: usize,
    line: u32,
    column: u32,
    /// Name table the produced tokens' symbols point into.
    interner: Interner,
    /// When lexing from an owned shared buffer (`input` is exactly
    /// `&backing[..]`), escape-free runs become zero-copy spans.
    backing: Option<Arc<String>>,
    /// Text-ish spans (text, CDATA, attr values) emitted zero-copy.
    spans_zero_copy: u64,
    /// Text-ish spans that had to be copied or unescaped.
    spans_materialized: u64,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `input` with a fresh name table.
    pub fn new(input: &'a str) -> Self {
        Lexer::with_position(input, 1, 1)
    }

    /// Creates a lexer over a shared input buffer. Escape-free text
    /// runs, CDATA sections, and attribute values are produced as
    /// zero-copy [`XmlText::Shared`] spans into `buf`.
    pub fn from_shared(buf: &'a Arc<String>) -> Self {
        Lexer::from_shared_at(buf, Position { line: 1, column: 1 })
    }

    /// [`Lexer::from_shared`] for a buffer whose first character sits at
    /// `at` in a larger input, so positions are the input's.
    pub(crate) fn from_shared_at(buf: &'a Arc<String>, at: Position) -> Self {
        let mut lexer = Lexer::with_position(buf.as_str(), at.line, at.column);
        lexer.backing = Some(Arc::clone(buf));
        lexer
    }

    /// Creates a lexer over `input` that reports positions as if the
    /// first character of `input` were at `line`:`column`. This is what
    /// lets [`crate::pull::PullParser`] resume lexing mid-stream while
    /// keeping error positions accurate.
    pub fn with_position(input: &'a str, line: u32, column: u32) -> Self {
        Lexer {
            input,
            offset: 0,
            line,
            column,
            interner: Interner::new(),
            backing: None,
            spans_zero_copy: 0,
            spans_materialized: 0,
        }
    }

    /// The name table behind the tokens produced so far.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Mutable access to the name table (the tree parser interns PI
    /// targets through this before taking the table over).
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Replaces the lexer's name table (resumed lexing: the pull parser
    /// hands the accumulated table to each transient lexer so symbols
    /// stay stable across chunks).
    pub fn set_interner(&mut self, interner: Interner) {
        self.interner = interner;
    }

    /// Takes the name table out of the lexer, leaving an empty one. The
    /// tree parser installs the taken table into the built document.
    pub fn take_interner(&mut self) -> Interner {
        std::mem::take(&mut self.interner)
    }

    /// Current position (of the next unread character).
    pub fn position(&self) -> Position {
        Position {
            line: self.line,
            column: self.column,
        }
    }

    /// Byte offset (into the input slice) of the next unread character.
    /// Everything before this offset has been consumed by tokens already
    /// returned from [`Lexer::next_token`].
    pub fn byte_offset(&self) -> usize {
        self.offset
    }

    /// `(zero_copy, materialized)` span counts accumulated so far.
    /// Unread bytes left in the input. The tree builder uses this to
    /// pre-size the node arena before the first token.
    pub(crate) fn remaining_len(&self) -> usize {
        self.input.len() - self.offset
    }

    pub(crate) fn span_stats(&self) -> (u64, u64) {
        (self.spans_zero_copy, self.spans_materialized)
    }

    fn rest(&self) -> &'a str {
        &self.input[self.offset..]
    }

    #[inline]
    fn peek_byte(&self) -> Option<u8> {
        self.input.as_bytes().get(self.offset).copied()
    }

    fn peek_char(&self) -> Option<char> {
        scan::char_at(self.input, self.offset)
    }

    /// Consumes one scalar, maintaining line/column. Used on cold paths
    /// (single structural characters); spans go through
    /// [`Lexer::advance_over`].
    fn bump(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        self.offset += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    /// Consumes `len` bytes in one step, updating line/column from the
    /// span contents lazily (one pass, not one update per char).
    fn advance_over(&mut self, len: usize) {
        let span = &self.input.as_bytes()[self.offset..self.offset + len];
        scan::advance_position(span, &mut self.line, &mut self.column);
        self.offset += len;
    }

    /// Consumes `len` bytes known to be newline-free ASCII (structural
    /// markers like `<`, `</`, `<!--`). Column math is inline — no span
    /// re-scan for bytes whose width and line effect are fixed.
    #[inline]
    fn advance_ascii(&mut self, len: usize) {
        self.offset += len;
        self.column += len as u32;
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn error(&self, kind: XmlErrorKind) -> XmlError {
        XmlError::at(kind, self.line, self.column)
    }

    fn eof_error(&self, while_parsing: &'static str) -> XmlError {
        self.error(XmlErrorKind::UnexpectedEof { while_parsing })
    }

    /// Whether the next scalar is whitespace (Unicode semantics, ASCII
    /// answered bytewise).
    fn peek_is_whitespace(&self) -> bool {
        match self.peek_byte() {
            Some(b) if b < 0x80 => scan::is_ascii_whitespace_byte(b),
            Some(_) => self.peek_char().is_some_and(char::is_whitespace),
            None => false,
        }
    }

    fn skip_whitespace(&mut self) {
        while let Some(b) = self.peek_byte() {
            if b < 0x80 {
                if !scan::is_ascii_whitespace_byte(b) {
                    return;
                }
                self.offset += 1;
                if b == b'\n' {
                    self.line += 1;
                    self.column = 1;
                } else {
                    self.column += 1;
                }
            } else {
                // Non-ASCII whitespace (NBSP etc.) is rare but legal.
                let c = self.peek_char().expect("input is valid UTF-8");
                if !c.is_whitespace() {
                    return;
                }
                self.offset += c.len_utf8();
                self.column += 1;
            }
        }
    }

    /// Scans one XML name, returning its byte span in the input. The
    /// ASCII run is consumed bytewise; non-ASCII name characters decode
    /// one scalar at the validation boundary.
    fn name_span(&mut self) -> Result<(usize, usize), XmlError> {
        let start = self.offset;
        match self.peek_byte() {
            Some(b) if b < 0x80 => {
                if scan::is_ascii_name_start_byte(b) {
                    self.offset += 1;
                } else {
                    return Err(self.error(XmlErrorKind::UnexpectedChar {
                        found: b as char,
                        expected: "a name start character",
                    }));
                }
            }
            Some(_) => {
                let c = self.peek_char().expect("input is valid UTF-8");
                if is_name_start(c) {
                    self.offset += c.len_utf8();
                } else {
                    return Err(self.error(XmlErrorKind::UnexpectedChar {
                        found: c,
                        expected: "a name start character",
                    }));
                }
            }
            None => return Err(self.eof_error("a name")),
        }
        let mut ascii_only = start + 1 == self.offset;
        loop {
            match self.peek_byte() {
                Some(b) if b < 0x80 => {
                    if scan::is_ascii_name_byte(b) {
                        self.offset += 1;
                    } else {
                        break;
                    }
                }
                Some(_) => {
                    let c = self.peek_char().expect("input is valid UTF-8");
                    if is_name_char(c) {
                        self.offset += c.len_utf8();
                        ascii_only = false;
                    } else {
                        break;
                    }
                }
                None => break,
            }
        }
        // Names never contain newlines, so only the column moves; the
        // (overwhelmingly common) all-ASCII name needs no char count.
        self.column += if ascii_only {
            (self.offset - start) as u32
        } else {
            scan::char_count(&self.input.as_bytes()[start..self.offset]) as u32
        };
        Ok((start, self.offset))
    }

    fn read_name(&mut self) -> Result<String, XmlError> {
        let (start, end) = self.name_span()?;
        Ok(self.input[start..end].to_string())
    }

    /// Reads a name and interns it — no allocation for repeated names.
    fn read_name_sym(&mut self) -> Result<Sym, XmlError> {
        let (start, end) = self.name_span()?;
        Ok(self.interner.intern(&self.input[start..end]))
    }

    /// Reads up to (not including) `delim`, consuming the delimiter.
    /// Returns the byte span of the content before the delimiter.
    fn read_until_span(
        &mut self,
        delim: &str,
        context: &'static str,
    ) -> Result<(usize, usize), XmlError> {
        match self.rest().find(delim) {
            Some(idx) => {
                let start = self.offset;
                self.advance_over(idx + delim.len());
                Ok((start, start + idx))
            }
            None => Err(self.eof_error(context)),
        }
    }

    /// Wraps `input[start..end]` as an [`XmlText`]: a zero-copy span
    /// when a shared backing buffer exists, an owned copy otherwise.
    fn share_span(&mut self, start: usize, end: usize) -> XmlText {
        match &self.backing {
            Some(buf) => {
                self.spans_zero_copy += 1;
                XmlText::shared(Arc::clone(buf), start, end)
            }
            None => {
                self.spans_materialized += 1;
                XmlText::Owned(self.input[start..end].to_string())
            }
        }
    }

    /// Produces the next token, or `None` at end of input.
    pub fn next_token(&mut self) -> Result<Option<SpannedToken>, XmlError> {
        if self.offset >= self.input.len() {
            return Ok(None);
        }
        let position = self.position();
        let token = if self.peek_byte() == Some(b'<') {
            self.lex_markup()?
        } else {
            self.lex_text()?
        };
        Ok(Some(SpannedToken { token, position }))
    }

    fn lex_text(&mut self) -> Result<Token, XmlError> {
        let (line, column) = (self.line, self.column);
        let start = self.offset;
        let rest = self.rest().as_bytes();
        // One fused hunt: the first '<' ends the run, and any earlier
        // '&' means the run materializes through unescaping. The common
        // escape-free run is scanned once, not twice.
        let (len, has_ref) = match scan::memchr2(b'<', b'&', rest) {
            Some(i) if rest[i] == b'<' => (i, false),
            Some(i) => (
                scan::memchr(b'<', &rest[i..]).map_or(rest.len(), |j| i + j),
                true,
            ),
            None => (rest.len(), false),
        };
        self.advance_over(len);
        let end = start + len;
        let content = if has_ref {
            self.spans_materialized += 1;
            XmlText::Owned(unescape(&self.input[start..end], line, column)?.into_owned())
        } else {
            self.share_span(start, end)
        };
        Ok(Token::Text { content })
    }

    fn lex_markup(&mut self) -> Result<Token, XmlError> {
        debug_assert!(self.peek_byte() == Some(b'<'));
        // Dispatch on the byte after '<': start tags (the common case)
        // take one byte compare instead of a gauntlet of prefix tests.
        match self.input.as_bytes().get(self.offset + 1) {
            Some(b'!') => {
                if self.starts_with("<!--") {
                    self.advance_ascii(4);
                    let (start, end) = self.read_until_span("-->", "a comment")?;
                    return Ok(Token::Comment {
                        content: self.input[start..end].to_string(),
                    });
                }
                if self.starts_with("<![CDATA[") {
                    self.advance_ascii(9);
                    let (start, end) = self.read_until_span("]]>", "a CDATA section")?;
                    return Ok(Token::CData {
                        content: self.share_span(start, end),
                    });
                }
                if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
                    self.advance_ascii(9);
                    return self.lex_doctype();
                }
                // "<!" followed by none of the known markers: report the
                // character after '<' as unexpected, as before.
                self.advance_ascii(1);
                Err(self.error(XmlErrorKind::UnexpectedChar {
                    found: '!',
                    expected: "'--', '[CDATA[', or 'DOCTYPE' after '<!'",
                }))
            }
            Some(b'?') => {
                self.advance_ascii(2);
                self.lex_pi()
            }
            Some(b'/') => {
                self.advance_ascii(2);
                let name = self.read_name_sym()?;
                self.skip_whitespace();
                match self.peek_byte() {
                    Some(b'>') => {
                        self.advance_ascii(1);
                        Ok(Token::EndTag { name })
                    }
                    Some(_) => {
                        let c = self.peek_char().expect("input is valid UTF-8");
                        Err(self.error(XmlErrorKind::UnexpectedChar {
                            found: c,
                            expected: "'>' closing an end tag",
                        }))
                    }
                    None => Err(self.eof_error("an end tag")),
                }
            }
            _ => {
                // Plain start tag.
                self.advance_ascii(1);
                self.lex_start_tag()
            }
        }
    }

    fn lex_doctype(&mut self) -> Result<Token, XmlError> {
        // Content may contain an internal subset in [...]; track nesting
        // of '<'/'>' and bracket state. All structural bytes are ASCII,
        // so the scan is bytewise; positions catch up once at the end.
        let start = self.offset;
        let bytes = self.input.as_bytes();
        let mut depth = 1usize;
        let mut in_bracket = false;
        let mut i = start;
        while i < bytes.len() {
            match bytes[i] {
                b'[' => in_bracket = true,
                b']' => in_bracket = false,
                b'<' if !in_bracket => depth += 1,
                b'>' if !in_bracket => {
                    depth -= 1;
                    if depth == 0 {
                        self.advance_over(i + 1 - start);
                        return Ok(Token::Doctype {
                            content: self.input[start..i].trim().to_string(),
                        });
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.advance_over(bytes.len() - start);
        Err(self.eof_error("a DOCTYPE declaration"))
    }

    fn lex_pi(&mut self) -> Result<Token, XmlError> {
        let target = self.read_name()?;
        let data = if self.peek_is_whitespace() {
            self.skip_whitespace();
            let (start, end) = self.read_until_span("?>", "a processing instruction")?;
            self.input[start..end].trim_end().to_string()
        } else {
            if !self.starts_with("?>") {
                return Err(match self.peek_char() {
                    Some(c) => self.error(XmlErrorKind::UnexpectedChar {
                        found: c,
                        expected: "whitespace or '?>' in a processing instruction",
                    }),
                    None => self.eof_error("a processing instruction"),
                });
            }
            self.advance_ascii(2);
            String::new()
        };
        if target.eq_ignore_ascii_case("xml") {
            return Ok(Token::XmlDecl { content: data });
        }
        Ok(Token::ProcessingInstruction { target, data })
    }

    fn lex_start_tag(&mut self) -> Result<Token, XmlError> {
        let name = self.read_name_sym()?;
        let mut attributes = Vec::new();
        loop {
            let had_space = self.peek_is_whitespace();
            self.skip_whitespace();
            match self.peek_byte() {
                Some(b'>') => {
                    self.advance_ascii(1);
                    return Ok(Token::StartTag {
                        name,
                        attributes,
                        self_closing: false,
                    });
                }
                Some(b'/') => {
                    self.advance_ascii(1);
                    match self.bump() {
                        Some('>') => {
                            return Ok(Token::StartTag {
                                name,
                                attributes,
                                self_closing: true,
                            })
                        }
                        Some(c) => {
                            return Err(self.error(XmlErrorKind::UnexpectedChar {
                                found: c,
                                expected: "'>' after '/' in a self-closing tag",
                            }))
                        }
                        None => return Err(self.eof_error("a self-closing tag")),
                    }
                }
                Some(b) => {
                    let c = if b < 0x80 {
                        b as char
                    } else {
                        self.peek_char().expect("input is valid UTF-8")
                    };
                    if is_name_start(c) {
                        if !had_space {
                            return Err(self.error(XmlErrorKind::UnexpectedChar {
                                found: c,
                                expected: "whitespace before an attribute",
                            }));
                        }
                        let attr = self.lex_attribute()?;
                        if attributes
                            .iter()
                            .any(|a: &SymAttribute| a.name == attr.name)
                        {
                            return Err(self.error(XmlErrorKind::DuplicateAttribute {
                                name: self.interner.resolve(attr.name).to_string(),
                            }));
                        }
                        attributes.push(attr);
                    } else {
                        return Err(self.error(XmlErrorKind::UnexpectedChar {
                            found: c,
                            expected: "an attribute, '>', or '/>'",
                        }));
                    }
                }
                None => return Err(self.eof_error("a start tag")),
            }
        }
    }

    fn lex_attribute(&mut self) -> Result<SymAttribute, XmlError> {
        let name = self.read_name_sym()?;
        self.skip_whitespace();
        match self.peek_byte() {
            Some(b'=') => self.advance_ascii(1),
            Some(_) => {
                let c = self.peek_char().expect("input is valid UTF-8");
                return Err(self.error(XmlErrorKind::UnexpectedChar {
                    found: c,
                    expected: "'=' after an attribute name",
                }));
            }
            None => return Err(self.eof_error("an attribute")),
        }
        self.skip_whitespace();
        let quote = match self.peek_byte() {
            Some(q @ (b'"' | b'\'')) => {
                self.advance_ascii(1);
                q
            }
            Some(_) => {
                let c = self.peek_char().expect("input is valid UTF-8");
                return Err(self.error(XmlErrorKind::UnexpectedChar {
                    found: c,
                    expected: "a quoted attribute value",
                }));
            }
            None => return Err(self.eof_error("an attribute value")),
        };
        let (line, column) = (self.line, self.column);
        // One fused hunt for the closing quote, a (forbidden) raw '<',
        // and any '&' that forces unescaping: the common clean value is
        // scanned once, not three times.
        let rest = self.rest().as_bytes();
        let mut has_ref = false;
        let mut i = 0;
        let val_len = loop {
            match scan::memchr3(quote, b'<', b'&', &rest[i..]) {
                Some(j) => match rest[i + j] {
                    b'<' => {
                        return Err(XmlError::at(
                            XmlErrorKind::UnexpectedChar {
                                found: '<',
                                expected: "no raw '<' inside an attribute value",
                            },
                            line,
                            column,
                        ))
                    }
                    b'&' => {
                        has_ref = true;
                        i += j + 1;
                    }
                    _ => break i + j,
                },
                None => return Err(self.eof_error("an attribute value")),
            }
        };
        let start = self.offset;
        self.advance_over(val_len + 1);
        let end = start + val_len;
        let value = if has_ref {
            self.spans_materialized += 1;
            XmlText::Owned(unescape(&self.input[start..end], line, column)?.into_owned())
        } else {
            self.share_span(start, end)
        };
        Ok(SymAttribute { name, value })
    }
}

/// Tokenizes the whole input eagerly. Convenience for tests — symbol
/// assignment is deterministic, so token sequences from the same input
/// compare equal across lexers.
pub fn tokenize(input: &str) -> Result<Vec<Token>, XmlError> {
    Ok(tokenize_with_interner(input)?.0)
}

/// Tokenizes the whole input and returns the name table the tokens'
/// symbols point into.
pub fn tokenize_with_interner(input: &str) -> Result<(Vec<Token>, Interner), XmlError> {
    let mut lexer = Lexer::new(input);
    let mut out = Vec::new();
    while let Some(spanned) = lexer.next_token()? {
        out.push(spanned.token);
    }
    Ok((out, lexer.take_interner()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_element() {
        let (tokens, names) = tokenize_with_interner("<a>hi</a>").unwrap();
        let a = names.lookup("a").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::StartTag {
                    name: a,
                    attributes: vec![],
                    self_closing: false
                },
                Token::Text {
                    content: "hi".into()
                },
                Token::EndTag { name: a },
            ]
        );
    }

    #[test]
    fn attributes_both_quote_styles() {
        let (tokens, names) =
            tokenize_with_interner(r#"<book publisher="mkp" year='1998'/>"#).unwrap();
        match &tokens[0] {
            Token::StartTag {
                name,
                attributes,
                self_closing,
            } => {
                assert_eq!(names.resolve(*name), "book");
                assert!(*self_closing);
                assert_eq!(attributes.len(), 2);
                assert_eq!(names.resolve(attributes[0].name), "publisher");
                assert_eq!(attributes[0].value, "mkp");
                assert_eq!(names.resolve(attributes[1].name), "year");
                assert_eq!(attributes[1].value, "1998");
                // Resolution into the owned compat form.
                let resolved = attributes[0].resolve(&names);
                assert_eq!(resolved.name, "publisher");
                assert_eq!(resolved.value, "mkp");
            }
            other => panic!("unexpected token {other:?}"),
        }
    }

    #[test]
    fn repeated_names_share_symbols() {
        let (tokens, names) = tokenize_with_interner("<r><r/><r></r></r>").unwrap();
        let r = names.lookup("r").unwrap();
        let mut tags = 0;
        for t in &tokens {
            match t {
                Token::StartTag { name, .. } | Token::EndTag { name } => {
                    assert_eq!(*name, r);
                    tags += 1;
                }
                other => panic!("unexpected token {other:?}"),
            }
        }
        assert_eq!(tags, 5);
        assert_eq!(names.len(), 1);
    }

    #[test]
    fn attribute_values_unescaped() {
        let tokens = tokenize(r#"<a t="a&amp;b &#65;"/>"#).unwrap();
        match &tokens[0] {
            Token::StartTag { attributes, .. } => assert_eq!(attributes[0].value, "a&b A"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = tokenize(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::DuplicateAttribute { .. }));
    }

    #[test]
    fn comment_cdata_pi_doctype() {
        let (tokens, names) = tokenize_with_interner(
            "<?xml version=\"1.0\"?><!DOCTYPE db SYSTEM \"x.dtd\"><!-- note --><db><![CDATA[1<2]]><?app run?></db>",
        )
        .unwrap();
        let db = names.lookup("db").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::XmlDecl {
                    content: "version=\"1.0\"".into()
                },
                Token::Doctype {
                    content: "db SYSTEM \"x.dtd\"".into()
                },
                Token::Comment {
                    content: " note ".into()
                },
                Token::StartTag {
                    name: db,
                    attributes: vec![],
                    self_closing: false
                },
                Token::CData {
                    content: "1<2".into()
                },
                Token::ProcessingInstruction {
                    target: "app".into(),
                    data: "run".into()
                },
                Token::EndTag { name: db },
            ]
        );
    }

    #[test]
    fn doctype_with_internal_subset() {
        let tokens = tokenize("<!DOCTYPE db [<!ELEMENT db (#PCDATA)>]><db/>").unwrap();
        assert!(matches!(&tokens[0], Token::Doctype { content } if content.contains("ELEMENT")));
    }

    #[test]
    fn text_entities_resolved() {
        let tokens = tokenize("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>").unwrap();
        assert_eq!(
            tokens[1],
            Token::Text {
                content: "1 < 2 && 3 > 2".into()
            }
        );
    }

    #[test]
    fn unterminated_comment_errors_with_position() {
        let err = tokenize("<a><!-- oops").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnexpectedEof { .. }));
        assert!(err.position.is_some());
    }

    #[test]
    fn position_tracking_across_lines() {
        let mut lexer = Lexer::new("<a>\n  <b>");
        lexer.next_token().unwrap(); // <a>
        lexer.next_token().unwrap(); // text "\n  "
        let spanned = lexer.next_token().unwrap().unwrap();
        assert_eq!(spanned.position.line, 2);
        assert_eq!(spanned.position.column, 3);
    }

    #[test]
    fn raw_lt_in_attribute_rejected() {
        assert!(tokenize("<a x=\"a<b\"/>").is_err());
    }

    #[test]
    fn missing_attribute_space_rejected() {
        assert!(tokenize("<a x=\"1\"y=\"2\"/>").is_err());
    }

    #[test]
    fn invalid_name_start_rejected() {
        assert!(tokenize("<1a/>").is_err());
        assert!(tokenize("</ a>").is_err());
    }

    #[test]
    fn pi_without_data() {
        let tokens = tokenize("<?flush?><a/>").unwrap();
        assert_eq!(
            tokens[0],
            Token::ProcessingInstruction {
                target: "flush".into(),
                data: String::new()
            }
        );
    }

    #[test]
    fn name_validation() {
        assert!(is_valid_name("book"));
        assert!(is_valid_name("_private"));
        assert!(is_valid_name("ns:tag"));
        assert!(is_valid_name("a-b.c2"));
        assert!(is_valid_name("Mün"));
        assert!(!is_valid_name(""));
        assert!(!is_valid_name("2fast"));
        assert!(!is_valid_name("has space"));
        assert!(!is_valid_name("–dash"));
    }

    #[test]
    fn multibyte_content() {
        let tokens = tokenize("<a>München – résumé 中文</a>").unwrap();
        assert_eq!(
            tokens[1],
            Token::Text {
                content: "München – résumé 中文".into()
            }
        );
    }

    #[test]
    fn shared_backing_yields_zero_copy_spans() {
        let buf = Arc::new(String::from(r#"<a t="v">text<![CDATA[cd]]></a>"#));
        let mut lexer = Lexer::from_shared(&buf);
        let mut shared = 0;
        while let Some(spanned) = lexer.next_token().unwrap() {
            match spanned.token {
                Token::Text { content } | Token::CData { content } => {
                    assert!(content.is_shared());
                    shared += 1;
                }
                Token::StartTag { attributes, .. } => {
                    for a in &attributes {
                        assert!(a.value.is_shared());
                        shared += 1;
                    }
                }
                _ => {}
            }
        }
        assert_eq!(shared, 3);
        assert_eq!(lexer.span_stats(), (3, 0));
    }

    #[test]
    fn escapes_materialize_even_with_backing() {
        let buf = Arc::new(String::from(r#"<a t="x&amp;y">a&lt;b</a>"#));
        let mut lexer = Lexer::from_shared(&buf);
        while let Some(spanned) = lexer.next_token().unwrap() {
            match spanned.token {
                Token::Text { content } => {
                    assert!(!content.is_shared());
                    assert_eq!(content, "a<b");
                }
                Token::StartTag { attributes, .. } => {
                    assert!(!attributes[0].value.is_shared());
                    assert_eq!(attributes[0].value, "x&y");
                }
                _ => {}
            }
        }
        assert_eq!(lexer.span_stats(), (0, 2));
    }
}
