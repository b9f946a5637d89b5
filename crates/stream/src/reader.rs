//! Top-level document reader: turns a byte stream into prolog events,
//! raw record slices, and inter-record content.
//!
//! Children of the root element are *records*. [`TopLevelReader`] reads
//! each one whole with [`PullParser::scan_element`], a byte scan that
//! counts element depth over the SWAR delimiter searches of
//! [`wmx_xml::scan`]. It builds no token inside a record, so the
//! engine's parse of the record is the only lex of its bytes. Each
//! record's raw bytes reach the engine as one [`TopEvent::Record`], and
//! [`TopLevelReader::record_position`] says where it starts, so the
//! record parse reports errors at input positions. Everything else — XML
//! declaration, DOCTYPE, comments, processing instructions, mixed text
//! between records — is lexed by the [`PullParser`] and surfaces as its
//! own event, so the driver can re-emit it exactly as the DOM serializer
//! would.
//!
//! The scan only bounds records and checks nothing the lexer checks. A
//! lexical error inside balanced tags (`<t a=1>`) leaves a record that
//! fails in its own parse. Markup no token starts with (`<!x`, `<1`),
//! and input that ends inside a record, are reported by lexing the
//! record from its start: the first lexical error in it, or an
//! unexpected end of input.
//!
//! Memory is bounded by the largest single record plus one read chunk.

use crate::StreamError;
use std::io::BufRead;
use wmx_xml::pull::{PullParser, Pulled, Scanned};
use wmx_xml::scan;
use wmx_xml::token::{Token, TokenAttribute};
use wmx_xml::{Position, XmlError, XmlErrorKind};

/// Non-record content at the document's top levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Misc {
    /// Character data (only valid inside the root element).
    Text(String),
    /// A CDATA section (only valid inside the root element).
    CData(String),
    /// A comment.
    Comment(String),
    /// A processing instruction.
    Pi {
        /// PI target.
        target: String,
        /// PI data (may be empty).
        data: String,
    },
}

/// One top-level event of the document stream, in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopEvent {
    /// `<?xml ...?>` content.
    XmlDecl(String),
    /// `<!DOCTYPE ...>` content.
    Doctype(String),
    /// A comment/PI before the root element.
    PrologMisc(Misc),
    /// The root element opens (attribute values already unescaped).
    RootStart {
        /// Root element name.
        name: String,
        /// Root attributes in document order.
        attributes: Vec<TokenAttribute>,
    },
    /// One complete root-child element, as raw input bytes.
    Record(String),
    /// Depth-1 content between records (text/CDATA/comment/PI).
    /// Whitespace-only text and empty CDATA are already dropped, per the
    /// default parse/serialize conventions.
    Misc(Misc),
    /// The root element closes.
    RootEnd,
    /// A comment/PI after the root element.
    TrailingMisc(Misc),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Prolog,
    Content,
    /// In a record the scan could not bound — it holds markup no token
    /// starts with, or the input ends inside it: lexing on through its
    /// tokens to the first lexical error in it.
    Unbounded,
    Epilog,
}

/// Streaming top-level splitter over any [`BufRead`] source.
pub struct TopLevelReader<R> {
    src: R,
    pull: PullParser,
    state: State,
    /// Where the last record returned starts in the input.
    record_at: Position,
    /// Trailing bytes of the previous read that were not yet a complete
    /// UTF-8 character.
    pending_utf8: Vec<u8>,
    eof: bool,
    /// Emit `RootEnd` on the next pull (self-closing root).
    pending_root_end: bool,
}

impl<R: BufRead> TopLevelReader<R> {
    /// Creates a reader over `src`.
    pub fn new(src: R) -> Self {
        TopLevelReader {
            src,
            pull: PullParser::new(),
            state: State::Prolog,
            record_at: Position { line: 1, column: 1 },
            pending_utf8: Vec::new(),
            eof: false,
            pending_root_end: false,
        }
    }

    /// Where the last [`TopEvent::Record`] returned starts in the input:
    /// the line and column of its `<`.
    pub fn record_position(&self) -> Position {
        self.record_at
    }

    /// Reads one chunk from the source into the pull parser, handling
    /// UTF-8 sequences split across chunk boundaries. The common case
    /// (no pending partial character) pushes straight from the source
    /// buffer without copying.
    fn fill(&mut self) -> Result<(), StreamError> {
        if self.eof {
            return Ok(());
        }
        // Borrow fields separately so the source's buffer can be pushed
        // into the pull parser without an intermediate copy.
        let TopLevelReader {
            src,
            pull,
            pending_utf8,
            eof,
            ..
        } = self;
        let chunk = src.fill_buf()?;
        if chunk.is_empty() {
            *eof = true;
            if !pending_utf8.is_empty() {
                return Err(StreamError::Unsupported(
                    "input ends inside a UTF-8 character".to_string(),
                ));
            }
            pull.finish();
            return Ok(());
        }
        let consumed = chunk.len();
        let push_prefix = |pull: &mut PullParser,
                           pending_utf8: &mut Vec<u8>,
                           bytes: &[u8]|
         -> Result<(), StreamError> {
            match std::str::from_utf8(bytes) {
                Ok(text) => {
                    pull.push_str(text);
                    Ok(())
                }
                Err(e) => {
                    let valid = e.valid_up_to();
                    let not_utf8 =
                        || StreamError::Unsupported("input is not valid UTF-8".to_string());
                    if e.error_len().is_some() || bytes.len() - valid > 3 {
                        return Err(not_utf8());
                    }
                    // A character split across chunks: keep its prefix.
                    let prefix = std::str::from_utf8(&bytes[..valid]).map_err(|_| not_utf8())?;
                    pull.push_str(prefix);
                    *pending_utf8 = bytes[valid..].to_vec();
                    Ok(())
                }
            }
        };
        if pending_utf8.is_empty() {
            push_prefix(pull, pending_utf8, chunk)?;
        } else {
            let mut joined = std::mem::take(pending_utf8);
            joined.extend_from_slice(chunk);
            push_prefix(pull, pending_utf8, &joined)?;
        }
        self.src.consume(consumed);
        Ok(())
    }

    fn err_at(&self, kind: XmlErrorKind) -> StreamError {
        StreamError::Xml(XmlError::dom(kind))
    }

    /// Pulls the next top-level event, or `None` at end of document.
    #[allow(clippy::too_many_lines)]
    pub fn next_event(&mut self) -> Result<Option<TopEvent>, StreamError> {
        if self.pending_root_end {
            self.pending_root_end = false;
            self.state = State::Epilog;
            return Ok(Some(TopEvent::RootEnd));
        }
        loop {
            if self.state == State::Content {
                match self.pull.scan_element() {
                    Scanned::NeedMore => {
                        self.fill()?;
                        continue;
                    }
                    Scanned::Element { text, at } => {
                        self.record_at = at;
                        return Ok(Some(TopEvent::Record(text.to_string())));
                    }
                    Scanned::Tokens => {}
                }
            }
            let token = match self.pull.next()? {
                Pulled::Token(t) => t.token,
                Pulled::NeedMore => {
                    self.fill()?;
                    continue;
                }
                Pulled::End => {
                    return match self.state {
                        State::Prolog => Err(self.err_at(XmlErrorKind::NoRootElement)),
                        State::Content | State::Unbounded => {
                            Err(self.err_at(XmlErrorKind::UnexpectedEof {
                                while_parsing: "element content (unclosed element)",
                            }))
                        }
                        State::Epilog => Ok(None),
                    };
                }
            };
            match self.state {
                State::Prolog => match token {
                    Token::XmlDecl { content } => return Ok(Some(TopEvent::XmlDecl(content))),
                    Token::Doctype { content } => return Ok(Some(TopEvent::Doctype(content))),
                    Token::Comment { content } => {
                        return Ok(Some(TopEvent::PrologMisc(Misc::Comment(content))))
                    }
                    Token::ProcessingInstruction { target, data } => {
                        return Ok(Some(TopEvent::PrologMisc(Misc::Pi { target, data })))
                    }
                    Token::Text { content } => {
                        if scan::is_all_whitespace(&content) {
                            continue;
                        }
                        return Err(self.err_at(XmlErrorKind::NoRootElement));
                    }
                    Token::CData { .. } => return Err(self.err_at(XmlErrorKind::NoRootElement)),
                    Token::StartTag {
                        name,
                        attributes,
                        self_closing,
                    } => {
                        self.state = State::Content;
                        self.pending_root_end = self_closing;
                        // Resolve symbols at this boundary: the event
                        // outlives the pull parser's name table.
                        let names = self.pull.interner();
                        return Ok(Some(TopEvent::RootStart {
                            name: names.resolve(name).to_string(),
                            attributes: attributes.iter().map(|a| a.resolve(names)).collect(),
                        }));
                    }
                    Token::EndTag { name } => {
                        let close = self.pull.interner().resolve(name).to_string();
                        return Err(self.err_at(XmlErrorKind::UnmatchedClose { close }));
                    }
                },
                State::Content => match token {
                    Token::StartTag { .. } => self.state = State::Unbounded,
                    Token::EndTag { .. } => {
                        self.state = State::Epilog;
                        return Ok(Some(TopEvent::RootEnd));
                    }
                    Token::Text { content } => {
                        if scan::is_all_whitespace(&content) {
                            continue; // default ParseOptions drop these
                        }
                        return Ok(Some(TopEvent::Misc(Misc::Text(content.into_string()))));
                    }
                    Token::CData { content } => {
                        if content.is_empty() {
                            continue; // invisible to the compact serializer
                        }
                        return Ok(Some(TopEvent::Misc(Misc::CData(content.into_string()))));
                    }
                    Token::Comment { content } => {
                        return Ok(Some(TopEvent::Misc(Misc::Comment(content))))
                    }
                    Token::ProcessingInstruction { target, data } => {
                        return Ok(Some(TopEvent::Misc(Misc::Pi { target, data })))
                    }
                    Token::XmlDecl { .. } | Token::Doctype { .. } => {
                        return Err(StreamError::Unsupported(
                            "XML declaration/DOCTYPE inside the root element".to_string(),
                        ))
                    }
                },
                State::Unbounded => {}
                State::Epilog => match token {
                    Token::Comment { content } => {
                        return Ok(Some(TopEvent::TrailingMisc(Misc::Comment(content))))
                    }
                    Token::ProcessingInstruction { target, data } => {
                        return Ok(Some(TopEvent::TrailingMisc(Misc::Pi { target, data })))
                    }
                    Token::Text { content } => {
                        if scan::is_all_whitespace(&content) {
                            continue;
                        }
                        return Err(self.err_at(XmlErrorKind::TrailingContent));
                    }
                    Token::StartTag { .. } => return Err(self.err_at(XmlErrorKind::MultipleRoots)),
                    Token::EndTag { name } => {
                        let close = self.pull.interner().resolve(name).to_string();
                        return Err(self.err_at(XmlErrorKind::UnmatchedClose { close }));
                    }
                    Token::CData { .. } => return Err(self.err_at(XmlErrorKind::TrailingContent)),
                    Token::XmlDecl { .. } | Token::Doctype { .. } => {
                        return Err(StreamError::Unsupported(
                            "XML declaration/DOCTYPE after the root element".to_string(),
                        ))
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Vec<TopEvent> {
        let mut reader = TopLevelReader::new(input.as_bytes());
        let mut out = Vec::new();
        while let Some(ev) = reader.next_event().unwrap() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn splits_records_and_misc() {
        let evs = events(
            "<?xml version=\"1.0\"?><!-- head --><db id=\"1\">\n  \
             <book><t>A</t></book>mixed<book/>\n<!-- mid --></db><!-- tail -->",
        );
        assert_eq!(
            evs,
            vec![
                TopEvent::XmlDecl("version=\"1.0\"".into()),
                TopEvent::PrologMisc(Misc::Comment(" head ".into())),
                TopEvent::RootStart {
                    name: "db".into(),
                    attributes: vec![TokenAttribute {
                        name: "id".into(),
                        value: "1".into()
                    }],
                },
                TopEvent::Record("<book><t>A</t></book>".into()),
                TopEvent::Misc(Misc::Text("mixed".into())),
                TopEvent::Record("<book/>".into()),
                TopEvent::Misc(Misc::Comment(" mid ".into())),
                TopEvent::RootEnd,
                TopEvent::TrailingMisc(Misc::Comment(" tail ".into())),
            ]
        );
    }

    #[test]
    fn nested_records_capture_whole_subtree() {
        let evs = events("<db><shelf><book><t>X</t></book><book/></shelf></db>");
        assert!(matches!(
            &evs[1],
            TopEvent::Record(raw) if raw == "<shelf><book><t>X</t></book><book/></shelf>"
        ));
    }

    #[test]
    fn self_closing_root() {
        let evs = events("<db a=\"1\"/>");
        assert_eq!(evs.len(), 2);
        assert!(matches!(&evs[0], TopEvent::RootStart { name, .. } if name == "db"));
        assert_eq!(evs[1], TopEvent::RootEnd);
    }

    #[test]
    fn errors_mirror_the_dom_parser() {
        let fail = |input: &str| {
            let mut r = TopLevelReader::new(input.as_bytes());
            loop {
                match r.next_event() {
                    Err(e) => return e,
                    Ok(None) => panic!("expected an error for {input:?}"),
                    Ok(Some(_)) => {}
                }
            }
        };
        assert!(matches!(fail("  "), StreamError::Xml(_)));
        assert!(matches!(fail("<a/><b/>"), StreamError::Xml(e)
            if matches!(e.kind, XmlErrorKind::MultipleRoots)));
        assert!(matches!(fail("<a/>txt"), StreamError::Xml(e)
            if matches!(e.kind, XmlErrorKind::TrailingContent)));
        assert!(matches!(fail("<a><b>"), StreamError::Xml(e)
            if matches!(e.kind, XmlErrorKind::UnexpectedEof { .. })));
        assert!(matches!(fail("hello<a/>"), StreamError::Xml(e)
            if matches!(e.kind, XmlErrorKind::NoRootElement)));
    }

    #[test]
    fn scan_skips_markup_that_looks_like_a_boundary() {
        let records = [
            "<r a=\"x>y\" b='/>' c=\"'\"/>",
            "<r><!-- </r> --><![CDATA[</r>]]><?pi </r>?></r>",
            "<r><r><r/></r><!DOCTYPE d [<!ELEMENT d (#PCDATA)>]></r>",
            "<中文 ü=\"1\">\r\n<r>>x</r></中文>",
            "<r><!----><?p?></r>",
        ];
        let input = format!("<db>\r\n {}<!-- m -->x </db>", records.join(" \n"));
        let mut want: Vec<TopEvent> = records
            .iter()
            .map(|r| TopEvent::Record(r.to_string()))
            .collect();
        want.push(TopEvent::Misc(Misc::Comment(" m ".into())));
        want.push(TopEvent::Misc(Misc::Text("x ".into())));
        want.push(TopEvent::RootEnd);
        assert_eq!(events(&input)[1..], want[..]);
    }

    #[test]
    fn records_know_their_input_position() {
        let input = "<db>\n  <a/>\n<b>中</b><c>x</c>\n</db>";
        let mut reader = TopLevelReader::new(input.as_bytes());
        let mut positions = Vec::new();
        while let Some(ev) = reader.next_event().unwrap() {
            if matches!(ev, TopEvent::Record(_)) {
                let at = reader.record_position();
                positions.push((at.line, at.column));
            }
        }
        assert_eq!(positions, [(2, 3), (3, 1), (3, 9)]);
    }

    #[test]
    fn a_record_split_over_many_reads_is_scanned_once() {
        // One 1 MiB record holding every construct the scan steps over,
        // read 7 bytes at a time.
        let unit = "<i k=\"a>b\" q='\"/>'>t &amp; u</i><!-- <i> --><![CDATA[<i>]]><?p >?><e/>\n";
        let mut record = String::from("<rec>");
        while record.len() < 1 << 20 {
            record.push_str(unit);
        }
        record.push_str("</rec>");
        let input = format!("<db>{record}</db>");
        let mut reader =
            TopLevelReader::new(std::io::BufReader::with_capacity(7, input.as_bytes()));
        assert!(matches!(
            reader.next_event().unwrap(),
            Some(TopEvent::RootStart { .. })
        ));
        assert_eq!(
            reader.next_event().unwrap(),
            Some(TopEvent::Record(record.clone()))
        );
        assert_eq!(reader.next_event().unwrap(), Some(TopEvent::RootEnd));
        // Rescanning from the record start on each read would examine
        // about `len² / 14` bytes.
        let examined = reader.pull.scanned_bytes() as usize;
        assert!(
            examined <= 2 * record.len(),
            "examined {examined} bytes for a {}-byte record",
            record.len()
        );
    }

    #[test]
    fn unbounded_records_report_the_token_path_error() {
        let fail = |input: &str| {
            let mut r = TopLevelReader::new(input.as_bytes());
            loop {
                match r.next_event() {
                    Err(StreamError::Xml(e)) => return e.to_string(),
                    Err(e) => panic!("unexpected {e}"),
                    Ok(None) => panic!("expected an error for {input:?}"),
                    Ok(Some(_)) => {}
                }
            }
        };
        // Markup no token starts with: the lexer's error, at its place.
        let bang = fail("<db><r><!x></r></db>");
        assert_eq!(
            bang,
            wmx_xml::parse("<db><r><!x></r></db>")
                .unwrap_err()
                .to_string()
        );
        // An earlier lexical error in the same record comes first.
        let first = fail("<db><r><t a=1/><1></r></db>");
        assert!(first.contains("1:13"), "{first}");
        // Input that ends inside a record, between tokens or inside one.
        assert_eq!(
            fail("<db><r><t>x"),
            "unexpected end of input while parsing element content (unclosed element)"
        );
        assert!(fail("<db><r><t").contains("a start tag at 1:10"));
    }

    /// A reader that returns at most `n` bytes per fill, to exercise
    /// chunk-boundary resumption.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        n: usize,
    }

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let take = self.n.min(self.data.len() - self.pos).min(buf.len());
            buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
            self.pos += take;
            Ok(take)
        }
    }

    #[test]
    fn tiny_chunks_and_multibyte_boundaries() {
        let input = "<db><r>中文 – héllo</r><r n=\"ü\"/></db>";
        let whole = events(input);
        for n in [1usize, 2, 3, 5] {
            let src = std::io::BufReader::with_capacity(
                8,
                Trickle {
                    data: input.as_bytes(),
                    pos: 0,
                    n,
                },
            );
            let mut reader = TopLevelReader::new(src);
            let mut out = Vec::new();
            while let Some(ev) = reader.next_event().unwrap() {
                out.push(ev);
            }
            assert_eq!(out, whole, "chunk size {n}");
        }
    }
}
