//! Recursive-descent parser building a [`Document`] from the token stream.

use crate::dom::{Document, NodeId};
use crate::error::{Position, XmlError, XmlErrorKind};
use crate::intern::{Interner, Sym};
use crate::lexer::Lexer;
use crate::token::{SpannedToken, SymAttribute, Token};

/// Options controlling how the tree is built.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Drop text nodes that consist solely of whitespace (indentation
    /// between elements). Defaults to `true`, which is what the data-
    /// centric XML the paper targets wants. Text inside mixed content is
    /// unaffected unless it is all-whitespace.
    pub skip_whitespace_text: bool,
    /// Keep comment nodes. Defaults to `true`.
    pub keep_comments: bool,
    /// Keep processing instructions. Defaults to `true`.
    pub keep_processing_instructions: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            skip_whitespace_text: true,
            keep_comments: true,
            keep_processing_instructions: true,
        }
    }
}

/// Parses `input` with default [`ParseOptions`].
///
/// The input is copied once into a shared buffer so escape-free text
/// runs and attribute values become zero-copy spans. Callers that
/// already own the input should prefer [`parse_owned`], which skips
/// even that one copy.
pub fn parse(input: &str) -> Result<Document, XmlError> {
    parse_owned(input.to_string())
}

/// Parses an owned input buffer with default [`ParseOptions`] — the
/// zero-copy entry point: the buffer becomes the document's shared text
/// backing, and escape-free text/CDATA/attribute runs are stored as
/// spans into it without copying.
pub fn parse_owned(input: String) -> Result<Document, XmlError> {
    parse_seeded_owned(input, ParseOptions::default(), Interner::new())
}

/// Parses `input` with explicit options.
///
/// Names are interned once at lex time; the finished document takes over
/// the lexer's symbol table, so tree construction never re-hashes a
/// name.
pub fn parse_with_options(input: &str, options: ParseOptions) -> Result<Document, XmlError> {
    parse_seeded(input, options, Interner::new())
}

/// Parses `input` starting from a pre-populated symbol table.
///
/// Every name already in `seed` keeps its symbol id in the resulting
/// document; new names extend the table in first-occurrence order. Two
/// documents parsed from clones of the same seed therefore agree on the
/// symbol ids of all seeded names (and of any further names they
/// introduce in the same order) — the property the `wmx-stream` engine
/// uses to keep record symbols stable across a whole stream (see
/// [`parse_record`]), so per-record work keyed by [`Sym`] carries over
/// from record to record.
pub fn parse_seeded(
    input: &str,
    options: ParseOptions,
    seed: Interner,
) -> Result<Document, XmlError> {
    parse_seeded_owned(input.to_string(), options, seed)
}

/// [`parse_seeded`] over an owned buffer: the buffer is consumed
/// directly as the shared text backing, so values reach the DOM without
/// a per-value copy.
pub fn parse_seeded_owned(
    input: String,
    options: ParseOptions,
    seed: Interner,
) -> Result<Document, XmlError> {
    let start = Position { line: 1, column: 1 };
    parse_shared(input, options, seed, start, None)
}

/// Parses one record of a larger document — content that sits inside
/// its root element, such as one child element — under a root element
/// built from `root` and `attributes`, without lexing any root tag.
///
/// This is the streaming engine's per-record parse. `at` is where the
/// record starts in the whole input, so error positions are the
/// input's, as a parse of the whole document would report them. `seed`
/// must already hold `root` and the attribute names; the buffer becomes
/// the shared text backing, as in [`parse_seeded_owned`]. An empty
/// record gives a document holding only the root.
pub fn parse_record(
    record: String,
    root: Sym,
    attributes: &[SymAttribute],
    at: Position,
    seed: Interner,
) -> Result<Document, XmlError> {
    let options = ParseOptions::default();
    parse_shared(record, options, seed, at, Some((root, attributes)))
}

fn parse_shared(
    input: String,
    options: ParseOptions,
    seed: Interner,
    at: Position,
    root: Option<(Sym, &[SymAttribute])>,
) -> Result<Document, XmlError> {
    let buf = std::sync::Arc::new(input);
    let mut lexer = Lexer::from_shared_at(&buf, at);
    lexer.set_interner(seed);
    let result = build_tree(&mut lexer, options, root);
    let (zero_copy, materialized) = lexer.span_stats();
    crate::lexer::record_span_stats(zero_copy, materialized);
    result
}

/// Drives the lexer to completion, building the tree. With `root`, the
/// open-element stack starts with that element already open.
fn build_tree(
    lexer: &mut Lexer<'_>,
    options: ParseOptions,
    root: Option<(Sym, &[SymAttribute])>,
) -> Result<Document, XmlError> {
    let mut doc = Document::new();
    // Data-centric XML runs well under one node per 32 input bytes
    // (`<a>x</a>` is two nodes in nine bytes; real tags are longer), so
    // this reservation skips the arena's doubling copies without
    // overcommitting. Capped so a huge input cannot demand gigabytes up
    // front; past the cap the arena falls back to amortized growth.
    doc.reserve_nodes((lexer.remaining_len() / 32).min(1 << 20));
    // Stack of open elements; the document node is the base.
    let mut stack: Vec<NodeId> = vec![doc.document_node()];
    let mut open_names: Vec<Sym> = Vec::new();
    let mut saw_root = false;
    if let Some((name, attributes)) = root {
        let element = doc.create_element_with_attributes(name, attributes.to_vec())?;
        doc.attach_new_child(doc.document_node(), element);
        stack.push(element);
        open_names.push(name);
        saw_root = true;
    }
    let base = stack.len();

    while let Some(SpannedToken { token, position }) = lexer.next_token()? {
        let in_root = stack.len() > 1;
        let parent = *stack.last().expect("stack never empty");
        match token {
            Token::XmlDecl { content } => {
                doc.xml_decl = Some(content);
            }
            Token::Doctype { content } => {
                doc.doctype = Some(content);
            }
            Token::StartTag {
                name,
                attributes,
                self_closing,
            } => {
                if !in_root && saw_root {
                    return Err(XmlError::at(
                        XmlErrorKind::MultipleRoots,
                        position.line,
                        position.column,
                    ));
                }
                if !in_root {
                    saw_root = true;
                }
                let element = doc.create_element_with_attributes(name, attributes)?;
                doc.attach_new_child(parent, element);
                if !self_closing {
                    stack.push(element);
                    open_names.push(name);
                }
            }
            Token::EndTag { name } => {
                if !in_root {
                    return Err(XmlError::at(
                        XmlErrorKind::UnmatchedClose {
                            close: lexer.interner().resolve(name).to_string(),
                        },
                        position.line,
                        position.column,
                    ));
                }
                let open = open_names.pop().expect("open_names tracks stack");
                if open != name {
                    return Err(XmlError::at(
                        XmlErrorKind::MismatchedTag {
                            open: lexer.interner().resolve(open).to_string(),
                            close: lexer.interner().resolve(name).to_string(),
                        },
                        position.line,
                        position.column,
                    ));
                }
                stack.pop();
            }
            Token::Text { content } => {
                let all_whitespace = crate::scan::is_all_whitespace(content.as_str());
                if !in_root {
                    if all_whitespace {
                        continue;
                    }
                    return Err(XmlError::at(
                        if saw_root {
                            XmlErrorKind::TrailingContent
                        } else {
                            XmlErrorKind::NoRootElement
                        },
                        position.line,
                        position.column,
                    ));
                }
                if all_whitespace && options.skip_whitespace_text {
                    continue;
                }
                // Merge with a preceding text node (split by references or
                // CDATA boundaries in the source).
                if let Some(&last) = doc.children(parent).last() {
                    if doc.text(last).is_some()
                        && !matches!(doc.kind(last), crate::dom::NodeKind::CData(_))
                    {
                        let existing = doc.text(last).expect("checked");
                        let mut merged = String::with_capacity(existing.len() + content.len());
                        merged.push_str(existing);
                        merged.push_str(content.as_str());
                        doc.set_text(last, merged);
                        continue;
                    }
                }
                let t = doc.create_text(content)?;
                doc.attach_new_child(parent, t);
            }
            Token::CData { content } => {
                if !in_root {
                    return Err(XmlError::at(
                        XmlErrorKind::NoRootElement,
                        position.line,
                        position.column,
                    ));
                }
                let t = doc.create_cdata(content)?;
                doc.attach_new_child(parent, t);
            }
            Token::Comment { content } => {
                if options.keep_comments {
                    let c = doc.create_comment(content)?;
                    doc.attach_new_child(parent, c);
                }
            }
            Token::ProcessingInstruction { target, data } => {
                if options.keep_processing_instructions {
                    // PI targets travel as plain strings in tokens (they
                    // are rare); intern into the table the document will
                    // take over below.
                    let sym = lexer.interner_mut().intern(&target);
                    let p = doc.create_pi_raw(sym, data)?;
                    doc.attach_new_child(parent, p);
                }
            }
        }
    }

    if stack.len() > base {
        let position = lexer.position();
        return Err(XmlError::at(
            XmlErrorKind::UnexpectedEof {
                while_parsing: "element content (unclosed element)",
            },
            position.line,
            position.column,
        ));
    }
    doc.install_interner(lexer.take_interner());
    if doc.root_element().is_none() {
        return Err(XmlError::dom(XmlErrorKind::NoRootElement));
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::NodeKind;

    #[test]
    fn parses_paper_figure_1a() {
        // db1.xml from the paper (abridged).
        let input = r#"
<db>
  <book publisher="mkp">
    <title>Readings in Database Systems</title>
    <author>Stonebraker</author>
    <author>Hellerstein</author>
    <editor>Harrypotter</editor>
    <year>1998</year>
  </book>
  <book publisher="acm">
    <title>Database Design</title>
    <writer>Berstein</writer>
    <writer>Newcomer</writer>
    <editor>Gamer</editor>
    <year>1998</year>
  </book>
</db>"#;
        let doc = parse(input).unwrap();
        let db = doc.root_element().unwrap();
        assert_eq!(doc.name(db), Some("db"));
        let books: Vec<_> = doc.child_elements_named(db, "book").collect();
        assert_eq!(books.len(), 2);
        assert_eq!(doc.attribute(books[0], "publisher"), Some("mkp"));
        let title = doc.first_child_element(books[1], "title").unwrap();
        assert_eq!(doc.text_content(title), "Database Design");
        assert_eq!(doc.child_elements_named(books[0], "author").count(), 2);
    }

    #[test]
    fn whitespace_skipping_configurable() {
        let input = "<a>\n  <b>x</b>\n</a>";
        let trimmed = parse(input).unwrap();
        let a = trimmed.root_element().unwrap();
        assert_eq!(trimmed.children(a).len(), 1);

        let kept = parse_with_options(
            input,
            ParseOptions {
                skip_whitespace_text: false,
                ..ParseOptions::default()
            },
        )
        .unwrap();
        let a = kept.root_element().unwrap();
        assert_eq!(kept.children(a).len(), 3);
    }

    #[test]
    fn mixed_content_preserved() {
        let doc = parse("<p>Hello <b>world</b>!</p>").unwrap();
        let p = doc.root_element().unwrap();
        assert_eq!(doc.children(p).len(), 3);
        assert_eq!(doc.text_content(p), "Hello world!");
    }

    #[test]
    fn adjacent_text_runs_merged() {
        let doc = parse("<a>one &amp; two</a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.children(a).len(), 1);
        assert_eq!(doc.text_content(a), "one & two");
    }

    #[test]
    fn cdata_not_merged_with_text() {
        let doc = parse("<a>x<![CDATA[<raw>]]>y</a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.children(a).len(), 3);
        assert_eq!(doc.text_content(a), "x<raw>y");
        assert!(matches!(doc.kind(doc.children(a)[1]), NodeKind::CData(_)));
    }

    #[test]
    fn prolog_captured() {
        let doc = parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?><!DOCTYPE db><db/>").unwrap();
        assert_eq!(
            doc.xml_decl.as_deref(),
            Some("version=\"1.0\" encoding=\"UTF-8\"")
        );
        assert_eq!(doc.doctype.as_deref(), Some("db"));
    }

    #[test]
    fn comments_and_pis_kept_or_dropped() {
        let input = "<a><!-- c --><?pi data?><b/></a>";
        let kept = parse(input).unwrap();
        let a = kept.root_element().unwrap();
        assert_eq!(kept.children(a).len(), 3);

        let dropped = parse_with_options(
            input,
            ParseOptions {
                keep_comments: false,
                keep_processing_instructions: false,
                ..ParseOptions::default()
            },
        )
        .unwrap();
        let a = dropped.root_element().unwrap();
        assert_eq!(dropped.children(a).len(), 1);
    }

    #[test]
    fn error_mismatched_tag() {
        let err = parse("<a><b></a>").unwrap_err();
        assert!(matches!(
            err.kind,
            XmlErrorKind::MismatchedTag { ref open, ref close } if open == "b" && close == "a"
        ));
    }

    #[test]
    fn error_unclosed_element() {
        let err = parse("<a><b>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnexpectedEof { .. }));
    }

    #[test]
    fn error_multiple_roots() {
        let err = parse("<a/><b/>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::MultipleRoots));
    }

    #[test]
    fn error_stray_close() {
        let err = parse("</a>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnmatchedClose { .. }));
    }

    #[test]
    fn error_text_outside_root() {
        assert!(parse("hello<a/>").is_err());
        assert!(parse("<a/>trailing").is_err());
    }

    #[test]
    fn error_empty_input() {
        let err = parse("").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::NoRootElement));
        assert!(parse("   \n ").is_err());
    }

    #[test]
    fn self_closing_tags() {
        let doc = parse("<db><item id=\"1\"/><item id=\"2\"/></db>").unwrap();
        let db = doc.root_element().unwrap();
        assert_eq!(doc.child_elements_named(db, "item").count(), 2);
    }

    #[test]
    fn deeply_nested() {
        let depth = 500;
        let mut input = String::new();
        for i in 0..depth {
            input.push_str(&format!("<n{i}>"));
        }
        input.push_str("leaf");
        for i in (0..depth).rev() {
            input.push_str(&format!("</n{i}>"));
        }
        let doc = parse(&input).unwrap();
        assert_eq!(doc.element_count(), depth);
        assert_eq!(doc.text_content(doc.root_element().unwrap()), "leaf");
    }

    #[test]
    fn seeded_parse_keeps_prototype_symbol_ids() {
        let mut seed = Interner::new();
        let db = seed.intern("db");
        let book = seed.intern("book");
        let title = seed.intern("title");
        for input in [
            "<db><book><title>A</title></book></db>",
            // Different document shape, same vocabulary: ids must agree.
            "<db><book><extra/><title>B</title></book></db>",
        ] {
            let doc = parse_seeded(input, ParseOptions::default(), seed.clone()).unwrap();
            assert_eq!(doc.lookup_sym("db"), Some(db));
            assert_eq!(doc.lookup_sym("book"), Some(book));
            assert_eq!(doc.lookup_sym("title"), Some(title));
        }
        // Unseeded names extend past the seed.
        let doc = parse_seeded("<db><new/></db>", ParseOptions::default(), seed.clone()).unwrap();
        assert!(doc.lookup_sym("new").unwrap().index() >= seed.len());
    }

    #[test]
    fn record_parses_under_its_root_at_its_input_position() {
        let mut seed = Interner::new();
        let db = seed.intern("db");
        let version = seed.intern("version");
        let attributes = [SymAttribute {
            name: version,
            value: "2".into(),
        }];
        let at = Position { line: 3, column: 5 };
        let record = "<book><title>B</title></book>";
        let doc = parse_record(record.into(), db, &attributes, at, seed.clone()).unwrap();
        assert_eq!(
            crate::to_string(&doc),
            "<db version=\"2\"><book><title>B</title></book></db>"
        );
        assert_eq!(doc.lookup_sym("db"), Some(db));
        // Errors sit where the record sits in the whole input, as the
        // whole-document parse reports them.
        let whole = "<db version=\"2\">\n<book/>\n    <book><title>B</yaer></book>\n</db>";
        let bad = "<book><title>B</yaer></book>";
        let err = parse_record(bad.into(), db, &attributes, at, seed.clone()).unwrap_err();
        assert_eq!(err, parse(whole).unwrap_err());
        assert_eq!(
            err.to_string(),
            "mismatched close tag </yaer> for open element <title> at 3:19"
        );
        // An empty record is the root alone; an unclosed one is an error.
        let empty = parse_record(String::new(), db, &[], at, seed.clone()).unwrap();
        assert_eq!(crate::to_string(&empty), "<db/>");
        let open = parse_record("<book>".into(), db, &[], at, seed).unwrap_err();
        assert!(matches!(open.kind, XmlErrorKind::UnexpectedEof { .. }));
    }

    #[test]
    fn a_record_interner_truncates_back_to_its_seed() {
        let mut seed = Interner::new();
        let names = ["db", "book", "title"];
        let syms: Vec<Sym> = names.iter().map(|n| seed.intern(n)).collect();
        let at = Position { line: 1, column: 1 };
        let record = "<book><note>n</note><title>A</title></book>";
        let doc = parse_record(record.into(), syms[0], &[], at, seed.clone()).unwrap();
        assert!(doc.lookup_sym("note").is_some());
        let mut recycled = doc.into_interner();
        recycled.truncate(seed.len());
        assert_eq!(recycled.len(), seed.len());
        assert_eq!(recycled.lookup("note"), None);
        for (name, sym) in names.iter().zip(&syms) {
            assert_eq!(recycled.lookup(name), Some(*sym));
        }
        // The next record interns exactly as it would into a fresh clone.
        let next = "<book><title>B</title><isbn>1</isbn></book>";
        let reused = parse_record(next.into(), syms[0], &[], at, recycled).unwrap();
        let fresh = parse_record(next.into(), syms[0], &[], at, seed).unwrap();
        let table = |d: &Document| d.interner().names().map(str::to_string).collect::<Vec<_>>();
        assert_eq!(table(&reused), table(&fresh));
    }

    #[test]
    fn comments_between_root_siblings_allowed() {
        let doc = parse("<!-- head --><a/><!-- tail -->").unwrap();
        assert!(doc.root_element().is_some());
    }
}
