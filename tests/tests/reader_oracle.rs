//! Oracle suite for the streaming reader's record boundaries.
//!
//! `TopLevelReader` bounds each record with a byte scan that builds no
//! tokens. The oracle below is the token-path capture it replaced: lex
//! every token with the pull parser and end a record where an end tag
//! brings the depth back to zero. On generated documents full of
//! markup that looks like a boundary — comments, CDATA and PIs holding
//! `</r>`, `]]>` and `-->` look-alikes, `>`, `/>` and quotes inside
//! attribute values, self-closing and nested same-name records,
//! multibyte text, CRLF, and mixed content between records — both must
//! produce the same event sequence at every read size.

use proptest::prelude::*;
use proptest::TestRng;
use std::io::BufReader;
use wmx_stream::{Misc, TopEvent, TopLevelReader};
use wmx_xml::pull::{PullParser, Pulled};
use wmx_xml::scan::is_all_whitespace;
use wmx_xml::token::Token;

/// The token-path splitter over a well-formed document.
fn oracle(input: &str) -> Vec<TopEvent> {
    let mut pull = PullParser::from_complete(input);
    let (mut in_root, mut after_root) = (false, false);
    let (mut depth, mut start) = (0usize, 0usize);
    let mut out = Vec::new();
    loop {
        let at = pull.stream_offset() as usize;
        let token = match pull.next().expect("generated documents lex") {
            Pulled::Token(t) => t.token,
            Pulled::End => return out,
            Pulled::NeedMore => unreachable!("a complete input never needs more"),
        };
        let end = pull.stream_offset() as usize;
        let misc: fn(Misc) -> TopEvent = match (in_root, after_root) {
            (true, _) => TopEvent::Misc,
            (false, false) => TopEvent::PrologMisc,
            (false, true) => TopEvent::TrailingMisc,
        };
        let event = match token {
            Token::StartTag { self_closing, .. } if depth > 0 || in_root => {
                if depth == 0 {
                    start = at;
                }
                depth += usize::from(!self_closing);
                if depth > 0 {
                    continue;
                }
                TopEvent::Record(input[start..end].to_string())
            }
            Token::EndTag { .. } if depth > 0 => {
                depth -= 1;
                if depth > 0 {
                    continue;
                }
                TopEvent::Record(input[start..end].to_string())
            }
            _ if depth > 0 => continue,
            Token::StartTag {
                name,
                attributes,
                self_closing,
            } => {
                in_root = !self_closing;
                after_root = self_closing;
                let names = pull.interner();
                out.push(TopEvent::RootStart {
                    name: names.resolve(name).to_string(),
                    attributes: attributes.iter().map(|a| a.resolve(names)).collect(),
                });
                if in_root {
                    continue;
                }
                TopEvent::RootEnd
            }
            Token::EndTag { .. } => {
                (in_root, after_root) = (false, true);
                TopEvent::RootEnd
            }
            Token::Text { content } if is_all_whitespace(&content) => continue,
            Token::Text { content } => TopEvent::Misc(Misc::Text(content.into_string())),
            Token::CData { content } if content.is_empty() => continue,
            Token::CData { content } => TopEvent::Misc(Misc::CData(content.into_string())),
            Token::Comment { content } => misc(Misc::Comment(content)),
            Token::ProcessingInstruction { target, data } => misc(Misc::Pi { target, data }),
            Token::XmlDecl { content } => TopEvent::XmlDecl(content),
            Token::Doctype { content } => TopEvent::Doctype(content),
        };
        out.push(event);
    }
}

fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len())]
}

const NAMES: &[&str] = &["r", "book", "r", "中文", "t-1"];
const SPACE: &[&str] = &["", " ", "\n  ", "\r\n", "\t"];
const TEXT: &[&str] = &[
    "x",
    "a &amp; b",
    "ü – 中",
    "]]&gt;",
    "--&gt;",
    "1 > 0",
    "\r\n",
];
/// Markup that must not end a record or open an element.
const TRAPS: &[&str] = &[
    "<!-- </r> ]]> <r> -->",
    "<!---->",
    "<!--> </r> -->",
    "<!---> <r> -->",
    "<![CDATA[</r> --> <r/>]]>",
    "<![CDATA[]]>",
    "<?pi </r> ]]> -->?>",
    "<?empty?>",
];
/// Attribute values holding `>`, `/>` and the other quote.
const ATTRS: &[&str] = &[
    " a=\"x>y\"",
    " b='/>'",
    " c=\"it's\"",
    " d='say \"hi\"'",
    " e = \"1\"",
];

fn element(rng: &mut TestRng, depth: usize, out: &mut String) {
    let name = pick(rng, NAMES);
    out.push('<');
    out.push_str(name);
    let mut attrs: Vec<&str> = (0..rng.below(3)).map(|_| pick(rng, ATTRS)).collect();
    attrs.sort_unstable();
    attrs.dedup_by_key(|a| a.trim_start().as_bytes()[0]);
    attrs.iter().for_each(|a| out.push_str(a));
    if rng.below(4) == 0 {
        out.push_str(pick(rng, &["/>", " />"]));
        return;
    }
    out.push('>');
    for _ in 0..rng.below(4) {
        match rng.below(4) {
            0 if depth < 4 => element(rng, depth + 1, out),
            0 | 1 => out.push_str(pick(rng, TEXT)),
            2 => out.push_str(pick(rng, TRAPS)),
            _ => out.push_str(pick(rng, SPACE)),
        }
    }
    out.push_str("</");
    out.push_str(name);
    out.push_str(pick(rng, &[">", " >"]));
}

/// A well-formed document with records and mixed root content.
fn document(seed: u64) -> String {
    let rng = &mut TestRng::seed_from_u64(seed);
    let mut doc = String::new();
    if rng.below(2) == 0 {
        doc.push_str("<?xml version=\"1.0\"?>\r\n");
    }
    doc.push_str(pick(rng, &["", "<!-- head -->", "<?style x?>\n"]));
    doc.push_str("<db id=\"1\" note='a>b'>");
    for _ in 0..rng.below(12) {
        match rng.below(6) {
            0 => doc.push_str(pick(rng, TEXT)),
            1 => doc.push_str(pick(rng, TRAPS)),
            2 => doc.push_str(pick(rng, SPACE)),
            _ => element(rng, 1, &mut doc),
        }
    }
    doc.push_str("</db>");
    doc.push_str(pick(rng, &["", "\n", "<!-- tail -->\r\n", "<?end?>"]));
    doc
}

fn read(input: &str, capacity: usize) -> Vec<TopEvent> {
    let mut reader = TopLevelReader::new(BufReader::with_capacity(capacity, input.as_bytes()));
    let mut out = Vec::new();
    while let Some(event) = reader.next_event().expect("generated documents read") {
        out.push(event);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn scanner_splits_as_the_token_path_at_every_read_size(seed in any::<u64>()) {
        let doc = document(seed);
        prop_assert!(wmx_xml::parse(&doc).is_ok(), "generated an invalid document: {doc:?}");
        let want = oracle(&doc);
        for capacity in (1..=7).chain([8192]) {
            prop_assert_eq!(&read(&doc, capacity), &want, "capacity {} on {:?}", capacity, doc);
        }
    }
}

#[test]
fn the_oracle_sees_records() {
    // Guard the generator: over the seeds it produces records of every
    // shape the suite is meant to cover.
    let docs: Vec<String> = (0..200).map(document).collect();
    let records: Vec<String> = docs
        .iter()
        .flat_map(|d| oracle(d))
        .filter_map(|e| match e {
            TopEvent::Record(r) => Some(r),
            _ => None,
        })
        .collect();
    for needle in [
        "<!--",
        "<![CDATA[",
        "<?pi",
        "/>",
        "中文",
        "\r\n",
        "a=\"x>y\"",
    ] {
        assert!(
            records.iter().any(|r| r.contains(needle)),
            "no record holds {needle:?}"
        );
    }
    assert!(records
        .iter()
        .any(|r| r.starts_with("<r") && r[2..].contains("<r")));
}
