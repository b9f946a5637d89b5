//! XML substrate for WmXML.
//!
//! The WmXML paper's architecture (its Fig. 4) sits on top of an "XML
//! query engine" with full read/write access to documents. This crate is
//! the storage half of that engine: a from-scratch, dependency-free XML
//! processor with
//!
//! * a streaming [tokenizer](lexer) and recursive-descent [parser](mod@parser)
//!   for the XML 1.0 subset the system needs (elements, attributes, text,
//!   CDATA, comments, processing instructions, numeric/named character
//!   references, doctype skipping);
//! * a resumable [pull-token interface](pull) over the tokenizer
//!   ([`PullParser`]) that accepts input in arbitrary chunks with bounded
//!   memory — the foundation of the `wmx-stream` single-pass engine;
//! * a per-document [string interner](intern) ([`Sym`], [`Interner`]):
//!   element/attribute/PI names are interned once at lex time, name
//!   comparisons are integer compares, and the DOM stores 4-byte symbols
//!   instead of owned strings;
//! * an arena-based mutable [DOM](dom) ([`Document`], [`NodeId`]) with
//!   ordered children, attribute access, structural editing, and a
//!   lazily built, mutation-invalidated [`NameIndex`] (symbol → elements
//!   in document order) that the XPath engine queries instead of
//!   re-traversing the tree — the watermark encoder rewrites values and
//!   reorders siblings in place;
//! * [serializers](serialize) (compact, pretty, canonical) — the
//!   canonical form gives a stable byte representation used for document
//!   comparison in tests and experiments;
//! * a fluent [builder](build) used by the dataset generators.
//!
//! # Example
//!
//! ```
//! use wmx_xml::{parse, serialize::to_string};
//!
//! let doc = parse("<db><book year='1998'><title>DB Design</title></book></db>").unwrap();
//! let root = doc.root_element().unwrap();
//! let book = doc.first_child_element(root, "book").unwrap();
//! assert_eq!(doc.attribute(book, "year"), Some("1998"));
//! assert_eq!(to_string(&doc), "<db><book year=\"1998\"><title>DB Design</title></book></db>");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod dom;
pub mod error;
pub mod escape;
pub mod intern;
pub mod lexer;
pub mod parser;
pub mod pull;
pub mod scan;
pub mod serialize;
pub mod text;
pub mod token;

pub use build::ElementBuilder;
pub use dom::{Attribute, Document, NameIndex, NodeId, NodeKind};
pub use error::{Position, XmlError, XmlErrorKind};
pub use intern::{Interner, Sym};
pub use parser::{
    parse, parse_owned, parse_record, parse_seeded, parse_seeded_owned, parse_with_options,
    ParseOptions,
};
pub use pull::{PullParser, Pulled};
pub use serialize::{
    node_to_string, to_canonical_string, to_pretty_string, to_string, write_document,
    write_document_pretty,
};
pub use text::XmlText;
pub use token::{SpannedToken, SymAttribute, Token, TokenAttribute};
