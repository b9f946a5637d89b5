//! Workload inputs, generated from the seed before any timing starts.
//!
//! Every operation sees only the bytes built here: the unmarked
//! original, the owner's marked copy, and the copies a suspect might
//! hold (altered, digit-garbled, truncated, reorganized).

use wmx_attacks::{
    AlterationAttack, GarbleAttack, GarbleMode, ReorganizationAttack, ShuffleAttack,
    TruncationAttack,
};
use wmx_core::{embed, StoredQuery, Watermark};
use wmx_crypto::SecretKey;
use wmx_data::library::{self, LibraryConfig};
use wmx_data::publications::{self, PublicationsConfig};
use wmx_data::Dataset;
use wmx_rewrite::transform::{FieldPlacement, Layout};
use wmx_rewrite::{AttrBinding, EntityBinding, SchemaBinding, SchemaMapping};
use wmx_stream::StreamContext;

/// Detection threshold τ on the matched-bit fraction.
pub const THRESHOLD: f64 = 0.85;

/// Watermark length in bits.
pub const WATERMARK_BITS: usize = 24;

/// The benchmark's workloads. Why each exists is in README.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ~5k publications records of ~170 bytes: per-record machinery.
    PubsSmallRecords,
    /// ~2k library items of ~3 KB with image covers: mark/extract plug-ins.
    LibraryFatRecords,
    /// A ~5k-record marked publications document after attacks.
    SuspectCopies,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PubsSmallRecords,
        Workload::LibraryFatRecords,
        Workload::SuspectCopies,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PubsSmallRecords => "pubs-small-records",
            Workload::LibraryFatRecords => "library-fat-records",
            Workload::SuspectCopies => "suspect-copies",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Records in the workload's document.
    pub fn records(self) -> usize {
        match self {
            Workload::PubsSmallRecords => 5_000,
            Workload::LibraryFatRecords => 2_000,
            Workload::SuspectCopies => 5_000,
        }
    }
}

/// What a correct detector must report on a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Detected; forensic passes find no tampering.
    Clean,
    /// Detected; forensic passes flag some records but not all.
    Tampered,
    /// A partial verdict: detected over a strict prefix of the records.
    Truncated,
}

/// One document a detector reads.
pub struct DocCopy {
    pub name: &'static str,
    pub text: String,
    pub expect: Expect,
}

/// Everything a workload's operations read.
pub struct Inputs {
    /// Semantic package (binding, FDs, encoder config); its document is
    /// dropped once serialized.
    pub dataset: Dataset,
    pub key: SecretKey,
    pub watermark: Watermark,
    /// Records in the original document.
    pub records: usize,
    /// The owner's safeguarded identity queries.
    pub queries: Vec<StoredQuery>,
    /// Unmarked bytes: the embed input and the false-positive probe.
    pub original: String,
    /// Marked bytes every embed engine must reproduce exactly.
    pub marked: String,
    /// Read by `*_detect`.
    pub detect_copies: Vec<DocCopy>,
    /// Read by `dom_forensic` (the DOM cannot parse a truncated copy).
    pub dom_forensic_copies: Vec<DocCopy>,
    /// Read by `stream_forensic` and `par_forensic`.
    pub stream_forensic_copies: Vec<DocCopy>,
    /// Read by `reorg_detect` through `mapping`.
    pub reorg_copies: Vec<DocCopy>,
    pub mapping: SchemaMapping,
}

impl Inputs {
    pub fn ctx(&self) -> StreamContext<'_> {
        StreamContext {
            binding: &self.dataset.binding,
            fds: &self.dataset.fds,
            config: &self.dataset.config,
        }
    }
}

/// Builds a workload's inputs from `seed`; the same seed gives the same
/// bytes.
pub fn build(workload: Workload, seed: u64) -> Inputs {
    build_sized(workload, seed, workload.records())
}

/// [`build`] with `records` records instead of the workload's count.
pub fn build_sized(workload: Workload, seed: u64, records: usize) -> Inputs {
    let dataset = match workload {
        Workload::PubsSmallRecords | Workload::SuspectCopies => {
            publications::generate(&PublicationsConfig {
                records,
                editors: 40,
                seed,
                gamma: 3,
            })
        }
        Workload::LibraryFatRecords => library::generate(&LibraryConfig {
            records,
            image_size: 44,
            seed,
            gamma: 2,
        }),
    };
    let key = SecretKey::from_passphrase(&format!("perfbench-owner-{seed}"));
    let watermark = Watermark::from_message(&format!("(c) perfbench {seed}"), WATERMARK_BITS);
    let original = wmx_xml::to_string(&dataset.doc);
    let mut marked_doc = dataset.doc.clone();
    let report = embed(
        &mut marked_doc,
        &dataset.binding,
        &dataset.fds,
        &dataset.config,
        &key,
        &watermark,
    )
    .expect("generated data embeds");
    let marked = wmx_xml::to_string(&marked_doc);
    let copy = |name, text: &String, expect| DocCopy {
        name,
        text: text.clone(),
        expect,
    };

    let (detect_copies, dom_forensic_copies, stream_forensic_copies, reorg_copies, mapping);
    match workload {
        Workload::PubsSmallRecords | Workload::LibraryFatRecords => {
            // The licensee's copy arrives intact: detection, and forensic
            // detection asking "was anything touched?", read the marked
            // bytes as published.
            detect_copies = vec![copy("marked", &marked, Expect::Clean)];
            dom_forensic_copies = vec![copy("marked", &marked, Expect::Clean)];
            stream_forensic_copies = vec![copy("marked", &marked, Expect::Clean)];
            let (layout, root, entity, target) = if workload == Workload::LibraryFatRecords {
                (catalog_layout(), "catalog", "item", catalog_binding())
            } else {
                (
                    publications::db2_layout(),
                    "db",
                    "book",
                    publications::db2_binding(),
                )
            };
            let reorganized = ReorganizationAttack::new(entity, root, layout)
                .apply(&marked_doc, &dataset.binding)
                .expect("reorganize marked copy");
            reorg_copies = vec![DocCopy {
                name: "reorganized",
                text: wmx_xml::to_string(&reorganized),
                expect: Expect::Clean,
            }];
            mapping = SchemaMapping::new(dataset.binding.clone(), target).expect("mapping");
        }
        Workload::SuspectCopies => {
            let mut altered_doc = marked_doc.clone();
            AlterationAttack::values(0.30, vec!["//book/year".into()], seed ^ 0xA17E)
                .apply(&mut altered_doc);
            let altered = wmx_xml::to_string(&altered_doc);
            let garbled = String::from_utf8(
                GarbleAttack::new(0.45, 4_000, GarbleMode::ScrambleDigits, seed).apply(&altered),
            )
            .expect("digit scramble keeps UTF-8");
            let truncated = TruncationAttack::new(0.60).apply(&marked);
            let mut reorganized =
                ReorganizationAttack::new("book", "db", publications::db2_layout())
                    .apply(&marked_doc, &dataset.binding)
                    .expect("reorganize marked copy");
            ShuffleAttack::new(seed ^ 0x5417).apply(&mut reorganized);

            detect_copies = vec![copy("altered", &altered, Expect::Tampered)];
            dom_forensic_copies = vec![copy("altered", &altered, Expect::Tampered)];
            stream_forensic_copies = vec![
                DocCopy {
                    name: "garbled",
                    text: garbled,
                    expect: Expect::Tampered,
                },
                DocCopy {
                    name: "truncated",
                    text: truncated,
                    expect: Expect::Truncated,
                },
            ];
            reorg_copies = vec![DocCopy {
                name: "reorganized+shuffled",
                text: wmx_xml::to_string(&reorganized),
                expect: Expect::Clean,
            }];
            mapping = SchemaMapping::new(dataset.binding.clone(), publications::db2_binding())
                .expect("mapping");
        }
    }

    let mut dataset = dataset;
    dataset.doc = wmx_xml::Document::new();
    Inputs {
        dataset,
        key,
        watermark,
        records,
        queries: report.queries,
        original,
        marked,
        detect_copies,
        dom_forensic_copies,
        stream_forensic_copies,
        reorg_copies,
        mapping,
    }
}

/// A flat re-layout of the library: every tag renamed, the key moved.
fn catalog_layout() -> Layout {
    Layout::Flat {
        record_element: "entry".into(),
        fields: vec![
            ("id".into(), FieldPlacement::Attribute("ref".into())),
            ("title".into(), FieldPlacement::ChildText("name".into())),
            ("pages".into(), FieldPlacement::ChildText("length".into())),
            ("price".into(), FieldPlacement::ChildText("cost".into())),
            (
                "abstract".into(),
                FieldPlacement::ChildText("summary".into()),
            ),
            ("cover".into(), FieldPlacement::ChildText("image".into())),
        ],
    }
}

/// The binding matching [`catalog_layout`].
fn catalog_binding() -> SchemaBinding {
    SchemaBinding::new(
        "library-catalog",
        vec![EntityBinding::new(
            "item",
            "/catalog/entry",
            "id",
            vec![
                ("id", AttrBinding::Attribute("ref".into())),
                ("title", AttrBinding::ChildText("name".into())),
                ("pages", AttrBinding::ChildText("length".into())),
                ("price", AttrBinding::ChildText("cost".into())),
                ("abstract", AttrBinding::ChildText("summary".into())),
                ("cover", AttrBinding::ChildText("image".into())),
            ],
        )
        .expect("static binding")],
    )
}
