//! Per-document string interning.
//!
//! Element names, attribute names, and PI targets repeat massively in
//! data-centric XML (a million-record document has a handful of distinct
//! tag names). Interning maps each distinct name to a dense [`Sym`]
//! handle so the DOM stores four bytes per name instead of an owned
//! `String`, name comparisons become integer compares, and downstream
//! layers (the XPath evaluator's [`crate::dom::NameIndex`], unit
//! identifier hashing) can key work by symbol.
//!
//! Symbols are **scoped to one interner** (normally one [`crate::Document`]):
//! a `Sym` from one document must never be resolved against another.
//! [`crate::dom::Document::import_subtree`] re-interns names when copying
//! across documents for exactly this reason. Within one input, symbol
//! assignment is deterministic — first occurrence order — so two parses
//! of the same text produce identical symbol tables regardless of how
//! the input was chunked.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast non-cryptographic hasher for the intern map (the same
/// multiply-rotate-xor scheme rustc uses for its symbol tables). The
/// interner hashes every element/attribute name occurrence on the parse
/// hot path, and the names are short ASCII identifiers — SipHash's
/// DoS-resistance buys nothing here (the map is scoped to one document
/// and bounded by the distinct-name vocabulary) while costing several
/// times the lookup.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A handle to an interned name. Copy, 4 bytes, meaningful only
/// together with the [`Interner`] (or [`crate::Document`]) it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The dense index of this symbol (0-based, in first-intern order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// Slots in the direct-mapped recent-name cache.
const CACHE_SIZE: usize = 16;

/// Sentinel for an empty cache slot (no symbol table holds 2^32 names:
/// [`Interner::intern`] panics long before).
const CACHE_EMPTY: u32 = u32::MAX;

/// Cache slot for `name` (which must be non-empty): first byte and
/// length spread the tiny, highly repetitive tag vocabularies apart.
#[inline]
fn cache_slot(name: &str) -> usize {
    (name.as_bytes()[0] as usize ^ (name.len() << 3)) & (CACHE_SIZE - 1)
}

/// A string interner handing out dense [`Sym`] handles.
#[derive(Debug, Clone)]
pub struct Interner {
    /// Resolution table: `names[sym.index()]` is the name text.
    names: Vec<Box<str>>,
    /// Reverse map for interning.
    map: HashMap<Box<str>, Sym, FxBuildHasher>,
    /// Direct-mapped cache of recently interned symbols. The lexer
    /// interns every element/attribute name *occurrence*, and documents
    /// cycle through a handful of names — most interns resolve here
    /// with one short memcmp instead of a hash plus map probe.
    cache: [u32; CACHE_SIZE],
}

impl Default for Interner {
    fn default() -> Self {
        Interner {
            names: Vec::new(),
            map: HashMap::default(),
            cache: [CACHE_EMPTY; CACHE_SIZE],
        }
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `name`, returning its symbol. Repeated calls with the
    /// same text return the same symbol.
    pub fn intern(&mut self, name: &str) -> Sym {
        if name.is_empty() {
            return self.intern_slow(name);
        }
        let slot = cache_slot(name);
        let cached = self.cache[slot];
        if let Some(text) = self.names.get(cached as usize) {
            if &**text == name {
                return Sym(cached);
            }
        }
        let sym = self.intern_slow(name);
        self.cache[slot] = sym.0;
        sym
    }

    fn intern_slow(&mut self, name: &str) -> Sym {
        if let Some(&sym) = self.map.get(name) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.names.len()).expect("more than u32::MAX distinct names"));
        self.names.push(name.into());
        self.map.insert(name.into(), sym);
        sym
    }

    /// The symbol for `name`, if it has been interned. Never allocates —
    /// this is the read-only query used by name lookups on immutable
    /// documents (an un-interned name cannot occur in the document).
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.map.get(name).copied()
    }

    /// The text of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner (out of range).
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no names have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All interned names, in symbol order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(AsRef::as_ref)
    }

    /// Rolls the table back to `len` entries, forgetting newer symbols;
    /// the first `len` symbols keep their ids. The pull parser uses it to
    /// discard names interned while lexing a token that turned out to be
    /// incomplete at a chunk boundary (a truncated tag name must not
    /// occupy a symbol, or chunked and batch lexing would assign
    /// different ids). The stream engine uses it to return one record's
    /// table to its prototype's names, so the next record reuses the
    /// table's allocations instead of cloning the prototype.
    pub fn truncate(&mut self, len: usize) {
        if self.names.len() <= len {
            return; // nothing to forget: the recent-name cache stays valid
        }
        while self.names.len() > len {
            let name = self.names.pop().expect("length checked");
            self.map.remove(&*name);
        }
        // Discarded symbols may sit in the recent-name cache; a blanket
        // reset keeps every cached entry pointing at a live name.
        self.cache = [CACHE_EMPTY; CACHE_SIZE];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_resolve_roundtrip() {
        let mut i = Interner::new();
        let book = i.intern("book");
        let year = i.intern("year");
        assert_eq!(i.resolve(book), "book");
        assert_eq!(i.resolve(year), "year");
        assert_ne!(book, year);
    }

    #[test]
    fn interning_deduplicates() {
        let mut i = Interner::new();
        let a = i.intern("title");
        let b = i.intern("title");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.lookup("ghost"), None);
        assert!(i.is_empty());
        let s = i.intern("real");
        assert_eq!(i.lookup("real"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn symbols_are_dense_and_ordered() {
        let mut i = Interner::new();
        let syms: Vec<Sym> = ["a", "b", "c"].iter().map(|n| i.intern(n)).collect();
        for (k, s) in syms.iter().enumerate() {
            assert_eq!(s.index(), k);
        }
        let names: Vec<&str> = i.names().collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn display_form() {
        let mut i = Interner::new();
        let s = i.intern("x");
        assert_eq!(s.to_string(), "sym#0");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// intern → resolve returns the original text for every name in
        /// an arbitrary (possibly repetitive) sequence.
        #[test]
        fn intern_resolve_roundtrip(names in prop::collection::vec("[a-zA-Z_][a-zA-Z0-9._-]{0,12}", 1..40)) {
            let mut interner = Interner::new();
            let syms: Vec<Sym> = names.iter().map(|n| interner.intern(n)).collect();
            for (name, sym) in names.iter().zip(&syms) {
                prop_assert_eq!(interner.resolve(*sym), name.as_str());
            }
        }

        /// Two names get the same symbol iff they are the same text, and
        /// the table size equals the number of distinct names.
        #[test]
        fn dedup_is_exact(names in prop::collection::vec("[a-z]{1,4}", 1..60)) {
            let mut interner = Interner::new();
            let syms: Vec<Sym> = names.iter().map(|n| interner.intern(n)).collect();
            for (i, a) in names.iter().enumerate() {
                for (j, b) in names.iter().enumerate() {
                    prop_assert_eq!(syms[i] == syms[j], a == b);
                }
            }
            let distinct: std::collections::HashSet<&String> = names.iter().collect();
            prop_assert_eq!(interner.len(), distinct.len());
        }

        /// Symbol assignment is deterministic (first-occurrence order):
        /// re-interning the same sequence into a fresh interner yields
        /// identical symbols, and lookup agrees with intern.
        #[test]
        fn deterministic_across_interners(names in prop::collection::vec("[a-z]{1,5}", 1..40)) {
            let mut a = Interner::new();
            let mut b = Interner::new();
            let sa: Vec<Sym> = names.iter().map(|n| a.intern(n)).collect();
            let sb: Vec<Sym> = names.iter().map(|n| b.intern(n)).collect();
            prop_assert_eq!(&sa, &sb);
            for (name, sym) in names.iter().zip(&sa) {
                prop_assert_eq!(a.lookup(name), Some(*sym));
            }
        }

        /// Cross-document isolation: documents intern independently, so
        /// the same name may map to different ids, but resolution through
        /// the owning interner always returns the right text.
        #[test]
        fn cross_interner_isolation(
            left in prop::collection::vec("[a-z]{1,4}", 1..20),
            right in prop::collection::vec("[a-z]{1,4}", 1..20),
        ) {
            let mut a = Interner::new();
            let mut b = Interner::new();
            let sa: Vec<Sym> = left.iter().map(|n| a.intern(n)).collect();
            let sb: Vec<Sym> = right.iter().map(|n| b.intern(n)).collect();
            for (name, sym) in left.iter().zip(&sa) {
                prop_assert_eq!(a.resolve(*sym), name.as_str());
            }
            for (name, sym) in right.iter().zip(&sb) {
                prop_assert_eq!(b.resolve(*sym), name.as_str());
            }
            // A symbol's meaning is per-interner: ids may collide across
            // interners while naming different strings.
            prop_assert!(a.names().all(|n| left.iter().any(|l| l == n)));
            prop_assert!(b.names().all(|n| right.iter().any(|r| r == n)));
        }
    }
}
