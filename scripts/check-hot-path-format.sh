#!/usr/bin/env sh
# Hot-path allocation guard: the embed/detect loops in wmx-core and the
# per-record loop in wmx-stream (engine, report accumulators, the record
# reader, and the driver's reader loop, worker pool and emitter) must stay
# symbol-native. Unit identity is a compact UnitKey fed to the PRF
# incrementally; textual ids are rendered only by UnitKey::display for
# marked units; records are parsed under a root built from interned
# symbols, with no wrapper string. A `format!` creeping back into the
# non-test region of these files would put a per-unit (or per-record)
# allocation on the hottest loop, so CI denies it here. Tests are exempt:
# every check stops at the test module's `#[cfg(test)]` in column 0
# (indented ones, on test-only fields, do not end the region). The
# streaming engine additionally must never parse a query per record —
# every access step is compiled once into the cached SelectionPlan — so
# `Query::compile` is denied there too.
set -eu

cd "$(dirname "$0")/.."
status=0
for f in crates/core/src/encoder.rs crates/core/src/decoder.rs crates/stream/src/engine.rs \
         crates/stream/src/report.rs crates/stream/src/driver.rs crates/stream/src/parallel.rs \
         crates/stream/src/reader.rs; do
    hits=$(awk '/^#\[cfg\(test\)\]/{exit} /format!/{print FILENAME ":" FNR ": " $0}' "$f")
    if [ -n "$hits" ]; then
        echo "error: format! on the embed/detect hot path (use UnitKey/display or push_str):" >&2
        printf '%s\n' "$hits" >&2
        status=1
    fi
done
# The forensic vote path extends the same contract: per-unit tallies
# are accumulated against the interned UnitKey (ForensicTallies::observe
# in the decode loops); textual unit ids are rendered exactly once, by
# ForensicsReport::from_tallies. A `.display(` creeping into the
# non-test region of the detect-side files would put a per-unit string
# render on every vote, so it is denied here. forensics.rs hosts the
# sanctioned render pass and engine.rs's embed path renders ids only
# for marked units (StoredQuery), so both stay exempt.
for f in crates/core/src/decoder.rs crates/stream/src/report.rs; do
    hits=$(awk '/^#\[cfg\(test\)\]/{exit}
        /^[[:space:]]*\/\//{next}
        /\.display\(/{print FILENAME ":" FNR ": " $0}' "$f")
    if [ -n "$hits" ]; then
        echo "error: per-vote unit-id rendering on the forensic tally path (render once via ForensicsReport::from_tallies):" >&2
        printf '%s\n' "$hits" >&2
        status=1
    fi
done
hits=$(awk '/^#\[cfg\(test\)\]/{exit} /Query::compile/{print FILENAME ":" FNR ": " $0}' crates/stream/src/engine.rs)
if [ -n "$hits" ]; then
    echo "error: per-record query compilation in the streaming engine (use the cached SelectionPlan):" >&2
    printf '%s\n' "$hits" >&2
    status=1
fi
# Lex once: each record is parsed once, at its input position, under a
# root built from the engine's interned symbols (wmx_xml::parse_record).
# A wrapper document assembled from root tag strings would lex every
# record byte a second time, so those names are denied in engine.rs.
hits=$(awk '/^#\[cfg\(test\)\]/{exit}
    /^[[:space:]]*\/\//{next}
    /mini_doc|root_open|root_close/{print FILENAME ":" FNR ": " $0}' crates/stream/src/engine.rs)
if [ -n "$hits" ]; then
    echo "error: record wrapper document in the streaming engine (parse under the interned root):" >&2
    printf '%s\n' "$hits" >&2
    status=1
fi
# No panics on the per-record path: the reader and the engine see every
# byte of untrusted input, so their invariants are typed errors, not
# `.expect(` calls.
for f in crates/stream/src/reader.rs crates/stream/src/engine.rs; do
    hits=$(awk '/^#\[cfg\(test\)\]/{exit}
        /^[[:space:]]*\/\//{next}
        /\.expect\(/{print FILENAME ":" FNR ": " $0}' "$f")
    if [ -n "$hits" ]; then
        echo "error: .expect( on the record path (return a typed error):" >&2
        printf '%s\n' "$hits" >&2
        status=1
    fi
done
# The telemetry record path carries the same contract one step further:
# a Counter::inc/Histogram::record sits inside the per-record loops, so
# its module must stay entirely lock-free and allocation-free — no
# Mutex/RwLock, no String/Vec/Box construction, no formatting. Comment
# lines are exempt (the module documents exactly this rule); tests
# below #[cfg(test)] are exempt as everywhere else.
hits=$(awk '/^#\[cfg\(test\)\]/{exit}
    /^[[:space:]]*\/\//{next}
    /Mutex|RwLock|format!|String|Vec<|vec!|Box::|to_string|to_owned/{print FILENAME ":" FNR ": " $0}' \
    crates/telemetry/src/metrics.rs)
if [ -n "$hits" ]; then
    echo "error: lock or allocation on the telemetry record path (metrics.rs must stay Relaxed-atomics-only):" >&2
    printf '%s\n' "$hits" >&2
    status=1
fi
# The byte-scanning substrate contract: the lexer and escaper scan raw
# bytes (SWAR word loops in scan.rs) and only decode UTF-8 at validation
# boundaries through the helpers scan.rs exposes. A `chars()` or
# `char_indices()` iteration creeping back into the non-test region of
# lexer.rs or escape.rs would put a per-character decode on the hottest
# loop, so CI denies it here. Comment lines and tests below
# #[cfg(test)] are exempt; char-decoding helpers live in scan.rs, which
# is deliberately not covered.
for f in crates/xml/src/lexer.rs crates/xml/src/escape.rs; do
    hits=$(awk '/^#\[cfg\(test\)\]/{exit}
        /^[[:space:]]*\/\//{next}
        /\.chars\(\)|\.char_indices\(\)/{print FILENAME ":" FNR ": " $0}' "$f")
    if [ -n "$hits" ]; then
        echo "error: per-char decoding on the byte-scanning hot path (use the scan.rs helpers):" >&2
        printf '%s\n' "$hits" >&2
        status=1
    fi
done
# The per-unit kernel contract: every selected unit pays four PRF
# calls and one plug-in call. `Prf::new` keys one HmacSha256 (both pad
# blocks absorbed) and every PRF call clones it, so a second
# `HmacSha256::new(` in the non-test region of prf.rs would put the two
# key-block compressions back on every call. The image plug-in draws its
# few dozen pixel positions deduplicated by a linear scan; a `HashSet`
# in the non-test region of embed.rs would put a SipHash per draw (and
# an allocation per call) back on the mark/extract path.
hits=$(awk '/^#\[cfg\(test\)\]/{exit}
    /^[[:space:]]*\/\//{next}
    /HmacSha256::new\(/{print FILENAME ":" FNR ": " $0}' crates/crypto/src/prf.rs)
if [ "$(printf '%s' "$hits" | grep -c .)" -gt 1 ]; then
    echo "error: HmacSha256 keyed outside Prf::new (clone the keyed context instead):" >&2
    printf '%s\n' "$hits" >&2
    status=1
fi
hits=$(awk '/^#\[cfg\(test\)\]/{exit}
    /^[[:space:]]*\/\//{next}
    /HashSet/{print FILENAME ":" FNR ": " $0}' crates/core/src/embed.rs)
if [ -n "$hits" ]; then
    echo "error: HashSet on the plug-in mark/extract path (dedup pixel positions by scanning):" >&2
    printf '%s\n' "$hits" >&2
    status=1
fi
if [ "$status" -eq 0 ]; then
    echo "hot-path format! guard: clean"
fi
exit $status
