//! RAII spans for phase timing.
//!
//! A [`Span`] measures one named phase: creating it notes the start
//! time, dropping it records the elapsed microseconds into the global
//! histogram `span.<name>`. Span names are `&'static str` so entering a
//! span never allocates.
//!
//! Spans additionally feed an optional *trace*: when tracing is enabled
//! (CLI `--trace` / `--audit-log`), enter/exit events accumulate in a
//! thread-local buffer which [`take_trace`] drains into a list of
//! [`TraceEvent`]s. [`render_trace`] pretty-prints them as an indented
//! tree and [`phase_totals`] folds them into per-phase totals for audit
//! events. The enabled flag is a single Relaxed atomic load when off,
//! so instrumented library code costs one branch per span when nobody
//! is tracing.
//!
//! Spans are invocation-granular (one embed/detect call), not
//! per-record: the streaming engines record chunk-level metrics
//! directly through [`crate::metrics`] instead.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::registry::global;

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static TRACE_EVENTS: RefCell<Vec<TraceEvent>> = const { RefCell::new(Vec::new()) };
}

/// One edge of a span, as buffered by the tracer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A span named `.0` opened.
    Enter(&'static str),
    /// The innermost open span closed after `.0` microseconds.
    Exit(u64),
}

/// Turns trace buffering on for the whole process.
///
/// Only the calling thread's buffer is drained by [`take_trace`];
/// events recorded by other threads while tracing is on stay in their
/// own thread-local buffers and are discarded when those threads exit.
pub fn enable_trace() {
    TRACE_ENABLED.store(true, Ordering::Relaxed);
}

/// Turns trace buffering off.
pub fn disable_trace() {
    TRACE_ENABLED.store(false, Ordering::Relaxed);
}

/// Drains and returns this thread's buffered trace events.
pub fn take_trace() -> Vec<TraceEvent> {
    TRACE_EVENTS.with(|events| events.take())
}

/// A live phase timer; drop it to record the phase duration.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
}

/// Opens a span named `name`.
///
/// The duration lands in the global histogram `span.<name>` when the
/// returned guard drops, and in the trace buffer when tracing is on.
pub fn span(name: &'static str) -> Span {
    if TRACE_ENABLED.load(Ordering::Relaxed) {
        TRACE_EVENTS.with(|events| events.borrow_mut().push(TraceEvent::Enter(name)));
    }
    Span {
        name,
        start: Instant::now(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let micros = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        // Histogram registration allocates on the first drop of each
        // span name; subsequent drops hit the registry's fast lookup.
        // Span scope is per-invocation, so this is off the record path.
        let mut name = String::with_capacity(5 + self.name.len());
        name.push_str("span.");
        name.push_str(self.name);
        global().histogram(&name).record(micros);
        if TRACE_ENABLED.load(Ordering::Relaxed) {
            TRACE_EVENTS.with(|events| events.borrow_mut().push(TraceEvent::Exit(micros)));
        }
    }
}

/// Folds a trace into `(phase name, total microseconds)` pairs, ordered
/// by first appearance. Nested spans count toward their own phase only,
/// not their parent's (the parent's total already includes them).
pub fn phase_totals(events: &[TraceEvent]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    let mut stack: Vec<&'static str> = Vec::new();
    for event in events {
        match event {
            TraceEvent::Enter(name) => stack.push(name),
            TraceEvent::Exit(micros) => {
                let Some(name) = stack.pop() else { continue };
                match totals.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, total)) => *total += micros,
                    None => totals.push((name, *micros)),
                }
            }
        }
    }
    totals
}

/// Renders a trace as an indented tree, one span per line:
///
/// ```text
/// detect                         12_345 µs
///   detect.resolve                  210 µs
///   detect.select                 9_876 µs
/// ```
pub fn render_trace(events: &[TraceEvent]) -> String {
    // Events arrive in enter/exit order; reconstruct nesting with a
    // stack, emitting each span's line at its Enter and patching the
    // duration in at its Exit.
    struct Node {
        name: &'static str,
        depth: usize,
        micros: Option<u64>,
        children: Vec<Node>,
    }
    fn close(stack: &mut Vec<Node>, roots: &mut Vec<Node>, micros: u64) {
        if let Some(mut node) = stack.pop() {
            node.micros = Some(micros);
            match stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => roots.push(node),
            }
        }
    }
    fn write_node(out: &mut String, node: &Node) {
        for _ in 0..node.depth {
            out.push_str("  ");
        }
        out.push_str(node.name);
        let width = 30usize.saturating_sub(node.depth * 2 + node.name.len());
        for _ in 0..width.max(1) {
            out.push(' ');
        }
        match node.micros {
            Some(micros) => {
                use std::fmt::Write as _;
                let _ = write!(out, "{micros:>9} µs");
            }
            None => out.push_str("  (unclosed)"),
        }
        out.push('\n');
        for child in &node.children {
            write_node(out, child);
        }
    }

    let mut roots: Vec<Node> = Vec::new();
    let mut stack: Vec<Node> = Vec::new();
    for event in events {
        match event {
            TraceEvent::Enter(name) => stack.push(Node {
                name,
                depth: stack.len(),
                micros: None,
                children: Vec::new(),
            }),
            TraceEvent::Exit(micros) => close(&mut stack, &mut roots, *micros),
        }
    }
    // Unbalanced traces (a span leaked across a panic) still render.
    while let Some(mut node) = stack.pop() {
        node.micros = None;
        match stack.last_mut() {
            Some(parent) => parent.children.push(node),
            None => roots.push(node),
        }
    }
    let mut out = String::new();
    for root in &roots {
        write_node(&mut out, root);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// `TRACE_ENABLED` is process-global and tests run on parallel
    /// threads: every test that flips it holds this lock, so one test's
    /// `disable_trace` cannot land inside another's traced region.
    static TRACE_FLAG: Mutex<()> = Mutex::new(());

    fn lock_trace_flag() -> MutexGuard<'static, ()> {
        TRACE_FLAG
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn span_records_into_the_global_histogram() {
        let h = global().histogram("span.test_span_records");
        let before = h.count();
        {
            let _s = span("test_span_records");
        }
        assert_eq!(h.count(), before + 1);
    }

    #[test]
    fn trace_captures_nesting_in_order() {
        let _flag = lock_trace_flag();
        enable_trace();
        take_trace(); // discard anything a previous test left behind
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
        }
        disable_trace();
        let events = take_trace();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0], TraceEvent::Enter("outer"));
        assert_eq!(events[1], TraceEvent::Enter("inner"));
        assert!(matches!(events[2], TraceEvent::Exit(_)));
        assert!(matches!(events[3], TraceEvent::Exit(_)));
    }

    #[test]
    fn tracing_off_buffers_nothing() {
        let _flag = lock_trace_flag();
        disable_trace();
        take_trace();
        {
            let _s = span("untraced");
        }
        assert!(take_trace().is_empty());
    }

    #[test]
    fn phase_totals_fold_repeats_and_keep_order() {
        let events = vec![
            TraceEvent::Enter("detect"),
            TraceEvent::Enter("detect.select"),
            TraceEvent::Exit(10),
            TraceEvent::Enter("detect.select"),
            TraceEvent::Exit(5),
            TraceEvent::Exit(100),
        ];
        let totals = phase_totals(&events);
        assert_eq!(totals, vec![("detect.select", 15), ("detect", 100)]);
    }

    #[test]
    fn render_trace_indents_children() {
        let events = vec![
            TraceEvent::Enter("detect"),
            TraceEvent::Enter("detect.select"),
            TraceEvent::Exit(10),
            TraceEvent::Exit(42),
        ];
        let text = render_trace(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("detect"));
        assert!(lines[0].ends_with("42 µs"));
        assert!(lines[1].starts_with("  detect.select"));
        assert!(lines[1].ends_with("10 µs"));
    }

    #[test]
    fn render_trace_marks_unclosed_spans() {
        let events = vec![TraceEvent::Enter("leaked")];
        let text = render_trace(&events);
        assert!(text.contains("leaked"));
        assert!(text.contains("(unclosed)"));
    }
}
