//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the operation it belongs to. Spans stay in memory: the tracer folds
//! each finished operation's spans into the caller's totals (see
//! [`layer_times`]) and keeps the first operations' raw spans, which are
//! written out when the run ends ([`Tracer::write_jsonl`]). Nothing is
//! written while the run is measured.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover ([`self_time_ns`]); children that overlap
//! each other are counted once.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span was recorded at (e.g. `"tree"`).
    pub name: &'static str,
    /// Start, in ns since the epoch.
    pub start_ns: u64,
    /// End, in ns since the epoch.
    pub end_ns: u64,
    /// Index of the causing span among the operation's spans.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
}

impl Span {
    /// Length of the span in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// `parent`'s duration minus the part of its interval covered by the union
/// of `children` (clipped to the parent's interval).
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut parts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    parts.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in parts {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    parent.duration_ns() - covered
}

/// Total and self time per span name over one operation's spans, in the
/// order names first appear. A span's children are the spans whose
/// `parent` is its index in `spans`.
pub fn layer_times(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut children: Vec<Vec<Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(*s);
        }
    }
    let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let own = self_time_ns(s, &children[i]);
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(entry) => {
                entry.1 += s.duration_ns();
                entry.2 += own;
            }
            None => out.push((s.name, s.duration_ns(), own)),
        }
    }
    out
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

struct Inner {
    /// Spans of the current operation.
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    op: u64,
    /// Raw spans of the first operations, kept for [`Tracer::write_jsonl`].
    kept: Vec<Span>,
    keep: usize,
}

/// Records the spans of one thread's operations. The lock is uncontended:
/// each thread that traces owns its own tracer (the storage wrapper shares
/// its caller's tracer, and runs on the caller's thread).
pub struct Tracer {
    epoch: Instant,
    /// A disabled tracer records nothing, so a traced code path can also
    /// run untraced to measure what tracing costs.
    enabled: bool,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// A tracer that keeps the raw spans of its first operations, up to
    /// `keep` spans, for the trace file.
    pub fn new(keep: usize) -> Self {
        Self {
            epoch: Instant::now(),
            enabled: true,
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                stack: Vec::new(),
                op: 0,
                kept: Vec::new(),
                keep,
            }),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new(0)
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a thread panicked while recording a span")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start operation `op`; its spans are collected until
    /// [`Tracer::finish_op`].
    pub fn begin_op(&self, op: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        inner.spans.clear();
        inner.stack.clear();
        inner.op = op;
    }

    /// Open a span named `name`, caused by the innermost open span.
    pub fn enter(&self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let mut inner = self.lock();
        let parent = inner.stack.last().copied();
        let op = inner.op;
        let idx = inner.spans.len();
        let start_ns = self.now_ns();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        inner.stack.push(idx);
        SpanId(idx)
    }

    /// Close span `id` (and any span opened inside it and left open).
    pub fn exit(&self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        inner.spans[id.0].end_ns = end_ns;
        while let Some(top) = inner.stack.pop() {
            if top == id.0 {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// End the current operation: hand its spans to `fold`, keep them for
    /// the trace file while there is room, and clear them.
    pub fn finish_op<R>(&self, fold: impl FnOnce(&[Span]) -> R) -> R {
        let mut inner = self.lock();
        let out = fold(&inner.spans);
        if inner.kept.len() + inner.spans.len() <= inner.keep {
            let base = inner.kept.len();
            let rebased: Vec<Span> = inner
                .spans
                .iter()
                .map(|s| Span {
                    parent: s.parent.map(|p| p + base),
                    ..*s
                })
                .collect();
            inner.kept.extend(rebased);
        }
        inner.spans.clear();
        inner.stack.clear();
        out
    }

    /// Write the kept spans as JSON lines; `parent` is the line index
    /// (from 0) of the causing span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let inner = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &inner.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, parent
            )?;
        }
        out.flush()
    }
}
