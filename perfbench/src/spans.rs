//! In-memory span recorder for the traced run.
//!
//! A span is a named interval on the host clock with the span that caused
//! it as parent. Spans are recorded only from the benchmark's own code,
//! around calls into the program's public functions; nothing inside the
//! program is instrumented. Everything stays in memory until the run ends,
//! when [`write_jsonl`] writes it out.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a span in its tracer; the root of a tree has no parent.
pub type SpanId = usize;

/// One closed (or still open) interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `gmm.score` or `cache.replay`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (equal to start while open).
    pub end_ns: u64,
    /// Work items the span covered (scores for `gmm.score`, records for
    /// replays); 0 where no count applies.
    pub count: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Shared, thread-safe span store. Cloning shares the store.
#[derive(Clone, Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
            count: 0,
        })
    }

    /// Closes a span now, recording `count` work items.
    pub fn close(&self, id: SpanId, count: u64) {
        let now = self.now_ns();
        let mut spans = self.spans.lock().expect("span store lock never poisoned");
        spans[id].end_ns = now;
        spans[id].count = count;
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id, 0);
        out
    }

    /// Appends a finished span, returning its id.
    pub fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("span store lock never poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Appends a batch of finished spans recorded off the store (worker
    /// threads buffer locally and flush once).
    pub fn extend(&self, batch: Vec<Span>) {
        self.spans
            .lock()
            .expect("span store lock never poisoned")
            .extend(batch);
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store lock never poisoned")
            .clone()
    }
}

/// Writes `spans` as one JSON object per line; parents are indices into
/// `spans`.
///
/// # Errors
///
/// Propagates I/O errors from creating the directory or the file.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.name, s.start_ns, s.end_ns, s.count
        )
        .expect("writing to a String cannot fail");
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Read-only queries over a finished span set.
pub struct SpanSet {
    spans: Vec<Span>,
}

impl SpanSet {
    /// Freezes a tracer's spans for analysis.
    pub fn new(tracer: &Tracer) -> Self {
        SpanSet {
            spans: tracer.snapshot(),
        }
    }

    /// Whether `id` lies in the subtree rooted at `root` (inclusive).
    pub fn within(&self, mut id: SpanId, root: SpanId) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Spans named `name` in the subtree of `root`.
    pub fn named(&self, name: &str, root: SpanId) -> impl Iterator<Item = &Span> + '_ {
        let name = name.to_string();
        self.spans
            .iter()
            .enumerate()
            .filter(move |(id, s)| s.name == name && self.within(*id, root))
            .map(|(_, s)| s)
    }

    /// Total seconds and work count of the spans named `name` under `root`.
    pub fn total(&self, name: &str, root: SpanId) -> (f64, u64, u64) {
        self.named(name, root).fold((0.0, 0, 0), |(t, c, n), s| {
            (t + s.secs(), c + s.count, n + 1)
        })
    }

    /// The span with id `id`.
    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Seconds of `root` covered by none of its direct children: the time
    /// spent outside every layer span.
    pub fn self_secs(&self, root: SpanId) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::secs)
            .sum();
        self.spans[root].secs() - covered
    }
}
