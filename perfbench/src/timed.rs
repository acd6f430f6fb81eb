//! The timing decorator the traced run wraps around every scorer.
//!
//! [`TimedScore`] forwards every [`ScoreSource`] method to the wrapped
//! scorer unchanged, so replays through it are bit-identical to replays
//! through the bare scorer. Calls that compute scores (`score_current`,
//! `score_window`, `score_window_gapped`) are recorded as `gmm.score`
//! spans; clock advances (`observe`, `observe_gap`) cost less than one
//! clock read and stay untimed, inside their caller's self time.
//!
//! Spans are buffered in the decorator and flushed to the tracer when it
//! is dropped. The drop also closes an optional `busy` span opened when
//! the decorator was built: on a shard worker the policies, and with them
//! the scorer, are dropped as soon as the shard's replay ends, so that
//! span measures the worker from policy construction to its last record.

use crate::spans::{Span, SpanId, Tracer};
use icgmm_cache::ScoreSource;
use icgmm_trace::TraceRecord;

/// A [`ScoreSource`] decorator recording one span per scoring call.
pub struct TimedScore<S> {
    inner: S,
    tracer: Tracer,
    parent: Option<SpanId>,
    busy: Option<SpanId>,
    buf: Vec<Span>,
}

impl<S: ScoreSource> TimedScore<S> {
    /// Wraps `inner`; its `gmm.score` spans get `parent` as parent.
    pub fn new(inner: S, tracer: &Tracer, parent: Option<SpanId>) -> Self {
        TimedScore {
            inner,
            tracer: tracer.clone(),
            parent,
            busy: None,
            buf: Vec::new(),
        }
    }

    /// Closes `span` when this decorator is dropped (see the module docs).
    pub fn close_on_drop(mut self, span: SpanId) -> Self {
        self.busy = Some(span);
        self
    }

    /// Scores computed through this decorator so far.
    pub fn scores(&self) -> u64 {
        self.buf.iter().map(|s| s.count).sum()
    }

    fn timed<T>(&mut self, count: u64, f: impl FnOnce(&mut S) -> T) -> T {
        let start_ns = self.tracer.now_ns();
        let out = f(&mut self.inner);
        self.buf.push(Span {
            name: "gmm.score",
            parent: self.parent,
            start_ns,
            end_ns: self.tracer.now_ns(),
            count,
        });
        out
    }
}

impl<S> Drop for TimedScore<S> {
    fn drop(&mut self) {
        self.tracer.extend(std::mem::take(&mut self.buf));
        if let Some(id) = self.busy {
            self.tracer.close(id, 0);
        }
    }
}

impl<S: ScoreSource> ScoreSource for TimedScore<S> {
    fn observe(&mut self, record: &TraceRecord) {
        self.inner.observe(record);
    }

    fn score_current(&mut self) -> f64 {
        self.timed(1, |s| s.score_current())
    }

    fn score_window(&mut self, records: &[TraceRecord], out: &mut [f64]) {
        self.timed(records.len() as u64, |s| s.score_window(records, out));
    }

    fn prefers_batching(&self) -> bool {
        self.inner.prefers_batching()
    }

    fn shardable(&self) -> bool {
        self.inner.shardable()
    }

    fn observe_gap(&mut self, n: u64) {
        self.inner.observe_gap(n);
    }

    fn score_window_gapped(&mut self, records: &[TraceRecord], gaps: &[u64], out: &mut [f64]) {
        self.timed(records.len() as u64, |s| {
            s.score_window_gapped(records, gaps, out)
        });
    }
}
