//! A bounded ring-buffer span tracer.
//!
//! Spans are hierarchical (a thread-local stack links each span to its
//! enclosing parent) and attributed to a *context* — the server stamps
//! the current request id into a thread-local before dispatching, so
//! every span recorded while serving that request carries its id and
//! the slow-query log can pull a per-stratum breakdown back out of the
//! ring. The ring is bounded: a hot server overwrites the oldest spans
//! instead of growing.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use triq_common::json::Json;

/// Process-wide monotonic epoch: span start offsets are nanoseconds
/// since the first observability object was created, so records from
/// different components order consistently.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    /// The current attribution context (request id; 0 = none).
    static CONTEXT: Cell<u64> = const { Cell::new(0) };
    /// The stack of open spans on this thread (for parent links).
    static OPEN: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
}

/// Stamps the attribution context for spans recorded on this thread
/// until the next call (0 clears). The server sets the request id here
/// before dispatching a request.
pub fn set_context(ctx: u64) {
    CONTEXT.with(|c| c.set(ctx));
}

/// The current thread's attribution context (0 = none).
pub fn context() -> u64 {
    CONTEXT.with(|c| c.get())
}

#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    token: u64,
    parent: u64,
    name: &'static str,
    detail: u64,
    start_ns: u64,
    start: Instant,
}

/// One completed span in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id of this span (the `begin_span` token).
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 = root).
    pub parent: u64,
    /// Attribution context at completion time (request id; 0 = none).
    pub ctx: u64,
    /// Static phase name (`"request"`, `"execute"`, `"stratum"`, …).
    pub name: &'static str,
    /// Phase-specific detail (stratum index, plan fingerprint, request id, …).
    pub detail: u64,
    /// Start offset in nanoseconds since the process obs epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanRecord {
    /// The record as a JSON object (for `/debug/trace`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::U64(self.id)),
            ("parent".into(), Json::U64(self.parent)),
            ("ctx".into(), Json::U64(self.ctx)),
            ("name".into(), Json::Str(self.name.into())),
            ("detail".into(), Json::U64(self.detail)),
            ("start_ns".into(), Json::U64(self.start_ns)),
            ("dur_ns".into(), Json::U64(self.dur_ns)),
        ])
    }
}

/// The bounded span ring (see module docs).
#[derive(Debug)]
pub struct Tracer {
    capacity: usize,
    next_id: AtomicU64,
    ring: Mutex<VecDeque<SpanRecord>>,
    dropped: AtomicU64,
}

impl Tracer {
    /// A tracer retaining at most `capacity` completed spans (min 1).
    pub fn new(capacity: usize) -> Tracer {
        let capacity = capacity.max(1);
        Tracer {
            capacity,
            next_id: AtomicU64::new(1),
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            dropped: AtomicU64::new(0),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spans evicted to keep the ring bounded.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Opens a span on this thread; pair with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, detail: u64) -> u64 {
        let token = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let start_ns = start.duration_since(epoch()).as_nanos() as u64;
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().map(|s| s.token).unwrap_or(0);
            open.push(OpenSpan {
                token,
                parent,
                name,
                detail,
                start_ns,
                start,
            });
        });
        token
    }

    /// Closes the span `token`, recording it (and defensively closing
    /// any still-open descendants — a panic-unwound child must not
    /// reparent later spans).
    pub fn end(&self, token: u64) {
        let closed = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let at = open.iter().rposition(|s| s.token == token)?;
            let span = open[at];
            open.truncate(at);
            Some(span)
        });
        let Some(span) = closed else { return };
        let record = SpanRecord {
            id: span.token,
            parent: span.parent,
            ctx: context(),
            name: span.name,
            detail: span.detail,
            start_ns: span.start_ns,
            dur_ns: span.start.elapsed().as_nanos() as u64,
        };
        let mut ring = self.ring.lock().expect("tracer ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// The most recent `n` completed spans, oldest first.
    pub fn last(&self, n: usize) -> Vec<SpanRecord> {
        let ring = self.ring.lock().expect("tracer ring poisoned");
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).copied().collect()
    }

    /// Completed spans attributed to context `ctx`, oldest first.
    pub fn for_context(&self, ctx: u64) -> Vec<SpanRecord> {
        let ring = self.ring.lock().expect("tracer ring poisoned");
        ring.iter().filter(|s| s.ctx == ctx).copied().collect()
    }

    /// Completed spans currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("tracer ring poisoned").len()
    }

    /// True when no span has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_links_parents() {
        let t = Tracer::new(16);
        let outer = t.begin("outer", 0);
        let inner = t.begin("inner", 7);
        t.end(inner);
        t.end(outer);
        let spans = t.last(16);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, outer);
        assert_eq!(spans[0].detail, 7);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].parent, 0);
    }

    #[test]
    fn ring_is_bounded() {
        let t = Tracer::new(4);
        for i in 0..10u64 {
            let s = t.begin("s", i);
            t.end(s);
        }
        let spans = t.last(100);
        assert_eq!(spans.len(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(spans[0].detail, 6, "oldest retained span");
        assert_eq!(spans[3].detail, 9);
        assert_eq!(t.last(2).len(), 2);
    }

    #[test]
    fn context_attribution() {
        let t = Tracer::new(16);
        set_context(42);
        let s = t.begin("req", 0);
        t.end(s);
        set_context(0);
        let s2 = t.begin("idle", 0);
        t.end(s2);
        assert_eq!(t.for_context(42).len(), 1);
        assert_eq!(t.for_context(42)[0].name, "req");
    }

    #[test]
    fn unbalanced_end_closes_descendants() {
        let t = Tracer::new(16);
        let outer = t.begin("outer", 0);
        let _leaked = t.begin("leaked", 0);
        t.end(outer); // leaked child never ended explicitly
        let spans = t.last(16);
        assert_eq!(spans.len(), 1, "leaked span is discarded, not recorded");
        assert_eq!(spans[0].name, "outer");
        // A fresh root must not be reparented onto the leaked child.
        let next = t.begin("next", 0);
        t.end(next);
        assert_eq!(t.last(1)[0].parent, 0);
    }
}
