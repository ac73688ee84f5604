//! Spans recorded from outside the runtime, and the waterfall built from
//! them.
//!
//! The benchmark stamps a span around every client call and, inside its
//! own actor code, around every handler execution and every `ctx.state()`
//! call. Each span carries the benchmark-generated id of the client call it
//! belongs to. Spans stay in memory and are folded into layer times when the
//! run ends. The runtime's own path between two stamps (submission,
//! placement, queues, dispatch, the state flush, the response) shows up as
//! the named gaps between handler spans.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// `Client::call` entry to return.
    Client,
    /// The handler the client called.
    Entry,
    /// A callee reached through `CallThen`.
    Nested,
    /// The continuation resumed after `CallThen`.
    Continuation,
    /// The target of a tail call.
    TailTarget,
    /// One `ctx.state().get` call.
    StoreGet,
    /// One `ctx.state().set` call.
    StoreSet,
}

impl SpanKind {
    /// The role code actor arguments carry for handler kinds.
    pub fn code(self) -> i64 {
        self as i64
    }

    /// The handler kind of a role code.
    pub fn from_code(code: i64) -> SpanKind {
        match code {
            2 => SpanKind::Nested,
            4 => SpanKind::TailTarget,
            _ => SpanKind::Entry,
        }
    }

    fn is_handler(self) -> bool {
        matches!(
            self,
            SpanKind::Entry | SpanKind::Nested | SpanKind::Continuation | SpanKind::TailTarget
        )
    }

    fn is_store(self) -> bool {
        matches!(self, SpanKind::StoreGet | SpanKind::StoreSet)
    }
}

/// One closed span, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Benchmark call id shared by every span of one client call.
    pub call: u64,
    /// What the span covers.
    pub kind: SpanKind,
    /// Start stamp.
    pub start: u64,
    /// End stamp.
    pub end: u64,
}

impl Span {
    fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    fn contains(&self, other: &Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// In-memory span sink shared by the client threads and the actors.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::enable`].
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records `[start, now)` for `call` when recording is on.
    pub fn close(&self, call: u64, kind: SpanKind, start: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let end = self.now();
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(Span {
                call,
                kind,
                start,
                end,
            });
    }

    /// Every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("a span recorder panicked"))
    }
}

/// The part of `parent` that no interval of `children` covers: a span's
/// self time when `children` are its child spans. Children are clipped to
/// the parent and may overlap each other.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    hi.saturating_sub(lo) - covered
}

/// One client call folded into layer times (nanoseconds).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Client span length.
    pub client: u64,
    /// Call entry to the first handler entry.
    pub req_path: u64,
    /// Last handler exit to call return.
    pub resp_path: u64,
    /// `CallThen` return to continuation entry (CallThen calls only).
    pub resume: Option<u64>,
    /// Tail-call return to target entry (tail calls only).
    pub tail_hop: Option<u64>,
    /// Self time of each handler span (handler minus its store spans).
    pub handler_self: Vec<u64>,
    /// Length of each `state().get` span.
    pub store_get: Vec<u64>,
    /// Length of each `state().set` span.
    pub store_set: Vec<u64>,
    /// Client time covered by no span and no named gap.
    pub unattributed: u64,
}

/// Folds the spans of one call. `None` when the call has no client span
/// or no handler span (it failed before reaching an actor).
pub fn breakdown(spans: &[Span]) -> Option<Breakdown> {
    let client = *spans.iter().find(|s| s.kind == SpanKind::Client)?;
    let mut handlers: Vec<Span> = spans
        .iter()
        .copied()
        .filter(|s| s.kind.is_handler())
        .collect();
    handlers.sort_by_key(|s| s.start);
    let first = *handlers.first()?;
    let last_exit = handlers.iter().map(|s| s.end).max()?;
    let store: Vec<Span> = spans
        .iter()
        .copied()
        .filter(|s| s.kind.is_store())
        .collect();
    let find = |kind: SpanKind| handlers.iter().find(|s| s.kind == kind).copied();
    let entry = find(SpanKind::Entry).unwrap_or(first);
    let gap = |to: Option<Span>| to.map(|t| (entry.end, t.start));
    let resume = gap(find(SpanKind::Continuation));
    let tail_hop = gap(find(SpanKind::TailTarget));

    let mut covering: Vec<(u64, u64)> = vec![(client.start, first.start), (last_exit, client.end)];
    covering.extend(handlers.iter().chain(&store).map(|s| (s.start, s.end)));
    covering.extend(resume.iter().chain(&tail_hop).copied());

    Some(Breakdown {
        client: client.len(),
        req_path: first.start.saturating_sub(client.start),
        resp_path: client.end.saturating_sub(last_exit),
        resume: resume.map(|(s, e)| e.saturating_sub(s)),
        tail_hop: tail_hop.map(|(s, e)| e.saturating_sub(s)),
        handler_self: handlers
            .iter()
            .map(|h| {
                let inner: Vec<(u64, u64)> = store
                    .iter()
                    .filter(|s| h.contains(s))
                    .map(|s| (s.start, s.end))
                    .collect();
                self_time((h.start, h.end), &inner)
            })
            .collect(),
        store_get: store
            .iter()
            .filter(|s| s.kind == SpanKind::StoreGet)
            .map(Span::len)
            .collect(),
        store_set: store
            .iter()
            .filter(|s| s.kind == SpanKind::StoreSet)
            .map(Span::len)
            .collect(),
        unattributed: self_time((client.start, client.end), &covering),
    })
}

/// Groups spans by call id.
pub fn by_call(spans: Vec<Span>) -> HashMap<u64, Vec<Span>> {
    let mut calls: HashMap<u64, Vec<Span>> = HashMap::new();
    for span in spans {
        calls.entry(span.call).or_default().push(span);
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start: u64, end: u64) -> Span {
        Span {
            call: 1,
            kind,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 50)]), 60);
        // Nested children are counted once.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((0, 100), &[(0, 100)]), 0);
        // Empty and inverted children cover nothing.
        assert_eq!(self_time((0, 100), &[(50, 50), (60, 40)]), 100);
    }

    #[test]
    fn a_plain_call_splits_into_request_handler_and_response() {
        let b = breakdown(&[
            span(SpanKind::Client, 100, 200),
            span(SpanKind::Entry, 130, 170),
            span(SpanKind::StoreGet, 135, 140),
            span(SpanKind::StoreSet, 150, 160),
        ])
        .unwrap();
        assert_eq!(b.client, 100);
        assert_eq!(b.req_path, 30);
        assert_eq!(b.resp_path, 30);
        assert_eq!(b.handler_self, vec![25]);
        assert_eq!(b.store_get, vec![5]);
        assert_eq!(b.store_set, vec![10]);
        assert_eq!(b.resume, None);
        assert_eq!(b.tail_hop, None);
        assert_eq!(b.unattributed, 0);
    }

    #[test]
    fn call_then_and_tail_gaps_are_measured_from_the_entry_handler() {
        let b = breakdown(&[
            span(SpanKind::Client, 0, 100),
            span(SpanKind::Continuation, 70, 80),
            span(SpanKind::Entry, 10, 20),
            span(SpanKind::Nested, 40, 50),
        ])
        .unwrap();
        assert_eq!((b.req_path, b.resp_path), (10, 20));
        assert_eq!(b.resume, Some(50));
        assert_eq!(b.handler_self, vec![10, 10, 10]);
        assert_eq!(b.unattributed, 0);

        let t = breakdown(&[
            span(SpanKind::Client, 0, 100),
            span(SpanKind::Entry, 10, 20),
            span(SpanKind::TailTarget, 45, 60),
        ])
        .unwrap();
        assert_eq!(t.tail_hop, Some(25));
        assert_eq!(t.resp_path, 40);
    }

    #[test]
    fn time_outside_every_span_and_named_gap_is_unattributed() {
        // A second nested handler with no named gap around it: the time
        // between the two nested handlers belongs to no layer.
        let b = breakdown(&[
            span(SpanKind::Client, 0, 100),
            span(SpanKind::Entry, 10, 20),
            span(SpanKind::Nested, 30, 40),
            span(SpanKind::Nested, 60, 90),
        ])
        .unwrap();
        assert_eq!(b.unattributed, 30);
    }

    #[test]
    fn calls_without_a_handler_have_no_breakdown() {
        assert_eq!(breakdown(&[span(SpanKind::Client, 0, 10)]), None);
        assert_eq!(breakdown(&[span(SpanKind::Entry, 0, 10)]), None);
    }

    #[test]
    fn role_codes_round_trip() {
        for kind in [SpanKind::Entry, SpanKind::Nested, SpanKind::TailTarget] {
            assert_eq!(SpanKind::from_code(kind.code()), kind);
        }
    }
}
