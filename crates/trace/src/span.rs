//! The span model and collection sessions.
//!
//! A **span** is one timed region of work on one thread: it has a category
//! (`design`, `materialize`, `compile`, `query`, `op`, …), a name, a
//! wall-clock interval, and a bag of integer counters. Spans form a forest
//! per thread: a span opened while another span is open on the same thread
//! becomes its child (RAII nesting), so dropping guards in LIFO order —
//! the only order safe Rust scoping produces — yields a well-formed tree.
//!
//! Collection is **a value, and off by default**. [`Session::start`] opens
//! a session and binds the calling thread to it; a thread spawned on the
//! session's behalf joins it with [`Session::current`] +
//! [`SessionHandle::enter`]; [`Session::finish`] returns the [`Trace`].
//! Any number of sessions may record at once, each seeing only the threads
//! bound to it. A thread bound to no session gets an inert guard from
//! [`span()`] — and while no session is live anywhere in the process that
//! costs one relaxed atomic load, no clock read and no allocation (the
//! name is formatted only when recording), so instrumented hot paths stay
//! free. Every recording guard holds its own session, so a span can only
//! ever land in the session it was opened under; one that outlives
//! `finish` records nowhere.

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One completed span, as stored in a [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Session-unique span id, assigned densely from 0 in opening order
    /// (across the session's threads).
    pub id: u64,
    /// Id of the innermost span that was open on the same thread when this
    /// one started, if any.
    pub parent: Option<u64>,
    /// Session-local thread id: 0 for the thread that started the session,
    /// then densely increasing in the order threads entered it.
    pub tid: u32,
    /// Span category (`"design"`, `"op"`, …) — the chrome `cat` field.
    pub cat: &'static str,
    /// Human-readable span name (e.g. `"execute:Q12:DR"`).
    pub name: String,
    /// Start offset in nanoseconds since [`Session::start`].
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Operator-local counters, in insertion order. Repeated
    /// [`Span::counter`] calls with the same key accumulate into one entry.
    pub counters: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// End offset in nanoseconds since the session started.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// The value of counter `key`, if recorded on this span.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// Everything one [`Session`] recorded, in completion order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The recorded spans. Ordered by span *end* time per thread (spans are
    /// recorded when their guard drops), interleaved across threads.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// Spans of one category, in recorded order.
    pub fn of_cat(&self, cat: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.cat == cat).collect()
    }

    /// Sum of counter `key` over every span that carries it.
    pub fn total(&self, key: &str) -> u64 {
        self.spans.iter().filter_map(|s| s.counter(key)).sum()
    }

    /// Check structural well-formedness: span ids are unique, every parent
    /// exists, children run on their parent's thread strictly within its
    /// interval, and same-parent same-thread siblings never partially
    /// overlap. Returns the first violation as a human-readable message.
    ///
    /// Violations are impossible with RAII guard scoping on one session;
    /// this check exists to pin that invariant in tests and to vet traces
    /// that crossed a serialization boundary.
    pub fn check_well_formed(&self) -> Result<(), String> {
        let mut by_id = std::collections::HashMap::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            if by_id.insert(s.id, i).is_some() {
                return Err(format!("span id {} recorded twice", s.id));
            }
        }
        for s in &self.spans {
            let Some(pid) = s.parent else { continue };
            let Some(&pi) = by_id.get(&pid) else {
                return Err(format!(
                    "span {} `{}`: parent {pid} is not in the trace",
                    s.id, s.name
                ));
            };
            let p = &self.spans[pi];
            if p.tid != s.tid {
                return Err(format!(
                    "span {} `{}` on tid {} has parent {} on tid {}",
                    s.id, s.name, s.tid, p.id, p.tid
                ));
            }
            if s.start_ns < p.start_ns || s.end_ns() > p.end_ns() {
                return Err(format!(
                    "span {} `{}` [{}, {}] escapes parent {} `{}` [{}, {}]",
                    s.id,
                    s.name,
                    s.start_ns,
                    s.end_ns(),
                    p.id,
                    p.name,
                    p.start_ns,
                    p.end_ns()
                ));
            }
        }
        // same-(tid, parent) siblings must be disjoint (RAII: a second
        // sibling can only open after the first guard dropped)
        let mut groups: std::collections::HashMap<(u32, Option<u64>), Vec<&SpanRecord>> =
            std::collections::HashMap::new();
        for s in &self.spans {
            groups.entry((s.tid, s.parent)).or_default().push(s);
        }
        for sibs in groups.values_mut() {
            sibs.sort_by_key(|s| (s.start_ns, s.end_ns()));
            for w in sibs.windows(2) {
                let (a, b) = (w[0], w[1]);
                if b.start_ns < a.end_ns() {
                    return Err(format!(
                        "sibling spans {} `{}` and {} `{}` overlap on tid {}",
                        a.id, a.name, b.id, b.name, a.tid
                    ));
                }
            }
        }
        Ok(())
    }
}

/// How many sessions are live in the process. This is all the global state
/// there is: it lets [`span()`] answer "off" with one relaxed load and
/// without touching thread-local storage. `Relaxed` suffices because the
/// count publishes no data: a thread's binding lives in its own
/// thread-local, and a session reaches another thread only through a
/// [`SessionHandle`] sent to it, which orders that thread after `start`.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// What a session's threads and guards share.
struct Shared {
    started: Instant,
    next_id: AtomicU64,
    next_tid: AtomicU32,
    /// `None` once the session has finished: late guards record nowhere.
    records: Mutex<Option<Vec<SpanRecord>>>,
}

impl Shared {
    /// The record buffer. Guards push to it from `Drop`, which must not
    /// panic, so a poisoned lock is recovered: every update (a push, a
    /// take) leaves the buffer valid.
    fn records(&self) -> MutexGuard<'_, Option<Vec<SpanRecord>>> {
        self.records.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A thread's membership of a session.
struct Binding {
    session: Arc<Shared>,
    tid: u32,
    /// Ids of the spans open on this thread, innermost last.
    open: Vec<u64>,
}

thread_local! {
    static BOUND: RefCell<Option<Binding>> = const { RefCell::new(None) };
}

/// An open collection session. It records the spans of the thread that
/// started it and of every thread that [entered](SessionHandle::enter) it,
/// and nothing else; dropping it without [`finish`](Session::finish)
/// discards what it recorded.
pub struct Session {
    shared: Arc<Shared>,
    _entered: Entered,
}

/// A cheap, clonable, sendable reference to a session (or to none), for
/// handing to threads that work on the session's behalf.
#[derive(Clone, Default)]
pub struct SessionHandle(Option<Arc<Shared>>);

/// Guard returned by [`SessionHandle::enter`]: the thread stays bound to
/// the session until this drops, then returns to its previous binding.
pub struct Entered {
    restore: Option<Option<Binding>>,
    // bindings are per thread: the guard must drop where it was made
    _not_send: PhantomData<*const ()>,
}

impl Session {
    /// Open a session and bind the calling thread to it (as `tid` 0) until
    /// the session is finished or dropped.
    pub fn start() -> Session {
        let shared = Arc::new(Shared {
            started: Instant::now(),
            next_id: AtomicU64::new(0),
            next_tid: AtomicU32::new(0),
            records: Mutex::new(Some(Vec::new())),
        });
        LIVE.fetch_add(1, Ordering::SeqCst);
        let entered = SessionHandle(Some(Arc::clone(&shared))).enter();
        Session { shared, _entered: entered }
    }

    /// The session the calling thread is bound to — an empty handle when it
    /// is bound to none. Capture this before spawning a worker and
    /// [`enter`](SessionHandle::enter) it on the worker.
    pub fn current() -> SessionHandle {
        BOUND.with(|b| SessionHandle(b.borrow().as_ref().map(|b| Arc::clone(&b.session))))
    }

    /// Close the session and return everything it recorded. Spans still
    /// open are discarded when they eventually drop, so finish only after
    /// the instrumented work has joined.
    pub fn finish(self) -> Trace {
        Trace { spans: self.shared.records().take().unwrap_or_default() }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shared.records().take();
        LIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

impl SessionHandle {
    /// Bind the calling thread to this session under a fresh `tid`. A no-op
    /// on an empty handle and on a thread already bound to the session.
    pub fn enter(&self) -> Entered {
        let restore = self.0.as_ref().and_then(|session| {
            BOUND.with(|b| {
                let mut b = b.borrow_mut();
                if b.as_ref().is_some_and(|b| Arc::ptr_eq(&b.session, session)) {
                    return None;
                }
                let tid = session.next_tid.fetch_add(1, Ordering::Relaxed);
                Some(b.replace(Binding { session: Arc::clone(session), tid, open: Vec::new() }))
            })
        });
        Entered { restore, _not_send: PhantomData }
    }
}

impl Drop for Entered {
    fn drop(&mut self) {
        if let Some(previous) = self.restore.take() {
            BOUND.with(|b| *b.borrow_mut() = previous);
        }
    }
}

struct ActiveSpan {
    session: Arc<Shared>,
    id: u64,
    parent: Option<u64>,
    tid: u32,
    cat: &'static str,
    name: String,
    start: Instant,
    counters: Vec<(&'static str, u64)>,
}

/// An RAII span guard: the span covers the guard's lifetime. Inert (and
/// nearly free) on a thread bound to no session.
pub struct Span {
    active: Option<ActiveSpan>,
}

/// Open a span in the calling thread's session. The span's parent is the
/// innermost span currently open on this thread; its interval closes when
/// the returned guard drops. `name` is formatted only if the span records,
/// so pass `format_args!(…)` rather than a `format!`ed `String`.
#[inline]
pub fn span(cat: &'static str, name: impl fmt::Display) -> Span {
    if LIVE.load(Ordering::Relaxed) == 0 {
        return Span { active: None };
    }
    open(cat, &name)
}

fn open(cat: &'static str, name: &dyn fmt::Display) -> Span {
    let bound = BOUND.with(|b| {
        b.borrow_mut().as_mut().map(|b| {
            let id = b.session.next_id.fetch_add(1, Ordering::Relaxed);
            let parent = b.open.last().copied();
            b.open.push(id);
            (Arc::clone(&b.session), id, parent, b.tid)
        })
    });
    Span {
        active: bound.map(|(session, id, parent, tid)| ActiveSpan {
            session,
            id,
            parent,
            tid,
            cat,
            name: name.to_string(),
            start: Instant::now(),
            counters: Vec::new(),
        }),
    }
}

impl Span {
    /// Is this guard actually recording? False outside a session.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// Add `value` to counter `key` on this span (accumulating across
    /// repeated calls with the same key). A no-op on an inert guard.
    pub fn counter(&mut self, key: &'static str, value: u64) {
        if let Some(a) = &mut self.active {
            match a.counters.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => *v += value,
                None => a.counters.push((key, value)),
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let dur = a.start.elapsed();
        BOUND.with(|b| {
            if let Some(b) = b.borrow_mut().as_mut().filter(|b| Arc::ptr_eq(&b.session, &a.session))
            {
                if let Some(pos) = b.open.iter().rposition(|&id| id == a.id) {
                    b.open.remove(pos);
                }
            }
        });
        let rec = SpanRecord {
            id: a.id,
            parent: a.parent,
            tid: a.tid,
            cat: a.cat,
            name: a.name,
            start_ns: a.start.saturating_duration_since(a.session.started).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            counters: a.counters,
        };
        let mut records = a.session.records();
        if let Some(recs) = records.as_mut() {
            recs.push(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// A span name that panics if formatted on a thread bound to no session.
    struct BoundOnly;
    impl fmt::Display for BoundOnly {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            assert!(Session::current().0.is_some(), "an inert span formatted its name");
            f.write_str("bound")
        }
    }

    #[test]
    fn inert_spans_never_format_their_name() {
        // other tests' sessions may be live on their own threads; this
        // thread is bound to none
        let mut s = span("test", BoundOnly);
        assert!(!s.is_recording());
        s.counter("k", 1);
        drop(s);
        let session = Session::start();
        drop(span("test", BoundOnly));
        assert_eq!(session.finish().spans[0].name, "bound");
    }

    #[test]
    fn nesting_and_counters() {
        let session = Session::start();
        {
            let mut outer = span("test", "outer");
            outer.counter("n", 2);
            outer.counter("n", 3);
            {
                let _inner = span("test", format_args!("in{}", "ner"));
            }
        }
        let t = session.finish();
        assert_eq!(t.spans.len(), 2);
        // completion order: inner drops first
        assert_eq!(t.spans[0].name, "inner");
        assert_eq!(t.spans[1].name, "outer");
        assert_eq!(t.spans[0].parent, Some(t.spans[1].id));
        assert_eq!(t.spans[1].counter("n"), Some(5));
        assert_eq!(t.total("n"), 5);
        t.check_well_formed().expect("RAII nesting is well-formed");
    }

    #[test]
    fn entered_threads_join_the_session_and_others_record_nothing() {
        let session = Session::start();
        {
            let _root = span("test", "main-side");
            let handle = Session::current();
            std::thread::scope(|s| {
                for i in 0..2 {
                    let handle = handle.clone();
                    s.spawn(move || {
                        let _in = handle.enter();
                        let _w = span("test", format_args!("worker-{i}"));
                    });
                }
                // spawned while the session is open, but never entered
                s.spawn(|| assert!(!span("test", "bystander").is_recording()));
            });
        }
        let t = session.finish();
        assert_eq!(t.spans.len(), 3);
        t.check_well_formed().expect("per-thread forests are well-formed");
        // ids and tids are dense per session, the starting thread is tid 0
        let mut ids: Vec<u64> = t.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, [0, 1, 2]);
        let mut tids: Vec<u32> = t.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        assert_eq!(tids, [0, 1, 2]);
        for s in &t.spans {
            assert_eq!(s.tid == 0, s.name == "main-side");
            assert_eq!(s.parent, None, "no cross-thread parenting");
        }
    }

    #[test]
    fn concurrent_sessions_share_nothing() {
        let both_open = Barrier::new(2);
        let traces: Vec<Trace> = std::thread::scope(|s| {
            let run = |name: &'static str| {
                let both_open = &both_open;
                s.spawn(move || {
                    let session = Session::start();
                    both_open.wait();
                    {
                        let _outer = span("test", name);
                        let _inner = span("test", name);
                        both_open.wait(); // both sessions hold open spans here
                    }
                    session.finish()
                })
            };
            [run("a"), run("b")].map(|h| h.join().expect("session thread")).into()
        });
        for (t, name) in traces.iter().zip(["a", "b"]) {
            t.check_well_formed().expect("each session is a forest of its own");
            // each numbers its own spans and threads from zero
            assert_eq!(t.spans.iter().map(|s| (s.id, s.tid)).collect::<Vec<_>>(), [(1, 0), (0, 0)]);
            assert!(t.spans.iter().all(|s| s.name == name), "foreign span in session {name}");
        }
    }

    #[test]
    fn a_guard_that_outlives_its_session_records_nowhere() {
        let first = Session::start();
        let late = span("test", "late");
        assert_eq!(first.finish().spans.len(), 0);
        let second = Session::start();
        drop(late); // its session is closed, and it knows no other
        drop(span("test", "fresh"));
        let t = second.finish();
        assert_eq!(t.spans.len(), 1);
        assert_eq!((t.spans[0].name.as_str(), t.spans[0].id), ("fresh", 0));
        assert!(!span("test", "after").is_recording(), "finish unbinds the thread");
    }

    #[test]
    fn well_formedness_rejects_orphans_and_overlaps() {
        let rec = |id, parent, start_ns, dur_ns| SpanRecord {
            id,
            parent,
            tid: 0,
            cat: "t",
            name: format!("s{id}"),
            start_ns,
            dur_ns,
            counters: vec![],
        };
        let orphan = Trace { spans: vec![rec(1, Some(99), 0, 10)] };
        assert!(orphan.check_well_formed().is_err());
        let escape = Trace { spans: vec![rec(1, None, 0, 10), rec(2, Some(1), 5, 10)] };
        assert!(escape.check_well_formed().is_err());
        let overlap = Trace { spans: vec![rec(1, None, 0, 10), rec(2, None, 5, 10)] };
        assert!(overlap.check_well_formed().is_err());
        let ok = Trace { spans: vec![rec(1, None, 0, 10), rec(2, Some(1), 2, 5)] };
        ok.check_well_formed().expect("nested interval is fine");
    }
}
