//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request (op) it belongs to. Spans are kept in memory while the run
//! executes and are written out once, at exit. The recorder is
//! thread-local: every workload is a single closed-loop client, and the
//! library calls the benchmark wraps all run on the calling thread.
//! When recording is off, [`span`] only runs its closure.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Switches recording on or off for this thread.
pub fn enable(on: bool) {
    ON.with(|c| c.set(on));
}

pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Tags every span opened from now on with request id `id`.
pub fn set_request(id: u64) {
    REQUEST.with(|c| c.set(id));
}

/// Runs `f` inside a span named `name` when recording is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.spans.len();
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        r.spans.push(Span {
            id,
            parent,
            request: REQUEST.with(Cell::get),
            name,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(id);
        id
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end = r.origin.elapsed().as_nanos() as u64;
        r.spans[id].end_ns = end;
        let popped = r.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
    });
    out
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Calls and self time (duration minus the time its child spans cover)
/// of every span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub calls: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name. Children of one span never overlap (one
/// thread), so a span's covered time is the sum of its children's
/// durations.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, &covered) in spans.iter().zip(&child_ns) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            sp(0, None, "op", 0, 100),
            sp(1, Some(0), "a", 10, 40),
            sp(2, Some(1), "b", 15, 35),
            sp(3, Some(0), "a", 50, 60),
        ];
        let t = totals(&spans);
        assert_eq!(t["op"].self_ns, 60);
        assert_eq!(t["a"].calls, 2);
        assert_eq!(t["a"].self_ns, 20);
        assert_eq!(t["b"].self_ns, 20);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        enable(false);
        assert_eq!(span("off", || 7), 7);
        assert!(take().is_empty());
        enable(true);
        set_request(3);
        span("outer", || span("inner", || ()));
        enable(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
