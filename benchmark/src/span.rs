//! Boundary spans: what the traced run records around every call the
//! driver makes into a layer, and around every probe call.
//!
//! Spans live in memory (a thread-local log — the deterministic
//! executor polls every task on the driver's thread) and are written
//! out once, at exit, in trace-event format. Recording is off unless
//! the run is traced; when off, `open` is one thread-local read.
//!
//! A span that only runs synchronous code measures *host* time. A span
//! that awaits cannot: between its start and end the executor polls
//! other tasks, so its host interval is not its own. Such spans report
//! their *virtual* duration instead, and self time is computed in
//! whichever domain the span lives in.

use std::cell::RefCell;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Host nanoseconds (process epoch).
    pub start_ns: u64,
    pub end_ns: u64,
    /// Virtual nanoseconds.
    pub sim_start: u64,
    pub sim_end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one program (or scenario) share this id; 0 = none.
    pub program: u64,
    /// How many items the call handled (computations lowered, slices
    /// healed, ...), so a span total can be read per item; usually 1.
    pub units: u32,
    /// True when the span covers an `await`.
    pub awaits: bool,
}

impl Span {
    /// The interval in the span's own time domain.
    fn interval(&self, sim_domain: bool) -> (u64, u64) {
        if sim_domain {
            (self.sim_start, self.sim_end)
        } else {
            (self.start_ns, self.end_ns)
        }
    }
}

#[derive(Default)]
struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
    /// Open synchronous spans, innermost last.
    stack: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turns recording on or off for this thread.
pub fn enable(on: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().enabled)
}

/// Takes every span recorded so far, leaving the log empty.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.stack.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Which span caused the one being opened.
#[derive(Debug, Clone, Copy)]
pub enum Parent {
    /// The innermost open synchronous span, if any.
    Enclosing,
    /// An explicit span (how spans that await name their program root).
    Of(Token),
}

/// An open span. `Send`, so it can cross an `await` in a spawned task.
#[derive(Debug, Clone, Copy)]
pub struct Token(Option<u32>);

impl Token {
    /// A token that records nothing (for callers with no parent).
    pub const NONE: Token = Token(None);
}

/// Opens a span. `sim_now` is only called when recording is on.
pub fn open(
    name: &'static str,
    layer: &'static str,
    parent: Parent,
    program: u64,
    units: u32,
    awaits: bool,
    sim_now: impl FnOnce() -> u64,
) -> Token {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Token(None);
        }
        let parent = match parent {
            Parent::Enclosing => r.stack.last().copied(),
            Parent::Of(t) => t.0,
        };
        let sim = sim_now();
        let id = r.spans.len() as u32;
        r.spans.push(Span {
            name,
            layer,
            start_ns: crate::clock::now_ns(),
            end_ns: 0,
            sim_start: sim,
            sim_end: sim,
            parent,
            program,
            units,
            awaits,
        });
        if !awaits {
            r.stack.push(id);
        }
        Token(Some(id))
    })
}

/// Closes a span opened by [`open`].
pub fn close(token: Token, sim_now: impl FnOnce() -> u64) {
    let Some(id) = token.0 else { return };
    let end_ns = crate::clock::now_ns();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        // `take()` between open and close drops the span; ignore it.
        let Some(span) = r.spans.get_mut(id as usize) else {
            return;
        };
        span.end_ns = end_ns;
        span.sim_end = sim_now();
        let awaits = span.awaits;
        if !awaits {
            if let Some(pos) = r.stack.iter().rposition(|&s| s == id) {
                r.stack.truncate(pos);
            }
        }
    });
}

/// Runs synchronous `f` inside a span that belongs to no program and
/// no simulation (probes, set-up); its parent is the enclosing span.
pub fn sync<T>(name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
    let t = open(name, layer, Parent::Enclosing, 0, 1, false, || 0);
    let out = f();
    close(t, || 0);
    out
}

/// Identity of one program (or scenario) in the traced run: its id and
/// the root span the calls made on its behalf hang off.
#[derive(Debug, Clone, Copy)]
pub struct Prog {
    pub id: u64,
    pub root: Token,
}

impl Prog {
    /// For calls made outside any program (set-up).
    pub const SETUP: Prog = Prog {
        id: 0,
        root: Token::NONE,
    };
}

/// Self time of every span: its duration minus the part of that
/// interval its children cover (children may nest or overlap, so their
/// union is taken, clipped to the parent). Host nanoseconds for
/// synchronous spans, virtual nanoseconds for spans that await.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p as usize].push(i as u32);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let (start, end) = s.interval(s.awaits);
            let mut covered: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| spans[k as usize].interval(s.awaits))
                .map(|(a, b)| (a.clamp(start, end), b.clamp(start, end)))
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_unstable();
            let mut union = 0u64;
            let mut reach = start;
            for (a, b) in covered {
                if b > reach {
                    union += b - a.max(reach);
                    reach = b;
                }
            }
            (end - start).saturating_sub(union)
        })
        .collect()
}

/// Per-(layer, name) totals of a span log.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotal {
    pub layer: &'static str,
    pub name: &'static str,
    pub awaits: bool,
    pub count: u64,
    pub units: u64,
    /// Host ns (synchronous spans) or virtual ns (spans that await).
    pub total: u64,
    pub self_total: u64,
}

pub fn totals(spans: &[Span]) -> Vec<SpanTotal> {
    let selfs = self_times(spans);
    let mut map: std::collections::BTreeMap<(&'static str, &'static str, bool), SpanTotal> =
        std::collections::BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let (a, b) = s.interval(s.awaits);
        let e = map.entry((s.layer, s.name, s.awaits)).or_insert(SpanTotal {
            layer: s.layer,
            name: s.name,
            awaits: s.awaits,
            count: 0,
            units: 0,
            total: 0,
            self_total: 0,
        });
        e.count += 1;
        e.units += u64::from(s.units);
        e.total += b - a;
        e.self_total += own;
    }
    map.into_values().collect()
}

/// Trace-event JSON (opens in Perfetto / chrome://tracing). Process 1
/// is the host timeline (one thread per layer); process 2 is the
/// virtual timeline of the spans that await (one thread per layer).
/// At most `cap` spans are written, earliest first.
pub fn trace_events(spans: &[Span], cap: usize) -> Json {
    let selfs = self_times(spans);
    let mut layers: Vec<&'static str> = spans.iter().map(|s| s.layer).collect();
    layers.sort_unstable();
    layers.dedup();
    let tid = |layer: &str| layers.iter().position(|l| *l == layer).unwrap_or(0) as u64 + 1;

    let mut events = Vec::new();
    for (pid, pname) in [(1u64, "host time"), (2, "virtual time (awaiting spans)")] {
        events.push(Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::uint(pid)),
            ("args", Json::obj([("name", Json::str(pname))])),
        ]));
        for layer in &layers {
            events.push(Json::obj([
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::uint(pid)),
                ("tid", Json::uint(tid(layer))),
                ("args", Json::obj([("name", Json::str(*layer))])),
            ]));
        }
    }
    for (i, (s, own)) in spans.iter().zip(&selfs).enumerate().take(cap) {
        let args = Json::obj([
            ("id", Json::uint(i as u64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::uint(u64::from(p))),
            ),
            ("program", Json::uint(s.program)),
            ("start_ns", Json::uint(s.start_ns)),
            ("end_ns", Json::uint(s.end_ns)),
            ("sim_start", Json::uint(s.sim_start)),
            ("sim_end", Json::uint(s.sim_end)),
            ("awaits", Json::Bool(s.awaits)),
            (
                if s.awaits { "self_sim_ns" } else { "self_ns" },
                Json::uint(*own),
            ),
        ]);
        let (pid, (a, b)) = if s.awaits {
            (2, s.interval(true))
        } else {
            (1, s.interval(false))
        };
        events.push(Json::obj([
            ("name", Json::str(s.name)),
            ("cat", Json::str(s.layer)),
            ("ph", Json::str("X")),
            ("ts", Json::Num(a as f64 / 1e3)),
            ("dur", Json::Num((b - a) as f64 / 1e3)),
            ("pid", Json::uint(pid)),
            ("tid", Json::uint(tid(s.layer))),
            ("args", args),
        ]));
    }
    Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            layer: "l",
            start_ns: start,
            end_ns: end,
            sim_start: 0,
            sim_end: 0,
            parent,
            program: 0,
            units: 1,
            awaits: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..60; grandchild 20..30 (inside child).
        let spans = vec![
            host(0, 100, None),
            host(10, 60, Some(0)),
            host(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        // Children 10..50 and 30..70 overlap by 20; 80..90 is disjoint;
        // 95..120 sticks out of the parent and is clipped to 95..100.
        let spans = vec![
            host(0, 100, None),
            host(10, 50, Some(0)),
            host(30, 70, Some(0)),
            host(80, 90, Some(0)),
            host(95, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - (60 + 10 + 5));
    }

    #[test]
    fn a_child_covering_its_parent_leaves_zero_self_time() {
        let spans = vec![host(10, 20, None), host(0, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn awaiting_spans_use_virtual_time() {
        let mut root = host(0, 1_000_000, None);
        root.awaits = true;
        root.sim_start = 100;
        root.sim_end = 600;
        let mut child = host(5, 6, Some(0));
        child.awaits = true;
        child.sim_start = 200;
        child.sim_end = 500;
        // A synchronous child takes no virtual time.
        let mut sync_child = host(7, 900, Some(0));
        sync_child.sim_start = 550;
        sync_child.sim_end = 550;
        assert_eq!(self_times(&[root, child, sync_child]), vec![200, 300, 893]);
    }

    #[test]
    fn recorder_nests_sync_spans_and_is_silent_when_off() {
        enable(false);
        sync("off", "l", || ());
        assert!(take().is_empty());

        enable(true);
        let root = open("prog", "l", Parent::Enclosing, 7, 1, true, || 5);
        sync("outer", "l", || sync("inner", "l", || ()));
        let child = open("wait", "l", Parent::Of(root), 7, 3, true, || 6);
        close(child, || 9);
        close(root, || 10);
        enable(false);
        let spans = take();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("prog", None),
                ("outer", None),
                ("inner", Some(1)),
                ("wait", Some(0))
            ]
        );
        assert_eq!((spans[0].sim_start, spans[0].sim_end), (5, 10));
        assert_eq!((spans[3].sim_start, spans[3].sim_end), (6, 9));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn totals_group_by_layer_and_name() {
        let spans = vec![host(0, 10, None), host(20, 50, None), host(22, 30, Some(1))];
        let t = totals(&spans);
        assert_eq!(t.len(), 1);
        assert_eq!(
            (t[0].count, t[0].units, t[0].total, t[0].self_total),
            (3, 3, 48, 40)
        );
    }

    #[test]
    fn trace_events_carry_both_clocks() {
        let mut s = host(1_000, 3_000, None);
        s.program = 9;
        let text = trace_events(&[s], 10).render();
        assert!(
            text.contains(r#""ph":"X","ts":1,"dur":2,"pid":1"#),
            "{text}"
        );
        assert!(text.contains(r#""program":9"#));
        assert!(text.contains(r#""self_ns":2000"#));
    }
}
