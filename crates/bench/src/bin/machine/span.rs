//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own thread around calls into
//! the crates' public functions; nothing inside the crates is
//! instrumented. They stay in memory and are written as Chrome-trace JSON
//! when the run ends.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 = none: set-up, replay, probes).
    pub request: u64,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

/// Single-threaded recorder; when off, `enter`/`exit` do nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span is open now.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span (spans close in reverse order of opening).
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    /// Times `f` under a span and hands back its result.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, request);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total nanoseconds recorded under `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Prints count, total and self time per span name.
    pub fn print_summary(&self, title: &str) {
        println!("# spans ({title}): name count total_ms self_ms");
        for (name, t) in totals(&self.spans) {
            println!(
                "span {name:<32} {:>8} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }

    /// The spans as Chrome-trace "complete" events (timestamps in µs) of
    /// thread `tid`.
    pub fn chrome_events(&self, tid: u32) -> Vec<Value> {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or(Value::Null, |p| Value::Num(p as f64));
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("pid".into(), Value::Num(1.0)),
                    ("tid".into(), Value::Num(f64::from(tid))),
                    ("ts".into(), Value::Num(s.start_ns as f64 / 1000.0)),
                    (
                        "dur".into(),
                        Value::Num((s.end_ns - s.start_ns) as f64 / 1000.0),
                    ),
                    (
                        "args".into(),
                        Value::Obj(vec![
                            ("id".into(), Value::Num(id as f64)),
                            ("parent".into(), parent),
                            ("request".into(), Value::Num(s.request as f64)),
                        ]),
                    ),
                ])
            })
            .collect()
    }
}

/// A Chrome-trace document over `events`.
pub fn chrome_trace(events: Vec<Value>) -> Value {
    Value::Obj(vec![("traceEvents".into(), Value::Arr(events))])
}

/// Per-name totals. A span's self time is its duration minus the part of
/// that interval its direct children cover (children of one parent never
/// overlap: one thread records them).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[id]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // setup [0,100] ⊃ generate [10,30], build [40,90] ⊃ stage [50,60].
        let spans = [
            span("setup", 0, 100, None),
            span("generate", 10, 30, Some(0)),
            span("build", 40, 90, Some(0)),
            span("stage", 50, 60, Some(2)),
        ];
        let t = totals(&spans);
        assert_eq!(t["setup"].self_ns, 100 - 20 - 50);
        assert_eq!(t["build"].total_ns, 50);
        assert_eq!(t["build"].self_ns, 40);
        assert_eq!(t["stage"].self_ns, 10);
        assert_eq!(t["generate"].count, 1);
    }

    #[test]
    fn tracer_nests_and_can_be_switched_off() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("outer", 7);
        let got = tr.span("inner", 7, || 5);
        tr.exit(outer);
        assert_eq!(got, 5);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].request, 7);
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);
        tr.set_on(false);
        tr.span("ignored", 0, || ());
        assert_eq!(tr.spans().len(), 2);
    }
}
