//! Wall-clock timing and span recording around the calls the benchmark
//! makes into each layer's public API.
//!
//! Every layer call goes through [`Tracer::span`], which always measures
//! the call's wall time (the end-to-end metrics need it) and, in a traced
//! run, also records a [`Span`]: name, start, end, parent span and round
//! id. Spans stay in memory until the run ends; [`layer_table`] then turns
//! them into per-layer call counts and self times that, together with the
//! unattributed remainder, add up to the root span's wall time exactly.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// The round (or pass) the call belonged to; spans of one round share it.
    pub round: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    /// Ids of the spans currently open, innermost last.
    open: RefCell<Vec<usize>>,
    round: Cell<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            round: Cell::new(0),
        }
    }

    pub fn set_round(&self, round: u64) {
        self.round.set(round);
    }

    /// Run `f` as one call into layer `name`; returns its result and its
    /// wall time in seconds. Spans opened inside `f` become its children.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.on {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed().as_secs_f64());
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            let parent = self.open.borrow().last().copied();
            let round = self.round.get();
            spans.push(Span { id, parent, name, round, start_ns: 0, end_ns: 0 });
            id
        };
        self.open.borrow_mut().push(id);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = self.nanos(start);
        spans[id].end_ns = self.nanos(end);
        (out, (end - start).as_secs_f64())
    }

    fn nanos(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub calls: u64,
    /// Summed span durations, children included.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
}

/// Per-layer rows for every span below `root`, sorted by self time, plus
/// the root's own self time — the wall time no layer call accounts for.
/// Rows' self times plus that remainder equal the root's duration.
///
/// Spans are recorded on one thread, so siblings never overlap and a
/// span's children cover exactly the sum of their durations.
pub fn layer_table(spans: &[Span], root: usize) -> (Vec<LayerRow>, u64) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let under_root = |s: &Span| {
        let mut up = s.parent;
        while let Some(p) = up {
            if p == root {
                return true;
            }
            up = spans[p].parent;
        }
        false
    };
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for s in spans.iter().filter(|s| under_root(s)) {
        let row = rows.entry(s.name).or_insert(LayerRow {
            name: s.name,
            calls: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.calls += 1;
        row.total_ns += s.duration_ns();
        row.self_ns += s.duration_ns() - child_ns[s.id];
    }
    let mut rows: Vec<LayerRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    (rows, spans[root].duration_ns() - child_ns[root])
}

/// The spans as JSON lines, one object per span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"round\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.name, s.round, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, round: 0, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_children_and_rows_sum_to_root() {
        // run [0, 100): map [10, 40) holding route [15, 25); map [50, 60);
        // plan [70, 95). A span outside the root is ignored.
        let spans = vec![
            span(0, None, "run", 0, 100),
            span(1, Some(0), "map", 10, 40),
            span(2, Some(1), "route", 15, 25),
            span(3, Some(0), "map", 50, 60),
            span(4, Some(0), "plan", 70, 95),
            span(5, None, "after", 100, 130),
        ];
        let (rows, rest) = layer_table(&spans, 0);
        let get = |n: &str| rows.iter().find(|r| r.name == n).expect("row present").clone();
        assert_eq!(get("map"), LayerRow { name: "map", calls: 2, total_ns: 40, self_ns: 30 });
        assert_eq!(get("route"), LayerRow { name: "route", calls: 1, total_ns: 10, self_ns: 10 });
        assert_eq!(get("plan").self_ns, 25);
        assert!(rows.iter().all(|r| r.name != "after" && r.name != "run"));
        assert_eq!(rest, 100 - 30 - 10 - 25);
        assert_eq!(rows.iter().map(|r| r.self_ns).sum::<u64>() + rest, 100);
        // Sorted by self time, descending.
        assert_eq!(rows.iter().map(|r| r.name).collect::<Vec<_>>(), ["map", "plan", "route"]);
    }

    #[test]
    fn tracer_links_parents_and_rounds() {
        let tr = Tracer::new(true);
        tr.set_round(7);
        let ((), _) = tr.span("outer", || {
            let (x, secs) = tr.span("inner", || 2 + 2);
            assert_eq!(x, 4);
            assert!(secs >= 0.0);
        });
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].round), ("inner", Some(0), 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let (rows, rest) = layer_table(&spans, 0);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].self_ns + rest, spans[0].duration_ns());
    }

    #[test]
    fn untraced_tracer_times_but_records_nothing() {
        let tr = Tracer::new(false);
        let (v, secs) = tr.span("x", || 5);
        assert_eq!(v, 5);
        assert!(secs >= 0.0);
        assert!(tr.into_spans().is_empty());
    }
}
