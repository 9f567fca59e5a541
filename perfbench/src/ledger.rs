//! The benchmark's own span recorder: spans around the calls it makes into
//! each layer, one request id per request, parent links, kept in memory
//! and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans in creation order; a span's id is its index.
pub struct Ledger {
    origin: Instant,
    pub spans: Vec<Span>,
    /// The innermost open span, so `time` nests without threading ids.
    open: Vec<usize>,
    request: u64,
    enabled: bool,
}

impl Ledger {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            enabled: true,
        }
    }

    /// A ledger that records nothing: the untraced replay runs the same
    /// code with every span call reduced to a branch.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts request `id`: later spans until [`end_request`] carry it.
    pub fn begin_request(&mut self, id: u64, name: &'static str) {
        self.request = id;
        self.begin(name);
    }

    pub fn end_request(&mut self) {
        self.end();
    }

    fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            request: self.request,
            parent: self.open.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
    }

    fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("end without begin");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Like [`time`](Self::time), for closures that record child spans.
    pub fn nest<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.begin(name);
        let out = f(self);
        self.end();
        out
    }

    /// Writes every span as one JSON line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"request\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children may overlap one another (work a
/// span waited on in parallel); the covered part is the union of their
/// intervals, clipped to the parent's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut intervals: Vec<(u64, u64)> = children[id]
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: total duration, total self time, and every duration
/// (for medians).
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let entry = out.entry(s.name).or_default();
        entry.total_ns += s.duration_ns();
        entry.self_ns += self_ns;
        entry.durations_ns.push(s.duration_ns());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request: 1,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // request [0,100) > child [10,60) > grandchild [20,50)
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        // children [10,40) and [30,70) overlap on [30,40): union is 60.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 70),
        ];
        assert_eq!(self_times(&spans)[0], 40);
        // A child contained in another adds nothing.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 90),
            span(Some(0), 20, 30),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child that outlives its parent only covers the shared part.
        let spans = vec![span(None, 0, 50), span(Some(0), 40, 80)];
        assert_eq!(self_times(&spans), vec![40, 40]);
    }

    #[test]
    fn recorded_spans_nest_and_carry_the_request() {
        let mut ledger = Ledger::new();
        ledger.begin_request(7, "request");
        ledger.time("a", || ());
        ledger.nest("b", |l| l.time("c", || ()));
        ledger.end_request();
        let names: Vec<_> = ledger
            .spans
            .iter()
            .map(|s| (s.name, s.parent, s.request))
            .collect();
        assert_eq!(
            names,
            vec![
                ("request", None, 7),
                ("a", Some(0), 7),
                ("b", Some(0), 7),
                ("c", Some(2), 7)
            ]
        );
        let selfs = self_times(&ledger.spans);
        let total: u64 = ledger.spans[0].duration_ns();
        assert!(selfs[0] <= total);
        assert!(ledger.to_jsonl().lines().count() == 4);
    }
}
