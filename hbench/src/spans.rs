//! In-memory spans recorded by the benchmark around its calls into each
//! layer (spans inside the program are a later change). Spans of one traced
//! run share its run id; they are written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: String,
    /// Index of the causing span in the recorder, `None` for a root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary as the span.
    pub counts: Vec<(String, u64)>,
}

#[derive(Debug)]
pub struct Recorder {
    pub run_id: u64,
    origin: Instant,
    pub spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(run_id: u64) -> Self {
        Recorder {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    /// Returns `f`'s value and the span's duration in milliseconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        let span = &mut self.spans[id];
        span.start_ns = (start - self.origin).as_nanos() as u64;
        span.end_ns = (end - self.origin).as_nanos() as u64;
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &str, value: u64) {
        let id = *self.open.last().expect("count outside any span");
        self.spans[id].counts.push((key.to_string(), value));
    }
}

/// A span's duration minus the part of its interval its children cover.
/// Children may overlap each other (parallel parts) or stick out of the
/// parent (clock skew in spliced traces): the covered part is the union of
/// their intervals clipped to the parent.
pub fn self_time_ns(spans: &[SpanRec], id: usize) -> u64 {
    let (start, end) = (spans[id].start_ns, spans[id].end_ns);
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(start), s.end_ns.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in kids {
        let from = s.max(reach);
        if e > from {
            covered += e - from;
            reach = e;
        }
    }
    (end - start) - covered
}

/// The spans as one JSON document (names are benchmark constants and need
/// no escaping beyond quotes, which they never contain).
pub fn to_json(recorders: &[Recorder]) -> String {
    let mut out = String::from("{\"runs\":[");
    for (r, rec) in recorders.iter().enumerate() {
        if r > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"run_id\":{},\"spans\":[", rec.run_id);
        for (i, s) in rec.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"counts\":{{",
                s.name,
                s.start_ns,
                s.end_ns,
                self_time_ns(&rec.spans, i)
            );
            for (k, (key, value)) in s.counts.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{key}\":{value}");
            }
            out.push_str("}}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name: "s".into(),
            parent,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            rec(None, 0, 100),
            rec(Some(0), 10, 40),
            rec(Some(0), 30, 60),  // overlaps the first child by 10
            rec(Some(0), 90, 120), // sticks out of the parent by 20
            rec(Some(1), 15, 20),  // grandchild: not the root's business
        ];
        // children cover [10,60) and [90,100) = 60
        assert_eq!(self_time_ns(&spans, 0), 40);
        assert_eq!(self_time_ns(&spans, 1), 25);
        assert_eq!(self_time_ns(&spans, 2), 30);
    }

    #[test]
    fn recorder_nests_and_counts() {
        let mut r = Recorder::new(7);
        let ((), _) = r.span("outer", |r| {
            r.count("rows", 3);
            r.span("inner", |_| ()).0
        });
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        assert!(r.spans[0].end_ns >= r.spans[1].end_ns);
        assert_eq!(r.spans[0].counts, vec![("rows".to_string(), 3)]);
        let json = to_json(&[r]);
        assert!(json.contains("\"run_id\":7"));
        assert!(json.contains("\"name\":\"inner\",\"parent\":0"));
    }
}
