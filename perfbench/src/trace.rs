//! In-memory spans and counters for the traced run.
//!
//! A span's layer is the part of its name before the first `.` (`dbg.count`
//! belongs to `dbg`). Spans are kept in memory and written out once, when
//! the run ends; self times are computed from the written file.

use crate::json::{Obj, Value};
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    k: Option<usize>,
    /// The interval was reported by the program (not timed here) and is
    /// placed at the start of its parent.
    reported: bool,
}

/// Span recorder for one traced run.
pub struct Tracer {
    run: String,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    k: Option<usize>,
    counters: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new(run: &str) -> Tracer {
        Tracer {
            run: run.to_string(),
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            k: None,
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Tag spans opened from now on with the round's k (`None` clears it).
    pub fn set_k(&mut self, k: Option<usize>) {
        self.k = k;
    }

    /// Open a span; it is the parent of spans opened before [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_s: self.now(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
            k: self.k,
            reported: false,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_s = self.now();
    }

    /// Time `f` as a span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = std::hint::black_box(f());
        self.exit();
        out
    }

    /// Record a child span of the innermost open span whose duration the
    /// program reported, placed at that span's start. Call it before the
    /// parent closes.
    pub fn reported(&mut self, name: &'static str, seconds: f64) {
        let parent = *self.open.last().expect("reported span needs an open parent");
        let start_s = self.spans[parent].start_s;
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s + seconds.max(0.0),
            parent: Some(parent),
            k: self.k,
            reported: true,
        });
    }

    /// Add `v` to a named counter.
    pub fn add(&mut self, counter: &str, v: f64) {
        *self.counters.entry(counter.to_string()).or_insert(0.0) += v;
    }

    /// The spans and counters as one JSON record.
    pub fn to_json(&self) -> Obj {
        assert!(self.open.is_empty(), "spans still open at the end of the run");
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut o = Obj::new()
                    .int("id", id as u64)
                    .str("name", s.name)
                    .str("layer", s.name.split('.').next().unwrap_or(s.name))
                    .num("start_s", s.start_s)
                    .num("end_s", s.end_s)
                    .val("parent", s.parent.map_or(Value::Null, |p| Value::Int(p as u64)))
                    .str("run", &self.run)
                    .val("k", s.k.map_or(Value::Null, |k| Value::Int(k as u64)));
                if s.reported {
                    o = o.bool("reported", true);
                }
                Value::Obj(o)
            })
            .collect();
        let mut counters = Obj::new();
        for (k, v) in &self.counters {
            counters = counters.num(k, *v);
        }
        Obj::new()
            .str("run", &self.run)
            .val("spans", Value::Arr(spans))
            .val("counters", Value::Obj(counters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_reported_children() {
        let mut tr = Tracer::new("t");
        tr.enter("bench.assemble");
        tr.set_k(Some(21));
        tr.enter("locassm.extend");
        tr.reported("gpusim.host", 0.0);
        tr.exit();
        tr.leaf("dbg.count", || 1 + 1);
        tr.exit();
        let json = tr.to_json().render();
        assert!(json.contains(r#""name": "gpusim.host", "layer": "gpusim""#), "{json}");
        assert!(json.contains(r#""parent": 1"#), "{json}");
        assert!(json.contains(r#""k": 21"#), "{json}");
        assert!(json.contains(r#""reported": true"#), "{json}");
    }
}
