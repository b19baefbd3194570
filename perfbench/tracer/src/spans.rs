//! In-memory spans: name, start, end, parent and the request they
//! belong to, plus numeric attributes and an optional label. Written
//! out as JSONL once, after the whole plan has run.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::time::Instant;

use serde::Serialize;

#[derive(Serialize)]
pub struct Span {
    /// The request (or job) every span of one re-execution shares.
    pub trace: String,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: BTreeMap<String, f64>,
    pub label: Option<String>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: String,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: String::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans begun from now on belong to request `trace`.
    pub fn set_trace(&mut self, trace: &str) {
        self.trace = trace.to_string();
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            trace: self.trace.clone(),
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            attrs: BTreeMap::new(),
            label: None,
        });
        self.open.push(id);
        // Read the clock last, so the span's own bookkeeping stays out.
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// Close span `id` (the innermost open one).
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id));
        self.open.pop();
        self.spans[id].end_ns = now;
    }

    /// Rename span `id`; for calls whose layer is known only afterwards
    /// (a cache lookup that turned out to be a build).
    pub fn rename(&mut self, id: usize, name: &str) {
        self.spans[id].name = name.to_string();
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn attr(&mut self, id: usize, key: &str, value: f64) {
        self.spans[id].attrs.insert(key.to_string(), value);
    }

    pub fn label(&mut self, id: usize, label: &str) {
        self.spans[id].label = Some(label.to_string());
    }

    /// Record an already-measured span (the untraced re-execution).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        let id = self.spans.len();
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            trace: self.trace.clone(),
            id,
            parent: None,
            name: name.to_string(),
            start_ns,
            end_ns,
            attrs: BTreeMap::new(),
            label: None,
        });
    }

    pub fn write(&self, path: &str) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut w = BufWriter::new(file);
        for span in &self.spans {
            let line = serde_json::to_string(span).map_err(|e| e.to_string())?;
            writeln!(w, "{line}").map_err(|e| e.to_string())?;
        }
        w.flush().map_err(|e| e.to_string())
    }
}
