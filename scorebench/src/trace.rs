//! In-memory span recording for the traced run, the timing `RecordStream`
//! adapter, self-time attribution and the Perfetto export.
//!
//! Spans are recorded only from the benchmark's own code, around calls
//! into each layer's public functions. They stay in memory until the run
//! ends.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use mlscore_backend::PrepareTiming;
use mlscore_data::{RecordStream, TabularFrame};
use mlscore_exec::RunReport;
use mlscore_sim::SimInstant;
use mlscore_telemetry::{perfetto, Scope, Tracer};

/// One recorded call into a layer. Times are nanoseconds since the
/// recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, `<module>.<layer>`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Query the span belongs to.
    pub query: u64,
    /// Rows the call handled (0 where rows do not apply).
    pub rows: u64,
    /// Free-form tag: kernel tier, cache outcome.
    pub tag: &'static str,
}

/// Records spans with parent links from a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    query: Cell<u64>,
    reports: RefCell<Vec<(u64, RunReport)>>,
    prepares: RefCell<Vec<PrepareTiming>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            query: Cell::new(0),
            reports: RefCell::new(Vec::new()),
            prepares: RefCell::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags every span opened from now on with query `id`.
    pub fn set_query(&self, id: u64) {
        self.query.set(id);
    }

    /// Opens a span under the innermost open one and returns its handle.
    pub fn open(&self, name: &'static str) -> usize {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let now = self.now();
        spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            query: self.query.get(),
            rows: 0,
            tag: "",
        });
        self.open.borrow_mut().push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&self, id: usize, rows: u64, tag: &'static str) {
        let end = self.now();
        let popped = self.open.borrow_mut().pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[id];
        span.end = end;
        span.rows = rows;
        span.tag = tag;
    }

    /// Keeps the executor report of the call span `id` recorded.
    pub fn keep_report(&self, id: usize, report: RunReport) {
        let start = self.spans.borrow()[id].start;
        self.reports.borrow_mut().push((start, report));
    }

    /// The kept executor reports, in call order.
    pub fn reports(&self) -> Vec<RunReport> {
        self.reports
            .borrow()
            .iter()
            .map(|(_, r)| r.clone())
            .collect()
    }

    /// Keeps the compile timing of one artifact-cache miss.
    pub fn keep_prepare(&self, timing: PrepareTiming) {
        self.prepares.borrow_mut().push(timing);
    }

    /// The kept compile timings, in miss order.
    pub fn prepares(&self) -> Vec<PrepareTiming> {
        self.prepares.borrow().clone()
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes the spans, plus each kept executor report's per-worker busy
    /// spans, as Perfetto `trace_event` JSON. Real time maps 1 ns to 1 ns
    /// of trace time, as `RunReport::record_spans` does.
    pub fn to_perfetto(&self) -> String {
        let tracer = Tracer::new();
        let at = |ns: u64| SimInstant::from_secs(ns as f64 * 1e-9);
        for s in self.spans.borrow().iter() {
            let mut span = tracer
                .span(s.name, at(s.start))
                .scope(Scope::Detail)
                .track("scorebench", "client")
                .meta("query", s.query.to_string());
            if s.rows > 0 {
                span = span.meta("rows", s.rows.to_string());
            }
            if !s.tag.is_empty() {
                span = span.meta("tag", s.tag);
            }
            span.finish(at(s.end));
        }
        for (start, report) in self.reports.borrow().iter() {
            report.record_spans(&tracer, at(*start), "exec pool");
        }
        perfetto::to_json(&tracer.take())
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, so overlapping children are not counted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end - s.start) - covered(s.start, s.end, kids))
        .collect()
}

/// A transparent `RecordStream` adapter. With a recorder it opens one span
/// named `name` around every `next_chunk` call and records the chunk's
/// rows; without one it only forwards. It borrows its source, so a
/// `CsvScanner` can still be asked for its error afterwards.
pub struct Layer<'a, S: ?Sized> {
    inner: &'a mut S,
    rec: Option<&'a Recorder>,
    name: &'static str,
}

impl<'a, S: RecordStream + ?Sized> Layer<'a, S> {
    /// Wraps `inner`, recording spans named `name` on `rec` when given.
    pub fn new(inner: &'a mut S, rec: Option<&'a Recorder>, name: &'static str) -> Self {
        Self { inner, rec, name }
    }
}

impl<S: RecordStream + ?Sized> RecordStream for Layer<'_, S> {
    fn n_features(&self) -> usize {
        self.inner.n_features()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }

    fn next_chunk(&mut self) -> Option<&TabularFrame> {
        let Some(rec) = self.rec else {
            return self.inner.next_chunk();
        };
        let span = rec.open(self.name);
        let chunk = self.inner.next_chunk();
        rec.close(span, chunk.map_or(0, |c| c.n_rows() as u64), "");
        chunk
    }
}
