//! In-memory spans around the benchmark's calls into the program. A span
//! holds its name, start and end (nanoseconds since the tracer started),
//! the span that caused it, and the verdict or job it belongs to. Spans are
//! kept in memory and written out once, when the run ends. With tracing
//! off nothing is recorded and the clock is not read.

use ddws_telemetry::Json;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer call, e.g. `server.handle_frame`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer started.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The verdict (direct workloads) or job (served) the call served.
    pub key: u64,
}

impl Span {
    /// The span's length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// The span recorder.
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: on.then(Instant::now),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.epoch.is_some()
    }

    /// The current instant when tracing, for a span recorded later.
    pub fn now(&self) -> Option<Instant> {
        self.epoch.map(|_| Instant::now())
    }

    fn ns(&self, t: Instant) -> u64 {
        let epoch = self.epoch.expect("only called while tracing");
        t.duration_since(epoch).as_nanos() as u64
    }

    /// Opens a span that encloses later ones.
    pub fn open(&mut self, name: &'static str, parent: SpanId, key: u64) -> SpanId {
        let start = self.now()?;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            key,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a finished span that started at `start` (from
    /// [`Tracer::now`]) and ends now.
    pub fn record(&mut self, name: &'static str, start: Option<Instant>, parent: SpanId, key: u64) {
        self.record_between(name, start, self.now(), parent, key);
    }

    /// Records a finished span between two instants from [`Tracer::now`].
    pub fn record_between(
        &mut self,
        name: &'static str,
        start: Option<Instant>,
        end: Option<Instant>,
        parent: SpanId,
        key: u64,
    ) {
        if let (Some(start), Some(end)) = (start, end) {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                key,
            });
        }
    }

    /// Durations of the spans called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Per key, the summed seconds of the spans called `name`, for the
    /// keys `0..keys`.
    pub fn per_key(&self, name: &str, keys: usize) -> Vec<f64> {
        let mut sums = vec![0.0; keys];
        for s in self.spans.iter().filter(|s| s.name == name) {
            if let Some(slot) = sums.get_mut(s.key as usize) {
                *slot += s.secs();
            }
        }
        sums
    }

    /// The spans as a JSON array of `[name, start_ns, end_ns, parent, key]`
    /// rows (`parent` is -1 for a root span).
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    Json::Array(vec![
                        Json::Str(s.name.to_string()),
                        Json::UInt(s.start_ns),
                        Json::UInt(s.end_ns),
                        s.parent.map_or(Json::Float(-1.0), |p| Json::UInt(p as u64)),
                        Json::UInt(s.key),
                    ])
                })
                .collect(),
        )
    }
}
