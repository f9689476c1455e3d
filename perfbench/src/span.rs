//! In-memory span recording around the benchmark's calls into bosim.
//!
//! A span names the layer whose public function was called, the call,
//! its start and end, and the span that enclosed it. Spans stay in
//! memory and are written out with the repetition's result. With
//! tracing off nothing is recorded, but every call is still timed, so
//! the untraced and traced runs time the same code.

use bosim_stats::Json;
use std::time::Instant;

struct Span {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The span recorder of one repetition.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its value and wall seconds.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                layer,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(id);
            id
        });
        let value = f(self);
        let secs = start.elapsed().as_secs_f64();
        if let Some(id) = id {
            self.open.pop();
            self.spans[id].end_ns = self.now_ns();
        }
        (value, secs)
    }

    /// The recorded spans, in start order.
    pub fn to_json(&self) -> Json {
        Json::arr(self.spans.iter().map(|s| {
            Json::obj([
                ("layer", Json::from(s.layer)),
                ("name", Json::from(s.name)),
                ("start_ns", Json::UInt(s.start_ns)),
                ("end_ns", Json::UInt(s.end_ns)),
                ("parent", Json::from(s.parent)),
            ])
        }))
    }
}
