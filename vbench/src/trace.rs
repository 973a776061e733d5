//! In-memory span recorder of a traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! — around calls into the router crates, never inside them — and kept
//! in memory until the run ends, when [`Tracer::to_lines`] renders them
//! as line-delimited JSON: one object per span with its `id`, `parent`
//! (the span that caused it, or `null`), `name`, `start_us` (since the
//! run's origin), `dur_us`, and any numeric fields attached to it, such
//! as a routing call's per-layer split.

use std::time::Instant;

use route_proto::Json;

use crate::observe::RouterLayers;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    parent: Option<usize>,
    name: &'static str,
    start: Instant,
    end: Instant,
    fields: Vec<(&'static str, f64)>,
}

/// Records spans against a shared time origin.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new() }
    }

    /// An empty recorder with this one's origin, for another thread;
    /// [`Tracer::absorb`] merges it back.
    pub fn child(&self) -> Self {
        Tracer::new(self.origin)
    }

    /// Opens a span now and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.spans.push(Span { parent, name, start: now, end: now, fields: Vec::new() });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end = Instant::now();
        span.end.duration_since(span.start).as_secs_f64()
    }

    /// Records an already finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span { parent, name, start, end, fields: Vec::new() });
        self.spans.len() - 1
    }

    /// Attaches a numeric field to span `id`.
    pub fn field(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].fields.push((key, value));
    }

    /// Attaches a routing call's per-layer split to span `id`.
    pub fn router(&mut self, id: usize, layers: &RouterLayers) {
        for (key, value) in [
            ("hard_search_s", layers.hard_search_s),
            ("soft_search_s", layers.soft_search_s),
            ("weak_s", layers.weak_s),
            ("strong_s", layers.strong_s),
            ("commit_s", layers.commit_s),
            ("snapshot_s", layers.snapshot_s),
            ("hard_searches", layers.hard_searches as f64),
            ("soft_searches", layers.soft_searches as f64),
            ("commits", layers.commits as f64),
        ] {
            self.field(id, key, value);
        }
    }

    /// Moves every span of `other` (recorded on another thread against
    /// the same origin) into this recorder, renumbering ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spans as line-delimited JSON, in recording order.
    pub fn to_lines(&self) -> String {
        let micros = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let mut pairs: Vec<(String, Json)> = vec![
                ("id".into(), Json::from(id)),
                ("parent".into(), span.parent.map_or(Json::Null, Json::from)),
                ("name".into(), Json::str(span.name)),
                ("start_us".into(), Json::from(micros(span.start))),
                ("dur_us".into(), Json::from(micros(span.end) - micros(span.start))),
            ];
            pairs.extend(span.fields.iter().map(|&(k, v)| (k.to_string(), Json::from(v))));
            out.push_str(&Json::Obj(pairs).render_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render_one_per_line() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let outer = t.open("round", None);
        let inner = t.open("call", Some(outer));
        t.field(inner, "nets", 3.0);
        assert!(t.close(inner) >= 0.0);
        t.close(outer);
        let mut other = t.child();
        let o = other.open("request", None);
        other.open("route", Some(o));
        t.absorb(other);
        assert_eq!(t.len(), 4);
        let lines: Vec<Json> =
            t.to_lines().lines().map(|l| Json::parse(l).expect("valid JSON")).collect();
        assert_eq!(lines[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(lines[1].get("nets").and_then(Json::as_f64), Some(3.0));
        assert_eq!(lines[3].get("parent").and_then(Json::as_u64), Some(2));
        assert!(lines[0].get("parent").is_some_and(Json::is_null));
    }
}
