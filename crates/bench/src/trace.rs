//! Machine-readable routing traces: [`RouteEvent`]s rendered as
//! line-delimited JSON (one event object per line).
//!
//! [`trace_lines`] renders any recorded event slice: an
//! [`EventLog`](route_model::EventLog) handed to a
//! [`DetailedRouter::route_observed`](route_model::DetailedRouter::route_observed)
//! call, or the events the batch engine already collected (see
//! `mighty::ObserveMode::Trace`).
//!
//! The line schema is stable: every record carries `"ev"` (the
//! [`kind_name`](RouteEvent::kind_name)) and `"instance"`, plus the
//! event's own payload fields with fixed names. Consumers stream one
//! line at a time; no JSON array wraps the file.
//!
//! # Examples
//!
//! ```
//! use route_bench::trace::trace_lines;
//! use route_model::{DetailedRouter, EventLog, PinSide, ProblemBuilder};
//! use mighty::{MightyRouter, RouterConfig};
//!
//! let mut b = ProblemBuilder::switchbox(8, 8);
//! b.net("a").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 5);
//! let problem = b.build().unwrap();
//!
//! let mut log = EventLog::new();
//! let router = MightyRouter::new(RouterConfig::default());
//! let outcome = router.route_observed(&problem, &mut log);
//! assert!(outcome.is_complete());
//! let text = trace_lines("swbox-0", log.events());
//! assert!(text.lines().all(|l| l.starts_with("{\"ev\":")));
//! ```

use route_model::RouteEvent;

use route_proto::{event_pairs, Json};

/// Renders `events` as line-delimited JSON, one record per line, each
/// tagged with `instance`.
pub fn trace_lines(instance: &str, events: &[RouteEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_json(instance, ev).render_compact());
        out.push('\n');
    }
    out
}

/// The JSON object for one event: the shared payload vocabulary from
/// [`route_proto::event_pairs`], tagged with the instance label.
fn event_json(instance: &str, ev: &RouteEvent) -> Json {
    let mut pairs: Vec<(String, Json)> =
        vec![("ev".into(), Json::str(ev.kind_name())), ("instance".into(), Json::str(instance))];
    pairs.extend(event_pairs(ev));
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_model::{NetId, SearchKind, SearchProbe};

    #[test]
    fn every_event_kind_renders_one_line() {
        let events = [
            RouteEvent::NetScheduled { net: NetId(0) },
            RouteEvent::SearchDone {
                net: NetId(0),
                kind: SearchKind::Soft,
                probe: SearchProbe { expanded: 7, relaxed: 20, heap_peak: 5, found: true },
            },
            RouteEvent::WeakModification { net: NetId(0), victim: NetId(1) },
            RouteEvent::StrongRipup { net: NetId(0), victim: NetId(1), rip_count: 2 },
            RouteEvent::PenaltyEscalation { victim: NetId(1), penalty: 32 },
            RouteEvent::NetCommitted { net: NetId(0) },
            RouteEvent::NetFailed { net: NetId(1) },
        ];
        let text = trace_lines("box-3", &events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, ev) in lines.iter().zip(&events) {
            assert!(line.starts_with(&format!("{{\"ev\":\"{}\"", ev.kind_name())), "{line}");
            assert!(line.contains("\"instance\":\"box-3\""), "{line}");
            assert!(!line.contains('\n'));
        }
        assert!(lines[1].contains("\"kind\":\"soft\""));
        assert!(lines[1].contains("\"expanded\":7"));
        assert!(lines[1].contains("\"found\":true"));
        assert!(lines[3].contains("\"rip_count\":2"));
        assert!(lines[4].contains("\"penalty\":32"));
    }
}
