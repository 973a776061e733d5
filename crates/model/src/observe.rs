//! Routing observability: the [`RouteObserver`] event vocabulary.
//!
//! The paper's core claims are about *behaviour under pressure* — how
//! often the router falls back to interference search, how many weak
//! pushes absorb the damage, how many strong rip-ups are needed and how
//! far the crossing penalty escalates before a run completes. Those
//! internals used to be visible only as post-hoc aggregate counters;
//! this module makes them a first-class event stream.
//!
//! Every router behind
//! [`DetailedRouter`](crate::DetailedRouter) emits the same vocabulary
//! through [`DetailedRouter::route_observed`](crate::DetailedRouter::route_observed):
//!
//! * [`on_net_scheduled`](RouteObserver::on_net_scheduled) — a net was
//!   pulled off the work queue.
//! * [`on_search_done`](RouteObserver::on_search_done) — one maze search
//!   finished, with its expansion/heap effort and whether it found a
//!   path.
//! * [`on_weak_modification`](RouteObserver::on_weak_modification) — a
//!   blocking net was pushed aside and repaired in place.
//! * [`on_strong_ripup`](RouteObserver::on_strong_ripup) — a victim's
//!   wiring was ripped and the victim re-enqueued.
//! * [`on_penalty_escalation`](RouteObserver::on_penalty_escalation) —
//!   a victim's crossing penalty grew after a rip.
//! * [`on_net_committed`](RouteObserver::on_net_committed) /
//!   [`on_net_failed`](RouteObserver::on_net_failed) — terminal events
//!   for one net's routing attempt.
//!
//! All methods default to no-ops, so an observer implements only what it
//! cares about and the [`NopObserver`] costs nothing but a virtual call
//! to an empty body. An observer that wants the whole stream as values —
//! a recorder, a forwarder, a net-id translator — implements the one
//! method of [`EventSink`] instead and is a [`RouteObserver`] through a
//! blanket impl. Observation never changes routing behaviour:
//! observer-on and observer-off runs produce bit-identical databases.
//!
//! # Examples
//!
//! ```
//! use route_model::{DetailedRouter, EventLog, NopObserver, ProblemBuilder, PinSide};
//!
//! struct GiveUp;
//! impl DetailedRouter for GiveUp {
//!     fn name(&self) -> &str { "give-up" }
//!     fn route(&self, problem: &route_model::Problem) -> route_model::RouteResult {
//!         Ok(route_model::Routing {
//!             db: route_model::RouteDb::new(problem),
//!             failed: problem.nets().iter().map(|n| n.id).collect(),
//!         })
//!     }
//! }
//!
//! let mut b = ProblemBuilder::switchbox(4, 3);
//! b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
//! let problem = b.build()?;
//!
//! // Even a router without bespoke instrumentation emits the shared
//! // summary vocabulary through the provided `route_observed`.
//! let mut log = EventLog::new();
//! GiveUp.route_observed(&problem, &mut log).unwrap();
//! assert_eq!(log.events().len(), 2); // scheduled + failed
//! # Ok::<(), route_model::ProblemError>(())
//! ```

use crate::NetId;

/// Which search mode produced a [`SearchProbe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchKind {
    /// Hard search: only free cells and the net's own wiring.
    Hard,
    /// Interference (soft) search: foreign wiring crossable at a penalty.
    Soft,
}

/// Effort snapshot of one finished maze search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchProbe {
    /// Nodes settled (popped with final cost).
    pub expanded: u64,
    /// Edge relaxations attempted.
    pub relaxed: u64,
    /// Largest open-list (heap) size reached during the search.
    pub heap_peak: u64,
    /// Whether a path was found.
    pub found: bool,
}

/// Observer of routing progress. All methods are no-op by default.
///
/// Implementations must not change routing behaviour — they see events,
/// they do not steer. The workspace ships three:
/// [`NopObserver`] (the zero-cost default), [`EventLog`] (records the
/// raw stream for traces and golden tests) and
/// [`MetricsRecorder`](crate::MetricsRecorder) (counters + histograms).
pub trait RouteObserver {
    /// A net was pulled off the work queue for (re-)routing.
    fn on_net_scheduled(&mut self, _net: NetId) {}

    /// One maze search finished (successfully or not).
    fn on_search_done(&mut self, _net: NetId, _kind: SearchKind, _probe: SearchProbe) {}

    /// `victim`'s blocking wiring was pushed aside by `net` and repaired
    /// in place (weak modification).
    fn on_weak_modification(&mut self, _net: NetId, _victim: NetId) {}

    /// `victim`'s wiring was ripped by `net` and `victim` re-enqueued
    /// (strong modification); `rip_count` is the victim's new total.
    fn on_strong_ripup(&mut self, _net: NetId, _victim: NetId, _rip_count: u32) {}

    /// `victim`'s crossing penalty escalated to `penalty` after a rip.
    fn on_penalty_escalation(&mut self, _victim: NetId, _penalty: u64) {}

    /// Every pin of `net` is now connected.
    fn on_net_committed(&mut self, _net: NetId) {}

    /// `net` was declared failed and its wiring released.
    fn on_net_failed(&mut self, _net: NetId) {}
}

/// The do-nothing observer: what un-instrumented entry points pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NopObserver;

impl RouteObserver for NopObserver {}

/// An observer that takes every event as one [`RouteEvent`] value; a
/// blanket impl makes each sink a [`RouteObserver`]. [`EventLog`],
/// [`MetricsRecorder`](crate::MetricsRecorder), the service's event
/// forwarder and the chip flow's net-id translator are sinks.
pub trait EventSink {
    /// Receives one event, in emission order.
    fn event(&mut self, event: RouteEvent);
}

impl<T: EventSink + ?Sized> RouteObserver for T {
    fn on_net_scheduled(&mut self, net: NetId) {
        self.event(RouteEvent::NetScheduled { net });
    }

    fn on_search_done(&mut self, net: NetId, kind: SearchKind, probe: SearchProbe) {
        self.event(RouteEvent::SearchDone { net, kind, probe });
    }

    fn on_weak_modification(&mut self, net: NetId, victim: NetId) {
        self.event(RouteEvent::WeakModification { net, victim });
    }

    fn on_strong_ripup(&mut self, net: NetId, victim: NetId, rip_count: u32) {
        self.event(RouteEvent::StrongRipup { net, victim, rip_count });
    }

    fn on_penalty_escalation(&mut self, victim: NetId, penalty: u64) {
        self.event(RouteEvent::PenaltyEscalation { victim, penalty });
    }

    fn on_net_committed(&mut self, net: NetId) {
        self.event(RouteEvent::NetCommitted { net });
    }

    fn on_net_failed(&mut self, net: NetId) {
        self.event(RouteEvent::NetFailed { net });
    }
}

/// One recorded [`RouteObserver`] event, suitable for machine-readable
/// traces and golden-sequence tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteEvent {
    /// See [`RouteObserver::on_net_scheduled`].
    NetScheduled {
        /// The net pulled off the queue.
        net: NetId,
    },
    /// See [`RouteObserver::on_search_done`].
    SearchDone {
        /// The net being routed.
        net: NetId,
        /// Search mode.
        kind: SearchKind,
        /// Effort and outcome.
        probe: SearchProbe,
    },
    /// See [`RouteObserver::on_weak_modification`].
    WeakModification {
        /// The net whose path displaced the victim.
        net: NetId,
        /// The pushed-and-repaired net.
        victim: NetId,
    },
    /// See [`RouteObserver::on_strong_ripup`].
    StrongRipup {
        /// The net whose path displaced the victim.
        net: NetId,
        /// The ripped net.
        victim: NetId,
        /// The victim's total rip count after this rip.
        rip_count: u32,
    },
    /// See [`RouteObserver::on_penalty_escalation`].
    PenaltyEscalation {
        /// The ripped net whose penalty grew.
        victim: NetId,
        /// The new per-slot crossing penalty.
        penalty: u64,
    },
    /// See [`RouteObserver::on_net_committed`].
    NetCommitted {
        /// The fully connected net.
        net: NetId,
    },
    /// See [`RouteObserver::on_net_failed`].
    NetFailed {
        /// The net declared unroutable.
        net: NetId,
    },
}

impl RouteEvent {
    /// A short stable name for the event type (trace `"ev"` field).
    pub fn kind_name(&self) -> &'static str {
        match self {
            RouteEvent::NetScheduled { .. } => "net_scheduled",
            RouteEvent::SearchDone { .. } => "search_done",
            RouteEvent::WeakModification { .. } => "weak_modification",
            RouteEvent::StrongRipup { .. } => "strong_ripup",
            RouteEvent::PenaltyEscalation { .. } => "penalty_escalation",
            RouteEvent::NetCommitted { .. } => "net_committed",
            RouteEvent::NetFailed { .. } => "net_failed",
        }
    }

    /// Replays this event into another observer — the bridge between a
    /// recorded [`EventLog`] and derived views such as
    /// [`MetricsRecorder`](crate::MetricsRecorder).
    pub fn replay(&self, obs: &mut dyn RouteObserver) {
        match *self {
            RouteEvent::NetScheduled { net } => obs.on_net_scheduled(net),
            RouteEvent::SearchDone { net, kind, probe } => obs.on_search_done(net, kind, probe),
            RouteEvent::WeakModification { net, victim } => obs.on_weak_modification(net, victim),
            RouteEvent::StrongRipup { net, victim, rip_count } => {
                obs.on_strong_ripup(net, victim, rip_count)
            }
            RouteEvent::PenaltyEscalation { victim, penalty } => {
                obs.on_penalty_escalation(victim, penalty)
            }
            RouteEvent::NetCommitted { net } => obs.on_net_committed(net),
            RouteEvent::NetFailed { net } => obs.on_net_failed(net),
        }
    }

    /// The same event with every net id passed through `f` — how a
    /// sub-problem's local ids are translated back to the caller's.
    pub fn map_nets(mut self, mut f: impl FnMut(NetId) -> NetId) -> RouteEvent {
        match &mut self {
            RouteEvent::WeakModification { net, victim }
            | RouteEvent::StrongRipup { net, victim, .. } => {
                *net = f(*net);
                *victim = f(*victim);
            }
            RouteEvent::NetScheduled { net }
            | RouteEvent::SearchDone { net, .. }
            | RouteEvent::NetCommitted { net }
            | RouteEvent::NetFailed { net }
            | RouteEvent::PenaltyEscalation { victim: net, .. } => *net = f(*net),
        }
        self
    }
}

/// An observer that records the raw event stream in order.
///
/// The log is the currency of machine-readable traces (see the
/// `route_bench` trace writer) and of golden-sequence tests; replay it
/// into any other observer with [`EventLog::replay`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<RouteEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[RouteEvent] {
        &self.events
    }

    /// Consumes the log, returning the recorded events.
    pub fn into_events(self) -> Vec<RouteEvent> {
        self.events
    }

    /// Number of recorded events whose [`kind_name`](RouteEvent::kind_name)
    /// equals `kind` (payloads are ignored).
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind_name() == kind).count()
    }

    /// Replays every recorded event, in order, into `obs`.
    pub fn replay(&self, obs: &mut dyn RouteObserver) {
        for ev in &self.events {
            ev.replay(obs);
        }
    }
}

impl EventSink for EventLog {
    fn event(&mut self, event: RouteEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_in_order_and_replays() {
        let mut log = EventLog::new();
        log.on_net_scheduled(NetId(0));
        log.on_search_done(
            NetId(0),
            SearchKind::Hard,
            SearchProbe { expanded: 5, relaxed: 12, heap_peak: 4, found: true },
        );
        log.on_weak_modification(NetId(0), NetId(1));
        log.on_strong_ripup(NetId(0), NetId(1), 2);
        log.on_penalty_escalation(NetId(1), 32);
        log.on_net_committed(NetId(0));
        log.on_net_failed(NetId(1));
        assert_eq!(log.events().len(), 7);
        assert_eq!(log.count_kind("search_done"), 1);
        assert_eq!(log.count_kind("strong_ripup"), 1);

        let mut copy = EventLog::new();
        log.replay(&mut copy);
        assert_eq!(log, copy);
    }

    #[test]
    fn kind_names_are_stable() {
        let names: Vec<&str> = [
            RouteEvent::NetScheduled { net: NetId(0) },
            RouteEvent::SearchDone {
                net: NetId(0),
                kind: SearchKind::Soft,
                probe: SearchProbe::default(),
            },
            RouteEvent::WeakModification { net: NetId(0), victim: NetId(1) },
            RouteEvent::StrongRipup { net: NetId(0), victim: NetId(1), rip_count: 1 },
            RouteEvent::PenaltyEscalation { victim: NetId(1), penalty: 16 },
            RouteEvent::NetCommitted { net: NetId(0) },
            RouteEvent::NetFailed { net: NetId(0) },
        ]
        .iter()
        .map(RouteEvent::kind_name)
        .collect();
        assert_eq!(
            names,
            [
                "net_scheduled",
                "search_done",
                "weak_modification",
                "strong_ripup",
                "penalty_escalation",
                "net_committed",
                "net_failed"
            ]
        );
    }

    #[test]
    fn map_nets_translates_every_id_and_keeps_payloads() {
        let map = [NetId(7), NetId(3)];
        let mut log = EventLog::new();
        log.on_search_done(
            NetId(0),
            SearchKind::Soft,
            SearchProbe { expanded: 5, ..SearchProbe::default() },
        );
        log.on_weak_modification(NetId(0), NetId(1));
        log.on_strong_ripup(NetId(1), NetId(0), 4);
        log.on_penalty_escalation(NetId(1), 64);
        let mapped: Vec<RouteEvent> =
            log.events().iter().map(|ev| ev.map_nets(|id| map[id.index()])).collect();
        assert_eq!(
            mapped,
            [
                RouteEvent::SearchDone {
                    net: NetId(7),
                    kind: SearchKind::Soft,
                    probe: SearchProbe { expanded: 5, ..SearchProbe::default() },
                },
                RouteEvent::WeakModification { net: NetId(7), victim: NetId(3) },
                RouteEvent::StrongRipup { net: NetId(3), victim: NetId(7), rip_count: 4 },
                RouteEvent::PenaltyEscalation { victim: NetId(3), penalty: 64 },
            ]
        );
    }

    #[test]
    fn nop_observer_accepts_everything() {
        let mut nop = NopObserver;
        nop.on_net_scheduled(NetId(3));
        nop.on_penalty_escalation(NetId(3), u64::MAX);
    }
}
