//! Observer-layer contract tests for the rip-up/reroute router.
//!
//! Three properties back the observability layer:
//!
//! 1. **Determinism / golden sequence** — a fixed-seed congested
//!    switchbox produces the same event sequence on every run, and the
//!    sequence obeys the protocol (a net is scheduled before any of its
//!    terminal events; every search belongs to a scheduled net).
//! 2. **Observation is inert** — attaching any observer never changes
//!    the routed database ([`RouteDb::checksum`] equality).
//! 3. **Events are truthful** — metrics reconstructed from the event
//!    stream agree with the router's own work counters wherever the
//!    event vocabulary covers them.

use mighty::{MightyRouter, RouterConfig};
use route_benchdata::gen::SwitchboxGen;
use route_benchdata::rng::SplitMix64;
use route_benchdata::suite::channel_suite;
use route_model::{EventLog, MetricsRecorder, PinSide, Problem, ProblemBuilder, RouteEvent};

/// A dense fixed-seed switchbox that forces weak and strong
/// modification without being unroutable.
fn congested_box() -> Problem {
    SwitchboxGen { width: 12, height: 10, nets: 12, seed: 23 }.build()
}

/// Arbitrary switchboxes, mirroring the prop_router generator.
fn random_problems(seed: u64, cases: usize) -> Vec<Problem> {
    let mut rng = SplitMix64::new(seed);
    let sides = [PinSide::Left, PinSide::Right, PinSide::Top, PinSide::Bottom];
    let mut out = Vec::new();
    while out.len() < cases {
        let w = rng.range(5, 14) as u32;
        let h = rng.range(5, 12) as u32;
        let pairs = rng.range(1, 10) as usize;
        let clamp = |side: PinSide, o: u32| match side {
            PinSide::Left | PinSide::Right => o % h,
            PinSide::Top | PinSide::Bottom => o % w,
        };
        let mut b = ProblemBuilder::switchbox(w, h);
        for i in 0..pairs {
            let s1 = sides[rng.below(4) as usize];
            let s2 = sides[rng.below(4) as usize];
            let o1 = rng.below(12) as u32;
            let o2 = rng.below(12) as u32;
            b.net(format!("n{i}")).pin_side(s1, clamp(s1, o1)).pin_side(s2, clamp(s2, o2));
        }
        if let Ok(p) = b.build() {
            out.push(p);
        }
    }
    out
}

#[test]
fn fixed_seed_event_sequence_is_stable() {
    let problem = congested_box();
    let router = MightyRouter::new(RouterConfig::default());
    let mut first = EventLog::new();
    let outcome = router.route_observed(&problem, &mut first);
    assert!(outcome.is_complete(), "the golden instance routes completely");

    // Bit-identical event stream on a second run.
    let mut second = EventLog::new();
    router.route_observed(&problem, &mut second);
    assert_eq!(first.events(), second.events());

    // The instrumented run exercised the full vocabulary.
    let stats = outcome.stats();
    assert!(stats.weak_pushes > 0, "golden instance must force weak modification: {stats:?}");
    assert!(stats.rips > 0, "golden instance must force strong rip-up: {stats:?}");
    assert_eq!(first.count_kind("weak_modification") as u64, stats.weak_pushes);
    assert_eq!(first.count_kind("strong_ripup") as u64, stats.rips);
    assert!(first.count_kind("penalty_escalation") > 0);
    assert!(first.count_kind("search_done") > 0);

    // Protocol shape: terminal and search events only for nets already
    // scheduled, and the accounting balances — every schedule reaches
    // exactly one terminal event.
    let mut scheduled = std::collections::BTreeSet::new();
    let mut open = 0i64;
    for ev in first.events() {
        match *ev {
            RouteEvent::NetScheduled { net } => {
                scheduled.insert(net);
                open += 1;
            }
            RouteEvent::SearchDone { net, .. } => {
                assert!(scheduled.contains(&net), "search for an unscheduled net");
            }
            RouteEvent::NetCommitted { net } | RouteEvent::NetFailed { net } => {
                assert!(scheduled.contains(&net), "terminal event for an unscheduled net");
                open -= 1;
            }
            RouteEvent::WeakModification { net, .. } => {
                assert!(scheduled.contains(&net));
            }
            RouteEvent::StrongRipup { net, .. } => {
                assert!(scheduled.contains(&net));
            }
            RouteEvent::PenaltyEscalation { .. } => {}
        }
    }
    assert_eq!(open, 0, "every scheduled net must reach a terminal event");
    assert_eq!(scheduled.len(), problem.nets().len());
}

#[test]
fn observation_never_changes_the_routing() {
    for (i, problem) in random_problems(0x0B5E, 32).iter().enumerate() {
        let router = MightyRouter::new(RouterConfig::default());
        let plain = router.route(problem);
        let mut log = EventLog::new();
        let logged = router.route_observed(problem, &mut log);
        let mut metrics = MetricsRecorder::new();
        let metered = router.route_observed(problem, &mut metrics);
        assert_eq!(
            plain.db().checksum(),
            logged.db().checksum(),
            "case {i}: event log changed the routing"
        );
        assert_eq!(
            plain.db().checksum(),
            metered.db().checksum(),
            "case {i}: metrics recorder changed the routing"
        );
        assert_eq!(plain.failed(), logged.failed(), "case {i}");
        assert_eq!(plain.stats(), logged.stats(), "case {i}");
    }
}

/// The nine channels of the T1 suite with three tracks above density,
/// as the M1 batch routes them. Their rip-up runs include failed hard
/// and soft searches that settle nodes.
fn suite_channels() -> Vec<Problem> {
    channel_suite()
        .into_iter()
        .map(|(_, spec)| spec.to_problem(spec.density() as usize + 3))
        .collect()
}

#[test]
fn event_derived_metrics_agree_with_router_stats() {
    let mut problems = random_problems(0x0DD5, 24);
    problems.extend(suite_channels());
    for (i, problem) in problems.iter().enumerate() {
        let router = MightyRouter::new(RouterConfig::default());
        let mut log = EventLog::new();
        let outcome = router.route_observed(problem, &mut log);
        let mut rec = MetricsRecorder::new();
        log.replay(&mut rec);
        let derived = rec.router();
        let actual = outcome.stats();
        // `hard_routes`, `reroutes` and `weak_rollbacks` intentionally
        // differ (see MetricsRecorder::router docs); everything the
        // event vocabulary covers must match exactly.
        assert_eq!(derived.soft_routes, actual.soft_routes, "case {i}");
        assert_eq!(derived.weak_pushes, actual.weak_pushes, "case {i}");
        assert_eq!(derived.rips, actual.rips, "case {i}");
        assert_eq!(derived.expanded, actual.expanded, "case {i}");
        assert_eq!(derived.events, actual.events, "case {i}");
        assert_eq!(rec.nets_committed() + rec.nets_failed(), rec.nets_scheduled(), "case {i}");
        assert_eq!(
            rec.nets_failed() as usize,
            outcome.failed().len(),
            "case {i}: terminal failure events match the failed-net list"
        );
    }
}
