//! Batch engine contract tests: deterministic ordering across thread
//! counts, panic isolation, deadline disqualification and stats, for
//! the plain batch (a one-attempt supervisor over the caller's router).

use std::time::Duration;

use mighty::engine::{BatchObservation, EngineConfig, EngineStats, ObserveMode, RouteEngine};
use mighty::{MightyRouter, RetryPolicy, RouterConfig, SupervisedOutcome, Supervisor};
use route_benchdata::gen::routable_switchbox;
use route_model::{DetailedRouter, Problem, RouteDb, RouteError, RouteResult, Routing};

fn batch(count: u64) -> Vec<Problem> {
    (0..count).map(|i| routable_switchbox(12, 12, 5, 0x5eed ^ i)).collect()
}

/// A plain batch's results: each instance as its one attempt ended.
struct Plain {
    results: Vec<RouteResult>,
    timings: Vec<Duration>,
    stats: EngineStats,
    observation: Option<BatchObservation>,
}

/// Routes `problems` through `engine` as a plain batch over `router`.
fn plain(engine: RouteEngine, router: &(dyn DetailedRouter + Sync), problems: &[Problem]) -> Plain {
    let supervisor = Supervisor::with_primary(router, RetryPolicy::default());
    let out = engine.route_batch(&supervisor, problems, None);
    let results = out.outcomes.into_iter().map(|o| o.and_then(SupervisedOutcome::into_result));
    Plain {
        results: results.map(|r| r.expect("every instance ran live")).collect(),
        timings: out.timings,
        stats: out.stats,
        observation: out.observation,
    }
}

#[test]
fn results_are_identical_across_thread_counts() {
    let problems = batch(24);
    let router = MightyRouter::new(RouterConfig::default());
    let serial = plain(RouteEngine::with_jobs(1), &router, &problems);
    let parallel = plain(RouteEngine::with_jobs(4), &router, &problems);
    assert_eq!(serial.results.len(), problems.len());
    for (i, (a, b)) in serial.results.iter().zip(&parallel.results).enumerate() {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.db.checksum(), b.db.checksum(), "instance {i} diverged");
        assert_eq!(a.failed, b.failed, "instance {i} diverged");
    }
    assert_eq!(serial.stats.complete, parallel.stats.complete);
    assert_eq!(serial.stats.wirelength, parallel.stats.wirelength);
    assert_eq!(serial.stats.vias, parallel.stats.vias);
}

#[test]
fn results_keep_input_order() {
    // Problems of very different sizes, so completion order under
    // parallelism differs from input order.
    let problems: Vec<Problem> = (0..12)
        .map(|i| {
            let side = if i % 2 == 0 { 24 } else { 6 };
            routable_switchbox(side, side, 3, 7 + i)
        })
        .collect();
    let router = MightyRouter::new(RouterConfig::default());
    let out = plain(RouteEngine::with_jobs(4), &router, &problems);
    let reference = MightyRouter::new(RouterConfig::default());
    for (i, (problem, result)) in problems.iter().zip(&out.results).enumerate() {
        let direct = reference.route(problem);
        let routing = result.as_ref().unwrap();
        assert_eq!(routing.db.checksum(), direct.db().checksum(), "slot {i} misplaced");
    }
}

/// Panics on every problem whose first net is named the poison marker.
struct Trapped;

impl DetailedRouter for Trapped {
    fn name(&self) -> &str {
        "trapped"
    }

    fn route(&self, problem: &Problem) -> RouteResult {
        if problem.nets().iter().any(|n| n.name == "poison") {
            panic!("tripped on a poisoned instance");
        }
        Ok(Routing { db: RouteDb::new(problem), failed: Vec::new() })
    }
}

fn poisoned(name: &str) -> Problem {
    let mut b = route_model::ProblemBuilder::switchbox(6, 6);
    b.net(name).pin_side(route_model::PinSide::Left, 2).pin_side(route_model::PinSide::Right, 2);
    b.build().expect("valid problem")
}

#[test]
fn a_panicking_instance_does_not_kill_the_batch() {
    let problems = vec![poisoned("fine"), poisoned("poison"), poisoned("fine"), poisoned("poison")];
    let out = plain(RouteEngine::with_jobs(2), &Trapped, &problems);
    assert_eq!(out.results.len(), 4);
    assert!(out.results[0].is_ok());
    assert!(out.results[2].is_ok());
    for i in [1usize, 3] {
        match &out.results[i] {
            Err(RouteError::Panicked { message }) => {
                assert!(message.contains("poisoned"), "slot {i}: {message}");
            }
            other => panic!("slot {i}: expected Panicked, got {other:?}"),
        }
    }
    assert_eq!(out.stats.panicked, 2);
    assert_eq!(out.stats.complete, 2);
}

/// Sleeps long enough to blow any sub-sleep deadline.
struct Sleepy;

impl DetailedRouter for Sleepy {
    fn name(&self) -> &str {
        "sleepy"
    }

    fn route(&self, problem: &Problem) -> RouteResult {
        std::thread::sleep(Duration::from_millis(30));
        Ok(Routing { db: RouteDb::new(problem), failed: Vec::new() })
    }
}

#[test]
fn deadline_disqualifies_slow_instances() {
    let problems = vec![poisoned("fine")];
    let engine = RouteEngine::new(EngineConfig {
        jobs: 1,
        deadline: Some(Duration::from_millis(1)),
        ..EngineConfig::default()
    });
    let out = plain(engine, &Sleepy, &problems);
    match &out.results[0] {
        Err(RouteError::DeadlineExceeded { elapsed_ms, budget_ms }) => {
            assert!(*elapsed_ms >= *budget_ms);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // The engine keeps the late routing as a salvage; the plain result
    // above reports the attempt as it ended.
    assert_eq!(out.stats.salvaged, 1);
    // A generous deadline leaves the result alone.
    let lenient = RouteEngine::new(EngineConfig {
        jobs: 1,
        deadline: Some(Duration::from_secs(60)),
        ..EngineConfig::default()
    });
    assert!(plain(lenient, &Sleepy, &problems).results[0].is_ok());
}

#[test]
fn empty_batch_is_a_noop() {
    let router = MightyRouter::new(RouterConfig::default());
    let out = plain(RouteEngine::with_jobs(8), &router, &[]);
    assert!(out.results.is_empty());
    assert!(out.timings.is_empty());
    assert_eq!(out.stats.instances, 0);
}

#[test]
fn stats_add_up() {
    let problems = batch(8);
    let router = MightyRouter::new(RouterConfig::default());
    let out = plain(RouteEngine::with_jobs(3), &router, &problems);
    let s = out.stats;
    assert_eq!(s.instances, 8);
    assert_eq!(s.jobs, 3);
    assert_eq!(
        s.complete + s.salvaged + s.errored + s.panicked + s.timed_out + s.infeasible,
        s.instances
    );
    assert!(s.wirelength > 0);
    assert!(s.busy_ms >= s.max_instance_ms);
    assert_eq!(out.timings.len(), 8);
}

/// A switchbox with a full-stack wall between its two pins: provably
/// infeasible, and expensive for a rip-up router to discover by search.
fn walled() -> Problem {
    use route_geom::Point;
    use route_model::{PinSide, ProblemBuilder};
    let mut b = ProblemBuilder::switchbox(5, 4);
    for y in 0..4 {
        b.obstacle(Point::new(2, y));
    }
    b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
    b.build().expect("valid problem")
}

#[test]
fn precheck_skips_provably_infeasible_instances() {
    let problems = vec![routable_switchbox(10, 10, 4, 7), walled()];
    let router = MightyRouter::new(RouterConfig::default());
    let engine =
        RouteEngine::new(EngineConfig { jobs: 1, precheck: true, ..EngineConfig::default() });
    let out = plain(engine, &router, &problems);
    assert!(out.results[0].is_ok(), "feasible instance routes normally");
    match &out.results[1] {
        Err(RouteError::Infeasible { reason }) => {
            assert!(!reason.is_empty(), "the certificate summary travels with the error");
        }
        other => panic!("expected Infeasible, got {other:?}"),
    }
    assert_eq!(out.stats.infeasible, 1);
    assert_eq!(out.stats.complete, 1);

    // Without the precheck the router runs — and never reports the
    // instance as infeasible, only as failed-after-search.
    let unchecked = plain(RouteEngine::with_jobs(1), &router, &problems);
    assert_eq!(unchecked.stats.infeasible, 0);
    if let Ok(routing) = &unchecked.results[1] {
        assert!(!routing.is_complete());
    }
}

#[test]
fn precheck_leaves_feasible_batches_untouched() {
    let problems = batch(4);
    let router = MightyRouter::new(RouterConfig::default());
    let checked =
        RouteEngine::new(EngineConfig { jobs: 2, precheck: true, ..EngineConfig::default() });
    let unchecked = plain(RouteEngine::with_jobs(2), &router, &problems);
    let gated = plain(checked, &router, &problems);
    for (a, b) in unchecked.results.iter().zip(&gated.results) {
        assert_eq!(a.as_ref().unwrap().db.checksum(), b.as_ref().unwrap().db.checksum());
    }
    assert_eq!(gated.stats.infeasible, 0);
}

#[test]
fn observation_is_identical_across_thread_counts() {
    let problems = batch(8);
    let router = MightyRouter::new(RouterConfig::default());
    let traced = |jobs| {
        let cfg = EngineConfig { jobs, observe: ObserveMode::Trace, ..EngineConfig::default() };
        plain(RouteEngine::new(cfg), &router, &problems)
    };
    let (serial, parallel) = (traced(1), traced(4));
    assert_eq!(serial.stats.router, parallel.stats.router);
    assert!(serial.stats.router.expanded > 0, "observation sources the router counters");
    let events = |out: Plain| out.observation.expect("a traced batch is observed").events;
    let serial_events = events(serial);
    assert_eq!(serial_events.len(), problems.len(), "one event stream per instance");
    assert_eq!(serial_events, events(parallel));
    // Unobserved batches count nothing and route the same databases.
    let off = plain(RouteEngine::with_jobs(1), &router, &problems);
    assert_eq!(off.stats.router, Default::default());
    assert!(off.observation.is_none());
    let again = traced(2);
    for (a, b) in off.results.iter().zip(&again.results) {
        assert_eq!(a.as_ref().unwrap().db.checksum(), b.as_ref().unwrap().db.checksum());
    }
}
