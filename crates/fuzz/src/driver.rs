//! The fuzz driver: derives a replayable case from each seed, routes
//! every instance through the full [`DetailedRouter`] roster via the
//! parallel [`RouteEngine`], and applies the oracles.
//!
//! Determinism is the design axiom: the same seed range always produces
//! the same cases, routed the same way, judged by the same oracles —
//! regardless of worker count. Findings therefore replay anywhere.

use std::fmt;

use mighty::engine::{BatchOutcome, EngineConfig, ObserveMode, RouteEngine};
use mighty::{MightyRouter, RetryPolicy, RouterConfig, SupervisedOutcome, Supervisor};
use route_benchdata::rng::SplitMix64;
use route_maze::{FrontierKind, LeeRouter, SearchArena};
use route_model::{DetailedRouter, Problem, RouteResult, Routing};

use crate::case::{CaseShape, FuzzCase};
use crate::fault::{Fault, FaultyRouter};
use crate::oracle::{check_instance, InstanceRuns, OracleViolation, RouterRun};
use crate::shrink::{shrink, ShrinkReport};

/// How many instances are built and batch-routed at a time. Bounds
/// memory while still giving the engine real batches to parallelize.
const WINDOW: usize = 32;

/// The roster of routers a fuzz instance is judged against.
pub struct RouterSet {
    ripup: Box<dyn DetailedRouter + Sync>,
    lee: Box<dyn DetailedRouter + Sync>,
    extras: Vec<Box<dyn DetailedRouter + Sync>>,
    /// The rip-up router with the binary-heap frontier, for the
    /// frontier-parity oracle. Skipped under fault injection so the
    /// parity oracle never double-reports an injected corruption.
    ripup_heap: Option<Box<dyn DetailedRouter + Sync>>,
}

impl RouterSet {
    /// The standard roster: the rip-up router (optionally wrapped in a
    /// deliberate [`Fault`] for mutation testing), the sequential Lee
    /// baseline, and every channel/switchbox adapter registered with
    /// the batch engine.
    pub fn standard(fault: Option<Fault>) -> Self {
        let mighty = MightyRouter::new(RouterConfig::default());
        let (ripup, ripup_heap): (Box<dyn DetailedRouter + Sync>, _) = match fault {
            Some(f) => (Box::new(FaultyRouter::new(mighty, f)), None),
            None => {
                let heap: Box<dyn DetailedRouter + Sync> = Box::new(HeapRipup(mighty.clone()));
                (Box::new(mighty), Some(heap))
            }
        };
        RouterSet {
            ripup,
            ripup_heap,
            lee: Box::new(LeeRouter::default()),
            extras: vec![
                Box::new(route_channel::LeaRouter),
                Box::new(route_channel::DoglegRouter),
                Box::new(route_channel::GreedyRouter),
                Box::new(route_channel::YacrRouter::default()),
                Box::new(route_channel::SwboxRouter),
            ],
        }
    }
}

/// The rip-up router searching on the binary-heap reference open list,
/// the other side of the frontier-parity oracle.
struct HeapRipup(MightyRouter);

impl DetailedRouter for HeapRipup {
    fn name(&self) -> &str {
        "mighty-heap"
    }

    fn route(&self, problem: &Problem) -> RouteResult {
        let out = self.0.route_warm(problem, &mut SearchArena::with_frontier(FrontierKind::Heap));
        let failed = out.failed().to_vec();
        Ok(Routing { db: out.into_db(), failed })
    }
}

/// Configuration for one [`run_fuzz`] sweep.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// First seed, inclusive.
    pub start: u64,
    /// Last seed, exclusive.
    pub end: u64,
    /// Engine worker threads (`0` = one per hardware thread).
    pub jobs: usize,
    /// Minimize each finding to a smallest reproducing case.
    pub shrink: bool,
    /// Deliberate result corruption (mutation testing); `None` in
    /// normal operation.
    pub fault: Option<Fault>,
    /// Oracle-evaluation budget for each shrink.
    pub shrink_budget: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig { start: 0, end: 0, jobs: 0, shrink: false, fault: None, shrink_budget: 200 }
    }
}

/// One oracle failure, with its provenance and (optionally) its
/// minimized reproducer.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The seed whose derived case failed.
    pub seed: u64,
    /// The full case as derived from the seed.
    pub case: FuzzCase,
    /// Everything the oracles flagged on the full case.
    pub violations: Vec<OracleViolation>,
    /// Shrinker output, when shrinking was requested.
    pub shrunk: Option<ShrinkReport>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "seed {}: {} -> {} violation(s)", self.seed, self.case, self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        if let Some(shrunk) = &self.shrunk {
            writeln!(f, "  shrunk to: {} ({} oracle evals)", shrunk.case, shrunk.evaluations)?;
        }
        Ok(())
    }
}

/// Totals for one sweep.
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Seeds swept (== instances fuzzed).
    pub instances: usize,
    /// Instances the rip-up router claimed fully complete.
    pub complete: usize,
    /// Every oracle failure, in seed order.
    pub findings: Vec<Finding>,
}

impl FuzzOutcome {
    /// `true` when no oracle fired anywhere in the sweep.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Derives the fuzz case for a seed: the family and every dimension are
/// drawn from a SplitMix64 stream keyed on the seed, so the sweep walks
/// a fixed, replayable slice of the configuration space.
pub fn case_for_seed(seed: u64) -> FuzzCase {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x6675_7A7A);
    let shape = match rng.below(3) {
        0 => CaseShape::Switchbox {
            width: rng.range(6, 17) as u32,
            height: rng.range(6, 15) as u32,
            nets: rng.range(2, 11) as u32,
        },
        1 => CaseShape::Obstructed {
            width: rng.range(8, 17) as u32,
            height: rng.range(8, 15) as u32,
            nets: rng.range(2, 9) as u32,
            obstacle_pct: rng.range(5, 21) as u32,
        },
        _ => {
            // Feasibility margin: the generator seats up to three pins
            // per net on 2*width boundary slots, so cap nets at
            // width/2 (≤ 75% occupancy) and keep windows ≥ 3 columns.
            let width = rng.range(8, 25);
            let nets = rng.range(2, (width / 2).min(8) + 1);
            CaseShape::Channel {
                width: width as usize,
                nets: nets as u32,
                extra_pin_pct: rng.range(0, 31) as u32,
                window: rng.range(3, 7) as usize,
                tracks: (nets + rng.range(1, 4)) as usize,
            }
        }
    };
    FuzzCase::full(shape, seed)
}

/// Routes one batch of problems through the whole roster and assembles
/// per-instance [`InstanceRuns`] for the oracles.
///
/// The core routers each get two engine passes — unobserved and traced
/// — feeding the inertness and event-consistency oracles; the extras
/// run unobserved only.
pub fn run_batch(problems: &[Problem], routers: &RouterSet, jobs: usize) -> Vec<InstanceRuns> {
    let off = RouteEngine::new(EngineConfig { jobs, ..EngineConfig::default() });
    let traced = RouteEngine::new(EngineConfig {
        jobs,
        observe: ObserveMode::Trace,
        ..EngineConfig::default()
    });

    // Each router runs as a one-attempt supervisor: the plain batch.
    let batch = |engine: &RouteEngine, router: &(dyn DetailedRouter + Sync)| {
        engine.route_batch(
            &Supervisor::with_primary(router, RetryPolicy::default()),
            problems,
            None,
        )
    };
    let mut core_runs: Vec<std::vec::IntoIter<RouterRun>> = Vec::new();
    for router in [routers.ripup.as_ref(), routers.lee.as_ref()] {
        let plain = results(batch(&off, router));
        let mut observed = batch(&traced, router);
        let events = observed.observation.take().map(|o| o.events).unwrap_or_default();
        let runs: Vec<RouterRun> = plain
            .into_iter()
            .zip(results(observed))
            .zip(events)
            .map(|((plain, observed), events)| RouterRun {
                name: router.name().to_string(),
                plain,
                observed,
                events,
            })
            .collect();
        core_runs.push(runs.into_iter());
    }
    let mut lee_runs = core_runs.pop().expect("lee runs");
    let mut ripup_runs = core_runs.pop().expect("ripup runs");

    let mut extra_runs: Vec<(String, std::vec::IntoIter<RouteResult>)> = routers
        .extras
        .iter()
        .map(|r| (r.name().to_string(), results(batch(&off, r.as_ref())).into_iter()))
        .collect();

    let mut heap_runs: Option<std::vec::IntoIter<RouteResult>> =
        routers.ripup_heap.as_ref().map(|r| results(batch(&off, r.as_ref())).into_iter());

    (0..problems.len())
        .map(|_| InstanceRuns {
            ripup: ripup_runs.next().expect("one ripup run per instance"),
            lee: lee_runs.next().expect("one lee run per instance"),
            extras: extra_runs
                .iter_mut()
                .map(|(name, results)| {
                    (name.clone(), results.next().expect("one extra run per instance"))
                })
                .collect(),
            ripup_heap: heap_runs
                .as_mut()
                .map(|runs| runs.next().expect("one heap run per instance")),
        })
        .collect()
}

/// Each instance's result as its one attempt ended, in input order.
fn results(batch: BatchOutcome) -> Vec<RouteResult> {
    let live = batch.outcomes.into_iter().map(|o| o.and_then(SupervisedOutcome::into_result));
    live.map(|r| r.expect("a batch without a journal routes every instance")).collect()
}

/// Routes a single instance through the roster (serial engine) — the
/// evaluation primitive shared by the shrinker and the oracle tests.
pub fn route_instance(problem: &Problem, routers: &RouterSet, jobs: usize) -> InstanceRuns {
    run_batch(std::slice::from_ref(problem), routers, jobs).pop().expect("one instance in, one out")
}

/// Evaluates one case end to end: build, route through the roster,
/// apply every oracle. The shrinker's fitness function. A case the
/// generator cannot realize (see [`FuzzCase::try_build`]) evaluates to
/// no violations — an unbuildable case reproduces nothing.
pub fn evaluate_case(case: &FuzzCase, routers: &RouterSet, jobs: usize) -> Vec<OracleViolation> {
    match case.try_build() {
        Some(problem) => check_instance(&problem, &route_instance(&problem, routers, jobs)),
        None => Vec::new(),
    }
}

/// Sweeps the configured seed range. Cases are derived per seed, routed
/// in engine batches of a fixed window, judged, and (optionally) shrunk.
/// Progress lines go through `report` (pass `|_| {}` to silence).
pub fn run_fuzz(config: &FuzzConfig, report: &mut dyn FnMut(&str)) -> FuzzOutcome {
    let routers = RouterSet::standard(config.fault);
    let mut outcome = FuzzOutcome::default();
    let seeds: Vec<u64> = (config.start..config.end).collect();

    for chunk in seeds.chunks(WINDOW.max(1)) {
        // Derived cases are feasible by construction, but try_build
        // keeps a generator assertion from ever killing a sweep.
        let mut meta: Vec<(u64, FuzzCase)> = Vec::with_capacity(chunk.len());
        let mut problems: Vec<Problem> = Vec::with_capacity(chunk.len());
        for &seed in chunk {
            let case = case_for_seed(seed);
            outcome.instances += 1;
            match case.try_build() {
                Some(problem) => {
                    meta.push((seed, case));
                    problems.push(problem);
                }
                None => report(&format!("seed {seed}: {case} is unbuildable, skipped")),
            }
        }
        let runs = run_batch(&problems, &routers, config.jobs);
        for (i, instance) in runs.iter().enumerate() {
            let (seed, case) = (meta[i].0, &meta[i].1);
            let problem = &problems[i];
            if let Ok(routing) = &instance.ripup.plain {
                if routing.is_complete() {
                    outcome.complete += 1;
                }
            }
            let violations = check_instance(problem, instance);
            if violations.is_empty() {
                continue;
            }
            report(&format!("seed {seed}: {} -> {} violation(s)", case, violations.len()));
            let shrunk = if config.shrink {
                let r = shrink(case, &violations, &routers, config.jobs, config.shrink_budget);
                report(&format!(
                    "  shrunk {} -> {} nets in {} evals",
                    case.net_count(),
                    r.case.net_count(),
                    r.evaluations
                ));
                Some(r)
            } else {
                None
            };
            outcome.findings.push(Finding { seed, case: case.clone(), violations, shrunk });
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_per_seed() {
        for seed in 0..40 {
            assert_eq!(case_for_seed(seed), case_for_seed(seed));
        }
    }

    #[test]
    fn seed_stream_covers_every_family() {
        let mut families = std::collections::BTreeSet::new();
        for seed in 0..40 {
            families.insert(case_for_seed(seed).shape.family());
        }
        assert_eq!(families.len(), 3, "families seen: {families:?}");
    }

    #[test]
    fn clean_window_has_no_findings() {
        let config = FuzzConfig { start: 0, end: 12, jobs: 1, ..FuzzConfig::default() };
        let outcome = run_fuzz(&config, &mut |_| {});
        assert_eq!(outcome.instances, 12);
        assert!(outcome.is_clean(), "findings: {:?}", outcome.findings);
    }

    #[test]
    fn injected_fault_is_found_and_shrunk() {
        let config = FuzzConfig {
            start: 0,
            end: 8,
            jobs: 1,
            shrink: true,
            fault: Some(Fault::DropTrace),
            ..FuzzConfig::default()
        };
        let outcome = run_fuzz(&config, &mut |_| {});
        assert!(!outcome.is_clean(), "the injected fault must be caught");
        let finding = &outcome.findings[0];
        let shrunk = finding.shrunk.as_ref().expect("shrinking was requested");
        assert!(
            shrunk.case.net_count() <= 4,
            "minimal reproducer has {} nets: {}",
            shrunk.case.net_count(),
            shrunk.case
        );
        // Determinism: the same sweep finds the same minimal case.
        let again = run_fuzz(&config, &mut |_| {});
        assert_eq!(again.findings[0].shrunk.as_ref().unwrap().case, shrunk.case);
    }
}
