//! Cross-router correctness oracles.
//!
//! Every fuzz instance is routed through the whole
//! [`DetailedRouter`](route_model::DetailedRouter) roster and judged by
//! two independent oracles:
//!
//! 1. **DRC / claim oracle** — the [`route_verify::verify`] report,
//!    which recomputes occupancy from scratch, must contain no
//!    shorts/obstacle/via/grid violations for *any* successful result,
//!    and the router's claimed failed-net set must equal the set of nets
//!    the verifier finds disconnected. A router that claims a net is
//!    routed while its pins are not electrically connected is lying.
//! 2. **Differential oracle** — the rip-up router is compared against
//!    the sequential Lee baseline: any instance the no-modification
//!    baseline completes, the strictly-more-capable rip-up router must
//!    complete too. On top of that, observed runs must be inert
//!    (bit-identical databases with and without an observer) and the
//!    event stream must balance against the claimed outcome — the
//!    observer-consistency contract established by the observability
//!    layer.
//! 3. **Infeasibility soundness oracle** — the static analyzer
//!    ([`route_analyze::analyze_problem`]) runs on every instance. Each
//!    [`InfeasibilityCertificate`](route_analyze::InfeasibilityCertificate)
//!    it emits must replay (its witness must re-derive), and no router
//!    may ever *complete* an instance carrying a certificate: a proof
//!    of infeasibility coexisting with a complete routing means the
//!    analyzer is unsound, which is strictly worse than being weak.
//! 4. **Chip-stitch oracle** — every instance is also routed through
//!    the hierarchical chip flow (`route_global`) with small tiles: the
//!    stitched database must be DRC-clean, its failed set must match
//!    recomputed connectivity, its seam rip-up stats must equal the
//!    strong-ripup events the observer actually saw, and it must never
//!    lose an instance the flat rip-up router completes.

use std::collections::BTreeSet;
use std::fmt;

use mighty::{FaultSite, RecoveryPath, RetryPolicy, RouterConfig, SupervisedOutcome, Supervisor};
use route_model::{NetId, Problem, RouteError, RouteEvent, RouteResult};
use route_verify::{verify, Violation};

/// Classification of an oracle violation — the vocabulary the shrinker
/// preserves while minimizing a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OracleKind {
    /// A successful result contains shorts, obstacle overlaps, bad vias
    /// or grid/trace mismatches.
    Drc,
    /// The claimed failed-net set disagrees with recomputed
    /// connectivity (includes "claimed complete but disconnected").
    ClaimMismatch,
    /// The sequential baseline completed an instance the rip-up router
    /// did not.
    CompletionRegression,
    /// Attaching an observer changed the result (checksum, failed set,
    /// or success/error status).
    ObservationDivergence,
    /// The observer event stream does not balance against the claimed
    /// outcome.
    EventInconsistency,
    /// A router panicked, or a core router returned an unexpected
    /// structured error.
    RouterError,
    /// The static analyzer issued an infeasibility certificate that
    /// does not replay, or one that coexists with a completed route.
    Infeasibility,
    /// A supervised run salvaged a partial database that violates the
    /// lint registry, claims completion, or is nondeterministic.
    Salvage,
    /// The grid's packed occupancy bit plane disagrees with its cell
    /// array — the two representations desynchronized.
    OccupancyDesync,
    /// The rip-up router produced different wiring under the bucket
    /// and binary-heap frontiers; they are defined to pop identically.
    FrontierDivergence,
    /// The hierarchical chip flow (tile planning, per-tile detail,
    /// seam repair) produced an illegal database, lied about its
    /// failed nets or its rip-up accounting, lost to the flat router,
    /// or panicked.
    ChipStitch,
    /// The chip-scale analyzer issued a certificate (F004–F006) that
    /// does not replay, or one that coexists with a verifier-complete
    /// route — flat or hierarchical.
    ChipAnalysis,
    /// The supervised chip flow (per-tile retry/fallback/salvage)
    /// produced an illegal database, lied about its failed nets, kept
    /// inconsistent recovery counters, was nondeterministic across
    /// worker counts, or panicked.
    ChipSalvage,
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OracleKind::Drc => "drc",
            OracleKind::ClaimMismatch => "claim-mismatch",
            OracleKind::CompletionRegression => "completion-regression",
            OracleKind::ObservationDivergence => "observation-divergence",
            OracleKind::EventInconsistency => "event-inconsistency",
            OracleKind::RouterError => "router-error",
            OracleKind::Infeasibility => "infeasibility",
            OracleKind::Salvage => "salvage",
            OracleKind::OccupancyDesync => "occupancy-desync",
            OracleKind::FrontierDivergence => "frontier-divergence",
            OracleKind::ChipStitch => "chip-stitch",
            OracleKind::ChipAnalysis => "chip-analysis",
            OracleKind::ChipSalvage => "chip-salvage",
        };
        f.write_str(name)
    }
}

/// One concrete oracle violation on one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleViolation {
    /// What class of invariant broke.
    pub kind: OracleKind,
    /// The router that produced the offending result.
    pub router: String,
    /// Human-readable diagnosis.
    pub detail: String,
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.kind, self.router, self.detail)
    }
}

/// Everything the oracles need about one router's runs on one instance.
#[derive(Debug, Clone)]
pub struct RouterRun {
    /// Router name ([`DetailedRouter::name`]).
    ///
    /// [`DetailedRouter::name`]: route_model::DetailedRouter::name
    pub name: String,
    /// Result of the unobserved run.
    pub plain: RouteResult,
    /// Result of the observed (event-logged) run.
    pub observed: RouteResult,
    /// Event stream of the observed run.
    pub events: Vec<RouteEvent>,
}

/// All runs of one instance through the roster.
#[derive(Debug, Clone)]
pub struct InstanceRuns {
    /// The rip-up/reroute router (system under test).
    pub ripup: RouterRun,
    /// The sequential Lee baseline (differential reference).
    pub lee: RouterRun,
    /// Remaining roster results (channel adapters, switchbox sweep),
    /// unobserved: `(router name, result)`.
    pub extras: Vec<(String, RouteResult)>,
    /// The rip-up router re-run with the binary-heap frontier (the
    /// default is the bucket queue); `None` under fault injection.
    /// Both frontiers are defined to pop identically, so this must
    /// match `ripup.plain` bit for bit.
    pub ripup_heap: Option<RouteResult>,
}

/// Applies every oracle to one instance, returning all violations found
/// (empty = the instance passes).
pub fn check_instance(problem: &Problem, runs: &InstanceRuns) -> Vec<OracleViolation> {
    let mut out = Vec::new();

    for run in [&runs.ripup, &runs.lee] {
        check_core_result(problem, &run.name, &run.plain, &mut out);
        check_observation(run, &mut out);
        if let Ok(routing) = &run.observed {
            check_events(problem, &run.name, &run.events, &routing.failed, &mut out);
        }
    }
    for (name, result) in &runs.extras {
        check_extra_result(problem, name, result, &mut out);
    }

    // Differential completion: the no-modification baseline must never
    // beat the rip-up router on an instance.
    if let (Ok(ripup), Ok(lee)) = (&runs.ripup.plain, &runs.lee.plain) {
        if lee.is_complete() && !ripup.is_complete() {
            out.push(OracleViolation {
                kind: OracleKind::CompletionRegression,
                router: runs.ripup.name.clone(),
                detail: format!(
                    "sequential baseline completed all {} nets but rip-up failed {:?}",
                    problem.nets().len(),
                    ripup.failed
                ),
            });
        }
    }

    check_frontier_parity(runs, &mut out);
    check_infeasibility(problem, runs, &mut out);
    check_salvage(problem, &mut out);
    check_chip_stitch(problem, runs, &mut out);
    check_chip_analysis(problem, runs, &mut out);
    check_chip_salvage(problem, &mut out);
    out
}

/// Supervised-chip oracle: the hierarchical flow under a starved router
/// budget and per-tile supervision (retry + salvage, no fallback so
/// salvage actually fires) must stay honest — DRC-clean database, a
/// failed set matching recomputed connectivity, recovery counters that
/// add up, and a bit-identical result at any worker count.
fn check_chip_salvage(problem: &Problem, out: &mut Vec<OracleViolation>) {
    let Ok(starved) = RouterConfig::builder().max_attempts(1).max_events(8).build() else {
        return;
    };
    let sup =
        route_global::ChipSupervision { retries: 1, fallback: false, seed: 0x5eed, fault: None };
    let mut broken = |kind: OracleKind, detail: String| {
        out.push(OracleViolation { kind, router: "supervised-chip".to_string(), detail });
    };
    let route = |jobs: usize| {
        let cfg = route_global::GlobalConfig {
            tile: 8,
            router: starved,
            jobs,
            fallback: false,
            ..route_global::GlobalConfig::default()
        };
        RouteError::isolate(|| {
            route_global::route_hierarchical_supervised(problem, &cfg, &sup, None)
        })
    };
    let outcome = match route(1) {
        Ok(outcome) => outcome,
        Err(panicked) => {
            broken(OracleKind::ChipSalvage, format!("supervised chip flow: {panicked}"));
            return;
        }
    };

    // DRC + claim honesty: salvaged tiles put real partial metal in the
    // database, and every unconnected net must still be declared.
    let report = verify(problem, outcome.db());
    let mut disconnected: BTreeSet<NetId> = BTreeSet::new();
    let mut drc: Vec<String> = Vec::new();
    for v in report.violations() {
        match v {
            Violation::Disconnected { net, .. } => {
                disconnected.insert(*net);
            }
            other => drc.push(other.to_string()),
        }
    }
    if !drc.is_empty() {
        broken(
            OracleKind::ChipSalvage,
            format!(
                "supervised database breaks DRC: {} violation(s), first: {}",
                drc.len(),
                drc[0]
            ),
        );
    }
    let claimed: BTreeSet<NetId> = outcome.failed().iter().copied().collect();
    if claimed != disconnected {
        broken(
            OracleKind::ChipSalvage,
            format!(
                "claimed failed nets {:?} but verifier finds {:?} disconnected",
                claimed.iter().map(|n| n.0).collect::<Vec<_>>(),
                disconnected.iter().map(|n| n.0).collect::<Vec<_>>()
            ),
        );
    }

    // Counter consistency: every recovered tile is a routed tile, and
    // no tile takes more than one recovery path.
    let chip = outcome.chip_stats();
    let recovered = chip.tiles_retried + chip.tiles_fell_back + chip.tiles_salvaged;
    if recovered > chip.tiles_routed {
        broken(
            OracleKind::ChipSalvage,
            format!(
                "{} recovered tiles exceed {} routed tiles ({:?})",
                recovered, chip.tiles_routed, chip
            ),
        );
    }

    // Worker-count determinism: the supervised recovery chain is seeded
    // per tile, so jobs must be checksum-inert like the plain flow.
    if let Ok(two) = route(2) {
        if outcome.db().checksum() != two.db().checksum()
            || outcome.failed() != two.failed()
            || outcome.chip_stats() != two.chip_stats()
        {
            broken(
                OracleKind::ChipSalvage,
                format!(
                    "supervised chip flow is jobs-dependent: checksum {:016x} vs {:016x}, \
                     failed {:?} vs {:?}",
                    outcome.db().checksum(),
                    two.db().checksum(),
                    outcome.failed(),
                    two.failed()
                ),
            );
        }
    }
}

/// Hierarchical-flow oracle: every instance is also routed through the
/// chip-scale pipeline (small tiles force real crossings and seams even
/// at fuzz scale). The stitched database must be DRC-clean, the failed
/// set must match recomputed connectivity, the claimed seam rip-up
/// count must equal the strong-ripup events actually observed, and —
/// since the flow ends in the same flat incremental router — an
/// instance the flat rip-up router completes must complete
/// hierarchically too.
fn check_chip_stitch(problem: &Problem, runs: &InstanceRuns, out: &mut Vec<OracleViolation>) {
    let cfg = route_global::GlobalConfig { tile: 8, ..route_global::GlobalConfig::default() };
    let run = RouteError::isolate(|| {
        let mut log = route_model::EventLog::new();
        let outcome = route_global::route_hierarchical_observed(problem, &cfg, &mut log);
        (outcome, log)
    });
    let mut broken = |kind: OracleKind, detail: String| {
        out.push(OracleViolation { kind, router: "hierarchical".to_string(), detail });
    };
    let (outcome, log) = match run {
        Ok(pair) => pair,
        Err(panicked) => {
            broken(OracleKind::ChipStitch, format!("hierarchical flow: {panicked}"));
            return;
        }
    };

    // DRC + claim honesty, against recomputed occupancy.
    let report = verify(problem, outcome.db());
    let mut disconnected: BTreeSet<NetId> = BTreeSet::new();
    let mut drc: Vec<String> = Vec::new();
    for v in report.violations() {
        match v {
            Violation::Disconnected { net, .. } => {
                disconnected.insert(*net);
            }
            other => drc.push(other.to_string()),
        }
    }
    if !drc.is_empty() {
        broken(
            OracleKind::ChipStitch,
            format!("stitched database breaks DRC: {} violation(s), first: {}", drc.len(), drc[0]),
        );
    }
    let claimed: BTreeSet<NetId> = outcome.failed().iter().copied().collect();
    if claimed != disconnected {
        broken(
            OracleKind::ChipStitch,
            format!(
                "claimed failed nets {:?} but verifier finds {:?} disconnected",
                claimed.iter().map(|n| n.0).collect::<Vec<_>>(),
                disconnected.iter().map(|n| n.0).collect::<Vec<_>>()
            ),
        );
    }

    // Rip-up accounting honesty: the stats must equal the events.
    let observed_rips = log.count_kind("strong_ripup");
    if outcome.chip_stats().seam_ripups != observed_rips {
        broken(
            OracleKind::ChipStitch,
            format!(
                "stats claim {} seam rip-ups but the observer saw {observed_rips}",
                outcome.chip_stats().seam_ripups
            ),
        );
    }

    // Differential completion: the flow falls back to the same flat
    // incremental router, so it must never lose nets the flat router
    // connects from scratch.
    if let Ok(flat) = &runs.ripup.plain {
        if flat.is_complete() && !outcome.is_complete() {
            broken(
                OracleKind::ChipStitch,
                format!(
                    "flat rip-up completed all {} nets but the hierarchical flow failed {:?}",
                    problem.nets().len(),
                    outcome.failed()
                ),
            );
        }
    }
}

/// Chip-analysis soundness oracle: every certificate issued by the
/// chip-scale pass (F004 tile-cut, F005 seam, F006 walled region) must
/// replay against the instance, and since each one proves at least one
/// net unroutable by *any* router, no certificate may coexist with a
/// verifier-complete result — from the flat routers or from the
/// hierarchical flow itself.
fn check_chip_analysis(problem: &Problem, runs: &InstanceRuns, out: &mut Vec<OracleViolation>) {
    let report = route_analyze::analyze_chip(problem, 8);
    let certificates = report.certificates();
    if certificates.is_empty() {
        return;
    }
    for cert in certificates {
        if !cert.replay(problem) {
            out.push(OracleViolation {
                kind: OracleKind::ChipAnalysis,
                router: "chip-analyzer".to_string(),
                detail: format!("chip certificate does not replay: {}", cert.summary()),
            });
        }
    }
    let proof = certificates[0].summary();
    let completed = |name: &str, result: &RouteResult, out: &mut Vec<OracleViolation>| {
        if let Ok(routing) = result {
            if routing.is_complete() {
                out.push(OracleViolation {
                    kind: OracleKind::ChipAnalysis,
                    router: name.to_string(),
                    detail: format!("completed a chip-certified-infeasible instance ({proof})"),
                });
            }
        }
    };
    for run in [&runs.ripup, &runs.lee] {
        completed(&run.name, &run.plain, out);
        completed(&run.name, &run.observed, out);
    }
    for (name, result) in &runs.extras {
        completed(name, result, out);
    }
    // The certificate is a claim about the instance, not about any one
    // router, so the hierarchical flow must agree with it too.
    let cfg = route_global::GlobalConfig { tile: 8, ..route_global::GlobalConfig::default() };
    let hier = RouteError::isolate(|| route_global::route_hierarchical(problem, &cfg));
    if let Ok(outcome) = hier {
        if outcome.is_complete() {
            out.push(OracleViolation {
                kind: OracleKind::ChipAnalysis,
                router: "hierarchical".to_string(),
                detail: format!("completed a chip-certified-infeasible instance ({proof})"),
            });
        }
    }
}

/// Frontier equivalence oracle: the bucket-queue and binary-heap
/// frontiers pop in the same order by construction, so the rip-up
/// router must produce bit-identical wiring (and the same failed set)
/// under either one.
fn check_frontier_parity(runs: &InstanceRuns, out: &mut Vec<OracleViolation>) {
    let Some(heap) = &runs.ripup_heap else { return };
    let mut diverged = |detail: String| {
        out.push(OracleViolation {
            kind: OracleKind::FrontierDivergence,
            router: runs.ripup.name.clone(),
            detail,
        });
    };
    match (&runs.ripup.plain, heap) {
        (Ok(buckets), Ok(heap)) => {
            if buckets.db.checksum() != heap.db.checksum() {
                diverged(format!(
                    "bucket checksum {:016x} != heap checksum {:016x}",
                    buckets.db.checksum(),
                    heap.db.checksum()
                ));
            } else if buckets.failed != heap.failed {
                diverged(format!(
                    "bucket failed set {:?} != heap {:?}",
                    buckets.failed, heap.failed
                ));
            }
        }
        (Err(_), Err(_)) => {}
        (buckets, heap) => diverged(format!(
            "bucket run {} but heap run {}",
            if buckets.is_ok() { "succeeded" } else { "errored" },
            if heap.is_ok() { "succeeded" } else { "errored" }
        )),
    }
}

/// Salvage soundness oracle: a budget-starved supervised run — harsh
/// enough that most nontrivial instances end in salvage — must only
/// ever salvage partial databases that pass the lint registry, honestly
/// declare their unconnected nets, and route deterministically.
fn check_salvage(problem: &Problem, out: &mut Vec<OracleViolation>) {
    let Ok(starved) = RouterConfig::builder().max_attempts(1).max_events(8).build() else {
        return;
    };
    let sup = Supervisor::new(starved, RetryPolicy::with_retries(1));
    let outcome = sup.route_supervised(problem, FaultSite::Instance(0), None, None);
    check_salvage_outcome(problem, &outcome, out);

    // Determinism: the whole recovery chain (escalation, order
    // perturbation, snapshot choice) must replay identically.
    let again = sup.route_supervised(problem, FaultSite::Instance(0), None, None);
    let key = |o: &SupervisedOutcome| {
        let checksum = match &o.result {
            Some(Ok(routing)) => routing.db.checksum(),
            _ => 0,
        };
        (o.path.encode(), o.attempts, checksum)
    };
    if key(&outcome) != key(&again) {
        out.push(OracleViolation {
            kind: OracleKind::Salvage,
            router: "supervisor".to_string(),
            detail: format!(
                "supervised run is nondeterministic: {:?} then {:?}",
                key(&outcome),
                key(&again)
            ),
        });
    }
}

/// The per-outcome half of the salvage oracle, split out so tests can
/// feed it doctored outcomes.
pub(crate) fn check_salvage_outcome(
    problem: &Problem,
    outcome: &SupervisedOutcome,
    out: &mut Vec<OracleViolation>,
) {
    if outcome.path != RecoveryPath::Salvaged {
        return;
    }
    let mut salvage_violation = |detail: String| {
        out.push(OracleViolation {
            kind: OracleKind::Salvage,
            router: "supervisor".to_string(),
            detail,
        });
    };
    if outcome.status() == mighty::InstanceStatus::Complete {
        salvage_violation("a salvaged outcome reports status complete".to_string());
    }
    let routing = match &outcome.result {
        Some(Ok(routing)) => routing,
        other => {
            salvage_violation(format!("salvaged outcome carries no routing: {other:?}"));
            return;
        }
    };
    // Without a deadline in play, the only honest salvage is an
    // incomplete one: an empty failed set is a completion claim.
    if routing.failed.is_empty() {
        salvage_violation(
            "salvage declares no failed nets — that is a completion claim".to_string(),
        );
    }
    let lint = route_analyze::lint_salvage(problem, &routing.db, &routing.failed);
    if !lint.is_legal() {
        let first = lint
            .diagnostics()
            .first()
            .map(|d| d.message.clone())
            .unwrap_or_else(|| "unknown finding".to_string());
        salvage_violation(format!(
            "salvaged database violates the lint registry ({} finding(s), first: {first})",
            lint.findings().len()
        ));
    }
    if let Some(info) = &outcome.salvage {
        let declared = info.connected + routing.failed.len();
        if declared != problem.nets().len() {
            salvage_violation(format!(
                "salvage accounting is inconsistent: {} connected + {} failed != {} nets",
                info.connected,
                routing.failed.len(),
                problem.nets().len()
            ));
        }
    } else {
        salvage_violation("salvaged outcome is missing its salvage info".to_string());
    }
}

/// Infeasibility soundness: every certificate the analyzer emits must
/// replay, and none may coexist with a completed route on the instance.
fn check_infeasibility(problem: &Problem, runs: &InstanceRuns, out: &mut Vec<OracleViolation>) {
    let feasibility = route_analyze::analyze_problem(problem);
    let certificates = feasibility.certificates();
    if certificates.is_empty() {
        return;
    }
    for cert in certificates {
        if !cert.replay(problem) {
            out.push(OracleViolation {
                kind: OracleKind::Infeasibility,
                router: "analyzer".to_string(),
                detail: format!("certificate does not replay: {}", cert.summary()),
            });
        }
    }
    let proof = certificates[0].summary();
    let completed = |name: &str, result: &RouteResult, out: &mut Vec<OracleViolation>| {
        if let Ok(routing) = result {
            if routing.is_complete() {
                out.push(OracleViolation {
                    kind: OracleKind::Infeasibility,
                    router: name.to_string(),
                    detail: format!("completed a provably-infeasible instance ({proof})"),
                });
            }
        }
    };
    for run in [&runs.ripup, &runs.lee] {
        completed(&run.name, &run.plain, out);
        completed(&run.name, &run.observed, out);
    }
    for (name, result) in &runs.extras {
        completed(name, result, out);
    }
}

/// DRC/claim checks for a core (differential-pair) router: any error at
/// all is a violation — these routers handle every grid problem.
fn check_core_result(
    problem: &Problem,
    name: &str,
    result: &RouteResult,
    out: &mut Vec<OracleViolation>,
) {
    match result {
        Ok(routing) => check_routing(problem, name, routing, out),
        Err(e) => out.push(OracleViolation {
            kind: OracleKind::RouterError,
            router: name.to_string(),
            detail: format!("core router errored: {e}"),
        }),
    }
}

/// DRC/claim checks for a baseline adapter: structured rejections
/// (unsupported shape, budget, cycles) are legitimate; panics are not.
fn check_extra_result(
    problem: &Problem,
    name: &str,
    result: &RouteResult,
    out: &mut Vec<OracleViolation>,
) {
    match result {
        Ok(routing) => check_routing(problem, name, routing, out),
        Err(RouteError::Panicked { message }) => out.push(OracleViolation {
            kind: OracleKind::RouterError,
            router: name.to_string(),
            detail: format!("panicked: {message}"),
        }),
        Err(_) => {}
    }
}

/// Verifies a successful routing: no DRC violations, and the claimed
/// failed set must equal the recomputed disconnected set.
fn check_routing(
    problem: &Problem,
    name: &str,
    routing: &route_model::Routing,
    out: &mut Vec<OracleViolation>,
) {
    if !routing.db.grid().debug_validate_bits() {
        out.push(OracleViolation {
            kind: OracleKind::OccupancyDesync,
            router: name.to_string(),
            detail: "occupancy bit plane disagrees with the cell array".to_string(),
        });
    }
    let report = verify(problem, &routing.db);
    let mut disconnected: BTreeSet<NetId> = BTreeSet::new();
    let mut drc: Vec<String> = Vec::new();
    for v in report.violations() {
        match v {
            Violation::Disconnected { net, .. } => {
                disconnected.insert(*net);
            }
            other => drc.push(other.to_string()),
        }
    }
    if !drc.is_empty() {
        out.push(OracleViolation {
            kind: OracleKind::Drc,
            router: name.to_string(),
            detail: format!("{} rule violation(s), first: {}", drc.len(), drc[0]),
        });
    }
    let claimed: BTreeSet<NetId> = routing.failed.iter().copied().collect();
    if claimed != disconnected {
        out.push(OracleViolation {
            kind: OracleKind::ClaimMismatch,
            router: name.to_string(),
            detail: format!(
                "claimed failed nets {:?} but verifier finds {:?} disconnected",
                claimed.iter().map(|n| n.0).collect::<Vec<_>>(),
                disconnected.iter().map(|n| n.0).collect::<Vec<_>>()
            ),
        });
    }
}

/// Observation inertness: the observed and unobserved runs must agree
/// bit for bit.
fn check_observation(run: &RouterRun, out: &mut Vec<OracleViolation>) {
    let mut diverged = |detail: String| {
        out.push(OracleViolation {
            kind: OracleKind::ObservationDivergence,
            router: run.name.clone(),
            detail,
        });
    };
    match (&run.plain, &run.observed) {
        (Ok(plain), Ok(observed)) => {
            if plain.db.checksum() != observed.db.checksum() {
                diverged(format!(
                    "observed checksum {:016x} != unobserved {:016x}",
                    observed.db.checksum(),
                    plain.db.checksum()
                ));
            } else if plain.failed != observed.failed {
                diverged(format!(
                    "observed failed set {:?} != unobserved {:?}",
                    observed.failed, plain.failed
                ));
            }
        }
        (Err(_), Err(_)) => {}
        (plain, observed) => diverged(format!(
            "unobserved run {} but observed run {}",
            if plain.is_ok() { "succeeded" } else { "errored" },
            if observed.is_ok() { "succeeded" } else { "errored" }
        )),
    }
}

/// Event-stream/claim consistency (the observability-layer contract):
/// every net is scheduled, schedules balance against terminal events,
/// and terminal failure events match the claimed failed list.
fn check_events(
    problem: &Problem,
    name: &str,
    events: &[RouteEvent],
    claimed_failed: &[NetId],
    out: &mut Vec<OracleViolation>,
) {
    let mut broken = |detail: String| {
        out.push(OracleViolation {
            kind: OracleKind::EventInconsistency,
            router: name.to_string(),
            detail,
        });
    };
    // Per-net accounting. A rip-up router may schedule the same net
    // many times (stuck attempts re-enqueue without a terminal event,
    // ripped victims get re-routed and re-committed) and a best-state
    // rollback can make the final failed claim smaller than the failure
    // events seen along the way — so the sound invariants are the
    // inequalities, not the naive one-terminal-per-net balance.
    let mut scheduled: std::collections::BTreeMap<NetId, u64> = std::collections::BTreeMap::new();
    let mut terminals: std::collections::BTreeMap<NetId, u64> = std::collections::BTreeMap::new();
    let mut stray = false;
    for ev in events {
        match *ev {
            RouteEvent::NetScheduled { net } => *scheduled.entry(net).or_default() += 1,
            RouteEvent::NetCommitted { net } | RouteEvent::NetFailed { net } => {
                *terminals.entry(net).or_default() += 1;
                stray |= !scheduled.contains_key(&net);
            }
            RouteEvent::SearchDone { net, .. }
            | RouteEvent::WeakModification { net, .. }
            | RouteEvent::StrongRipup { net, .. } => stray |= !scheduled.contains_key(&net),
            RouteEvent::PenaltyEscalation { .. } => {}
        }
    }
    if stray {
        broken("search or terminal event for a never-scheduled net".to_string());
    }
    // A router may legitimately skip nets that are trivially connected
    // before any wiring lands (adjacent pins), so scheduling fewer nets
    // than the problem holds is fine — scheduling more is not.
    if scheduled.len() > problem.nets().len() {
        broken(format!(
            "{} distinct nets scheduled, problem has only {}",
            scheduled.len(),
            problem.nets().len()
        ));
    }
    // Only a net the router actually attempted can end up failed.
    if let Some(net) = claimed_failed.iter().find(|n| !scheduled.contains_key(n)) {
        broken(format!("net {} claimed failed but never scheduled", net.0));
    }
    // Every terminal event concludes one scheduled attempt.
    for (net, count) in &terminals {
        let attempts = scheduled.get(net).copied().unwrap_or(0);
        if *count > attempts {
            broken(format!(
                "net {} has {count} terminal events for {attempts} schedule events",
                net.0
            ));
        }
    }
}

/// The distinct violation kinds in a finding, ascending.
pub fn kinds_of(violations: &[OracleViolation]) -> BTreeSet<OracleKind> {
    violations.iter().map(|v| v.kind).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::route_instance;
    use crate::fault::Fault;
    use crate::RouterSet;
    use route_benchdata::gen::SwitchboxGen;

    fn runs_for(problem: &Problem, fault: Option<Fault>) -> InstanceRuns {
        route_instance(problem, &RouterSet::standard(fault), 1)
    }

    #[test]
    fn honest_routers_pass_every_oracle() {
        let problem = SwitchboxGen { width: 10, height: 8, nets: 5, seed: 4 }.build();
        let runs = runs_for(&problem, None);
        let violations = check_instance(&problem, &runs);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn hidden_failures_trip_the_claim_oracle() {
        // A switchbox the sequential baseline cannot finish, routed with
        // the failure-hiding fault: the claim oracle must fire for any
        // router that actually failed a net.
        let problem = SwitchboxGen { width: 12, height: 10, nets: 12, seed: 23 }.build();
        let runs = runs_for(&problem, Some(Fault::HideFailures));
        // The fault wraps only the rip-up router, which completes this
        // instance — so force the issue with a drop-trace fault instead.
        let _ = runs;
        let runs = runs_for(&problem, Some(Fault::DropTrace));
        let violations = check_instance(&problem, &runs);
        assert!(
            kinds_of(&violations).contains(&OracleKind::ClaimMismatch),
            "dropped trace must surface as a claim mismatch: {violations:?}"
        );
    }

    #[test]
    fn chip_stitch_oracle_exercises_real_tilings() {
        // Wider than the oracle's 8-cell tiles, so the hierarchical run
        // inside check_instance plans real crossings and seams.
        let problem = SwitchboxGen { width: 20, height: 16, nets: 8, seed: 2 }.build();
        let cfg = route_global::GlobalConfig { tile: 8, ..route_global::GlobalConfig::default() };
        let outcome = route_global::route_hierarchical(&problem, &cfg);
        assert!(outcome.stats().crossings > 0, "the oracle's tiling must not be vacuous");
        let runs = runs_for(&problem, None);
        let violations = check_instance(&problem, &runs);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn dishonest_ripup_accounting_would_trip_the_chip_oracle() {
        // The accounting check compares ChipStats against the observed
        // event stream; feed it a mismatching count to prove it bites.
        let problem = SwitchboxGen { width: 20, height: 16, nets: 8, seed: 2 }.build();
        let cfg = route_global::GlobalConfig { tile: 8, ..route_global::GlobalConfig::default() };
        let mut log = route_model::EventLog::new();
        let outcome = route_global::route_hierarchical_observed(&problem, &cfg, &mut log);
        assert_eq!(
            outcome.chip_stats().seam_ripups,
            log.count_kind("strong_ripup"),
            "stats must agree with the forwarded event stream"
        );
    }

    #[test]
    fn infeasible_instances_pass_when_no_router_completes() {
        use route_geom::Point;
        use route_model::{PinSide, ProblemBuilder};
        let mut b = ProblemBuilder::switchbox(6, 5);
        for y in 0..5 {
            b.obstacle(Point::new(3, y));
        }
        b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
        b.net("b").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 3);
        let problem = b.build().unwrap();
        assert!(!route_analyze::analyze_problem(&problem).is_feasible());
        let runs = runs_for(&problem, None);
        let violations = check_instance(&problem, &runs);
        assert!(violations.is_empty(), "honest failure on an infeasible case: {violations:?}");
    }

    #[test]
    fn claiming_completion_on_an_infeasible_instance_trips_the_oracle() {
        use route_geom::Point;
        use route_model::{PinSide, ProblemBuilder, RouteDb, Routing};
        let mut b = ProblemBuilder::switchbox(6, 5);
        for y in 0..5 {
            b.obstacle(Point::new(3, y));
        }
        b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
        let problem = b.build().unwrap();
        let mut runs = runs_for(&problem, None);
        // Doctor the rip-up result into a lying "complete" claim.
        runs.ripup.plain = Ok(Routing { db: RouteDb::new(&problem), failed: Vec::new() });
        let violations = check_instance(&problem, &runs);
        let kinds = kinds_of(&violations);
        assert!(
            kinds.contains(&OracleKind::Infeasibility),
            "a completed route must never coexist with a certificate: {violations:?}"
        );
        // The independent claim oracle catches the same lie.
        assert!(kinds.contains(&OracleKind::ClaimMismatch));
    }

    #[test]
    fn starved_salvages_pass_the_salvage_oracle() {
        // Dense enough that a starved budget cannot finish: the salvage
        // oracle inside check_instance exercises a real salvage here.
        let problem = SwitchboxGen { width: 12, height: 10, nets: 12, seed: 23 }.build();
        let runs = runs_for(&problem, None);
        let violations = check_instance(&problem, &runs);
        assert!(
            !kinds_of(&violations).contains(&OracleKind::Salvage),
            "honest salvage flagged: {violations:?}"
        );
    }

    #[test]
    fn doctored_salvages_trip_the_salvage_oracle() {
        use mighty::{SalvageInfo, SupervisedOutcome};
        use route_model::{RouteDb, Routing};
        let problem = SwitchboxGen { width: 10, height: 8, nets: 5, seed: 4 }.build();

        // Lie 1: a salvage claiming every net connected (empty failed
        // set) over an empty database.
        let lying = SupervisedOutcome {
            path: mighty::RecoveryPath::Salvaged,
            attempts: 2,
            result: Some(Ok(Routing { db: RouteDb::new(&problem), failed: Vec::new() })),
            salvage: Some(SalvageInfo { connected: problem.nets().len(), terminal: None }),
        };
        let mut violations = Vec::new();
        super::check_salvage_outcome(&problem, &lying, &mut violations);
        assert!(violations.iter().any(|v| v.detail.contains("completion claim")), "{violations:?}");
        assert!(
            violations.iter().any(|v| v.detail.contains("lint registry")),
            "undeclared disconnections must fail the registry: {violations:?}"
        );

        // Lie 2: declaring only some of the unconnected nets failed.
        let nets: Vec<_> = problem.nets().iter().map(|n| n.id).collect();
        let partial_claim = SupervisedOutcome {
            path: mighty::RecoveryPath::Salvaged,
            attempts: 2,
            result: Some(Ok(Routing { db: RouteDb::new(&problem), failed: nets[1..].to_vec() })),
            salvage: Some(SalvageInfo { connected: 1, terminal: None }),
        };
        let mut violations = Vec::new();
        super::check_salvage_outcome(&problem, &partial_claim, &mut violations);
        assert!(
            violations
                .iter()
                .any(|v| v.kind == OracleKind::Salvage && v.detail.contains("lint registry")),
            "an undeclared disconnected net must trip the oracle: {violations:?}"
        );
    }

    #[test]
    fn starved_supervised_chips_pass_the_chip_salvage_oracle() {
        // Dense enough that the starved per-tile budget forces retries
        // and salvages; the oracle checks honesty and jobs-inertness.
        let problem = SwitchboxGen { width: 20, height: 16, nets: 10, seed: 23 }.build();
        let mut violations = Vec::new();
        super::check_chip_salvage(&problem, &mut violations);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn kinds_are_ordered_and_printable() {
        let v = OracleViolation {
            kind: OracleKind::Drc,
            router: "mighty".to_string(),
            detail: "short".to_string(),
        };
        assert_eq!(v.to_string(), "[drc] mighty: short");
        assert!(OracleKind::Drc < OracleKind::RouterError);
    }
}
