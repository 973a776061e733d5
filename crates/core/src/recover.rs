//! Supervised recovery around the batch engine.
//!
//! The router's headline guarantee — it always terminates with the best
//! routing found so far — deserves an engine with the same
//! degrade-gracefully discipline. This module supplies it:
//!
//! * [`RetryPolicy`] re-attempts a failed instance under escalated
//!   budgets (more rip-up attempts, more queue events, a higher penalty
//!   ceiling) with a deterministic per-attempt perturbation of the
//!   initial net order, so a retry explores a genuinely different
//!   schedule instead of replaying the same loss.
//! * [`FallbackChain`] hands the instance to progressively simpler
//!   routers (classically: rip-up router → sequential Lee baseline)
//!   once retries are exhausted.
//! * **Salvage**: when every attempt fails, the [`Supervisor`] returns
//!   the best snapshot it saw — the routing with the most connected
//!   nets — as a [`RecoveryPath::Salvaged`] outcome carrying its
//!   completed-net count and a legality lint report from
//!   `route-analyze`, instead of discarding real metal.
//! * [`FaultPlan`] injects panics, delays and spurious failures into
//!   chosen instances, tiles, seam rungs and attempts, so tests (and
//!   the `VROUTE_FAULT` environment hook in the CLI) can prove every
//!   recovery path fires.
//! * [`guarded`] is the one attempt guard: it injects the planned
//!   fault, isolates panics and enforces the wall-clock deadline for
//!   the batch engine, the supervisor and the service alike.
//!
//! The decision sequence per instance:
//!
//! ```text
//! attempt 0 (base config) ──complete──▶ Direct
//!   │ retryable failure / incomplete
//!   ▼
//! attempts 1..R (escalated) ──complete──▶ Retried
//!   │ exhausted or non-retryable
//!   ▼
//! fallback chain, in order ──complete──▶ FellBack
//!   │ exhausted
//!   ▼
//! best snapshot seen? ──yes──▶ Salvaged (+ lint report)
//!   │ no                         (never counted complete)
//!   ▼
//! Failed (terminal error; Infeasible proofs land here directly)
//! ```

use std::fmt;
use std::thread;
use std::time::{Duration, Instant};

use route_analyze::LintReport;
use route_model::{DetailedRouter, Problem, RouteError, RouteResult, Routing};

use crate::{MightyRouter, NetOrder, RouterConfig};

/// Multiplier per retry on [`RouterConfig::max_attempts`] and on an
/// explicit [`RouterConfig::max_events`].
const BUDGET_GROWTH: u32 = 2;

/// Added per retry to [`RouterConfig::max_penalty_doublings`] (capped
/// so the geometric schedule cannot overflow).
const DOUBLINGS_PER_RETRY: u32 = 2;

/// Budget escalation applied on each retry of the primary router.
///
/// `attempts` counts *total* primary attempts (the first run plus
/// retries), so the default of `1` disables retrying entirely. Retry
/// `k` (1-based) doubles the rip-up attempt budget `k` times, doubles
/// an explicit event budget `k` times (the automatic `0` budget is left
/// automatic — it already scales with the problem), raises the
/// penalty-doubling cap by `2k`, and perturbs the initial net order
/// with a SplitMix64 stream seeded by `seed ^ k` — deterministic, so a
/// supervised batch routes identically on every run and thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total primary attempts (first run + retries); minimum 1.
    pub attempts: u32,
    /// Seed of the per-attempt net-order perturbation.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 1, seed: 0 }
    }
}

impl RetryPolicy {
    /// A policy allowing `retries` re-attempts after the first run.
    pub fn with_retries(retries: u32) -> Self {
        RetryPolicy { attempts: retries.saturating_add(1), ..RetryPolicy::default() }
    }

    /// The configuration for retry `retry` (1-based) of a primary
    /// router whose first attempt used `base`.
    pub fn escalated(&self, base: &RouterConfig, retry: u32) -> RouterConfig {
        let mut cfg = *base;
        let growth = BUDGET_GROWTH.saturating_pow(retry);
        cfg.max_attempts = base.max_attempts.saturating_mul(growth).max(1);
        if base.max_events > 0 {
            cfg.max_events = base.max_events.saturating_mul(growth as usize);
        }
        // Keep the geometric schedule's shift in range: the cap may not
        // exceed the base penalty's headroom in a u64.
        let ceiling = base.base_penalty.leading_zeros();
        cfg.max_penalty_doublings = base
            .max_penalty_doublings
            .saturating_add(DOUBLINGS_PER_RETRY.saturating_mul(retry))
            .min(ceiling);
        cfg.order = perturbed_order(base.order, self.seed, retry);
        cfg
    }
}

/// Picks a different initial net order for each retry, deterministically
/// from `(seed, retry)`. Retry 0 is never perturbed (callers use the
/// base config for the first attempt); retries always get an order
/// different from the base, so a schedule-sensitive failure is not
/// replayed verbatim.
fn perturbed_order(base: NetOrder, seed: u64, retry: u32) -> NetOrder {
    const ORDERS: [NetOrder; 5] = [
        NetOrder::ShortFirst,
        NetOrder::LongFirst,
        NetOrder::PinCountDesc,
        NetOrder::CongestionFirst,
        NetOrder::Declared,
    ];
    if retry == 0 {
        return base;
    }
    let at = ORDERS.iter().position(|o| *o == base).unwrap_or(0);
    let step = 1 + (split_mix(seed ^ u64::from(retry)) % (ORDERS.len() as u64 - 1)) as usize;
    ORDERS[(at + step) % ORDERS.len()]
}

/// SplitMix64 finalizer — the workspace's standard cheap bit mixer.
fn split_mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An ordered chain of simpler routers tried after the primary's
/// retries are exhausted.
#[derive(Default)]
pub struct FallbackChain {
    routers: Vec<Box<dyn DetailedRouter + Sync>>,
}

impl FallbackChain {
    /// An empty chain: no fallback, failures go straight to salvage.
    pub fn none() -> Self {
        FallbackChain::default()
    }

    /// The classic chain: fall back to the sequential Lee baseline.
    pub fn lee() -> Self {
        let mut chain = FallbackChain::none();
        chain.push(Box::new(route_maze::LeeRouter::default()));
        chain
    }

    /// Appends a router to the end of the chain.
    pub fn push(&mut self, router: Box<dyn DetailedRouter + Sync>) {
        self.routers.push(router);
    }

    /// Routers in the chain.
    pub fn len(&self) -> usize {
        self.routers.len()
    }

    /// Whether the chain holds no routers.
    pub fn is_empty(&self) -> bool {
        self.routers.is_empty()
    }
}

impl fmt::Debug for FallbackChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.routers.iter().map(|r| r.name()).collect();
        f.debug_tuple("FallbackChain").field(&names).finish()
    }
}

/// A fault the [`Supervisor`] injects into selected attempts, for
/// recovery-path testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineFault {
    /// Panic instead of routing (exercises panic isolation + retry cap).
    Panic,
    /// Return [`RouteError::Unroutable`] instead of routing.
    SpuriousFail,
    /// Sleep this many milliseconds before routing (blows deadlines).
    Delay(u64),
}

impl EngineFault {
    /// Injects the fault ahead of an attempt: a delay sleeps and lets
    /// the attempt run, a spurious failure returns
    /// [`RouteError::Unroutable`], and a panic is a real unwind,
    /// isolated into [`RouteError::Panicked`].
    pub fn inject(self) -> Result<(), RouteError> {
        match self {
            EngineFault::Panic => RouteError::isolate(|| panic!("injected fault: panic")),
            EngineFault::SpuriousFail => Err(RouteError::Unroutable {
                reason: "injected fault: spurious failure".to_string(),
            }),
            EngineFault::Delay(ms) => {
                thread::sleep(Duration::from_millis(ms));
                Ok(())
            }
        }
    }
}

/// Where an attempt runs, as [`FaultPlan::at`] matches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A batch instance, or the service job admitted as the N-th
    /// (0-based).
    Instance(usize),
    /// A chip tile.
    Tile(usize),
    /// A chip seam repair; its attempts are the escalation rungs.
    Seam,
}

/// The sites a [`FaultPlan`] targets: every instance and tile (never
/// the seam stage), listed instances, listed tiles, or seam rungs.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FaultTarget {
    All,
    Instances(Vec<usize>),
    Tiles(Vec<usize>),
    Seam,
}

/// Which sites and attempts an [`EngineFault`] hits.
///
/// The spec grammar (used by the CLI's `VROUTE_FAULT` environment
/// variable and by [`FaultPlan::parse`]) is
/// `KIND[@TARGETS[@ATTEMPTS]]`:
///
/// * `KIND` — `panic`, `fail`, or `delay-MS` (milliseconds).
/// * `TARGETS` — `*` for everything, a comma-separated list of 0-based
///   batch indices (`0,2`), a comma-separated list of chip tiles
///   (`tile:3,tile:7`), or the chip seam stage (`seam`). Defaults to
///   `*`. Index lists target only batch instances; `tile:` lists
///   target only chip tiles; `seam` targets only seam-repair rungs —
///   a bare or `*` plan hits batch instances *and* tiles, but never
///   the seam stage (the seam ladder must be opted into explicitly).
/// * `ATTEMPTS` — inject into the first this-many attempts of each
///   target (counted across retries *and* fallbacks; for `seam`,
///   across the escalation-ladder rungs of each seam). Defaults to
///   `1`, so the first attempt fails and recovery runs.
///
/// `panic@0,2@1` panics the first attempt of instances 0 and 2;
/// `delay-200@*@2` delays the first two attempts of every instance;
/// `panic@tile:3` panics tile 3's first attempt; `fail@seam@2` fails
/// the first two rungs of every seam repair. The service targets its
/// jobs as instances, in admission order, each with one attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    fault: EngineFault,
    target: FaultTarget,
    attempts: u32,
}

impl FaultPlan {
    /// A plan injecting `fault` into the first `attempts` attempts of
    /// the given batch instances (`None` targets every instance and
    /// every tile, like a bare spec).
    pub fn new(fault: EngineFault, instances: Option<Vec<usize>>, attempts: u32) -> Self {
        let target = instances.map_or(FaultTarget::All, FaultTarget::Instances);
        FaultPlan { fault, target, attempts }
    }

    /// Parses the `KIND[@TARGETS[@ATTEMPTS]]` spec described on the
    /// type. Errors are human-readable and name the offending part.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut parts = spec.split('@');
        let kind = parts.next().unwrap_or_default();
        let fault = if kind == "panic" {
            EngineFault::Panic
        } else if kind == "fail" {
            EngineFault::SpuriousFail
        } else if let Some(ms) = kind.strip_prefix("delay-") {
            let ms = ms.parse::<u64>().map_err(|_| format!("bad delay milliseconds: {ms:?}"))?;
            EngineFault::Delay(ms)
        } else {
            return Err(format!("unknown fault kind {kind:?} (panic, fail, delay-MS)"));
        };
        let target = match parts.next() {
            None | Some("*") => FaultTarget::All,
            Some("seam") => FaultTarget::Seam,
            Some(list) => {
                let (mut instances, mut tiles) = (Vec::new(), Vec::new());
                for part in list.split(',') {
                    if part == "seam" {
                        return Err("seam must be the sole fault target".to_string());
                    } else if let Some(t) = part.strip_prefix("tile:") {
                        tiles.push(t.parse().map_err(|_| format!("bad tile index {part:?}"))?);
                    } else {
                        instances.push(
                            part.parse().map_err(|_| format!("bad instance index {part:?}"))?,
                        );
                    }
                }
                match (instances.is_empty(), tiles.is_empty()) {
                    (false, false) => {
                        return Err("cannot mix instance and tile fault targets".to_string())
                    }
                    (true, _) => FaultTarget::Tiles(tiles),
                    (false, true) => FaultTarget::Instances(instances),
                }
            }
        };
        let attempts = match parts.next() {
            None => 1,
            Some(n) => n.parse::<u32>().map_err(|_| format!("bad attempt count {n:?}"))?,
        };
        if let Some(extra) = parts.next() {
            return Err(format!("trailing fault spec part {extra:?}"));
        }
        Ok(FaultPlan { fault, target, attempts })
    }

    /// The fault to inject into attempt `attempt` (0-based, counted
    /// across the whole recovery chain; for [`FaultSite::Seam`], the
    /// escalation rung) at `site`, if the plan targets it (see the
    /// type's `TARGETS`).
    pub fn at(&self, site: FaultSite, attempt: u32) -> Option<EngineFault> {
        let hit = match (&self.target, site) {
            (FaultTarget::All, FaultSite::Instance(_) | FaultSite::Tile(_)) => true,
            (FaultTarget::Instances(list), FaultSite::Instance(i))
            | (FaultTarget::Tiles(list), FaultSite::Tile(i)) => list.contains(&i),
            (FaultTarget::Seam, FaultSite::Seam) => true,
            _ => false,
        };
        (hit && attempt < self.attempts).then_some(self.fault)
    }
}

/// Runs one routing attempt behind the workspace's one failure guard:
/// injects `fault` first ([`EngineFault::inject`]), runs `route` under
/// [`RouteError::isolate`], and replaces an `Ok` delivered more than
/// `budget` after `since` with [`RouteError::DeadlineExceeded`], handing
/// the late routing back beside it (its metal is real). Errors keep
/// their own diagnosis and hand back no routing. Callers choose the
/// clock: the engine starts it with the instance, the supervisor with
/// the attempt, the service at admission.
pub fn guarded(
    fault: Option<EngineFault>,
    since: Instant,
    budget: Option<Duration>,
    route: impl FnOnce() -> RouteResult,
) -> (RouteResult, Option<Routing>) {
    let result =
        fault.map_or(Ok(()), EngineFault::inject).and_then(|()| RouteError::isolate(route)?);
    let elapsed = since.elapsed();
    match (budget, result) {
        (Some(budget), Ok(late)) if elapsed > budget => {
            let exceeded = RouteError::DeadlineExceeded {
                elapsed_ms: elapsed.as_millis() as u64,
                budget_ms: budget.as_millis() as u64,
            };
            (Err(exceeded), Some(late))
        }
        (_, result) => (result, None),
    }
}

/// How an instance's final result was obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryPath {
    /// The first attempt of the primary router completed.
    Direct,
    /// A retry of the primary router completed (`attempt` is the
    /// 1-based retry index that succeeded).
    Retried {
        /// Which retry succeeded.
        attempt: u32,
    },
    /// A fallback router completed.
    FellBack {
        /// [`DetailedRouter::name`] of the router that completed.
        router: String,
    },
    /// No attempt completed; the best partial snapshot was salvaged.
    Salvaged,
    /// No attempt completed and nothing was salvageable.
    Failed,
}

impl RecoveryPath {
    /// Stable one-token encoding, used by the run journal and reports:
    /// `direct`, `retried:K`, `fallback:NAME`, `salvaged`, `failed`.
    pub fn encode(&self) -> String {
        match self {
            RecoveryPath::Direct => "direct".to_string(),
            RecoveryPath::Retried { attempt } => format!("retried:{attempt}"),
            RecoveryPath::FellBack { router } => format!("fallback:{router}"),
            RecoveryPath::Salvaged => "salvaged".to_string(),
            RecoveryPath::Failed => "failed".to_string(),
        }
    }

    /// Parses [`encode`](RecoveryPath::encode)'s output.
    pub fn parse(text: &str) -> Option<RecoveryPath> {
        if text == "direct" {
            Some(RecoveryPath::Direct)
        } else if text == "salvaged" {
            Some(RecoveryPath::Salvaged)
        } else if text == "failed" {
            Some(RecoveryPath::Failed)
        } else if let Some(k) = text.strip_prefix("retried:") {
            k.parse().ok().map(|attempt| RecoveryPath::Retried { attempt })
        } else {
            text.strip_prefix("fallback:")
                .map(|router| RecoveryPath::FellBack { router: router.to_string() })
        }
    }
}

/// The terminal classification of a supervised instance, used by
/// engine accounting and the run journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceStatus {
    /// Every net connected (via any recovery path).
    Complete,
    /// A partial routing was salvaged; never counted complete.
    Salvaged,
    /// Skipped or rejected on an infeasibility proof.
    Infeasible,
    /// Terminal failure was a panic.
    Panicked,
    /// Terminal failure was a blown deadline.
    TimedOut,
    /// Terminal failure was any other router error.
    Errored,
}

impl InstanceStatus {
    /// Stable token used in journals and JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            InstanceStatus::Complete => "complete",
            InstanceStatus::Salvaged => "salvaged",
            InstanceStatus::Infeasible => "infeasible",
            InstanceStatus::Panicked => "panicked",
            InstanceStatus::TimedOut => "timed-out",
            InstanceStatus::Errored => "error",
        }
    }

    /// Parses [`as_str`](InstanceStatus::as_str)'s output.
    pub fn parse(text: &str) -> Option<InstanceStatus> {
        [
            InstanceStatus::Complete,
            InstanceStatus::Salvaged,
            InstanceStatus::Infeasible,
            InstanceStatus::Panicked,
            InstanceStatus::TimedOut,
            InstanceStatus::Errored,
        ]
        .into_iter()
        .find(|s| s.as_str() == text)
    }
}

/// What a salvage carries beyond the partial [`Routing`] itself.
#[derive(Debug, Clone)]
pub struct SalvageInfo {
    /// Nets fully connected in the salvaged snapshot.
    pub connected: usize,
    /// Human-readable description of the terminal failure that forced
    /// the salvage.
    pub terminal: String,
    /// Legality lint of the snapshot ([`route_analyze::lint_salvage`]):
    /// disconnections of declared-failed nets are excused, everything
    /// else must be clean for the salvage to be trustworthy.
    pub lint: LintReport,
}

/// The result of routing one instance under supervision.
#[derive(Debug)]
pub struct SupervisedOutcome {
    /// How the result was obtained.
    pub path: RecoveryPath,
    /// Attempts spent (primary runs + retries + fallbacks).
    pub attempts: u32,
    /// The final result: the completed or salvaged [`Routing`], or the
    /// terminal error. `None` only for journal-resumed skips, which
    /// have no live database.
    pub result: Option<RouteResult>,
    /// Present iff `path` is [`RecoveryPath::Salvaged`].
    pub salvage: Option<SalvageInfo>,
}

impl SupervisedOutcome {
    /// An outcome for an instance rejected by the feasibility precheck.
    pub(crate) fn infeasible(reason: String) -> SupervisedOutcome {
        SupervisedOutcome {
            path: RecoveryPath::Failed,
            attempts: 0,
            result: Some(Err(RouteError::Infeasible { reason })),
            salvage: None,
        }
    }

    /// The terminal classification of this outcome.
    pub fn status(&self) -> InstanceStatus {
        match &self.path {
            RecoveryPath::Direct | RecoveryPath::Retried { .. } | RecoveryPath::FellBack { .. } => {
                InstanceStatus::Complete
            }
            RecoveryPath::Salvaged => InstanceStatus::Salvaged,
            RecoveryPath::Failed => match &self.result {
                Some(Err(RouteError::Infeasible { .. })) => InstanceStatus::Infeasible,
                Some(Err(RouteError::Panicked { .. })) => InstanceStatus::Panicked,
                Some(Err(RouteError::DeadlineExceeded { .. })) => InstanceStatus::TimedOut,
                _ => InstanceStatus::Errored,
            },
        }
    }
}

/// The primary router an instance is first attempted with.
enum Primary {
    /// The rip-up router; retries escalate its budget knobs.
    Mighty(RouterConfig),
    /// Any other router; retries re-run it unchanged (still meaningful
    /// under injected or environmental transients).
    Fixed(Box<dyn DetailedRouter + Sync>),
}

/// Drives one instance through retry, fallback and salvage. See the
/// [module docs](self) for the decision sequence.
pub struct Supervisor {
    primary: Primary,
    retry: RetryPolicy,
    fallbacks: FallbackChain,
    fault: Option<FaultPlan>,
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor")
            .field("primary", &self.primary_name())
            .field("retry", &self.retry)
            .field("fallbacks", &self.fallbacks)
            .field("fault", &self.fault)
            .finish()
    }
}

impl Supervisor {
    /// A supervisor over the rip-up router with the given base
    /// configuration; retries escalate it per `retry`.
    pub fn new(base: RouterConfig, retry: RetryPolicy) -> Self {
        Supervisor {
            primary: Primary::Mighty(base),
            retry,
            fallbacks: FallbackChain::none(),
            fault: None,
        }
    }

    /// A supervisor over an arbitrary primary router; retries re-run it
    /// with the same configuration.
    pub fn with_primary(router: Box<dyn DetailedRouter + Sync>, retry: RetryPolicy) -> Self {
        Supervisor {
            primary: Primary::Fixed(router),
            retry,
            fallbacks: FallbackChain::none(),
            fault: None,
        }
    }

    /// Attaches a fallback chain.
    pub fn with_fallbacks(mut self, fallbacks: FallbackChain) -> Self {
        self.fallbacks = fallbacks;
        self
    }

    /// Attaches a fault-injection plan (testing / `VROUTE_FAULT`).
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Name of the primary router.
    pub fn primary_name(&self) -> &str {
        match &self.primary {
            Primary::Mighty(_) => "mighty",
            Primary::Fixed(r) => r.name(),
        }
    }

    /// Routes `problem` (at `site`, which only fault targeting reads)
    /// through the full recovery chain. `deadline` is the per-*attempt*
    /// wall-clock budget: an attempt delivering after it is
    /// disqualified ([`RouteError::DeadlineExceeded`]) but its routing
    /// still feeds the salvage snapshot.
    pub fn route_supervised(
        &self,
        problem: &Problem,
        site: FaultSite,
        deadline: Option<Duration>,
    ) -> SupervisedOutcome {
        let mut best: Option<Routing> = None;
        let mut last_error: Option<RouteError> = None;
        let mut attempts = 0u32;
        let mut panics = 0u32;
        let mut proof = false;

        for k in 0..self.retry.attempts.max(1) {
            let result = match &self.primary {
                Primary::Mighty(base) => {
                    let cfg = if k == 0 { *base } else { self.retry.escalated(base, k) };
                    self.attempt(
                        &MightyRouter::new(cfg),
                        problem,
                        site,
                        attempts,
                        deadline,
                        &mut best,
                    )
                }
                Primary::Fixed(r) => {
                    self.attempt(r.as_ref(), problem, site, attempts, deadline, &mut best)
                }
            };
            attempts += 1;
            match result {
                Ok(routing) if routing.is_complete() => {
                    let path = if k == 0 {
                        RecoveryPath::Direct
                    } else {
                        RecoveryPath::Retried { attempt: k }
                    };
                    return SupervisedOutcome {
                        path,
                        attempts,
                        result: Some(Ok(routing)),
                        salvage: None,
                    };
                }
                Ok(routing) => {
                    // Incomplete-but-legal: a retryable failure by the
                    // completion contract, and a salvage candidate.
                    remember_best(&mut best, routing);
                    last_error = None;
                }
                Err(e) => {
                    let retry_allowed = match &e {
                        // A deterministic router panics the same way
                        // twice; one re-attempt covers transients.
                        RouteError::Panicked { .. } => {
                            panics += 1;
                            panics <= 1
                        }
                        RouteError::Infeasible { .. } => {
                            proof = true;
                            false
                        }
                        other => other.is_retryable(),
                    };
                    last_error = Some(e);
                    if !retry_allowed {
                        break;
                    }
                }
            }
        }

        // Infeasibility is a proof, not a budget problem: no fallback
        // router can complete the instance and there is nothing to
        // salvage (nothing was routed).
        if !proof {
            for fb in &self.fallbacks.routers {
                let result =
                    self.attempt(fb.as_ref(), problem, site, attempts, deadline, &mut best);
                attempts += 1;
                match result {
                    Ok(routing) if routing.is_complete() => {
                        return SupervisedOutcome {
                            path: RecoveryPath::FellBack { router: fb.name().to_string() },
                            attempts,
                            result: Some(Ok(routing)),
                            salvage: None,
                        };
                    }
                    Ok(routing) => remember_best(&mut best, routing),
                    Err(e) => last_error = Some(e),
                }
            }
            if let Some(routing) = best {
                let lint = route_analyze::lint_salvage(problem, &routing.db, &routing.failed);
                let connected = problem.nets().len().saturating_sub(routing.failed.len());
                let terminal = match &last_error {
                    Some(e) => e.to_string(),
                    None => format!(
                        "incomplete after {attempts} attempt(s): {} net(s) unrouted",
                        routing.failed.len()
                    ),
                };
                return SupervisedOutcome {
                    path: RecoveryPath::Salvaged,
                    attempts,
                    result: Some(Ok(routing)),
                    salvage: Some(SalvageInfo { connected, terminal, lint }),
                };
            }
        }

        let error = last_error.unwrap_or(RouteError::Unroutable {
            reason: "no attempt produced a result".to_string(),
        });
        SupervisedOutcome {
            path: RecoveryPath::Failed,
            attempts,
            result: Some(Err(error)),
            salvage: None,
        }
    }

    /// Runs one attempt through [`guarded`], its clock started with the
    /// attempt; a routing disqualified by `deadline` still feeds the
    /// salvage snapshot.
    fn attempt(
        &self,
        router: &dyn DetailedRouter,
        problem: &Problem,
        site: FaultSite,
        attempt_no: u32,
        deadline: Option<Duration>,
        best: &mut Option<Routing>,
    ) -> RouteResult {
        let fault = self.fault.as_ref().and_then(|f| f.at(site, attempt_no));
        let (result, late) = guarded(fault, Instant::now(), deadline, || router.route(problem));
        if let Some(routing) = late {
            remember_best(best, routing);
        }
        result
    }
}

/// Keeps the snapshot with the most connected nets; ties keep the
/// earlier snapshot, so the choice is deterministic in attempt order.
fn remember_best(best: &mut Option<Routing>, candidate: Routing) {
    let better = match best {
        None => true,
        Some(current) => candidate.failed.len() < current.failed.len(),
    };
    if better {
        *best = Some(candidate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_model::{PinSide, ProblemBuilder, RouteDb};
    use FaultSite::{Instance, Seam, Tile};

    fn tiny() -> Problem {
        let mut b = ProblemBuilder::switchbox(8, 6);
        b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
        b.net("b").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 3);
        b.build().unwrap()
    }

    #[test]
    fn escalation_is_monotone_and_deterministic() {
        let base = RouterConfig::default();
        let policy = RetryPolicy { attempts: 4, seed: 7 };
        let mut prev = base;
        for k in 1..4 {
            let cfg = policy.escalated(&base, k);
            assert!(cfg.max_attempts >= prev.max_attempts, "retry {k}");
            assert!(
                cfg.max_penalty_doublings
                    >= base.max_penalty_doublings.min(cfg.max_penalty_doublings)
            );
            assert_ne!(cfg.order, base.order, "retry {k} must perturb the order");
            assert_eq!(cfg, policy.escalated(&base, k), "escalation must be deterministic");
            prev = cfg;
        }
        // The exact schedule: x2 attempts and explicit events, +2
        // doublings per retry; the automatic event budget stays automatic.
        let (r1, r2) = (policy.escalated(&base, 1), policy.escalated(&base, 2));
        assert_eq!((r1.max_attempts, r1.max_penalty_doublings), (24, 14));
        assert_eq!((r2.max_attempts, r2.max_penalty_doublings), (48, 16));
        assert_eq!((r1.max_events, r2.max_events), (0, 0));
        let explicit = RouterConfig { max_events: 100, ..base };
        assert_eq!(policy.escalated(&explicit, 1).max_events, 200);
        assert_eq!(policy.escalated(&explicit, 2).max_events, 400);
        // The shift stays in u64 range even under absurd escalation.
        let cfg = policy.escalated(&base, u32::MAX);
        assert!(cfg.max_penalty_doublings <= base.base_penalty.leading_zeros());
        let _ = cfg.penalty(u32::MAX);
    }

    #[test]
    fn fault_plan_spec_round_trips() {
        let plan = FaultPlan::parse("panic@0,2@2").unwrap();
        assert_eq!(plan, FaultPlan::new(EngineFault::Panic, Some(vec![0, 2]), 2));
        assert!(plan.at(Instance(0), 0).is_some() && plan.at(Instance(2), 1).is_some());
        assert!(plan.at(Instance(1), 0).is_none(), "untargeted instance");
        assert!(plan.at(Instance(0), 2).is_none(), "attempt past the window");

        let plan = FaultPlan::parse("delay-150").unwrap();
        assert_eq!(plan, FaultPlan::new(EngineFault::Delay(150), None, 1));
        assert!(plan.at(Instance(9), 0).is_some());

        let plan = FaultPlan::parse("fail@*@3").unwrap();
        assert_eq!(plan, FaultPlan::new(EngineFault::SpuriousFail, None, 3));

        for bad in ["", "explode", "delay-", "delay-x", "panic@x", "panic@1@x", "panic@1@2@3"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn fault_plan_tile_and_seam_targets() {
        let plan = FaultPlan::parse("panic@tile:3").unwrap();
        assert!(plan.at(Tile(3), 0).is_some());
        assert!(plan.at(Tile(2), 0).is_none(), "untargeted tile");
        assert!(plan.at(Tile(3), 1).is_none(), "attempt past the window");
        assert!(plan.at(Instance(3), 0).is_none(), "tile plans never hit batch instances");
        assert!(plan.at(Seam, 0).is_none(), "tile plans never hit the seam stage");

        let plan = FaultPlan::parse("fail@tile:1,tile:4@2").unwrap();
        assert!(plan.at(Tile(1), 1).is_some() && plan.at(Tile(4), 0).is_some());
        assert!(plan.at(Tile(2), 0).is_none());

        let plan = FaultPlan::parse("fail@seam@2").unwrap();
        assert!(plan.at(Seam, 0).is_some() && plan.at(Seam, 1).is_some());
        assert!(plan.at(Seam, 2).is_none(), "rung past the window");
        assert!(plan.at(Instance(0), 0).is_none() && plan.at(Tile(0), 0).is_none());

        // Bare plans hit batch instances and tiles, never seams.
        let plan = FaultPlan::parse("delay-40").unwrap();
        assert!(plan.at(Instance(7), 0).is_some() && plan.at(Tile(7), 0).is_some());
        assert!(plan.at(Seam, 0).is_none());

        // Instance-index plans never hit tiles, and vice versa.
        let plan = FaultPlan::parse("panic@2").unwrap();
        assert!(plan.at(Instance(2), 0).is_some() && plan.at(Tile(2), 0).is_none());

        for bad in ["panic@tile:x", "panic@seam,1", "panic@1,tile:2"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn tile_scoped_supervisor_matches_tile_targets() {
        // A tile-scoped fault on tile 0: the first attempt panics and
        // the retry recovers; other tiles are untouched.
        let sup = Supervisor::new(RouterConfig::default(), RetryPolicy::with_retries(2))
            .with_fault(FaultPlan::parse("panic@tile:0").unwrap());
        let out = sup.route_supervised(&tiny(), Tile(0), None);
        assert_eq!(out.path, RecoveryPath::Retried { attempt: 1 });
        let out = sup.route_supervised(&tiny(), Tile(1), None);
        assert_eq!(out.path, RecoveryPath::Direct, "tile 1 is untargeted");
    }

    #[test]
    fn guard_injects_isolates_and_disqualifies() {
        let p = tiny();
        let router = MightyRouter::default();
        let route = || DetailedRouter::route(&router, &p);
        let direct = route().unwrap().db.checksum();
        let boom = || -> RouteResult { panic!("boom") };
        let own = || -> RouteResult { Err(RouteError::BudgetExhausted { tracks: 2 }) };
        let (late, tight, roomy) = (
            Some(EngineFault::Delay(30)),
            Some(Duration::from_millis(5)),
            Some(Duration::from_secs(600)),
        );
        let panicked = |message: &str| Err(RouteError::Panicked { message: message.to_string() });
        let spurious = "injected fault: spurious failure".to_string();
        // (fault, budget, attempt, expected result as a checksum, late
        // routing handed back); a deadline's elapsed time reads as 0.
        type Row<'a> = (
            Option<EngineFault>,
            Option<Duration>,
            &'a dyn Fn() -> RouteResult,
            Result<u64, RouteError>,
            bool,
        );
        let rows: [Row; 6] = [
            (None, roomy, &route, Ok(direct), false),
            (Some(EngineFault::Panic), None, &route, panicked("injected fault: panic"), false),
            (
                Some(EngineFault::SpuriousFail),
                None,
                &route,
                Err(RouteError::Unroutable { reason: spurious }),
                false,
            ),
            (
                late,
                tight,
                &route,
                Err(RouteError::DeadlineExceeded { elapsed_ms: 0, budget_ms: 5 }),
                true,
            ),
            (None, None, &boom, panicked("boom"), false),
            (late, tight, &own, Err(RouteError::BudgetExhausted { tracks: 2 }), false),
        ];
        for (i, (fault, budget, attempt, expected, hands_back)) in rows.into_iter().enumerate() {
            let (result, handed) = guarded(fault, Instant::now(), budget, attempt);
            let result = result.map(|r| r.db.checksum()).map_err(|e| match e {
                RouteError::DeadlineExceeded { elapsed_ms, budget_ms } => {
                    assert!(elapsed_ms >= 30, "row {i}: elapsed {elapsed_ms} ms");
                    RouteError::DeadlineExceeded { elapsed_ms: 0, budget_ms }
                }
                other => other,
            });
            assert_eq!(result, expected, "row {i}");
            assert_eq!(handed.map(|r| r.db.checksum()), hands_back.then_some(direct), "row {i}");
        }
    }

    #[test]
    fn recovery_path_and_status_encodings_round_trip() {
        let paths = [
            RecoveryPath::Direct,
            RecoveryPath::Retried { attempt: 3 },
            RecoveryPath::FellBack { router: "lee".to_string() },
            RecoveryPath::Salvaged,
            RecoveryPath::Failed,
        ];
        for p in paths {
            assert_eq!(RecoveryPath::parse(&p.encode()), Some(p.clone()), "{p:?}");
        }
        assert_eq!(RecoveryPath::parse("garbled"), None);

        let statuses = [
            InstanceStatus::Complete,
            InstanceStatus::Salvaged,
            InstanceStatus::Infeasible,
            InstanceStatus::Panicked,
            InstanceStatus::TimedOut,
            InstanceStatus::Errored,
        ];
        for s in statuses {
            assert_eq!(InstanceStatus::parse(s.as_str()), Some(s), "{s:?}");
        }
        assert_eq!(InstanceStatus::parse("garbled"), None);
    }

    #[test]
    fn direct_success_spends_one_attempt() {
        let sup = Supervisor::new(RouterConfig::default(), RetryPolicy::with_retries(3));
        let out = sup.route_supervised(&tiny(), Instance(0), None);
        assert_eq!(out.path, RecoveryPath::Direct);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.status(), InstanceStatus::Complete);
    }

    #[test]
    fn injected_panic_is_recovered_by_retry() {
        let sup = Supervisor::new(RouterConfig::default(), RetryPolicy::with_retries(2))
            .with_fault(FaultPlan::parse("panic@0@1").unwrap());
        let out = sup.route_supervised(&tiny(), Instance(0), None);
        assert_eq!(out.path, RecoveryPath::Retried { attempt: 1 });
        assert_eq!(out.attempts, 2);
        assert_eq!(out.status(), InstanceStatus::Complete);
    }

    #[test]
    fn panics_are_retried_at_most_once() {
        // Panic on every attempt: the second panic must end the retry
        // chain even though the budget would allow five attempts.
        let sup = Supervisor::new(RouterConfig::default(), RetryPolicy::with_retries(4))
            .with_fault(FaultPlan::parse("panic@*@99").unwrap());
        let out = sup.route_supervised(&tiny(), Instance(0), None);
        assert_eq!(out.attempts, 2, "one panic, one capped retry");
        assert_eq!(out.status(), InstanceStatus::Panicked);
    }

    #[test]
    fn spurious_failures_are_recovered_by_fallback() {
        // Fail every primary attempt; the Lee fallback completes.
        let sup = Supervisor::new(RouterConfig::default(), RetryPolicy::with_retries(1))
            .with_fault(FaultPlan::new(EngineFault::SpuriousFail, None, 2))
            .with_fallbacks(FallbackChain::lee());
        let out = sup.route_supervised(&tiny(), Instance(0), None);
        assert_eq!(out.path, RecoveryPath::FellBack { router: "lee".to_string() });
        assert_eq!(out.attempts, 3);
        assert_eq!(out.status(), InstanceStatus::Complete);
    }

    #[test]
    fn infeasible_errors_are_never_retried() {
        struct Prover;
        impl DetailedRouter for Prover {
            fn name(&self) -> &str {
                "prover"
            }
            fn route(&self, _p: &Problem) -> RouteResult {
                Err(RouteError::Infeasible { reason: "saturated cut".to_string() })
            }
        }
        let sup = Supervisor::with_primary(Box::new(Prover), RetryPolicy::with_retries(5))
            .with_fallbacks(FallbackChain::lee());
        let out = sup.route_supervised(&tiny(), Instance(0), None);
        assert_eq!(out.attempts, 1, "a proof must not be retried or handed to fallbacks");
        assert_eq!(out.status(), InstanceStatus::Infeasible);
        assert_eq!(out.path, RecoveryPath::Failed);
    }

    #[test]
    fn terminal_failure_salvages_the_best_snapshot() {
        // A primary that always returns an incomplete-but-legal routing:
        // nothing committed, both nets declared failed.
        struct GiveUp;
        impl DetailedRouter for GiveUp {
            fn name(&self) -> &str {
                "give-up"
            }
            fn route(&self, p: &Problem) -> RouteResult {
                Ok(Routing { db: RouteDb::new(p), failed: p.nets().iter().map(|n| n.id).collect() })
            }
        }
        let p = tiny();
        let sup = Supervisor::with_primary(Box::new(GiveUp), RetryPolicy::with_retries(1));
        let out = sup.route_supervised(&p, Instance(0), None);
        assert_eq!(out.path, RecoveryPath::Salvaged);
        assert_eq!(out.status(), InstanceStatus::Salvaged);
        let salvage = out.salvage.expect("salvage info");
        assert_eq!(salvage.connected, 0);
        assert!(salvage.lint.is_legal(), "declared-failed nets are excused");
        assert!(salvage.terminal.contains("unrouted"));
        let routing =
            out.result.expect("salvage is a live outcome").expect("salvage carries a routing");
        assert_eq!(routing.failed.len(), p.nets().len());
    }
}
