//! The unified detailed-routing API: every router in the workspace —
//! the rip-up/reroute router, the sequential maze baseline and the
//! channel/switchbox baselines — can be driven through the
//! [`DetailedRouter`] trait, taking a [`Problem`] and returning a
//! [`RouteResult`].
//!
//! The trait is the batch engine's currency: anything implementing it
//! can be fanned out over a problem list without the caller knowing
//! which algorithm is behind it.

use std::error::Error;
use std::fmt;

use crate::observe::RouteObserver;
use crate::{NetId, Problem, RouteDb};

/// Error shared by every router behind [`DetailedRouter`].
///
/// The variants split *structural* rejections (the router does not
/// handle this problem shape) from *routing* failures (the problem is in
/// scope but could not be completed within the router's budget).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The router does not handle this problem shape at all (e.g. a
    /// channel router given interior pins or obstacles).
    Unsupported {
        /// Explanation of the offending feature.
        reason: String,
    },
    /// The problem is in scope but the router could not produce a legal
    /// routing for it.
    Unroutable {
        /// Explanation of the failure.
        reason: String,
    },
    /// The vertical constraint graph contains a cycle the router cannot
    /// break (left-edge channel-router family).
    VerticalCycle {
        /// Net numbers (1-based, as in the channel spec) on the cycle.
        cycle: Vec<u32>,
    },
    /// The router exhausted its track or column budget.
    BudgetExhausted {
        /// Tracks in use when the router gave up.
        tracks: usize,
    },
    /// A pre-routed database was paired with the wrong problem.
    DbMismatch {
        /// Nets in the problem.
        expected: usize,
        /// Nets in the database.
        found: usize,
    },
    /// The router panicked; [`RouteError::isolate`] converts panics into
    /// this variant so one bad instance cannot take down a batch.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// Static analysis proved the problem admits no complete routing,
    /// so no router was run at all. Carries the human-readable summary
    /// of the first infeasibility certificate; the full machine-checkable
    /// witness lives in the `route-analyze` crate's report.
    Infeasible {
        /// Summary of the infeasibility proof (e.g. the saturated cut).
        reason: String,
    },
    /// The instance blew its wall-clock budget. The batch engine cannot
    /// interrupt a running router, but it disqualifies results delivered
    /// after the deadline so comparisons stay budget-fair.
    DeadlineExceeded {
        /// Time the instance actually took, in milliseconds.
        elapsed_ms: u64,
        /// The configured budget, in milliseconds.
        budget_ms: u64,
    },
}

impl RouteError {
    /// Whether a supervised re-attempt of the same instance could
    /// plausibly succeed.
    ///
    /// This is the classification the recovery layer consults before
    /// retrying an instance under an escalated budget:
    ///
    /// - **Retryable** failures depend on the router's budget, schedule
    ///   or environment: [`Unroutable`](RouteError::Unroutable) and
    ///   [`BudgetExhausted`](RouteError::BudgetExhausted) can yield to a
    ///   bigger rip-up budget or a different net order,
    ///   [`DeadlineExceeded`](RouteError::DeadlineExceeded) to a retry
    ///   that stays under the wall clock, and
    ///   [`Panicked`](RouteError::Panicked) to a re-run (though
    ///   supervisors cap panic retries at one, since a deterministic
    ///   router panics the same way twice).
    /// - **Non-retryable** failures are structural facts about the
    ///   problem/router pairing that no budget can change:
    ///   [`Unsupported`](RouteError::Unsupported),
    ///   [`VerticalCycle`](RouteError::VerticalCycle) and
    ///   [`DbMismatch`](RouteError::DbMismatch) describe the input
    ///   shape, and [`Infeasible`](RouteError::Infeasible) carries a
    ///   proof that *no* router can complete the instance, so retrying
    ///   would only burn the budget the proof already saved.
    pub fn is_retryable(&self) -> bool {
        match self {
            RouteError::Unroutable { .. }
            | RouteError::BudgetExhausted { .. }
            | RouteError::Panicked { .. }
            | RouteError::DeadlineExceeded { .. } => true,
            RouteError::Unsupported { .. }
            | RouteError::VerticalCycle { .. }
            | RouteError::DbMismatch { .. }
            | RouteError::Infeasible { .. } => false,
        }
    }

    /// Runs `f`, turning a panic inside it into
    /// [`Panicked`](RouteError::Panicked) with the panic's `&str` or
    /// `String` message, or "opaque panic payload". The workspace's one
    /// panic catcher. `f` counts as unwind-safe: a caller whose state
    /// `f` may leave half-updated must discard that state on `Err`.
    pub fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, RouteError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            RouteError::Panicked { message }
        })
    }
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unsupported { reason } => write!(f, "unsupported problem: {reason}"),
            RouteError::Unroutable { reason } => write!(f, "unroutable: {reason}"),
            RouteError::VerticalCycle { cycle } => {
                write!(f, "vertical constraint cycle through nets {cycle:?}")
            }
            RouteError::BudgetExhausted { tracks } => {
                write!(f, "router exhausted its budget at {tracks} tracks")
            }
            RouteError::DbMismatch { expected, found } => {
                write!(f, "database has {found} nets but the problem has {expected}")
            }
            RouteError::Panicked { message } => write!(f, "router panicked: {message}"),
            RouteError::Infeasible { reason } => {
                write!(f, "provably infeasible: {reason}")
            }
            RouteError::DeadlineExceeded { elapsed_ms, budget_ms } => {
                write!(f, "deadline exceeded: {elapsed_ms} ms against a {budget_ms} ms budget")
            }
        }
    }
}

impl Error for RouteError {}

/// A successful (possibly incomplete) routing: the committed database
/// plus the nets that could not be connected.
///
/// Routers that are *complete-or-error* (the channel baselines) always
/// return an empty `failed` list; routers that degrade gracefully (the
/// rip-up router, the sequential baseline) report the nets they gave up
/// on and deliver the rest.
#[derive(Debug, Clone)]
pub struct Routing {
    /// The database with all committed wiring.
    pub db: RouteDb,
    /// Nets with at least one unconnected pin, ascending.
    pub failed: Vec<NetId>,
}

impl Routing {
    /// Whether every net was fully connected.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// What a [`DetailedRouter`] returns.
pub type RouteResult = Result<Routing, RouteError>;

/// A detailed router: anything that can take a grid [`Problem`] and
/// produce a committed routing (or a structured error).
///
/// Implementations must be deterministic — the same problem must produce
/// the same [`RouteDb::checksum`] on every call — because the batch
/// engine routes instances concurrently and promises bit-identical
/// results regardless of thread count.
///
/// # Examples
///
/// ```
/// use route_model::{DetailedRouter, Problem, RouteResult, Routing, RouteDb};
///
/// /// A "router" that commits nothing and fails every net.
/// struct GiveUp;
///
/// impl DetailedRouter for GiveUp {
///     fn name(&self) -> &str {
///         "give-up"
///     }
///     fn route(&self, problem: &Problem) -> RouteResult {
///         Ok(Routing {
///             db: RouteDb::new(problem),
///             failed: problem.nets().iter().map(|n| n.id).collect(),
///         })
///     }
/// }
/// ```
pub trait DetailedRouter {
    /// A short stable name identifying the algorithm (used in reports
    /// and benchmark tables).
    fn name(&self) -> &str;

    /// Routes `problem` from scratch.
    fn route(&self, problem: &Problem) -> RouteResult;

    /// Routes `problem` from scratch, reporting progress to `observer`.
    ///
    /// Every implementation emits the same event vocabulary (see
    /// [`RouteObserver`]); the provided default routes normally and then
    /// emits the summary subset — one
    /// [`on_net_scheduled`](RouteObserver::on_net_scheduled) followed by
    /// [`on_net_committed`](RouteObserver::on_net_committed) or
    /// [`on_net_failed`](RouteObserver::on_net_failed) per net — so
    /// complete-or-error baselines (the channel and switchbox adapters)
    /// are observable without bespoke instrumentation. Routers with
    /// richer internals (the rip-up router, the sequential baseline)
    /// override this to stream search and modification events live.
    ///
    /// Observation must never change the result: `route_observed` with
    /// any observer returns a database with the same
    /// [`RouteDb::checksum`] as [`route`](DetailedRouter::route).
    fn route_observed(&self, problem: &Problem, observer: &mut dyn RouteObserver) -> RouteResult {
        let result = self.route(problem);
        if let Ok(routing) = &result {
            for net in problem.nets() {
                observer.on_net_scheduled(net.id);
                if routing.failed.contains(&net.id) {
                    observer.on_net_failed(net.id);
                } else {
                    observer.on_net_committed(net.id);
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PinSide, ProblemBuilder};

    struct Null;

    impl DetailedRouter for Null {
        fn name(&self) -> &str {
            "null"
        }
        fn route(&self, problem: &Problem) -> RouteResult {
            Ok(Routing {
                db: RouteDb::new(problem),
                failed: problem.nets().iter().map(|n| n.id).collect(),
            })
        }
    }

    fn tiny() -> Problem {
        let mut b = ProblemBuilder::switchbox(4, 3);
        b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
        b.build().unwrap()
    }

    #[test]
    fn default_route_observed_emits_summary_vocabulary() {
        use crate::{EventLog, RouteEvent};
        let p = tiny();
        let mut log = EventLog::new();
        let routing = Null.route_observed(&p, &mut log).unwrap();
        assert!(!routing.is_complete());
        let id = p.nets()[0].id;
        assert_eq!(
            log.events(),
            &[RouteEvent::NetScheduled { net: id }, RouteEvent::NetFailed { net: id }]
        );
    }

    #[test]
    fn trait_objects_work() {
        let routers: Vec<Box<dyn DetailedRouter>> = vec![Box::new(Null)];
        let p = tiny();
        for r in &routers {
            assert_eq!(r.name(), "null");
            let routing = r.route(&p).unwrap();
            assert!(!routing.is_complete());
            assert_eq!(routing.failed.len(), 1);
        }
    }

    #[test]
    fn errors_render_and_classify_retryability() {
        // One row per variant: display needle + whether a supervised
        // retry is allowed to re-attempt it. Budget- and environment-
        // dependent failures retry; structural rejections and
        // infeasibility proofs never do (and `Panicked` retries are
        // additionally capped at one by the supervisor itself).
        let cases: Vec<(RouteError, &str, bool)> = vec![
            (RouteError::Unsupported { reason: "x".into() }, "unsupported", false),
            (RouteError::Unroutable { reason: "y".into() }, "unroutable", true),
            (RouteError::VerticalCycle { cycle: vec![1, 2] }, "cycle", false),
            (RouteError::BudgetExhausted { tracks: 3 }, "budget", true),
            (RouteError::DbMismatch { expected: 2, found: 1 }, "database", false),
            (RouteError::Panicked { message: "boom".into() }, "panicked", true),
            (RouteError::Infeasible { reason: "cut".into() }, "infeasible", false),
            (RouteError::DeadlineExceeded { elapsed_ms: 9, budget_ms: 5 }, "deadline", true),
        ];
        for (e, needle, retryable) in cases {
            assert!(e.to_string().contains(needle), "{e}");
            assert_eq!(e.is_retryable(), retryable, "retryability of {e}");
        }
    }

    #[test]
    fn isolate_decodes_every_payload_kind() {
        let panicked = |message: &str| Err(RouteError::Panicked { message: message.to_string() });
        assert_eq!(RouteError::isolate(|| 3), Ok(3));
        assert_eq!(RouteError::isolate::<()>(|| panic!("static text")), panicked("static text"));
        let n = 4;
        assert_eq!(RouteError::isolate::<()>(|| panic!("formatted {n}")), panicked("formatted 4"));
        assert_eq!(
            RouteError::isolate::<()>(|| std::panic::panic_any(7u8)),
            panicked("opaque panic payload")
        );
    }
}
