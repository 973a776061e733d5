//! Static analysis for the routing stack: pre-route feasibility
//! certificates, whole-database lints, and a shared diagnostics engine.
//!
//! Rip-up routers can burn their entire modification budget discovering
//! that a problem was never routable. This crate answers cheaply and
//! *soundly*, before any router runs — and audits whatever a router
//! leaves behind afterwards:
//!
//! * [`analyze_problem`] runs the **feasibility pass** over a
//!   [`Problem`](route_model::Problem): channel-density lower bounds on
//!   every grid cut, flood-fill pin reachability over the blockage map,
//!   and terminal-access checks. Each failure yields an
//!   [`InfeasibilityCertificate`] whose witness (the saturated cut, the
//!   walled-off component) is machine-checkable via
//!   [`InfeasibilityCertificate::replay`].
//! * [`lint_db`] runs the **lint pass** over a routed
//!   [`RouteDb`](route_model::RouteDb): shorts, blocked cells, dangling
//!   vias, connectivity, grid consistency, plus stacked-via, adjacency
//!   and dead-wire style rules — one [rule registry](rules) that
//!   `route_verify` also delegates to.
//!
//! Both passes report through the compiler-grade [`Diagnostic`] type
//! (severity, stable rule code, grid span, fix hint, deterministic
//! order) with a [text](render_text) renderer.
//!
//! # Examples
//!
//! Prove a problem infeasible before routing:
//!
//! ```
//! use route_geom::Point;
//! use route_model::{PinSide, ProblemBuilder};
//!
//! let mut b = ProblemBuilder::switchbox(5, 4);
//! for y in 0..4 {
//!     b.obstacle(Point::new(2, y)); // a full wall across the box
//! }
//! b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
//! let problem = b.build().unwrap();
//!
//! let report = route_analyze::analyze_problem(&problem);
//! assert!(!report.is_feasible());
//! // Every certificate carries a witness that replays on demand.
//! assert!(report.certificates().iter().all(|c| c.replay(&problem)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chip;
pub mod diag;
pub mod feasibility;
pub mod lint;

pub use chip::{
    analyze_chip, congestion_map, net_features, ChipReport, CongestionMap, NetFeatures,
    FEATURE_SCALE,
};
pub use diag::{render_text, sort_diagnostics, Diagnostic, GridSpan, Severity};
pub use feasibility::{analyze_problem, CutAxis, FeasibilityReport, InfeasibilityCertificate};
pub use lint::{
    error_rules, lint_db, lint_db_with, lint_salvage, lint_salvage_chip, rules, LintFinding,
    LintReport, LintRule,
};
