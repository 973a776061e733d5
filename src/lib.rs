//! # vlsi-route
//!
//! A two-layer detailed-routing library built around an incremental
//! **rip-up-and-reroute** router (the [`mighty`] crate) together with the
//! classic channel-routing baselines it is evaluated against, an
//! occupancy-grid routing model, a maze-routing substrate, a rule
//! checker, and a benchmark corpus.
//!
//! This crate is a facade: it re-exports every workspace crate under one
//! roof so applications can depend on a single package.
//!
//! ## Quick start
//!
//! ```
//! use vlsi_route::model::{Problem, ProblemBuilder, PinSide};
//! use vlsi_route::mighty::{MightyRouter, RouterConfig};
//! use vlsi_route::verify;
//!
//! // A tiny 8x8 switchbox with two nets.
//! let mut b = ProblemBuilder::switchbox(8, 8);
//! b.net("a").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 5);
//! b.net("b").pin_side(PinSide::Bottom, 2).pin_side(PinSide::Top, 6);
//! let problem: Problem = b.build().expect("valid problem");
//!
//! let outcome = MightyRouter::new(RouterConfig::default()).route(&problem);
//! assert!(outcome.is_complete());
//! let report = verify::verify(&problem, outcome.db());
//! assert!(report.is_clean(), "{report}");
//! ```
//!
//! ## Observing a routing run
//!
//! Every router implements [`DetailedRouter`], and every
//! implementation emits the same [`RouteObserver`] event vocabulary.
//! Attach a [`MetricsRecorder`] (aggregate counters and histograms) or
//! an [`EventLog`] (the full machine-readable event sequence) without
//! changing the routed result:
//!
//! ```
//! use vlsi_route::MetricsRecorder;
//! use vlsi_route::model::{PinSide, ProblemBuilder};
//! use vlsi_route::mighty::{MightyRouter, RouterConfig};
//!
//! let mut b = ProblemBuilder::switchbox(8, 8);
//! b.net("a").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 5);
//! let problem = b.build().expect("valid problem");
//!
//! let mut metrics = MetricsRecorder::new();
//! let router = MightyRouter::new(RouterConfig::default());
//! let outcome = router.route_observed(&problem, &mut metrics);
//! assert!(outcome.is_complete());
//! assert_eq!(metrics.nets_committed(), 1);
//! ```
//!
//! ## Embedding the routing service
//!
//! The persistent daemon behind `vroute serve` is a library type:
//! [`RouteService`] keeps warm workers (arena reuse, O(1) steady-state
//! allocations) behind a bounded admission queue with priorities and
//! per-request deadlines. The [`proto`] module holds the versioned
//! JSON protocol it speaks on the wire.
//!
//! ```
//! use std::sync::mpsc;
//! use vlsi_route::model::{PinSide, ProblemBuilder};
//! use vlsi_route::{JobSpec, ServiceConfig, ServiceReply};
//! use vlsi_route::mighty::RouteService;
//!
//! let mut b = ProblemBuilder::switchbox(8, 8);
//! b.net("a").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 5);
//! let problem = b.build().expect("valid problem");
//!
//! let config = ServiceConfig::builder().workers(1).build().expect("valid config");
//! let service = RouteService::start(config).expect("service starts");
//! let (tx, rx) = mpsc::channel();
//! service.submit(JobSpec::new(7, problem), tx).expect("admitted");
//! match rx.recv().expect("reply") {
//!     ServiceReply::Done(done) => {
//!         assert_eq!(done.tag, 7);
//!         assert!(done.result.expect("routes").is_complete());
//!     }
//!     ServiceReply::Event { .. } => unreachable!("no events were requested"),
//! }
//! ```

#![warn(missing_docs)]

pub use mighty;
pub use route_analyze as analyze;
pub use route_benchdata as benchdata;
pub use route_channel as channel;
pub use route_fuzz as fuzz;
pub use route_geom as geom;
pub use route_global as global;
pub use route_maze as maze;
pub use route_model as model;
pub use route_opt as opt;
pub use route_proto as proto;
pub use route_verify as verify;

pub use mighty::{
    ConfigError, EngineConfig, FallbackChain, JobDone, JobSpec, MightyRouter, ObserveMode,
    RetryPolicy, RouteEngine, RouteService, RouterConfig, RouterConfigBuilder, RunJournal,
    ServeJournal, ServiceConfig, ServiceConfigBuilder, ServiceReply, ServiceStats, SubmitError,
    Supervisor,
};
pub use route_analyze::{Diagnostic, InfeasibilityCertificate, Severity};
pub use route_maze::{BucketFrontier, Frontier, FrontierKind, HeapFrontier, SearchArena};
pub use route_model::{
    DetailedRouter, EventLog, MetricsRecorder, NopObserver, OccupancyView, RouteError, RouteEvent,
    RouteObserver, RouteResult, RouterStats, Routing, SlotIndex,
};
pub use route_proto::{Json, RouteOutcomeReport, PROTO_VERSION};
