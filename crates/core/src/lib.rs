//! Incremental rip-up/reroute detailed router with weak and strong
//! modification.
//!
//! This crate is the workspace's primary contribution: a general
//! two-layer detailed router for switchboxes, channels, and irregular
//! partially-routed regions. It routes nets **incrementally** — one
//! pin-to-component connection at a time — and, unlike the sequential
//! baseline, it is allowed to *modify* wiring committed earlier:
//!
//! * When a connection finds no free path, an **interference search**
//!   finds the cheapest path that crosses other nets' wiring, paying an
//!   escalating penalty per crossed slot.
//! * **Weak modification** then tries to push the blocking wiring aside:
//!   the crossed traces are lifted, the new connection committed, and
//!   each victim is immediately re-routed around it with a plain search.
//!   If every victim re-routes, nothing was ripped from the queue's
//!   point of view — wiring just moved.
//! * **Strong modification** (rip-up and re-route proper) handles the
//!   victims that could not be locally repaired: their connection goes
//!   back on the work queue and their crossing penalty grows, so the
//!   same wiring cannot be ripped indefinitely.
//!
//! Termination is guaranteed by two mechanisms mirroring the published
//! argument: the per-net crossing penalty grows geometrically with its
//! rip count (so every net is eventually cheaper to detour around than to
//! rip), and a per-net attempt budget bounds the total number of queue
//! events; see [`RouterConfig`].
//!
//! # Examples
//!
//! ```
//! use route_model::{ProblemBuilder, PinSide};
//! use mighty::{MightyRouter, RouterConfig};
//! use route_verify::verify;
//!
//! let mut b = ProblemBuilder::switchbox(8, 8);
//! b.net("a").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 5);
//! b.net("b").pin_side(PinSide::Bottom, 2).pin_side(PinSide::Top, 6);
//! let problem = b.build()?;
//!
//! let outcome = MightyRouter::new(RouterConfig::default()).route(&problem);
//! assert!(outcome.is_complete());
//! assert!(verify(&problem, outcome.db()).is_clean());
//! # Ok::<(), route_model::ProblemError>(())
//! ```

#![warn(missing_docs)]

mod config;
pub mod engine;
pub mod journal;
pub mod recover;
mod router;
pub mod serve;

pub use config::{ConfigError, NetOrder, PenaltyGrowth, RouterConfig, RouterConfigBuilder};
pub use engine::{
    map_ordered, BatchObservation, BatchOutcome, EngineConfig, EngineStats, ObserveMode,
    RouteEngine, MAX_JOBS,
};
pub use journal::{
    ChipJournal, ChipTileRecord, JournalEntry, PendingRequest, RunJournal, ServeJournal,
};
pub use recover::{
    guarded, EngineFault, FallbackChain, FaultPlan, FaultSite, InstanceStatus, RecoveryPath,
    RetryPolicy, SalvageInfo, SupervisedOutcome, Supervisor,
};
/// Work-accounting counters, re-exported from [`route_model`] — the
/// router fills them and the engine/bench tables consume them.
pub use route_model::RouterStats;
pub use router::{MightyRouter, RouteOutcome};
pub use serve::{
    JobDone, JobSpec, RouteService, ServiceConfig, ServiceConfigBuilder, ServiceReply,
    ServiceStats, SubmitError,
};
