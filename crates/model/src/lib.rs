//! Routing problem model shared by every router in the workspace.
//!
//! The model follows the general detailed-routing formulation: a routing
//! problem is an occupancy **grid** of `width x height` cells with two
//! metal layers, an optional rectilinear **region** restricting the usable
//! area, arbitrary **obstacles**, and a list of **nets**, each with one or
//! more **pins** placed on the boundary or anywhere inside the region.
//!
//! Routers consume a [`Problem`] and produce a [`RouteDb`] — a live
//! occupancy grid plus the per-net wiring ([`Trace`]s) that has been
//! committed so far. The database supports incremental edits (commit a
//! path, rip up a trace), which is exactly what a rip-up/reroute router
//! needs, and what "partially routed areas" in the problem statement mean:
//! a `RouteDb` with some nets pre-wired is itself a valid router input.
//!
//! # Examples
//!
//! ```
//! use route_model::{ProblemBuilder, PinSide, RouteDb};
//!
//! let mut b = ProblemBuilder::switchbox(6, 4);
//! b.net("clk").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 2);
//! let problem = b.build()?;
//! let db = RouteDb::new(&problem);
//! assert_eq!(db.grid().width(), 6);
//! # Ok::<(), route_model::ProblemError>(())
//! ```

#![warn(missing_docs)]

mod api;
mod grid;
mod metrics;
mod net;
mod observe;
mod problem;
mod render;
mod route;
mod spatial;
mod stats;
mod svg;
mod tiles;

pub use api::{DetailedRouter, RouteError, RouteResult, Routing};
pub use grid::{Cell, Grid, OccupancyView, Occupant};
pub use metrics::{Histogram, MetricsRecorder, HISTOGRAM_BUCKETS};
pub use net::{Net, NetId, Pin, PinSide};
pub use observe::{
    EventLog, EventSink, NopObserver, RouteEvent, RouteObserver, SearchKind, SearchProbe,
};
pub use problem::{NetBuilder, Problem, ProblemBuilder, ProblemError};
pub use render::render_layers;
pub use route::{RouteDb, Step, Trace, TraceError, TraceId};
pub use spatial::SlotIndex;
pub use stats::{RouteStats, RouterStats};
pub use svg::render_svg;
pub use tiles::{TileEdge, TileGrid, TileId};
