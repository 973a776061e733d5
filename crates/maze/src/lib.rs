//! Maze-routing substrate: grid path search for detailed routers.
//!
//! Two search modes are provided over the multi-layer occupancy grid of
//! [`route_model`]:
//!
//! * [`search::find_path`] — classic **hard** search: the path may only use
//!   cells that are free or already owned by the routed net. With unit
//!   costs this is Lee's wavefront algorithm; with the weighted
//!   [`CostModel`] it is A* with via and wrong-way penalties.
//! * [`search::find_path_soft`] — **interference** search: cells occupied
//!   by *other* nets may be crossed at a caller-supplied penalty. The
//!   result reports exactly which foreign slots the path runs over, which
//!   is the information a rip-up/reroute router needs to decide what to
//!   push aside (weak modification) or rip up (strong modification).
//!
//! Each is one call. It runs in the caller's [`SearchArena`] (reused
//! scratch buffers and the open list), reports itself to the caller's
//! [`RouteObserver`](route_model::RouteObserver), and returns its effort
//! counters whether or not a path was found. A fresh arena and a
//! [`NopObserver`](route_model::NopObserver) give the plain search.
//!
//! The [`sequential`] module builds a complete baseline router out of the
//! hard search: nets are routed one at a time in a fixed order with no
//! modification of earlier nets — the classic sequential Lee router whose
//! failure on congested switchboxes motivates rip-up and reroute. Its
//! [`sequential::connect_net`] is the pin-attachment step other flows
//! reuse.
//!
//! # Examples
//!
//! ```
//! use route_model::{NopObserver, ProblemBuilder, PinSide};
//! use route_maze::{sequential, CostModel, SearchArena};
//! use route_verify::verify;
//!
//! let mut b = ProblemBuilder::switchbox(8, 8);
//! b.net("a").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 5);
//! b.net("b").pin_side(PinSide::Bottom, 2).pin_side(PinSide::Top, 6);
//! let problem = b.build()?;
//!
//! let mut arena = SearchArena::new();
//! let outcome =
//!     sequential::route_all(&mut arena, &problem, CostModel::default(), &mut NopObserver);
//! assert!(outcome.failed.is_empty());
//! assert!(verify(&problem, &outcome.db).is_clean());
//! # Ok::<(), route_model::ProblemError>(())
//! ```

#![warn(missing_docs)]

mod cost;
pub mod frontier;
pub mod search;
pub mod sequential;

pub use cost::CostModel;
pub use frontier::{BucketFrontier, Frontier, FrontierKind, HeapFrontier, BUCKET_SPAN};
pub use search::{FoundPath, SearchArena, SearchStats};
pub use sequential::{LeeRouter, SequentialOutcome};
