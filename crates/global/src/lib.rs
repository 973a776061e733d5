//! Hierarchical route planner: global routing over a capacitated tile
//! graph, detailed routing per tile.
//!
//! Flat detailed routing explores the whole grid per connection; on
//! chip-scale floorplans that is wasteful and, historically, impossible
//! — the macro-cell flows of the era planned nets over a coarse tile
//! (global-cell) grid first and handed each tile's crossing points to a
//! detailed router. This crate reproduces that pipeline on top of the
//! workspace's substrates:
//!
//! 1. **Tiling** ([`TileGrid`]): the floorplan is cut into tiles; each
//!    pair of adjacent tiles gets an edge whose *capacity* is the number
//!    of unblocked boundary cells between them.
//! 2. **Planning** ([`plan`]): each net is routed over the tile graph
//!    with congestion-aware Dijkstra (cost grows as an edge fills;
//!    full edges are impassable), producing a tree of tiles per net.
//! 3. **Crossing assignment**: every tile-edge crossing is pinned to a
//!    concrete boundary cell (horizontal crossings on M1, vertical on
//!    M2), nets spread across the edge in order of their destinations.
//! 4. **Detailed routing** ([`route_hierarchical`]): each tile becomes a
//!    sub-problem — real pins inside plus crossing pins on the boundary
//!    — routed concurrently on the ordered worker pool
//!    (`mighty::map_ordered`: input-order-deterministic merge), each
//!    tile under a `mighty::Supervisor` (panic isolation, optional
//!    retry, fallback and salvage); the resulting traces are translated
//!    back and committed into one global database.
//! 5. **Seam repair**: for each tile boundary, in edge order, whose
//!    crossing nets are still disconnected after paste-back, those nets
//!    are ripped wholesale and the whole die is rerouted incrementally
//!    by the rip-up router — the "partially routed area" mode — which
//!    queues every net still incomplete anywhere on the die.
//! 6. **Fallback**: nets that remain incomplete are re-attempted flat
//!    on the full grid with the incremental router, and wiring left in
//!    components that touch no pin is pruned.
//!
//! The final database verifies through `route-verify` like any flat
//! result: a routed crossing needs no seam wiring because crossing
//! cells of adjacent tiles are grid-adjacent on the same layer — seam
//! repair exists for the crossings some tile *failed* to reach.
//!
//! # Examples
//!
//! ```
//! use route_benchdata::gen::SwitchboxGen;
//! use route_global::{route_hierarchical, GlobalConfig};
//! use route_verify::verify;
//!
//! let problem = SwitchboxGen { width: 32, height: 32, nets: 12, seed: 5 }.build();
//! let outcome = route_hierarchical(&problem, &GlobalConfig::default());
//! let report = verify(&problem, outcome.db());
//! assert!(report.is_clean() || report.is_legal_but_incomplete());
//! ```

#![warn(missing_docs)]

mod detail;
mod plan;

pub use detail::{
    route_hierarchical, route_hierarchical_observed, route_hierarchical_supervised, ChipStats,
    GlobalOutcome, GlobalStats,
};
pub use plan::{plan, plan_with, GlobalPlan, PlanOrder};
pub use route_model::{TileEdge, TileGrid, TileId};

use mighty::{FaultPlan, RouterConfig};

/// Configuration of the hierarchical pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalConfig {
    /// Tile side length in grid cells (the last row/column of tiles may
    /// be smaller).
    pub tile: u32,
    /// Detailed-router configuration used inside every tile (and for the
    /// flat fallback).
    pub router: RouterConfig,
    /// Re-attempt nets that failed inside a tile flat on the full grid.
    pub fallback: bool,
    /// Worker threads for the tile batch (`0` = one per hardware
    /// thread, `1` = serial). Tiles are disjoint and results are pasted
    /// in tile order regardless of completion order, so the routed
    /// database is byte-identical at any job count.
    pub jobs: usize,
    /// Run the chip-scale analysis (`route_analyze::analyze_chip`)
    /// before planning: nets certified unroutable (F006) are dropped up
    /// front — their pins stay as blockers, no crossings are assigned,
    /// and the flat fallback does not retry them — with the certificate
    /// and net counts recorded in [`ChipStats`]. Off by default; with
    /// it off the pipeline is byte-identical to earlier releases.
    pub analyze: bool,
    /// Net-ordering policy for the planning phase. The default
    /// ([`PlanOrder::Bbox`]) preserves historical byte-identity;
    /// [`PlanOrder::Features`] orders by the static congestion
    /// estimate. Either way the result is `jobs`-independent.
    pub order: PlanOrder,
    /// Repair each seam whose crossing nets are still incomplete after
    /// the tile stage: rip those nets and reroute the whole die
    /// incrementally, before (or instead of) the flat fallback.
    pub stitch: bool,
}

impl Default for GlobalConfig {
    fn default() -> Self {
        GlobalConfig {
            tile: 16,
            router: RouterConfig::default(),
            fallback: true,
            jobs: 0,
            analyze: false,
            order: PlanOrder::Bbox,
            stitch: true,
        }
    }
}

/// Per-tile supervision knobs for
/// [`route_hierarchical_supervised`]: how hard each tile fights before
/// salvaging, and which faults (if any) are injected for testing.
///
/// The supervised result is deterministic at any
/// [`GlobalConfig::jobs`] value: retry perturbations are seeded
/// `seed ^ tile`, so every tile's recovery chain is a pure function of
/// the problem and this configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipSupervision {
    /// Re-attempts per tile after its first run, under escalated
    /// budgets and a perturbed net order (`mighty::RetryPolicy`).
    pub retries: u32,
    /// Hand exhausted tiles to the sequential Lee baseline
    /// (`mighty::FallbackChain::lee`) before salvaging.
    pub fallback: bool,
    /// Base seed of the per-tile retry perturbation (each tile uses
    /// `seed ^ tile`).
    pub seed: u64,
    /// Fault-injection plan for tiles (`tile:`-targeted or bare specs)
    /// and seam repairs (`@seam` specs); see `mighty::FaultPlan`.
    pub fault: Option<FaultPlan>,
}

impl Default for ChipSupervision {
    fn default() -> Self {
        ChipSupervision { retries: 1, fallback: true, seed: 0, fault: None }
    }
}

impl ChipSupervision {
    /// Supervision with every recovery mechanism off: one attempt per
    /// tile, no fallback, no faults. [`route_hierarchical`] and
    /// [`route_hierarchical_observed`] run the tile stage under it; a
    /// tile left incomplete still counts as salvaged
    /// ([`ChipStats::tiles_salvaged`]).
    pub fn none() -> Self {
        ChipSupervision { retries: 0, fallback: false, seed: 0, fault: None }
    }
}
