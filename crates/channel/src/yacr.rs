//! A YACR-II-style channel router: track assignment plus maze patch-up.
//!
//! YACR-II (Reed, Sangiovanni-Vincentelli, Santomauro 1985) assigns each
//! net a horizontal track while *ignoring* most vertical constraints,
//! then repairs the resulting vertical conflicts with increasingly
//! powerful maze routines. This implementation follows that architecture
//! with the workspace's shared grid substrate:
//!
//! 1. nets are packed into `tracks` tracks by the left-edge rule,
//!    choosing among free tracks the one closest to each net's vertical
//!    "pull" (where its pins predominantly are);
//! 2. the track spines are committed to a grid and every pin is attached
//!    with the weighted A* of [`route_maze`], which doglegs around
//!    vertical conflicts using whatever space exists;
//! 3. if some pin cannot be attached, the track count is increased and
//!    the process repeats.
//!
//! The result is always verified geometry; track counts land at density
//! or slightly above, matching the published router's behaviour.

use std::collections::BTreeMap;

use route_geom::{Layer, Point};
use route_maze::sequential::connect_net;
use route_maze::{CostModel, SearchArena};
use route_model::{NopObserver, Problem, RouteDb, Step, Trace};

use crate::{ChannelSpec, RouteError};

/// A YACR-style solution: the realized grid routing itself.
#[derive(Debug, Clone)]
pub struct YacrSolution {
    /// Number of tracks used.
    pub tracks: usize,
    /// Track index (0 = top) per net number.
    pub track_of: BTreeMap<u32, usize>,
    /// The grid problem the channel was realized as.
    pub problem: Problem,
    /// The committed routing.
    pub db: RouteDb,
}

/// Routes `spec`, growing the track count from the density lower bound
/// until the maze patch-up completes, up to `density + max_extra` tracks.
///
/// # Errors
///
/// Returns [`RouteError::BudgetExhausted`] if no track count within the
/// budget routes the channel.
pub fn route(spec: &ChannelSpec, max_extra: u32) -> Result<YacrSolution, RouteError> {
    let density = spec.density().max(1);
    for extra in 0..=max_extra {
        let tracks = (density + extra) as usize;
        if let Some(solution) = attempt(spec, tracks) {
            return Ok(solution);
        }
    }
    Err(RouteError::BudgetExhausted { tracks: (density + max_extra) as usize })
}

/// One attempt at a fixed track count.
fn attempt(spec: &ChannelSpec, tracks: usize) -> Option<YacrSolution> {
    let track_of = assign_tracks(spec, tracks)?;
    let track_row = |t: usize| -> i32 { (tracks - t) as i32 };
    let ids = spec.net_ids();
    let problem = spec.to_problem(tracks);
    let mut db = RouteDb::new(&problem);

    // Commit the track spines.
    for &net in &ids {
        let (x0, x1) = spec.span(net).expect("net from spec");
        let y = track_row(track_of[&net]);
        let steps: Vec<Step> =
            (x0..=x1).map(|x| Step::new(Point::new(x as i32, y), Layer::M1)).collect();
        let nid = problem.net_by_name(&net.to_string()).expect("net exists").id;
        db.commit(nid, Trace::from_steps(steps).expect("row contiguous")).ok()?;
    }

    // Attach every pin to its net's spine with the maze, sweeping the
    // pins in column order (YACR's column discipline). Wrong-way moves
    // are priced high so vertical wiring stays in its own column: a
    // cheap horizontal jog on M2 tends to wall in a neighbouring
    // column's pins.
    let strict = CostModel { step: 1, via: 2, wrong_way: 4 };
    let relaxed = CostModel::default();
    let mut arena = SearchArena::new();
    let mut connect = |db: &mut RouteDb, nid, cost, seed| {
        connect_net(&mut arena, db, nid, cost, seed, &mut NopObserver).is_ok()
    };
    for &net in &ids {
        let nid = problem.net_by_name(&net.to_string()).expect("net exists").id;
        let spine_y = track_row(track_of[&net]);
        let (x0, x1) = spec.span(net).expect("net from spec");
        let seed: Vec<Step> =
            (x0..=x1).map(|x| Step::new(Point::new(x as i32, spine_y), Layer::M1)).collect();
        // Second chance with the relaxed cost model: the remaining pins
        // may need a wrong-way wander the strict discipline would never
        // take (YACR's maze2/maze3 escalation).
        if !connect(&mut db, nid, strict, seed.clone()) && !connect(&mut db, nid, relaxed, seed) {
            return None;
        }
    }
    Some(YacrSolution { tracks, track_of, problem, db })
}

/// Left-edge packing into exactly `tracks` tracks. Tracks are chosen to
/// minimise **vertical constraint violations** first (the heart of
/// YACR's assignment phase) and distance to the net's pull second.
fn assign_tracks(spec: &ChannelSpec, tracks: usize) -> Option<BTreeMap<u32, usize>> {
    let mut items: Vec<(u32, usize, usize)> = spec
        .net_ids()
        .into_iter()
        .map(|n| {
            let (l, r) = spec.span(n).expect("net from spec");
            (n, l, r)
        })
        .collect();
    items.sort_by_key(|&(n, l, r)| (l, r, n));

    // Rightmost occupied column per track.
    let mut last_end: Vec<Option<usize>> = vec![None; tracks];
    let mut assignment: BTreeMap<u32, usize> = BTreeMap::new();
    for &(net, x0, x1) in &items {
        // Violations a candidate track would create against the nets
        // already assigned: in every column, the top pin's net must sit
        // strictly above the bottom pin's net.
        let violations = |t: usize| -> usize {
            let mut count = 0;
            for c in 0..spec.width() {
                let (top, bottom) = (spec.top(c), spec.bottom(c));
                if top == net && bottom != 0 && bottom != net {
                    if let Some(&bt) = assignment.get(&bottom) {
                        // Track 0 is the topmost row.
                        if t >= bt {
                            count += 1;
                        }
                    }
                }
                if bottom == net && top != 0 && top != net {
                    if let Some(&tt) = assignment.get(&top) {
                        if tt >= t {
                            count += 1;
                        }
                    }
                }
            }
            count
        };
        // Pull: fraction of top pins decides the preferred track index.
        let cols = spec.pin_columns(net);
        let top_pins = cols.iter().filter(|&&c| spec.top(c) == net).count();
        let bottom_pins = cols.iter().filter(|&&c| spec.bottom(c) == net).count();
        let prefer: f64 = if top_pins + bottom_pins == 0 {
            (tracks as f64 - 1.0) / 2.0
        } else {
            (bottom_pins as f64 / (top_pins + bottom_pins) as f64) * (tracks as f64 - 1.0)
        };
        let candidate =
            (0..tracks).filter(|&t| last_end[t].is_none_or(|e| x0 > e)).min_by(|&a, &b| {
                let va = violations(a);
                let vb = violations(b);
                let da = (a as f64 - prefer).abs();
                let dbv = (b as f64 - prefer).abs();
                va.cmp(&vb).then(da.partial_cmp(&dbv).expect("finite distances"))
            })?;
        last_end[candidate] = Some(x1);
        assignment.insert(net, candidate);
    }
    Some(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_verify::verify;

    fn check(spec: &ChannelSpec, max_extra: u32) -> YacrSolution {
        let sol = route(spec, max_extra).expect("yacr completes");
        let report = verify(&sol.problem, &sol.db);
        assert!(report.is_clean(), "verification failed:\n{report}");
        sol
    }

    #[test]
    fn routes_simple_channel_at_density() {
        let spec = ChannelSpec::new(vec![1, 0, 2, 0], vec![0, 1, 0, 2]).unwrap();
        let sol = check(&spec, 3);
        assert_eq!(sol.tracks as u32, spec.density());
    }

    #[test]
    fn routes_cyclic_channel_with_doglegs() {
        // The 2-net cycle that defeats LEA and dogleg: YACR's maze
        // patch-up routes it with at most one extra track.
        let spec = ChannelSpec::new(vec![1, 2, 0], vec![2, 1, 0]).unwrap();
        let sol = check(&spec, 4);
        assert!(sol.tracks as u32 <= spec.density() + 2);
    }

    #[test]
    fn routes_multi_pin_channel() {
        let spec =
            ChannelSpec::new(vec![1, 2, 1, 0, 2, 3, 0, 3], vec![0, 1, 2, 1, 3, 0, 2, 0]).unwrap();
        let sol = check(&spec, 4);
        assert!(sol.tracks as u32 >= spec.density());
    }

    #[test]
    fn budget_exhaustion_reported() {
        // An impossible budget: zero extra tracks for a cyclic channel
        // that needs detour space.
        let spec = ChannelSpec::new(vec![1, 2], vec![2, 1]).unwrap();
        let result = route(&spec, 0);
        // Either it routes at density (fine) or reports exhaustion;
        // it must not panic or produce illegal geometry.
        if let Ok(sol) = result {
            assert!(verify(&sol.problem, &sol.db).is_clean());
        }
    }

    #[test]
    fn track_assignment_respects_capacity() {
        let spec = ChannelSpec::new(vec![1, 2, 0], vec![0, 1, 2]).unwrap();
        // Density 2; packing into 1 track must fail.
        assert!(assign_tracks(&spec, 1).is_none());
        assert!(assign_tracks(&spec, 2).is_some());
    }
}
